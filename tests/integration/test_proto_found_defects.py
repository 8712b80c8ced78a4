"""Regressions for the true positives the proto checks found in its first
whole-tree run.  Each test pins the *fix* (a real state-machine repair,
never a suppression):

* ``KVEngine.set_vbucket_state`` / ``drop_vbucket`` -- reusing a DEAD
  vBucket id resurrected the dead copy's persisted documents (and its
  lineage), because ``VBucketStore`` deliberately recovers whatever the
  file holds.  DEAD->anything is not a declared VBucketState transition;
  reuse now means a brand-new copy on destroyed disk.
* ``CircuitBreaker.record_success`` -- a stale success reported while
  OPEN closed the breaker mid-cooldown.  OPEN->CLOSED is not a declared
  transition; only a HALF_OPEN probe outcome may close.
* ``DcpStream`` -- CLOSED is terminal: a closed stream must never hand
  out more messages, however many mutations arrive afterwards.
* ``XdcrReplication`` -- FAILED is a one-way door: a slot whose push
  failed is retired and replaced by a *fresh* stream from seqno 0, never
  resumed in place.
"""

import pytest

from repro import Cluster
from repro.admission.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.common.clock import VirtualClock
from repro.common.errors import KeyNotFoundError
from repro.common.scheduler import Scheduler
from repro.dcp.producer import DcpProducer, DcpStreamState
from repro.kv.engine import KVEngine
from repro.kv.types import VBucketState
from repro.xdcr import XdcrReplication, settle
from repro.xdcr.replicator import XdcrStreamState


class TestDeadVBucketNeverResurrects:
    """VBucketState declares no transition out of DEAD."""

    def test_reusing_a_dead_id_starts_from_empty_disk(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(0, VBucketState.ACTIVE)
        engine.upsert(0, "k", {"v": 1})
        while engine.flush():
            pass
        old_uuid = engine.vbuckets[0].uuid
        assert engine.vbuckets[0].store.doc_count == 1

        engine.set_vbucket_state(0, VBucketState.DEAD)
        engine.set_vbucket_state(0, VBucketState.ACTIVE)

        vb = engine.vbuckets[0]
        assert vb.state is VBucketState.ACTIVE
        assert vb.store.doc_count == 0
        assert vb.store.update_seq == 0
        assert vb.high_seqno == 0
        # A fresh copy starts a fresh history branch, not the dead one's.
        assert vb.uuid != old_uuid
        with pytest.raises(KeyNotFoundError):
            engine.get(0, "k")

    def test_dropping_a_dead_copy_destroys_its_file(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(3, VBucketState.ACTIVE)
        engine.upsert(3, "k", {"v": 1})
        while engine.flush():
            pass
        engine.set_vbucket_state(3, VBucketState.DEAD)
        engine.drop_vbucket(3)
        # The id comes back later (rebalance moving the vBucket back in):
        # recovery must find nothing.
        vb = engine.create_vbucket(3, VBucketState.REPLICA)
        assert vb.store.doc_count == 0
        assert vb.high_seqno == 0

    def test_rebalance_roundtrip_does_not_revive_deleted_docs(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        for i in range(20):
            client.upsert("b", f"k{i}", {"v": 1})
        cluster.run_until_idle()

        cluster.add_node("node3", services=("data",))
        cluster.rebalance()
        for i in range(10):
            client.remove("b", f"k{i}")
        cluster.run_until_idle()

        # Moving the vBuckets back recreates ids whose old (now DEAD and
        # dropped) copies persisted the deleted docs.
        cluster.remove_node("node3")
        cluster.run_until_idle()

        for i in range(10):
            with pytest.raises(KeyNotFoundError):
                client.get("b", f"k{i}")
        for i in range(10, 20):
            assert client.get("b", f"k{i}").value == {"v": 1}


class TestBreakerIgnoresStaleSuccessWhileOpen:
    """CircuitBreaker declares no OPEN->CLOSED transition."""

    def make_breaker(self):
        scheduler = Scheduler(VirtualClock())
        return CircuitBreaker("n1", scheduler, threshold=2, jitter=0.0)

    def test_success_while_open_does_not_close(self):
        breaker = self.make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        # A call that was in flight when the breaker tripped reports
        # back; it says nothing about recovery.
        breaker.record_success()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.remaining() > 0.0

    def test_only_a_half_open_probe_success_closes(self):
        breaker = self.make_breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.clock.advance(breaker.remaining() + 0.001)
        assert breaker.allow()  # clock-driven OPEN -> HALF_OPEN
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()


class TestClosedDcpStreamNeverResumes:
    """DcpStreamState declares no transition out of CLOSED."""

    def test_stream_end_is_terminal(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(0, VBucketState.ACTIVE)
        for i in range(5):
            engine.upsert(0, f"k{i}", {"i": i})
        producer = DcpProducer(engine)
        stream = producer.stream_request(0, end_seqno=5)
        while not stream.closed:
            if not stream.take():
                break
        assert stream.closed
        assert stream.phase is DcpStreamState.CLOSED

        # New mutations after the end must not leak out of the corpse.
        for i in range(5, 10):
            engine.upsert(0, f"k{i}", {"i": i})
        assert stream.take() == []
        assert stream.phase is DcpStreamState.CLOSED

    def test_explicit_close_is_terminal(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(0, VBucketState.ACTIVE)
        engine.upsert(0, "k", {"v": 1})
        producer = DcpProducer(engine)
        stream = producer.stream_request(0)
        stream.close()
        engine.upsert(0, "k2", {"v": 2})
        assert stream.take() == []
        assert stream.closed


class TestXdcrFailedSlotIsReplacedFresh:
    """XdcrStreamState: FAILED -> CLOSED only; delivery failure retires
    the slot and a brand-new stream replays from seqno 0."""

    def make_pair(self):
        east = Cluster(nodes=1, vbuckets=8)
        east.create_bucket("b", replicas=0)
        west = Cluster(nodes=1, vbuckets=8)
        west.create_bucket("b", replicas=0)
        return east, west

    def test_failed_slots_are_retired_not_resumed(self):
        east, west = self.make_pair()
        repl = XdcrReplication(east, west, "b")
        ce = east.connect()
        ce.upsert("b", "before", {"v": 1})
        settle(east, west)

        west.crash_node("node1")
        for i in range(5):
            ce.upsert("b", f"during{i}", {"i": i})
        settle(east, west)

        assert repl.metrics.counter_value("xdcr.stream_failed") >= 1
        # Every retired slot was closed; none lingers in FAILED.
        assert all(slot.state is XdcrStreamState.STREAMING
                   for slot in repl._streams.values())
        closed = repl.metrics.counter_value("xdcr.stream_closed")
        assert closed >= repl.metrics.counter_value("xdcr.stream_failed")

        west.restart_node("node1")
        settle(east, west)
        cw = west.connect()
        for i in range(5):
            assert cw.get("b", f"during{i}").value == {"i": i}
        assert cw.get("b", "before").value == {"v": 1}
        # The replacement streams were fresh opens, not resumptions.
        assert repl.metrics.counter_value("xdcr.stream_opened") > closed
