"""Tests for the KV engine: memory-first writes, CAS, locks, expiry,
asynchronous persistence, eviction, and vBucket state handling."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import (
    CasMismatchError,
    DocumentLockedError,
    KeyExistsError,
    KeyNotFoundError,
    NotMyVBucketError,
    TemporaryFailureError,
    ValueTooLargeError,
)
from repro.dcp.messages import Deletion, Mutation
from repro.dcp.producer import DcpProducer
from repro.kv.engine import KVEngine, VBucketState
from tests.kv.support import drain_flusher

VB = 0


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def engine(clock):
    eng = KVEngine("node1", "default", clock=clock)
    eng.create_vbucket(VB)
    return eng


class TestBasicOps:
    def test_upsert_and_get(self, engine):
        result = engine.upsert(VB, "k", {"a": 1})
        doc = engine.get(VB, "k")
        assert doc.value == {"a": 1}
        assert doc.meta.cas == result.cas
        assert result.seqno == 1

    def test_get_missing(self, engine):
        with pytest.raises(KeyNotFoundError):
            engine.get(VB, "ghost")

    def test_upsert_replaces_and_bumps_everything(self, engine):
        first = engine.upsert(VB, "k", 1)
        second = engine.upsert(VB, "k", 2)
        assert second.cas > first.cas
        assert second.seqno == first.seqno + 1
        doc = engine.get(VB, "k")
        assert doc.value == 2
        assert doc.meta.rev == 2

    def test_insert_fails_on_existing(self, engine):
        engine.insert(VB, "k", 1)
        with pytest.raises(KeyExistsError):
            engine.insert(VB, "k", 2)

    def test_insert_after_delete_ok(self, engine):
        engine.insert(VB, "k", 1)
        engine.delete(VB, "k")
        result = engine.insert(VB, "k", 2)
        assert engine.get(VB, "k").value == 2
        # Revision history continues across the tombstone (XDCR counts
        # total updates).
        assert engine.get(VB, "k").meta.rev == 3
        assert result.seqno == 3

    def test_replace_requires_existing(self, engine):
        with pytest.raises(KeyNotFoundError):
            engine.replace(VB, "k", 1)
        engine.upsert(VB, "k", 1)
        engine.replace(VB, "k", 2)
        assert engine.get(VB, "k").value == 2

    def test_delete(self, engine):
        engine.upsert(VB, "k", 1)
        engine.delete(VB, "k")
        with pytest.raises(KeyNotFoundError):
            engine.get(VB, "k")

    def test_delete_missing(self, engine):
        with pytest.raises(KeyNotFoundError):
            engine.delete(VB, "ghost")

    def test_value_is_copied_in_and_read_in_place(self, engine):
        value = {"nested": [1, 2]}
        engine.upsert(VB, "k", value)
        value["nested"].append(3)
        assert engine.get(VB, "k").value == {"nested": [1, 2]}
        # A read hands out the stored document itself: a service reads
        # it in place, and the smart client copies it for an application
        # (tests/integration/test_copy_boundary.py).
        assert engine.get(VB, "k") is engine.get(VB, "k")
        assert engine.multi_get([(VB, "k")]) == [("ok", engine.get(VB, "k"))]

    def test_non_json_value_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.upsert(VB, "k", object())

    def test_oversized_value_rejected(self, engine):
        engine.MAX_VALUE_SIZE = 100
        with pytest.raises(ValueTooLargeError):
            engine.upsert(VB, "k", "x" * 200)

    def test_flags_roundtrip(self, engine):
        engine.upsert(VB, "k", 1, flags=0xDEAD)
        assert engine.get(VB, "k").meta.flags == 0xDEAD


class TestCas:
    def test_cas_zero_means_unconditional(self, engine):
        engine.upsert(VB, "k", 1)
        engine.upsert(VB, "k", 2, cas=0)
        assert engine.get(VB, "k").value == 2

    def test_matching_cas_succeeds(self, engine):
        result = engine.upsert(VB, "k", 1)
        engine.upsert(VB, "k", 2, cas=result.cas)
        assert engine.get(VB, "k").value == 2

    def test_stale_cas_fails(self, engine):
        """The paper's optimistic-locking walkthrough (section 3.1.1)."""
        original = engine.upsert(VB, "k", {"v": 1})
        engine.upsert(VB, "k", {"v": 2})  # concurrent writer wins
        with pytest.raises(CasMismatchError):
            engine.upsert(VB, "k", {"v": 3}, cas=original.cas)
        # Re-read and retry, as the paper prescribes.
        fresh = engine.get(VB, "k")
        engine.upsert(VB, "k", {"v": 3}, cas=fresh.meta.cas)
        assert engine.get(VB, "k").value == {"v": 3}

    def test_cas_on_delete(self, engine):
        result = engine.upsert(VB, "k", 1)
        engine.upsert(VB, "k", 2)
        with pytest.raises(CasMismatchError):
            engine.delete(VB, "k", cas=result.cas)

    def test_cas_strictly_increases(self, engine):
        previous = 0
        for i in range(50):
            result = engine.upsert(VB, f"k{i}", i)
            assert result.cas > previous
            previous = result.cas


class TestLocks:
    def test_lock_blocks_other_writers(self, engine, clock):
        engine.upsert(VB, "k", 1)
        engine.get_and_lock(VB, "k")
        with pytest.raises(DocumentLockedError):
            engine.upsert(VB, "k", 2)

    def test_lock_holder_writes_with_lock_cas(self, engine):
        engine.upsert(VB, "k", 1)
        locked = engine.get_and_lock(VB, "k")
        engine.upsert(VB, "k", 2, cas=locked.meta.cas)
        assert engine.get(VB, "k").value == 2

    def test_mutation_releases_lock(self, engine):
        engine.upsert(VB, "k", 1)
        locked = engine.get_and_lock(VB, "k")
        engine.upsert(VB, "k", 2, cas=locked.meta.cas)
        engine.upsert(VB, "k", 3)  # no lock anymore
        assert engine.get(VB, "k").value == 3

    def test_lock_times_out(self, engine, clock):
        """Locks auto-release to avoid deadlocks (section 3.1.1)."""
        engine.upsert(VB, "k", 1)
        engine.get_and_lock(VB, "k", lock_time=5.0)
        clock.advance(6.0)
        engine.upsert(VB, "k", 2)
        assert engine.get(VB, "k").value == 2

    def test_double_lock_fails(self, engine):
        engine.upsert(VB, "k", 1)
        engine.get_and_lock(VB, "k")
        with pytest.raises(DocumentLockedError):
            engine.get_and_lock(VB, "k")

    def test_unlock(self, engine):
        engine.upsert(VB, "k", 1)
        locked = engine.get_and_lock(VB, "k")
        engine.unlock(VB, "k", locked.meta.cas)
        engine.upsert(VB, "k", 2)

    def test_unlock_wrong_cas(self, engine):
        engine.upsert(VB, "k", 1)
        engine.get_and_lock(VB, "k")
        with pytest.raises(DocumentLockedError):
            engine.unlock(VB, "k", 999999)

    def test_unlock_unlocked_key(self, engine):
        engine.upsert(VB, "k", 1)
        with pytest.raises(TemporaryFailureError):
            engine.unlock(VB, "k", 1)

    def test_lock_missing_key(self, engine):
        with pytest.raises(KeyNotFoundError):
            engine.get_and_lock(VB, "ghost")


class TestExpiry:
    def test_expired_doc_is_gone(self, engine, clock):
        engine.upsert(VB, "k", 1, expiry=10.0)
        clock.advance(11.0)
        with pytest.raises(KeyNotFoundError):
            engine.get(VB, "k")

    def test_not_yet_expired(self, engine, clock):
        engine.upsert(VB, "k", 1, expiry=10.0)
        clock.advance(5.0)
        assert engine.get(VB, "k").value == 1

    def test_expiry_generates_delete_mutation(self, engine, clock):
        engine.upsert(VB, "k", 1, expiry=10.0)
        clock.advance(11.0)
        with pytest.raises(KeyNotFoundError):
            engine.get(VB, "k")
        vb = engine.vbuckets[VB]
        assert vb.change_buffer[-1].meta.deleted
        assert engine.metrics.counter_value("kv.expirations") == 1

    def test_touch_extends_life(self, engine, clock):
        engine.upsert(VB, "k", 1, expiry=10.0)
        clock.advance(5.0)
        engine.touch(VB, "k", expiry=clock.now() + 100.0)
        clock.advance(50.0)
        assert engine.get(VB, "k").value == 1

    def test_zero_expiry_lives_forever(self, engine, clock):
        engine.upsert(VB, "k", 1)
        clock.advance(1e9)
        assert engine.get(VB, "k").value == 1


class TestVBucketOwnership:
    def test_non_owned_vbucket_rejected(self, engine):
        with pytest.raises(NotMyVBucketError):
            engine.get(7, "k")

    def test_replica_rejects_client_ops(self, engine):
        engine.create_vbucket(1, VBucketState.REPLICA)
        with pytest.raises(NotMyVBucketError):
            engine.upsert(1, "k", 1)
        with pytest.raises(NotMyVBucketError):
            engine.get(1, "k")

    def test_dead_vbucket_rejected(self, engine):
        engine.set_vbucket_state(VB, VBucketState.DEAD)
        with pytest.raises(NotMyVBucketError):
            engine.get(VB, "k")

    def test_promotion_appends_failover_log(self, engine):
        engine.create_vbucket(1, VBucketState.REPLICA)
        vb = engine.vbuckets[1]
        branches_before = len(vb.failover_log)
        engine.set_vbucket_state(1, VBucketState.ACTIVE)
        assert vb.state is VBucketState.ACTIVE
        assert len(vb.failover_log) == branches_before + 1

    def test_promotion_continues_cas_monotonically(self, engine):
        engine.upsert(VB, "k", 1)
        doc = engine.get(VB, "k")
        other = KVEngine("node2", "default")
        other.create_vbucket(VB, VBucketState.REPLICA)
        other.apply_replicated(VB, doc)
        other.set_vbucket_state(VB, VBucketState.ACTIVE)
        result = other.upsert(VB, "k", 2)
        assert result.cas > doc.meta.cas


class TestReplicaApply:
    def test_replica_applies_and_tracks_seqno(self, engine):
        engine.upsert(VB, "k", {"v": 1})
        doc = engine.get(VB, "k")
        replica = KVEngine("node2", "default")
        replica.create_vbucket(VB, VBucketState.REPLICA)
        replica.apply_replicated(VB, doc)
        assert replica.vbuckets[VB].high_seqno == doc.meta.seqno
        entry = replica.vbuckets[VB].hashtable.peek("k")
        assert entry.doc.value == {"v": 1}

    def test_active_rejects_replication(self, engine):
        doc = None
        engine.upsert(VB, "k", 1)
        doc = engine.get(VB, "k")
        with pytest.raises(NotMyVBucketError):
            engine.apply_replicated(VB, doc)


class TestPersistence:
    def test_writes_are_async(self, engine):
        engine.upsert(VB, "k", 1)
        assert engine.pending_writes() == 1
        assert not engine.vbuckets[VB].store.contains("k")

    def test_flush_persists(self, engine):
        """Group commit in time: a young write is held (the call still
        reports work), and call ``FLUSH_ROUNDS`` commits it."""
        engine.upsert(VB, "k", {"v": 1})
        for _ in range(engine.FLUSH_ROUNDS - 1):
            assert engine.flush()
            assert engine.pending_writes() == 1
            assert not engine.vbuckets[VB].store.contains("k")
        assert engine.flush()
        assert engine.pending_writes() == 0
        assert engine.vbuckets[VB].store.get("k").value == {"v": 1}
        assert engine.vbuckets[VB].persisted_seqno == 1

    def test_flush_idle_returns_false(self, engine):
        assert not engine.flush()

    def test_observe_persistence_transition(self, engine):
        result = engine.upsert(VB, "k", 1)
        assert not engine.observe(VB, "k").persisted
        engine.flush()
        assert not engine.observe(VB, "k").persisted  # young: held
        for _ in range(engine.FLUSH_ROUNDS - 1):
            engine.flush()
        observed = engine.observe(VB, "k")
        assert observed.persisted
        assert observed.cas == result.cas

    def test_observe_on_replica(self, engine):
        engine.upsert(VB, "k", 1)
        doc = engine.get(VB, "k")
        replica = KVEngine("node2", "default")
        replica.create_vbucket(VB, VBucketState.REPLICA)
        replica.apply_replicated(VB, doc)
        observed = replica.observe(VB, "k")
        assert observed.exists and not observed.persisted
        replica.flush()
        assert not replica.observe(VB, "k").persisted  # young: held
        for _ in range(replica.FLUSH_ROUNDS - 1):
            replica.flush()
        assert replica.observe(VB, "k").persisted

    def test_flush_batch_limit(self, engine):
        for i in range(10):
            engine.upsert(VB, f"k{i}", i)
        for _ in range(engine.FLUSH_ROUNDS - 1):  # held until due
            engine.flush(max_batch=4)
        assert engine.pending_writes() == 10
        engine.flush(max_batch=4)
        assert engine.pending_writes() == 6

    def test_shared_budget_follows_vbucket_order_not_dirty_order(self):
        """The flusher visits only dirty vBuckets, but in the order of
        ``vbuckets`` -- creation order, a dropped-and-recreated id last
        -- so a budget smaller than the backlog lands where a walk over
        every vBucket would put it.  The queues are made due first, and
        the vBuckets the budget cut short stay due."""
        engine = KVEngine("node1", "default")
        for vbucket_id in (5, 1, 7, 3):
            engine.create_vbucket(vbucket_id)
        engine.drop_vbucket(1)
        engine.create_vbucket(1)  # now last: 5, 7, 3, 1
        for vbucket_id in (1, 3, 7, 5):  # dirtied in the opposite order
            for i in range(3):
                engine.upsert(vbucket_id, f"k{vbucket_id}.{i}", i)
        for _ in range(engine.FLUSH_ROUNDS - 1):
            engine.flush()
        assert engine.pending_writes() == 12
        engine.flush(max_batch=7)
        persisted = {vbucket_id: vb.persisted_seqno
                     for vbucket_id, vb in engine.vbuckets.items()}
        assert persisted == {5: 3, 7: 3, 3: 1, 1: 0}
        assert engine.pending_writes() == 5
        engine.flush()
        assert engine.pending_writes() == 0
        assert not engine.flush()

    def test_a_durability_waiter_makes_its_vbucket_due(self, engine):
        """The call after a ``persist_to`` waiter registers syncs its
        vBucket; a young queue elsewhere stays held."""
        engine.create_vbucket(1)
        engine.upsert(1, "held", 1)
        result = engine.upsert(VB, "k", 1)
        waiter = engine.observe_wait(VB, "k", result.cas, active=True)
        assert not waiter.settled
        assert engine.flush()
        assert waiter.settled and waiter.persisted
        assert engine.vbuckets[VB].persisted_seqno == 1
        assert engine.vbuckets[1].persisted_seqno == 0
        assert engine.pending_writes() == 1

    def test_memory_pressure_commits_every_dirty_vbucket(self):
        """Above the low watermark the pager needs clean values, so one
        call commits every dirty vBucket, however young."""
        engine = KVEngine("node1", "default", quota_bytes=60_000)
        for vbucket_id in range(4):
            engine.create_vbucket(vbucket_id)
        writes = 0
        while engine.memory_used() <= 60_000 * engine.LOW_WATERMARK:
            engine.upsert(writes % 4, f"k{writes}", {"pad": "x" * 400})
            writes += 1
        assert engine.pending_writes() == writes < engine.FLUSH_BATCH
        assert engine.flush()
        assert engine.pending_writes() == 0
        assert all(vb.persisted_seqno == vb.high_seqno > 0
                   for vb in engine.vbuckets.values())

    def test_crash_recovery_to_last_flush(self, engine):
        engine.upsert(VB, "a", 1)
        drain_flusher(engine)
        engine.upsert(VB, "b", 2)  # never flushed
        engine.disk.crash()

        recovered = KVEngine("node1", "default", disk=engine.disk)
        recovered.create_vbucket(VB)
        vb = recovered.vbuckets[VB]
        assert vb.store.contains("a")
        assert not vb.store.contains("b")
        assert vb.high_seqno == 1


class TestEviction:
    def make_full_engine(self, policy="value"):
        engine = KVEngine(
            "node1", "default", quota_bytes=60_000, eviction_policy=policy,
        )
        engine.create_vbucket(VB)
        return engine

    def test_pager_ejects_clean_values(self):
        engine = self.make_full_engine()
        for i in range(100):
            engine.upsert(VB, f"k{i}", {"pad": "x" * 400})
            engine.flush()
        vb = engine.vbuckets[VB]
        assert vb.hashtable.resident_ratio() < 1.0
        assert engine.metrics.counter_value("kv.evictions") > 0

    def test_value_eviction_keeps_metadata(self):
        engine = self.make_full_engine("value")
        for i in range(100):
            engine.upsert(VB, f"k{i}", {"pad": "x" * 400})
            engine.flush()
        # Every key's metadata is still resident under value eviction.
        assert len(engine.vbuckets[VB].hashtable) == 100

    def test_full_eviction_drops_entries(self):
        engine = self.make_full_engine("full")
        for i in range(100):
            engine.upsert(VB, f"k{i}", {"pad": "x" * 400})
            engine.flush()
        assert len(engine.vbuckets[VB].hashtable) < 100

    def test_ejected_value_refetched_on_get(self):
        engine = self.make_full_engine()
        for i in range(100):
            engine.upsert(VB, f"k{i}", {"i": i, "pad": "x" * 400})
            engine.flush()
        for i in range(100):
            assert engine.get(VB, f"k{i}").value["i"] == i
        assert engine.metrics.counter_value("kv.bg_fetches") > 0

    @pytest.mark.parametrize("op", ["touch", "mutate_in", "get_and_lock"])
    def test_ops_reading_an_ejected_value_fetch_it_first(self, engine, op):
        """Each op that reads the stored value background-fetches an
        ejected one (they read the ejected ``None`` before: ``touch``
        stored null, ``mutate_in`` raised)."""
        engine.upsert(VB, "k", {"i": 1, "tags": ["a"]})
        drain_flusher(engine)
        assert engine.vbuckets[VB].hashtable.eject_value("k")
        if op == "touch":
            engine.touch(VB, "k", 0.0)
        elif op == "mutate_in":
            engine.mutate_in(VB, "k", [("array_append", "tags", "b")])
        else:
            assert engine.get_and_lock(VB, "k").value["i"] == 1
        assert engine.metrics.counter_value("kv.bg_fetches") == 1
        assert engine.get(VB, "k").value == {
            "i": 1, "tags": ["a", "b"] if op == "mutate_in" else ["a"]}
        assert engine.memory_used() == engine.memory_used_full()

    def test_counter_of_an_ejected_value_fetches_it_first(self, engine):
        engine.upsert(VB, "c", 5)
        drain_flusher(engine)
        assert engine.vbuckets[VB].hashtable.eject_value("c")
        assert engine.counter(VB, "c", 2)[0] == 7

    def test_full_eviction_get_reloads_from_disk(self):
        engine = self.make_full_engine("full")
        for i in range(100):
            engine.upsert(VB, f"k{i}", {"i": i, "pad": "x" * 400})
            engine.flush()
        for i in range(100):
            assert engine.get(VB, f"k{i}").value["i"] == i

    def test_dirty_items_never_ejected(self):
        engine = KVEngine("node1", "default", quota_bytes=20_000)
        engine.create_vbucket(VB)
        # Without flushing, everything is dirty; the pager can free
        # nothing and the engine must push back.
        with pytest.raises(TemporaryFailureError):
            for i in range(200):
                engine.upsert(VB, f"k{i}", {"pad": "x" * 400})
        # After the flusher runs, writes can proceed.
        engine.flush()
        engine.upsert(VB, "post-flush", {"pad": "x" * 400})

    def test_unlimited_quota_never_evicts(self, engine):
        for i in range(200):
            engine.upsert(VB, f"k{i}", {"pad": "x" * 400})
        assert engine.vbuckets[VB].hashtable.resident_ratio() == 1.0


class TestQueueDepthBackpressure:
    """The TMPFAIL ``retry_after`` hint is derived from the real flusher
    backlog and memory overshoot -- a deeply-behind data path asks
    clients to stay away longer -- and queue depth is published as the
    ``kv.queue_depth`` histogram."""

    def provoke(self, quota, pad):
        engine = KVEngine("node1", "default", quota_bytes=quota)
        engine.create_vbucket(VB)
        with pytest.raises(TemporaryFailureError) as exc_info:
            for i in range(10_000):
                engine.upsert(VB, f"k{i}", {"pad": "x" * pad})
        return engine, exc_info.value

    def test_retry_hint_reflects_backlog_and_overshoot(self):
        engine, err = self.provoke(quota=200_000, pad=16)
        assert err.pending_writes == engine.pending_writes()
        assert err.pending_writes > engine.FLUSH_BATCH
        assert err.memory_ratio > engine.HIGH_WATERMARK
        expected = (engine.TMPFAIL_RETRY_QUANTUM
                    * (1 + err.pending_writes // engine.FLUSH_BATCH)
                    * max(1.0, err.memory_ratio))
        assert err.retry_after == pytest.approx(expected)
        # Backlog past one flusher batch means more than the base quantum.
        assert err.retry_after > engine.TMPFAIL_RETRY_QUANTUM

    def test_deeper_backlog_asks_for_longer_relief(self):
        _, shallow = self.provoke(quota=20_000, pad=400)  # few large docs
        _, deep = self.provoke(quota=200_000, pad=16)     # many small docs
        assert shallow.pending_writes < deep.pending_writes
        assert shallow.retry_after < deep.retry_after

    def test_queue_depth_metric_is_observed(self):
        engine, err = self.provoke(quota=20_000, pad=400)
        depth = engine.metrics.histograms["kv.queue_depth"]
        assert depth.count >= 1
        assert depth.max >= err.pending_writes
        before = depth.count
        engine.flush()
        assert depth.count == before + 1


class TestChangeBuffer:
    def test_mutations_recorded_in_order(self, engine):
        engine.upsert(VB, "a", 1)
        engine.upsert(VB, "b", 2)
        engine.delete(VB, "a")
        buffer = engine.vbuckets[VB].change_buffer
        assert [(d.key, d.meta.deleted) for d in buffer] == [
            ("a", False), ("b", False), ("a", True),
        ]
        assert [d.meta.seqno for d in buffer] == [1, 2, 3]

    def test_trim_keeps_unpersisted(self, engine):
        engine.vbuckets[VB].MAX_BUFFER = 10
        for i in range(5):
            engine.upsert(VB, f"k{i}", i)
        drain_flusher(engine)
        engine.upsert(VB, "late", 1)
        vb = engine.vbuckets[VB]
        vb.trim_change_buffer()
        assert [d.key for d in vb.change_buffer] == ["late"]
        assert vb.buffer_start_seqno == 5

    def test_listeners_invoked(self, engine):
        heard = []
        engine.mutation_listeners.append(lambda d: heard.append(d.key))
        engine.upsert(VB, "x", 1)
        assert heard == ["x"]


class TestStats:
    def test_stats_shape(self, engine):
        engine.upsert(VB, "k", 1)
        stats = engine.stats()
        assert stats["items"] == 1
        assert stats["pending_writes"] == 1
        assert stats["vbuckets"]["active"] == 1

    def test_a_replay_from_zero_ends_with_each_documents_last_change(
            self, engine):
        """What an index build reads: a stream from seqno 0, whose last
        message per key is the live document or its deletion."""
        engine.upsert(VB, "a", 1)
        engine.upsert(VB, "b", 2)
        engine.delete(VB, "a")
        stream = DcpProducer(engine).stream_request(VB, 0)
        last = {}
        while not stream.idle():
            for message in stream.take():
                if isinstance(message, (Mutation, Deletion)):
                    last[message.doc.key] = message
        assert {key: type(message) for key, message in last.items()} == \
            {"a": Deletion, "b": Mutation}
        assert last["b"].doc.value == 2
