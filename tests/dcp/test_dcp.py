"""Tests for DCP streams: in-memory streaming, disk backfill, snapshot
markers, deduplication, and failover-log rollback."""

import pytest

from repro.common.errors import NotMyVBucketError, StreamRollbackRequired
from repro.dcp.messages import Deletion, Mutation, SnapshotMarker, StreamEnd
from repro.dcp.producer import DcpProducer
from repro.kv.engine import KVEngine, VBucketState
from tests.kv.support import drain_flusher

VB = 0


@pytest.fixture
def engine():
    eng = KVEngine("node1", "default")
    eng.create_vbucket(VB)
    return eng


@pytest.fixture
def producer(engine):
    return DcpProducer(engine)


def drain(stream, limit=10_000):
    """Pull until the stream yields nothing (caught up) or ends."""
    out = []
    while True:
        batch = stream.take()
        if not batch:
            return out
        out.extend(batch)
        if any(isinstance(m, StreamEnd) for m in batch):
            return out
        if len(out) > limit:
            raise AssertionError("stream did not quiesce")


def items_of(messages):
    return [m for m in messages if isinstance(m, (Mutation, Deletion))]


class TestInMemoryStreaming:
    def test_stream_from_zero_sees_all(self, engine, producer):
        for i in range(5):
            engine.upsert(VB, f"k{i}", i)
        stream = producer.stream_request(VB)
        messages = drain(stream)
        assert isinstance(messages[0], SnapshotMarker)
        assert [m.key for m in items_of(messages)] == [f"k{i}" for i in range(5)]
        assert stream.idle()

    def test_marker_covers_window(self, engine, producer):
        for i in range(3):
            engine.upsert(VB, f"k{i}", i)
        messages = drain(producer.stream_request(VB))
        marker = messages[0]
        assert (marker.start_seqno, marker.end_seqno) == (1, 3)
        assert not marker.from_disk

    def test_deletions_streamed(self, engine, producer):
        engine.upsert(VB, "k", 1)
        engine.delete(VB, "k")
        messages = items_of(drain(producer.stream_request(VB)))
        assert isinstance(messages[0], Mutation)
        assert isinstance(messages[1], Deletion)
        assert messages[1].doc.meta.deleted

    def test_incremental_pull(self, engine, producer):
        engine.upsert(VB, "a", 1)
        stream = producer.stream_request(VB)
        first = drain(stream)
        assert [m.key for m in items_of(first)] == ["a"]
        engine.upsert(VB, "b", 2)
        second = drain(stream)
        assert [m.key for m in items_of(second)] == ["b"]

    def test_start_mid_history(self, engine, producer):
        for i in range(6):
            engine.upsert(VB, f"k{i}", i)
        stream = producer.stream_request(VB, start_seqno=3)
        assert [m.key for m in items_of(drain(stream))] == ["k3", "k4", "k5"]

    def test_bounded_stream_ends(self, engine, producer):
        for i in range(5):
            engine.upsert(VB, f"k{i}", i)
        stream = producer.stream_request(VB, end_seqno=3)
        messages = drain(stream)
        assert isinstance(messages[-1], StreamEnd)
        assert [m.key for m in items_of(messages)] == ["k0", "k1", "k2"]
        assert stream.closed

    def test_take_respects_max_items(self, engine, producer):
        for i in range(20):
            engine.upsert(VB, f"k{i}", i)
        stream = producer.stream_request(VB)
        batch = stream.take(max_items=5)
        assert len(items_of(batch)) <= 5

    def test_empty_vbucket_stream_is_quiet(self, producer):
        stream = producer.stream_request(VB)
        assert stream.take() == []
        assert stream.idle()


class TestBackfill:
    def make_trimmed_engine(self):
        engine = KVEngine("node1", "default")
        engine.create_vbucket(VB)
        for i in range(10):
            engine.upsert(VB, f"k{i}", i)
        drain_flusher(engine)
        vb = engine.vbuckets[VB]
        vb.trim_change_buffer()
        assert vb.change_buffer == []
        return engine

    def test_backfill_from_disk(self):
        engine = self.make_trimmed_engine()
        stream = DcpProducer(engine).stream_request(VB)
        messages = drain(stream)
        marker = messages[0]
        assert marker.from_disk
        assert [m.key for m in items_of(messages)] == [f"k{i}" for i in range(10)]

    def test_backfill_then_memory(self):
        engine = self.make_trimmed_engine()
        engine.upsert(VB, "fresh", 1)
        messages = drain(DcpProducer(engine).stream_request(VB))
        markers = [m for m in messages if isinstance(m, SnapshotMarker)]
        assert markers[0].from_disk and not markers[-1].from_disk
        assert [m.key for m in items_of(messages)][-1] == "fresh"

    def test_backfill_deduplicates(self):
        """Disk backfill sends only the latest version of each key --
        exactly the 'aggregated at the level of persistence' behaviour."""
        engine = KVEngine("node1", "default")
        engine.create_vbucket(VB)
        for round_number in range(3):
            engine.upsert(VB, "hot", round_number)
        drain_flusher(engine)
        vb = engine.vbuckets[VB]
        vb.trim_change_buffer()
        messages = items_of(drain(DcpProducer(engine).stream_request(VB)))
        assert len(messages) == 1
        assert messages[0].doc.value == 2
        assert messages[0].seqno == 3

    def test_backfill_mid_gap(self):
        engine = self.make_trimmed_engine()
        stream = DcpProducer(engine).stream_request(VB, start_seqno=7)
        assert [m.key for m in items_of(drain(stream))] == ["k7", "k8", "k9"]


class TestStreamRequestValidation:
    def test_future_seqno_demands_rollback(self, engine, producer):
        engine.upsert(VB, "k", 1)
        with pytest.raises(StreamRollbackRequired) as excinfo:
            producer.stream_request(VB, start_seqno=99)
        assert excinfo.value.rollback_seqno == 1

    def test_unknown_vbucket_rejected(self, producer):
        with pytest.raises(NotMyVBucketError):
            producer.stream_request(42)

    def test_dead_vbucket_rejected(self, engine, producer):
        engine.set_vbucket_state(VB, VBucketState.DEAD)
        with pytest.raises(NotMyVBucketError):
            producer.stream_request(VB)

    def test_replica_streaming_allowed(self, engine):
        """Rebalance movers stream from replicas (section 4.3.1)."""
        engine.create_vbucket(1, VBucketState.REPLICA)
        stream = DcpProducer(engine).stream_request(1)
        assert stream.take() == []

    def test_replica_streaming_can_be_disallowed(self, engine):
        engine.create_vbucket(1, VBucketState.REPLICA)
        with pytest.raises(NotMyVBucketError):
            DcpProducer(engine).stream_request(1, allow_replica=False)


class TestFailoverLog:
    def test_matching_uuid_continues(self, engine, producer):
        engine.upsert(VB, "k", 1)
        uuid = engine.vbuckets[VB].uuid
        stream = producer.stream_request(VB, start_seqno=1, vb_uuid=uuid)
        assert stream.take() == []  # caught up

    def test_unknown_uuid_rolls_back_to_zero(self, engine, producer):
        engine.upsert(VB, "k", 1)
        with pytest.raises(StreamRollbackRequired) as excinfo:
            producer.stream_request(VB, start_seqno=1, vb_uuid=31337)
        assert excinfo.value.rollback_seqno == 0

    def test_divergent_branch_rolls_back_to_branch_point(self, engine, producer):
        """Consumer read ahead on the old branch; after promotion it must
        discard back to where the new branch began."""
        engine.upsert(VB, "k1", 1)
        vb = engine.vbuckets[VB]
        old_uuid = vb.uuid
        # Simulate: this node's copy became active at seqno 1 under a new
        # uuid (the old active took mutations 2..5 that were lost).
        vb.state = VBucketState.REPLICA
        engine.set_vbucket_state(VB, VBucketState.ACTIVE)
        with pytest.raises(StreamRollbackRequired) as excinfo:
            producer.stream_request(VB, start_seqno=5, vb_uuid=old_uuid)
        assert excinfo.value.rollback_seqno == 1

    def test_old_branch_within_range_is_fine(self, engine, producer):
        engine.upsert(VB, "k1", 1)
        vb = engine.vbuckets[VB]
        old_uuid = vb.uuid
        vb.state = VBucketState.REPLICA
        engine.set_vbucket_state(VB, VBucketState.ACTIVE)
        engine.upsert(VB, "k2", 2)
        stream = producer.stream_request(VB, start_seqno=1, vb_uuid=old_uuid)
        assert [m.key for m in items_of(drain(stream))] == ["k2"]

    def test_failover_log_exposed(self, engine, producer):
        log = producer.failover_log(VB)
        assert len(log) == 1
        engine.vbuckets[VB].state = VBucketState.REPLICA
        engine.set_vbucket_state(VB, VBucketState.ACTIVE)
        assert len(producer.failover_log(VB)) == 2
