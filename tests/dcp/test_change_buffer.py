"""The change buffer is seqno-ascending, so DCP finds a stream's window
and the trim point by bisection (``VBucket.buffered``,
``VBucket.trim_change_buffer``).  These tests pin the order after every
path that writes the buffer, and that a stream opened anywhere in the
buffer gets what a scan of the whole buffer would give it."""

import math

from repro.common.disk import SimulatedDisk
from repro.common.document import Document, DocumentMeta
from repro.dcp.messages import Deletion, Mutation, SnapshotMarker, StreamEnd
from repro.dcp.producer import DcpProducer
from repro.kv.engine import KVEngine, VBucketState
from tests.kv.support import drain_flusher

VB = 0


def assert_ascending(vb):
    seqnos = [doc.meta.seqno for doc in vb.change_buffer]
    assert seqnos == sorted(set(seqnos))
    assert all(seqno > vb.buffer_start_seqno for seqno in seqnos)


def scanned(vb, after, through):
    """The window a linear scan of the whole buffer finds."""
    return [doc for doc in vb.change_buffer
            if after < doc.meta.seqno <= through]


def remote_doc(key, cas, seqno, deleted=False):
    meta = DocumentMeta(key=key, cas=cas, seqno=seqno, rev=50,
                        deleted=deleted, vbucket_id=VB)
    return Document(meta, None if deleted else {"remote": key})


class TestBufferOrder:
    def test_active_writes(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        vb = engine.vbuckets[VB]
        for i in range(40):
            engine.upsert(VB, f"k{i % 9}", i)
            if i % 4 == 0:
                engine.delete(VB, f"k{i % 9}")
            if i % 10 == 0:
                engine.insert(VB, f"new{i}", i)
            assert_ascending(vb)

    def test_trim_drops_only_the_persisted_prefix(self, monkeypatch):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        vb = engine.vbuckets[VB]
        monkeypatch.setattr(type(vb), "MAX_BUFFER", 8)
        for i in range(30):
            engine.upsert(VB, f"k{i}", i)
            if i % 7 == 0:
                drain_flusher(engine)
            assert_ascending(vb)
            assert vb.buffer_start_seqno <= vb.persisted_seqno
        assert vb.buffer_start_seqno > 0

    def test_replica_apply(self):
        active = KVEngine("n1", "b")
        active.create_vbucket(VB)
        replica = KVEngine("n2", "b")
        replica.create_vbucket(VB, VBucketState.REPLICA)
        stream = DcpProducer(active).stream_request(VB)
        for i in range(25):
            active.upsert(VB, f"k{i % 6}", i)
            if i % 5 == 0:
                active.delete(VB, f"k{i % 6}")
            docs = [m.doc for m in stream.take(3)
                    if isinstance(m, (Mutation, Deletion))]
            replica.apply_replicated_batch(VB, docs)
            assert_ascending(replica.vbuckets[VB])

    def test_xdcr_set_with_meta(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        vb = engine.vbuckets[VB]
        engine.upsert(VB, "local", 1)
        for i in range(20):
            # Remote seqnos run backwards: the buffer takes this copy's.
            engine.set_with_meta(VB, remote_doc(f"r{i % 5}", 10 ** 9 + i,
                                                1000 - i, deleted=i % 7 == 6))
            engine.upsert(VB, "local", i)
            assert_ascending(vb)

    def test_warmup(self):
        disk = SimulatedDisk()
        engine = KVEngine("n1", "b", disk=disk)
        engine.create_vbucket(VB)
        for i in range(12):
            engine.upsert(VB, f"k{i}", i)
        engine.delete(VB, "k3")
        drain_flusher(engine)
        restarted = KVEngine("n1", "b", disk=disk)
        restarted.create_vbucket(VB)
        assert restarted.warmup() == 12
        vb = restarted.vbuckets[VB]
        assert_ascending(vb)
        for i in range(5):
            restarted.upsert(VB, f"k{i}", -i)
            assert_ascending(vb)
        assert vb.change_buffer[0].meta.seqno == 14


class TestBisectedWindow:
    def build(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        for i in range(30):
            engine.upsert(VB, f"k{i % 11}", i)
            if i % 6 == 0:
                engine.delete(VB, f"k{i % 11}")
        drain_flusher(engine)
        vb = engine.vbuckets[VB]
        vb.trim_change_buffer()
        for i in range(20):
            engine.upsert(VB, f"k{i % 7}", -i)
        return engine, vb

    def test_buffered_equals_scan(self):
        _engine, vb = self.build()
        high = vb.high_seqno
        for after in range(-1, high + 2):
            for through in (after, after + 1, after + 5, high, math.inf):
                assert vb.buffered(after, through) == \
                    scanned(vb, after, through)

    def test_stream_at_every_buffered_seqno(self):
        engine, vb = self.build()
        assert vb.buffer_start_seqno > 0
        producer = DcpProducer(engine)
        uuid = vb.uuid
        start = vb.buffer_start_seqno
        for seqno in range(start, vb.high_seqno + 1):
            for end in (math.inf, seqno + 3):
                stream = producer.stream_request(VB, seqno, uuid,
                                                 end_seqno=end)
                got = []
                while not stream.idle():
                    batch = stream.take(1000)
                    if not batch:
                        break
                    got.extend(batch)
                window = scanned(vb, seqno, end)
                expected = []
                if window:
                    expected.append(SnapshotMarker(
                        VB, window[0].meta.seqno, window[-1].meta.seqno))
                    expected.extend(
                        Deletion(VB, doc) if doc.meta.deleted
                        else Mutation(VB, doc) for doc in window)
                assert [m for m in got if not isinstance(m, StreamEnd)] == \
                    expected
