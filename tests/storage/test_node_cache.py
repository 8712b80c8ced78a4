"""The write-through B-tree node cache (``AppendLog.node_cache``).

Invariant: *a cache lives and dies with its ``AppendLog``*; anything that
shortens the file (``destroy``, recovery truncate, ``disk.crash()`` +
reopen) starts from an empty cache.  These tests pin what that buys
(counts, not times) and what it must not change: answers, bytes on
disk, and every checksum verification on a cold read.
"""

import pytest

from repro.common.disk import SimulatedDisk
from repro.common.errors import CorruptFileError
from repro.gsi.storage import BTreeIndexStorage
from repro.n1ql.collation import MISSING
from repro.storage.appendlog import _HEADER
from repro.storage.btree import BTree
from repro.storage.couchstore import VBucketStore
from repro.views.mapreduce import ViewDefinition
from repro.views.viewindex import ViewIndex

from .test_couchstore import make_doc


def churned_store(disk, name="vb0.couch", docs=200, rounds=4):
    """A store whose trees are several levels deep and have been
    through overwrites, deletes and re-creates."""
    store = VBucketStore(disk, name, 0)
    seqno = 0
    for round_no in range(rounds):
        batch = []
        for i in range(round_no, docs, round_no + 1):
            seqno += 1
            deleted = (i + round_no) % 7 == 0
            batch.append(make_doc(f"k{i:04d}", {"i": i, "r": round_no},
                                  seqno, deleted=deleted))
        store.save_docs(batch)
        store.write_header(sync=True)
    return store, seqno


def tree_answers(tree, lookups, ranges, reduces=()):
    answers = [tree.lookup(key) for key in lookups]
    answers.append(list(tree.items()))
    for start, end, kwargs in ranges:
        answers.append(list(tree.range(start, end, **kwargs)))
    for start, end in reduces:
        answers.append(tree.reduce_range(start, end))
    if tree.reduce_fn is not None:
        answers.append(tree.full_reduce())
    return answers


def assert_warm_equals_cold(log, collect):
    assert log.node_cache, "nothing was written through"
    warm = collect()
    log.node_cache.clear()
    cold = collect()
    assert warm == cold
    # Same *types* too: a cached tuple equals no decoded list, but a
    # cached True equals a decoded 1 -- repr tells them apart.
    assert repr(warm) == repr(cold)


class TestWarmEqualsCold:
    """Every answer from nodes cached as written equals the answer from
    the same nodes decoded from their records."""

    def test_by_key_tree(self):
        store, _seqno = churned_store(SimulatedDisk())
        probes = ["k0000", "k0007", "k0150", "k0199", "absent", ""]
        ranges = [
            ("k0050", "k0120", {}),
            ("k0050", "k0120", {"inclusive_start": False,
                                "inclusive_end": False}),
            (None, "k0033", {"descending": True}),
            ("k0190", None, {}),
        ]
        assert_warm_equals_cold(
            store.log, lambda: tree_answers(store.by_key, probes, ranges))

    def test_by_seqno_tree(self):
        store, seqno = churned_store(SimulatedDisk())
        probes = [0, 1, seqno // 2, seqno, seqno + 1]
        ranges = [
            (seqno // 3, None, {"inclusive_start": False}),
            (None, seqno // 2, {"descending": True}),
        ]
        assert_warm_equals_cold(
            store.log, lambda: tree_answers(store.by_seq, probes, ranges))

    def test_store_reads(self):
        store, _seqno = churned_store(SimulatedDisk())

        def collect():
            return [
                [(d.meta, d.value) for d in store.all_docs(include_deleted=True)],
                [(d.meta, d.value) for d in store.changes_since(0)],
                [store.contains(f"k{i:04d}") for i in range(0, 200, 9)],
                [store.has_tombstone(f"k{i:04d}") for i in range(0, 200, 9)],
            ]

        assert_warm_equals_cold(store.log, collect)

    def test_gsi_tree(self):
        storage = BTreeIndexStorage(SimulatedDisk(), "idx")
        for i in range(150):
            storage.update_doc(f"d{i:03d}", [[i % 10, f"name{i}"]])
        for i in range(0, 150, 3):  # re-key a third, unindex a few
            entries = [] if i % 9 == 0 else [[MISSING, [i, "tag"]], [i % 4, None]]
            storage.update_doc(f"d{i:03d}", entries)

        def collect():
            return [
                list(storage.scan(None, None)),
                list(storage.scan([3], [7], inclusive_high=False)),
                list(storage.scan([MISSING], [2], descending=True)),
                storage.count(),
            ]

        assert_warm_equals_cold(storage.log, collect)

    @pytest.mark.parametrize("reduce_fn", ["_count", "_sum", "_stats"])
    def test_view_tree_with_reduce(self, reduce_fn):
        definition = ViewDefinition(
            "dd", "by_group",
            lambda doc, meta, emit: emit([doc["g"], doc["n"]], doc["n"] * 1.5),
            reduce_fn,
        )
        index = ViewIndex(definition, SimulatedDisk(), "view")
        for i in range(180):
            index.update_doc(f"d{i:03d}", i % 8, [([i % 6, i], i * 1.5)])
        for i in range(0, 180, 4):
            index.update_doc(f"d{i:03d}", i % 8, [([i % 5, -i], i * 0.5)])
        for i in range(0, 180, 11):
            index.remove_doc(f"d{i:03d}")
        tree = index.tree
        low, high = [[2, None], ""], [[4, {}], ""]
        assert_warm_equals_cold(index.log, lambda: tree_answers(
            tree,
            lookups=[[[1, 1], "d001"], [[9, 9], "nope"]],
            ranges=[(low, high, {}), (None, low, {"descending": True})],
            reduces=[(None, None), (low, high), (None, low), (high, None)],
        ))

    def test_eviction_keeps_answers(self, monkeypatch):
        """A cache smaller than the tree evicts oldest-first and still
        answers the same (the capacity bound is unchanged)."""
        monkeypatch.setattr(BTree, "NODE_CACHE_CAPACITY", 3)
        store, _seqno = churned_store(SimulatedDisk())
        assert len(store.log.node_cache) == 3
        assert_warm_equals_cold(
            store.log,
            lambda: [(d.meta, d.value) for d in store.all_docs()])
        assert len(store.log.node_cache) == 3


class TestSteadyStateCounts:
    def flush_round(self, store, key, seqno):
        store.save_docs([make_doc(key, {"n": seqno, "pad": "x" * 40}, seqno)])
        store.write_header(sync=True)

    def test_repeat_flush_rounds_read_nothing(self):
        """The flusher's read-modify-write of a path it wrote a round
        ago is served from the cache: once each key's path has been
        rewritten by this log, further rounds add 0 disk reads."""
        disk = SimulatedDisk()
        churned_store(disk)
        store = VBucketStore(disk, "vb0.couch", 0)  # reopen: cold cache
        assert store.log.node_cache == {}
        keys = ["k0003", "k0101", "k0101", "k0198", "brand-new"]
        seqno = 10_000
        before = disk.stats.reads
        for key in keys:  # first pass: cold paths come off the disk
            seqno += 1
            self.flush_round(store, key, seqno)
        assert disk.stats.reads > before
        before = disk.stats.reads
        for _pass in range(3):
            for key in keys:
                seqno += 1
                self.flush_round(store, key, seqno)
        assert disk.stats.reads == before

    def test_bytes_written_are_the_parents(self):
        """Format unchanged: the same mutation sequence writes exactly
        the bytes (and makes the writes and syncs) it did before the
        cache was write-through."""
        disk = SimulatedDisk()
        store, seqno = churned_store(disk)
        for key in ["k0003", "k0101", "k0101", "k0198", "brand-new"] * 3:
            seqno += 1
            self.flush_round(store, key, seqno)
        assert (disk.stats.bytes_written, disk.stats.writes,
                disk.stats.syncs) == PARENT_BYTES_WRITES_SYNCS
        assert store.file_size == disk.stats.bytes_written


#: Measured at c4f10d5 (read-through cache, pure-Python CRC) with the
#: sequence in ``test_bytes_written_are_the_parents``.
PARENT_BYTES_WRITES_SYNCS = (158_054, 586, 19)


class TestCacheDiesWithItsLog:
    def test_crash_and_reopen_serves_the_synced_header_from_bytes(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0.couch", 0)
        store.save_docs([make_doc(f"k{i}", {"v": 1}, i + 1) for i in range(40)])
        store.write_header(sync=True)
        # Unsynced tail: overwrites, a delete and a new key, all of
        # which sit in the old log's cache when the power goes.
        store.save_docs([make_doc("k1", {"v": 2}, 41),
                         make_doc("k2", None, 42, deleted=True),
                         make_doc("late", {"v": 2}, 43)])
        store.write_header(sync=False)
        assert store.get("k1").value == {"v": 2}
        disk.crash()

        reopened = VBucketStore(disk, "vb0.couch", 0)
        assert reopened.log is not store.log
        assert reopened.log.node_cache == {}
        before = disk.stats.reads
        assert reopened.get("k1").value == {"v": 1}
        assert reopened.get("k2").value == {"v": 1}
        assert not reopened.contains("late")
        assert reopened.update_seq == 40 and reopened.doc_count == 40
        assert [d.key for d in reopened.changes_since(0)] == \
            [f"k{i}" for i in range(40)]
        assert disk.stats.reads > before

    def test_destroy_empties_the_cache(self):
        disk = SimulatedDisk()
        store, _seqno = churned_store(disk)
        assert store.log.node_cache
        store.destroy()
        assert store.log.node_cache == {}
        # Offsets are reused from zero; the old nodes must not answer.
        store.save_docs([make_doc("only", {"v": 1}, 1)])
        assert [d.key for d in store.all_docs()] == ["only"]

    def test_compaction_starts_a_new_cache(self):
        from repro.storage.compaction import Compactor
        disk = SimulatedDisk()
        store, _seqno = churned_store(disk)
        compacted = Compactor(disk).compact(store)
        assert compacted.log is not store.log
        assert all(offset < compacted.file_size
                   for offset in compacted.log.node_cache)

    def test_flipped_byte_still_fails_a_cold_read_and_ends_scan(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0.couch", 0)
        store.save_docs([make_doc("a", {"v": 1}, 1)])
        store.write_header(sync=True)
        root = store.by_key.root
        intact = len(list(store.log.scan()))
        # Warm: the node is served as written, no bytes consulted.
        disk.open("vb0.couch")._data[root + _HEADER.size + 2] ^= 0xFF
        assert store.by_key.lookup("a")[0]
        # Cold: the checksum is verified, with the same outcome as ever.
        store.log.node_cache.clear()
        with pytest.raises(CorruptFileError):
            store.by_key.lookup("a")
        with pytest.raises(CorruptFileError):
            store.log.read(root)
        assert len(list(store.log.scan())) < intact
