"""Tests for online compaction (section 4.3.3)."""


from repro.common.disk import SimulatedDisk
from repro.storage.compaction import Compactor
from repro.storage.couchstore import VBucketStore

from .test_couchstore import make_doc


def churned_store(disk, rounds=20, keys=5):
    store = VBucketStore(disk, "vb0", 0)
    seq = 0
    for _ in range(rounds):
        batch = []
        for k in range(keys):
            seq += 1
            batch.append(make_doc(f"key{k}", {"pad": "y" * 100, "seq": seq}, seqno=seq))
        store.save_docs(batch)
        store.write_header()
    return store, seq


class TestCompactor:
    def test_needs_compaction_threshold(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk)
        compactor = Compactor(disk, threshold=0.3)
        assert compactor.needs_compaction(store)

    def test_small_files_skipped(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        assert not Compactor(disk).needs_compaction(store)

    def test_compaction_shrinks_file_and_keeps_data(self):
        disk = SimulatedDisk()
        store, seq = churned_store(disk)
        before = store.file_size
        fragmentation_before = store.fragmentation()
        compacted = Compactor(disk).compact(store)
        assert compacted.file_size < before / 2
        assert compacted.fragmentation() < fragmentation_before - 0.3
        for k in range(5):
            assert compacted.get(f"key{k}").value["seq"] > 0
        assert compacted.doc_count == 5
        assert compacted.update_seq == seq

    def test_compacted_file_replaces_original_name(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk)
        compacted = Compactor(disk).compact(store)
        assert compacted.filename == "vb0"
        assert disk.list_files() == ["vb0"]

    def test_compaction_survives_reopen(self):
        disk = SimulatedDisk()
        store, seq = churned_store(disk)
        Compactor(disk).compact(store)
        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.doc_count == 5
        assert reopened.update_seq == seq

    def test_changes_since_preserved(self):
        disk = SimulatedDisk()
        store, seq = churned_store(disk)
        compacted = Compactor(disk).compact(store)
        changes = list(compacted.changes_since(0))
        assert len(changes) == 5
        assert all(d.meta.seqno > seq - 5 for d in changes)

    def test_tombstones_kept_by_default(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        store.save_docs([make_doc("a", None, seqno=2, deleted=True)])
        store.write_header()
        compacted = Compactor(disk).compact(store)
        assert compacted.get("a", include_deleted=True).meta.deleted

    def test_tombstone_purge(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1), make_doc("b", 2, seqno=2)])
        store.save_docs([make_doc("a", None, seqno=3, deleted=True)])
        store.write_header()
        compacted = Compactor(disk).compact(store, purge_before_seq=3)
        assert not compacted.by_key.lookup("a")[0]
        assert compacted.contains("b")

    def test_recompaction_after_purging_the_newest_tombstone_terminates(self):
        """Found by the ``VBucketStore`` state machine: once a purge
        drops the newest tombstone, ``update_seq`` (2) is ahead of the
        newest record (1), and the catch-up loop of the *next*
        compaction waited for a record that no longer exists."""
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1),
                         make_doc("b", None, seqno=2, deleted=True)])
        store.write_header()
        compactor = Compactor(disk)
        purged = compactor.compact(store, purge_before_seq=2)
        assert purged.update_seq == 2
        again = compactor.compact(purged)
        assert again.update_seq == 2
        assert [d.key for d in again.changes_since(0)] == ["a"]
        assert compactor.runs == 2

    def test_threshold_can_be_given_per_call(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk)
        compactor = Compactor(disk, threshold=0.99)
        assert not compactor.needs_compaction(store)
        assert compactor.needs_compaction(store, 0.3)

    def test_run_counter(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk)
        compactor = Compactor(disk)
        compactor.compact(store)
        assert compactor.runs == 1

    def test_write_amplification_accounting(self):
        """Compaction costs extra writes -- the disk stats expose this."""
        disk = SimulatedDisk()
        store, _ = churned_store(disk)
        written_before = disk.stats.bytes_written
        Compactor(disk).compact(store)
        assert disk.stats.bytes_written > written_before

    def test_threshold_trades_file_size_for_write_amplification(self):
        """Section 4.3.3: "Compaction is periodically run, based on a
        fragmentation threshold".  Over a sustained overwrite workload
        (40 rounds of 20 hot keys) an aggressive threshold keeps the file
        smaller and writes more bytes in total; a lax one the inverse.  Pure
        ``SimulatedDisk`` byte counts -- the ordering any change to the
        compaction policy has to keep."""
        sizes, written = {}, {}
        for threshold in (0.2, 0.5, 0.8):
            disk = SimulatedDisk()
            store = VBucketStore(disk, "vb0", 0)
            compactor = Compactor(disk, threshold=threshold)
            seq = 0
            for _ in range(40):
                batch = []
                for k in range(20):
                    seq += 1
                    batch.append(make_doc(
                        f"key{k:04d}", {"pad": "x" * 120, "seq": seq},
                        seqno=seq, rev=seq))
                store.save_docs(batch)
                store.write_header()
                if compactor.needs_compaction(store):
                    store = compactor.compact(store)
            sizes[threshold] = store.file_size
            written[threshold] = disk.stats.bytes_written
        assert sizes[0.2] <= sizes[0.5] <= sizes[0.8]
        assert written[0.2] >= written[0.5] >= written[0.8]
        # The sweep really spans the trade-off, not three equal runs.
        assert sizes[0.2] < sizes[0.8] and written[0.2] > written[0.8]


class TestFragmentationAccounting:
    """Live B-tree nodes are live bytes, not garbage.

    The regression these tests pin down: with only doc bodies in the
    numerator, a freshly compacted file (roughly one third doc bodies,
    two thirds index nodes) reported ~0.65 fragmentation, stayed above
    any sane threshold, and the compactor rewrote it every pump round --
    the scheduler never went idle past a few hundred docs per vBucket.
    """

    def test_fresh_compaction_reads_nearly_clean(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=40, keys=50)
        compacted = Compactor(disk).compact(store)
        assert compacted.fragmentation() < 0.05

    def test_compactor_converges(self):
        """One compaction is enough: the result does not re-trigger."""
        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=40, keys=50)
        compactor = Compactor(disk, threshold=0.3)
        assert compactor.needs_compaction(store)
        compacted = compactor.compact(store)
        assert not compactor.needs_compaction(compacted)
        # Even at the engine's default, looser threshold.
        assert not Compactor(disk, threshold=0.6).needs_compaction(compacted)

    def test_node_bytes_incremental_matches_walk(self):
        """The counters maintained across batch updates must equal what a
        full traversal measures -- otherwise fragmentation drifts."""
        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=25, keys=40)
        assert store.by_key.node_bytes == store.by_key.measure_node_bytes()
        assert store.by_seq.node_bytes == store.by_seq.measure_node_bytes()

    def test_node_bytes_roundtrip_through_header(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=10, keys=20)
        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.by_key.node_bytes == store.by_key.node_bytes
        assert reopened.by_seq.node_bytes == store.by_seq.node_bytes
        assert reopened.fragmentation() == store.fragmentation()

    def test_legacy_header_without_counters_measures_by_walk(self):
        """Files written before the counters existed recover by walking
        the trees once instead of reporting garbage fragmentation."""
        import json

        from repro.storage.appendlog import RT_HEADER

        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=10, keys=20)
        legacy = {
            "by_key_root": store.by_key.root,
            "by_seq_root": store.by_seq.root,
            "update_seq": store.update_seq,
            "doc_count": store.doc_count,
            "deleted_count": store.deleted_count,
            "live_size": store.live_size,
            "vbucket_id": store.vbucket_id,
        }
        store.log.append(RT_HEADER,
                         json.dumps(legacy, separators=(",", ":")).encode())
        store.log.sync()
        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.by_key.node_bytes == store.by_key.node_bytes
        assert reopened.by_seq.node_bytes == store.by_seq.node_bytes

    def test_live_bytes_bounded_by_file_size(self):
        disk = SimulatedDisk()
        store, _ = churned_store(disk, rounds=15, keys=30)
        assert 0 < store.live_bytes() <= store.file_size
