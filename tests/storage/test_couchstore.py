"""Tests for the per-vBucket storage files: persistence, recovery after
crash, snapshot reads, and the append-log framing."""

import copy
import json

import pytest

from repro.common.disk import SimulatedDisk
from repro.common.document import Document, DocumentMeta
from repro.common.errors import CorruptFileError, KeyNotFoundError
from repro.storage.appendlog import RT_DOC, RT_HEADER, AppendLog
from repro.storage.couchstore import VBucketStore


def make_doc(key, value, seqno, deleted=False, cas=None, rev=1):
    meta = DocumentMeta(
        key=key, cas=cas if cas is not None else seqno, seqno=seqno,
        rev=rev, deleted=deleted,
    )
    return Document(meta, None if deleted else value)


class TestAppendLog:
    def test_roundtrip(self):
        log = AppendLog(SimulatedDisk().open("f"))
        offset = log.append(RT_DOC, b"payload")
        assert log.read(offset) == (RT_DOC, b"payload")

    def test_scan_all_records(self):
        log = AppendLog(SimulatedDisk().open("f"))
        log.append(RT_DOC, b"a")
        log.append(RT_HEADER, b"h")
        records = [(rt, body) for _off, rt, body in log.scan()]
        assert records == [(RT_DOC, b"a"), (RT_HEADER, b"h")]

    def test_scan_stops_at_torn_tail(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        log = AppendLog(file)
        log.append(RT_DOC, b"good")
        file.append(b"\xc7\x01garbage-partial")
        records = list(log.scan())
        assert len(records) == 1

    def test_corrupt_read_raises(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        file.append(b"\x00" * 20)
        log = AppendLog(file)
        with pytest.raises(CorruptFileError):
            log.read(0)

    def test_find_last_header(self):
        log = AppendLog(SimulatedDisk().open("f"))
        log.append(RT_HEADER, b"h1")
        log.append(RT_DOC, b"d")
        log.append(RT_HEADER, b"h2")
        _offset, body = log.find_last_header()
        assert body == b"h2"

    def test_find_last_header_none(self):
        log = AppendLog(SimulatedDisk().open("f"))
        assert log.find_last_header() is None


class TestVBucketStore:
    def test_save_and_get(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", {"x": 1}, seqno=1)])
        doc = store.get("a")
        assert doc.value == {"x": 1}
        assert doc.meta.seqno == 1

    def test_get_missing_raises(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        with pytest.raises(KeyNotFoundError):
            store.get("ghost")

    def test_update_supersedes(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", {"v": 1}, seqno=1)])
        store.save_docs([make_doc("a", {"v": 2}, seqno=2)])
        assert store.get("a").value == {"v": 2}
        assert store.doc_count == 1
        assert store.update_seq == 2

    def test_batch_dedupe_keeps_newest(self):
        """Repeated updates within one flush batch are aggregated
        (section 2.3.2)."""
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([
            make_doc("a", {"v": 1}, seqno=1),
            make_doc("a", {"v": 2}, seqno=2),
            make_doc("a", {"v": 3}, seqno=3),
        ])
        assert store.get("a").value == {"v": 3}
        assert store.doc_count == 1

    def test_delete_writes_tombstone(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", {"v": 1}, seqno=1)])
        store.save_docs([make_doc("a", None, seqno=2, deleted=True)])
        with pytest.raises(KeyNotFoundError):
            store.get("a")
        tombstone = store.get("a", include_deleted=True)
        assert tombstone.meta.deleted
        assert store.doc_count == 0
        assert store.deleted_count == 1

    def test_contains(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        assert store.contains("a")
        assert not store.contains("b")
        store.save_docs([make_doc("a", None, seqno=2, deleted=True)])
        assert not store.contains("a")

    def test_changes_since(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc(f"k{i}", i, seqno=i) for i in range(1, 6)])
        changes = list(store.changes_since(2))
        assert [d.meta.seqno for d in changes] == [3, 4, 5]

    def test_changes_since_reflects_supersession(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1), make_doc("b", 1, seqno=2)])
        store.save_docs([make_doc("a", 2, seqno=3)])
        changes = list(store.changes_since(0))
        # "a"@1 was superseded by "a"@3; only the latest version per key
        # appears, in seqno order.
        assert [(d.key, d.meta.seqno) for d in changes] == [("b", 2), ("a", 3)]

    def test_all_docs_key_order(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([
            make_doc("c", 3, seqno=1),
            make_doc("a", 1, seqno=2),
            make_doc("b", 2, seqno=3),
        ])
        assert [d.key for d in store.all_docs()] == ["a", "b", "c"]

    def test_all_docs_skips_tombstones(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1), make_doc("b", 2, seqno=2)])
        store.save_docs([make_doc("a", None, seqno=3, deleted=True)])
        assert [d.key for d in store.all_docs()] == ["b"]

    def test_save_docs_leaves_its_input_unchanged(self):
        """The flusher hands ``save_docs`` the hash table's own documents,
        so it may only read them."""
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        store.save_docs([make_doc("a", {"v": [1, 2]}, seqno=1)])
        docs = [make_doc("a", {"v": [3], "w": {"x": None}}, seqno=2),
                make_doc("b", ["nested", {"k": 1}], seqno=3),
                make_doc("b", None, seqno=4, deleted=True),
                make_doc("c", {"w": {"y": [1]}}, seqno=5)]
        snapshot = copy.deepcopy(docs)
        store.save_docs(docs)
        assert docs == snapshot
        assert [d.key for d in store.all_docs(include_deleted=True)] == \
            ["a", "b", "c"]


class TestRecovery:
    def test_recover_after_clean_shutdown(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", {"v": 1}, seqno=1)])
        store.write_header(sync=True)

        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.get("a").value == {"v": 1}
        assert reopened.update_seq == 1
        assert reopened.doc_count == 1

    def test_crash_loses_unheadered_writes(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        store.write_header(sync=True)
        store.save_docs([make_doc("b", 2, seqno=2)])  # no header, no sync
        disk.crash()

        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.contains("a")
        assert not reopened.contains("b")
        assert reopened.update_seq == 1

    def test_crash_with_no_header_yields_empty_store(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        disk.crash()
        reopened = VBucketStore(disk, "vb0", 0)
        assert not reopened.contains("a")
        assert reopened.update_seq == 0

    def test_unsynced_header_lost_on_crash(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        store.write_header(sync=True)
        store.save_docs([make_doc("b", 2, seqno=2)])
        store.write_header(sync=False)
        disk.crash()
        reopened = VBucketStore(disk, "vb0", 0)
        assert not reopened.contains("b")

    def test_a_header_that_is_not_the_positional_list_fails_on_open(self):
        """A header is the 9-field list ``write_header`` writes; a dict
        (the keyed header form) would otherwise unpack into its key
        names."""
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        store.write_header(sync=True)
        keyed = {
            "by_key_root": store.by_key.root,
            "by_seq_root": store.by_seq.root,
            "update_seq": 1, "doc_count": 1, "deleted_count": 0,
            "live_size": store.live_size,
            "by_key_nodes": store.by_key.node_bytes,
            "by_seq_nodes": store.by_seq.node_bytes,
            "vbucket_id": 0,
        }
        offset = store.log.append(RT_HEADER, json.dumps(keyed).encode())
        store.log.sync()
        with pytest.raises(CorruptFileError,
                           match=f"'vb0': header at offset {offset} "):
            VBucketStore(disk, "vb0", 0)

    def test_recovery_truncates_garbage_tail(self):
        disk = SimulatedDisk()
        store = VBucketStore(disk, "vb0", 0)
        store.save_docs([make_doc("a", 1, seqno=1)])
        store.write_header(sync=True)
        size_at_header = store.log.size
        store.save_docs([make_doc("b", 2, seqno=2)])
        reopened = VBucketStore(disk, "vb0", 0)
        assert reopened.log.size == size_at_header


class TestFragmentation:
    def test_fresh_store_not_fragmented(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        assert store.fragmentation() == 0.0

    def test_overwrites_increase_fragmentation(self):
        store = VBucketStore(SimulatedDisk(), "vb0", 0)
        seq = 0
        for round_number in range(10):
            seq += 1
            store.save_docs([make_doc("hot", {"pad": "x" * 200, "round": round_number},
                                      seqno=seq)])
            store.write_header()
        assert store.fragmentation() > 0.5
