"""Golden digests of the on-disk format.

Each test builds a file deterministically -- a churned data file with
tombstones, its compaction with a tombstone purge, a GSI index file and
a view index file after mixed batches -- and pins the sha256 of its
bytes.  Any change to what a record, node or header holds, or to the
order they are appended in, changes a digest: such a change must update
the digests here on purpose, never by accident.
"""

import hashlib

from repro.common.disk import SimulatedDisk
from repro.gsi.storage import BTreeIndexStorage
from repro.n1ql.collation import MISSING
from repro.storage.compaction import Compactor
from repro.storage.couchstore import VBucketStore
from repro.views.mapreduce import ViewDefinition
from repro.views.viewindex import ViewIndex

from .test_couchstore import make_doc

#: Values that stress the encoder: floats, signed zero, large integers,
#: non-ASCII text (escaped on disk), nesting, and every JSON scalar.
VALUES = [
    {"i": 0, "f": 0.1, "big": 2 ** 70, "s": "café ☃ \U0001d11e"},
    [1, 2.5, -0.0, 1e-7, 1e20, True, False, None],
    "plain string",
    {"nested": {"list": [{"a": [1, {"b": None}]}], "empty": {}}, "e": []},
    12345678901234567890,
    -3.25,
]


def digest(disk: SimulatedDisk, name: str) -> str:
    file = disk.open(name)
    return hashlib.sha256(file.read(0, file.size)).hexdigest()


def churn(store: VBucketStore, seqno: int, rounds: int, keys: int) -> int:
    """``rounds`` committed batches of overwrites, deletes and
    re-creates over ``keys`` keys; returns the last seqno used."""
    for round_no in range(rounds):
        batch = []
        for i in range(round_no % 3, keys, 1 + round_no % 4):
            seqno += 1
            deleted = (i * 7 + round_no) % 5 == 0
            value = {"k": i, "r": round_no,
                     "v": VALUES[(i + round_no) % len(VALUES)]}
            batch.append(make_doc(f"key{i:03d}", value, seqno,
                                  deleted=deleted, rev=round_no + 1))
        # A key saved twice in one batch: the newest wins.
        seqno += 1
        batch.append(make_doc(f"key{round_no % keys:03d}", {"dup": round_no},
                              seqno, rev=round_no + 2))
        store.save_docs(batch)
        store.write_header(sync=round_no % 2 == 0)
    return seqno


def churned_store(disk: SimulatedDisk) -> tuple[VBucketStore, int]:
    store = VBucketStore(disk, "vb7.couch", 7)
    return store, churn(store, 0, rounds=24, keys=150)


class TestDataFile:
    def test_churned_store(self):
        disk = SimulatedDisk()
        churned_store(disk)
        assert digest(disk, "vb7.couch") == CHURNED_STORE

    def test_compaction_with_purge(self):
        disk = SimulatedDisk()
        store, seqno = churned_store(disk)
        compacted = Compactor(disk).compact(store,
                                            purge_before_seq=seqno // 2)
        assert compacted.filename == "vb7.couch"
        assert digest(disk, "vb7.couch") == COMPACTED_PURGED

    def test_compaction_with_catch_up(self, monkeypatch):
        """Writes that land after the first copy pass are replayed by
        the catch-up pass onto a target that already holds their keys."""
        disk = SimulatedDisk()
        store, seqno = churned_store(disk)
        copy_since = Compactor._copy_since
        passes = []

        def copy_then_write(compactor, source, target, since_seq, purge):
            through = copy_since(compactor, source, target, since_seq, purge)
            if not passes:
                churn(source, seqno, rounds=3, keys=40)
            passes.append(since_seq)
            return through

        monkeypatch.setattr(Compactor, "_copy_since", copy_then_write)
        Compactor(disk).compact(store, purge_before_seq=seqno // 3)
        assert passes == [0, seqno]
        assert digest(disk, "vb7.couch") == COMPACTED_CATCH_UP


class TestIndexFiles:
    def test_gsi_index(self):
        disk = SimulatedDisk()
        storage = BTreeIndexStorage(disk, "gsi/b/idx.index")
        # Mixed-type keys: numbers (1 and 1.0 collate equal), strings,
        # null, MISSING, booleans, arrays and objects.
        keys = [1, 1.0, 2.5, -7, "a", "B", "", None, MISSING, True, False,
                [1, "x"], [1.0, "x"], {"o": 1}, 10 ** 20, "é"]
        for round_no in range(12):
            batch = []
            for i in range(0, 120, 1 + round_no % 3):
                first = keys[(i + round_no) % len(keys)]
                entries = [[first, i % 4]]
                if (i + round_no) % 6 == 0:
                    entries = []  # the document leaves the index
                elif i % 5 == 0:
                    entries.append([keys[i % len(keys)], "second"])
                batch.append((f"doc{i:03d}", i % 4, entries))
            storage.update_docs(batch)
        assert digest(disk, "gsi/b/idx.index") == GSI_INDEX

    def test_view_index(self):
        def map_fn(doc, meta, emit):
            emit(doc["k"], doc["n"])
            if doc["n"] % 3 == 0:
                emit([doc["k"], doc["n"]], doc["n"] / 4)

        definition = ViewDefinition("dd", "v", map_fn, "_stats")
        disk = SimulatedDisk()
        index = ViewIndex(definition, disk, "views/b/dd_v.view")
        keys = ["x", "y", 3, 3.0, None, [1], {"a": 2}, True, "☃"]
        for round_no in range(10):
            batch = []
            for i in range(round_no % 2, 90, 1 + round_no % 3):
                doc = {"k": keys[(i * round_no) % len(keys)],
                       "n": i + round_no}
                rows = [] if (i + round_no) % 7 == 0 else \
                    definition.run_map(doc, None)
                batch.append((f"d{i:03d}", i % 4, rows))
            index.update_docs(batch)
        index.remove_vbucket(2)
        assert digest(disk, "views/b/dd_v.view") == VIEW_INDEX


#: sha256 of each file as built above.
CHURNED_STORE = (
    "b24820925db3af427bd801c24c270df4ae07fb433d7a7ce95f99553a35625621")
COMPACTED_PURGED = (
    "b46bb872dab80e842caf913836f36fd509b10a061985839ca2f2aab6a7e98ade")
COMPACTED_CATCH_UP = (
    "dd4bf6517f5d2a2eb23c5e5427edca754c48ce821f57ca367d8b5339ad0e9b39")
GSI_INDEX = (
    "6a5ee7c6653f3a002602a47e03f9d9ce461a60502045cc604d491fd32dde132a")
VIEW_INDEX = (
    "e5cf13268af28ed3e45762a74a4ac6c35c863c2719b573ab3656e7843bda497e")
