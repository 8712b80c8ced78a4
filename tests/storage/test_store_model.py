"""``VBucketStore`` against a dict, across arbitrary save / header /
compact / crash sequences (ROADMAP item 6(d)).

The model is two dicts: what the store object holds now, and what it
held at the last *synced* header -- which is what a reopen after
``disk.crash()`` must come back with.  Every invariant is checked after
every rule, so the failing step is the one that broke it.

The compactor's cached fragmentation ratio rides along: it is refreshed
only when the file's size (or the store object) changed, so after every
rule it must equal a fresh ``fragmentation()`` -- a rule that moved the
counters without moving the size would break it.
"""

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.disk import SimulatedDisk
from repro.common.errors import KeyNotFoundError
from repro.storage.btree import BTree
from repro.storage.compaction import Compactor
from repro.storage.couchstore import VBucketStore

from .btree_oracle import measure_node_bytes
from .test_couchstore import make_doc

FILENAME = "vb7.couch"
KEY_NAMES = [f"k{i}" for i in range(12)]
KEYS = st.sampled_from(KEY_NAMES)
VALUES = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=3),
)
#: (key, value) upserts and (key, None) deletes; keys repeat within a
#: batch on purpose -- the store keeps only the newest.
MUTATIONS = st.lists(st.tuples(KEYS, st.one_of(st.none(), VALUES)),
                     min_size=1, max_size=8)


class Model:
    """``docs``: key -> (value, seqno, deleted), tombstones included."""

    def __init__(self):
        self.docs: dict[str, tuple] = {}
        self.update_seq = 0

    def live(self) -> dict:
        return {k: v for k, v in self.docs.items() if not v[2]}

    def tombstones(self) -> dict:
        return {k: v for k, v in self.docs.items() if v[2]}


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Fan-out 4: a dozen keys make three-level trees, so splits,
        # emptied leaves and interior rewrites are all in play.
        self.fan_out, BTree.MAX_NODE_ITEMS = BTree.MAX_NODE_ITEMS, 4
        self.disk = SimulatedDisk()
        self.store = VBucketStore(self.disk, FILENAME, 7)
        self.now = Model()
        self.durable = Model()
        self.next_seqno = 0
        self.compactor = Compactor(self.disk)

    def teardown(self):
        BTree.MAX_NODE_ITEMS = self.fan_out

    @rule(mutations=MUTATIONS)
    def save_docs(self, mutations):
        batch = []
        for key, value in mutations:
            self.next_seqno += 1
            deleted = value is None
            batch.append(make_doc(key, value, self.next_seqno, deleted=deleted))
            self.now.docs[key] = (value, self.next_seqno, deleted)
        self.now.update_seq = self.next_seqno
        self.store.save_docs(batch)

    @rule(sync=st.booleans())
    def write_header(self, sync):
        self.store.write_header(sync=sync)
        if sync:
            self.durable = copy.deepcopy(self.now)

    @rule(purge=st.booleans())
    def compact(self, purge):
        # The compactor copies from the store's current trees, headered
        # or not, and syncs the new file: everything saved so far
        # becomes durable, minus the purged tombstones.
        purge_before = self.now.update_seq if purge else 0
        self.store = self.compactor.compact(self.store,
                                            purge_before_seq=purge_before)
        for key, (_value, seqno, deleted) in list(self.now.docs.items()):
            if deleted and seqno <= purge_before:
                del self.now.docs[key]
        self.durable = copy.deepcopy(self.now)

    @rule()
    def crash_and_reopen(self):
        self.disk.crash()
        self.store = VBucketStore(self.disk, FILENAME, 7)
        self.now = copy.deepcopy(self.durable)

    @rule()
    def destroy(self):
        # Truncated to nothing and synced: gone now and after a crash.
        self.store.destroy()
        self.now = Model()
        self.durable = Model()

    @invariant()
    def point_reads_agree(self):
        store = self.store
        for key in KEY_NAMES:
            entry = self.now.docs.get(key)
            tombstone = entry is not None and entry[2]
            assert store.contains(key) == (entry is not None and not tombstone)
            assert store.has_tombstone(key) == tombstone
            if entry is None or tombstone:
                with pytest.raises(KeyNotFoundError):
                    store.get(key)
            if entry is None:
                with pytest.raises(KeyNotFoundError):
                    store.get(key, include_deleted=True)
            else:
                doc = store.get(key, include_deleted=True)
                assert (doc.value, doc.meta.seqno, doc.meta.deleted) == entry

    @invariant()
    def scans_agree(self):
        store = self.store
        live = self.now.live()
        assert [(d.key, d.value) for d in store.all_docs()] == \
            [(key, live[key][0]) for key in sorted(live)]
        assert [d.key for d in store.all_docs(include_deleted=True)] == \
            sorted(self.now.docs)
        by_seqno = sorted((seqno, key, value, deleted) for key,
                          (value, seqno, deleted) in self.now.docs.items())
        assert [(d.meta.seqno, d.key, d.value, d.meta.deleted)
                for d in store.changes_since(0)] == by_seqno

    @invariant()
    def counters_agree(self):
        store = self.store
        assert store.doc_count == len(self.now.live())
        assert store.deleted_count == len(self.now.tombstones())
        assert store.update_seq == self.now.update_seq
        # live_size is the sum of the live records' body lengths, and
        # each by-key entry [pointer, seqno, size, deleted] agrees with
        # the record it points at.
        entries = list(store.by_key.items())
        for key, (pointer, seqno, size, deleted) in entries:
            _record_type, body = store.log.read(pointer)
            assert size == len(body)
            doc = store._load_doc(pointer)
            assert (doc.key, doc.meta.seqno, doc.meta.deleted) == \
                (key, seqno, bool(deleted))
        assert store.live_size == sum(entry[2] for _key, entry in entries)
        assert store.by_key.node_bytes == measure_node_bytes(store.by_key)
        assert store.by_seq.node_bytes == measure_node_bytes(store.by_seq)

    @invariant()
    def fragmentation_is_a_proper_fraction(self):
        fragmentation = self.store.fragmentation()
        if self.now.docs:
            assert 0.0 <= fragmentation < 1.0
        else:
            # Nothing at all, or nothing but headers: the one state in
            # which the whole file is garbage.
            assert fragmentation in (0.0, 1.0)

    @invariant()
    def cached_fragmentation_is_fresh(self):
        assert self.compactor.fragmentation(self.store) == \
            self.store.fragmentation()


StoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None,
)
TestStoreAgainstModel = StoreMachine.TestCase
