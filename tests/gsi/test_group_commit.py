"""The indexer's group commit in time against a dict model.

An :class:`Indexer` holds the key versions routers apply and commits an
instance -- one tree rewrite, then its watermarks, then its waiters --
when the oldest held batch has waited ``FLUSH_ROUNDS`` pump calls, when
a wait registers, at once while a waiter is registered, or when asked
to.  The model is the same rule over dicts; after
every step the tree must hold exactly the key versions its watermarks
name, no more and no fewer, so a watermark never runs ahead of the rows.
Both storage kinds follow the one rule.
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.common.disk import SimulatedDisk
from repro.common.metrics import MetricsRegistry
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.gsi.indexer import Indexer
from repro.gsi.projector import KeyVersion
from repro.kv.types import FLUSH_ROUNDS

from .support import drain_indexer

DOC_IDS = [f"d{i}" for i in range(6)]
VBUCKETS = 3
#: One document's entries: distinct single-component keys, [] deletes.
ENTRIES = st.lists(st.integers(0, 4), unique=True, max_size=2).map(
    lambda values: [[v] for v in values])
BATCH = st.lists(st.tuples(st.sampled_from(DOC_IDS), ENTRIES),
                 min_size=1, max_size=5)


def vbucket_of(doc_id: str) -> int:
    return int(doc_id[1:]) % VBUCKETS


class GroupCommitMachine(RuleBasedStateMachine):
    kind = "standard"

    waiters = Bundle("waiters")

    def __init__(self):
        super().__init__()
        node = SimpleNamespace(name="i1", disk=SimulatedDisk(),
                               metrics=MetricsRegistry())
        self.indexer = Indexer(node)
        self.indexer.create(IndexDefinition(
            name="ix", bucket="b", key_sources=["v"],
            extractors=[path_extractor("v")], storage=self.kind,
        ))
        self.instance = self.indexer.instance("ix")
        #: Every key version applied, in order: (vb, seqno, doc, entries).
        self.history: list[tuple[int, int, str, list]] = []
        self.seqnos = [0] * VBUCKETS
        #: The model: key versions applied and not committed, the pump
        #: call count when they started to wait, and the committed marks.
        self.held = 0
        self.held_since = 0
        self.pump_calls = 0
        self.marks: dict[int, int] = {}
        #: Open waits by ``id``: (handle, the marks it asked for).
        self.open: dict[int, tuple] = {}

    # -- the model's commit ---------------------------------------------------

    def commit(self) -> None:
        for vbucket_id, seqno, _doc_id, _entries in self.history:
            if seqno > self.marks.get(vbucket_id, 0):
                self.marks[vbucket_id] = seqno
        self.held = 0

    def waiting(self) -> bool:
        return any(self.pending(asked) for _waiter, asked in self.open.values())

    def pending(self, asked: dict) -> dict:
        return {vb: seqno for vb, seqno in asked.items()
                if self.marks.get(vb, 0) < seqno}

    # -- rules -----------------------------------------------------------------

    @rule(batch=BATCH)
    def apply(self, batch):
        key_versions = []
        for doc_id, entries in batch:
            vbucket_id = vbucket_of(doc_id)
            self.seqnos[vbucket_id] += 1
            seqno = self.seqnos[vbucket_id]
            key_versions.append(KeyVersion("ix", "b", doc_id, entries,
                                           vbucket_id, seqno))
            self.history.append((vbucket_id, seqno, doc_id, entries))
        self.indexer.apply(key_versions)
        if not self.held:
            self.held_since = self.pump_calls
        self.held += len(key_versions)
        if self.waiting():
            self.commit()

    @rule(calls=st.integers(1, FLUSH_ROUNDS + 1))
    def pump(self, calls):
        for _ in range(calls):
            was_held = self.held > 0
            self.pump_calls += 1
            if was_held and self.held_since <= self.pump_calls - FLUSH_ROUNDS:
                self.commit()
            assert self.indexer.pump() is was_held
            assert len(self.instance.held) == self.held

    @rule()
    def drain(self):
        drain_indexer(self.indexer)
        self.commit()

    @rule()
    def hold_marks_and_commit(self):
        # Marks held without rows (a slice that only advanced its
        # streams) are committed with what is held before them.
        self.instance.hold([], list(enumerate(self.seqnos)))
        self.instance.commit()
        self.commit()
        for vbucket_id, seqno in enumerate(self.seqnos):
            if seqno > self.marks.get(vbucket_id, 0):
                self.marks[vbucket_id] = seqno

    @rule(target=waiters, vbucket_id=st.integers(0, VBUCKETS - 1),
          ahead=st.integers(-2, 2))
    def wait(self, vbucket_id, ahead):
        asked = {vbucket_id: max(1, self.seqnos[vbucket_id] + ahead)}
        waiter = self.indexer.wait("ix", asked)
        self.commit()
        self.open[id(waiter)] = (waiter, asked)
        assert waiter.pending == self.pending(asked)
        return waiter

    @rule(waiter=consumes(waiters))
    def cancel(self, waiter):
        waiter.cancel()
        self.open.pop(id(waiter), None)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def watermarks_name_exactly_the_rows_in_the_tree(self):
        instance = self.instance
        assert instance.watermarks == self.marks
        assert len(instance.held) == self.held
        rows: dict[str, list] = {}
        for vbucket_id, seqno, doc_id, entries in self.history:
            if seqno <= instance.watermarks.get(vbucket_id, 0):
                rows[doc_id] = entries
        expected = sorted((entry, doc_id) for doc_id, entries in rows.items()
                          for entry in entries)
        assert self.indexer.scan("ix", None, None) == expected
        assert self.indexer.count("ix") == len(expected)

    @invariant()
    def a_waiter_stays_while_marks_are_pending(self):
        for waiter, asked in self.open.values():
            assert waiter.pending == self.pending(asked)
        assert len(self.instance.waiters) == sum(
            1 for _waiter, asked in self.open.values() if self.pending(asked))


class MemoptGroupCommitMachine(GroupCommitMachine):
    kind = "memopt"


TestStandardGroupCommit = GroupCommitMachine.TestCase
TestStandardGroupCommit.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestMemoptGroupCommit = MemoptGroupCommitMachine.TestCase
TestMemoptGroupCommit.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


@pytest.mark.parametrize("kind", ["standard", "memopt"])
def test_a_reset_replaces_its_vbuckets_rows_and_mark_in_one_commit(kind):
    """A key version without a document resets its vBucket: the commit
    that writes the replay behind it first drops the vBucket's rows and
    watermark, in one storage write, and leaves every other vBucket as
    it was.  A reset with no replay behind it empties the vBucket."""
    disk = SimulatedDisk()
    node = SimpleNamespace(name="i1", disk=disk, metrics=MetricsRegistry())
    indexer = Indexer(node)
    indexer.create(IndexDefinition(
        name="ix", bucket="b", key_sources=["v"],
        extractors=[path_extractor("v")], storage=kind,
    ))
    indexer.apply([KeyVersion("ix", "b", "d0", [[0]], 0, 1),
                   KeyVersion("ix", "b", "d3", [[3]], 0, 2),
                   KeyVersion("ix", "b", "d1", [[1]], 1, 1),
                   KeyVersion("ix", "b", "d2", [[2]], 2, 1)])
    drain_indexer(indexer)
    writes = disk.stats.writes

    indexer.apply([KeyVersion("ix", "b", None, [], 0, 0),
                   KeyVersion("ix", "b", "d3", [[30]], 0, 1),
                   KeyVersion("ix", "b", None, [], 2, 0)])
    # Held: the committed rows and marks are untouched until the commit.
    assert indexer.watermarks("ix") == {0: 2, 1: 1, 2: 1}
    assert len(indexer.scan("ix", None, None)) == 4
    drain_indexer(indexer)
    assert indexer.scan("ix", None, None) == [([1], "d1"), ([30], "d3")]
    assert indexer.watermarks("ix") == {0: 1, 1: 1}
    if kind == "standard":
        assert disk.stats.writes - writes == 1
