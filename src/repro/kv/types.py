"""Shared key-value protocol types.

These are the values that cross the wire between the data service and
everything else -- vBucket states in the cluster map, mutation tokens
returned to clients, observe results, and the waiter handles that
durability and freshness waits hold.  They live apart from
:mod:`repro.kv.engine` so that non-data services (client, n1ql, gsi,
views, xdcr) can name them without importing the engine itself; the
``layer-restricted`` check of :mod:`repro.analysis` enforces that split.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from ..common.contracts import protocol
from ..common.errors import ReproError

#: Group commit in time: a background writer holds what it was handed
#: and commits it once the oldest of it has waited this many calls of
#: its pump, unless a waiter asks sooner -- the flusher a vBucket's
#: queue (:meth:`repro.kv.engine.KVEngine.flush`), a GSI index and a
#: node's views what their pumps hand them (:class:`GroupCommit`).
FLUSH_ROUNDS = 8


@protocol(
    # Rebalance: a move builds a PENDING copy that switches to ACTIVE;
    # failover promotes a REPLICA directly; map reconciliation can
    # demote an old ACTIVE to REPLICA.  Every copy can be torn down
    # (-> DEAD), and DEAD is terminal: a dead copy's data must never
    # resurrect -- it is rebuilt fresh (section 4.3.1).
    "REPLICA->PENDING", "REPLICA->ACTIVE", "REPLICA->DEAD",
    "PENDING->ACTIVE", "PENDING->DEAD",
    "ACTIVE->REPLICA", "ACTIVE->DEAD",
    # A vBucket handoff must build the PENDING copy before the ACTIVE
    # switchover, and only then tear the old copy down.
    order=("PENDING", "ACTIVE", "DEAD"),
)
class VBucketState(Enum):
    ACTIVE = "active"
    REPLICA = "replica"
    PENDING = "pending"
    DEAD = "dead"


@dataclass
class MutationResult:
    """What a client gets back from a write: the new CAS, the mutation's
    seqno, and the vBucket it landed in (the "mutation token" used for
    durability observation and request_plus consistency)."""

    cas: int
    seqno: int
    vbucket_id: int


@dataclass
class ObserveResult:
    """Durability status of a key on one node (the observe command)."""

    exists: bool
    cas: int
    persisted: bool


class Waiter:
    """A wait registered with the component whose own work ends it.

    The flusher, the replica apply, the indexer and the view pump update
    their waiters where that work may have turned the answer true, so
    the waiting side reads the handle locally instead of sending a
    message per check.  A durability wait's handles come back on the
    messages the write already sends: the active's with the write's
    reply, each replica's with its replication batch's (see
    :class:`DurabilityWait`).  The waiting side cancels the handle when
    its wait ends, met or not; the owner may drop it earlier, once
    nothing it does can change the answer."""

    def __init__(self) -> None:
        #: Set by the owner when the wait can never be met there (the
        #: vBucket left the node, the index was dropped); the waiting
        #: side raises it.
        self.error: ReproError | None = None
        self._release: Callable[[], None] | None = None

    def hold(self, release: Callable[[], None]) -> None:
        """Called by the owner that registered this waiter; ``release``
        unregisters it."""
        self._release = release

    def cancel(self) -> None:
        """End the wait: the owner forgets this waiter.  Idempotent."""
        release, self._release = self._release, None
        if release is not None:
            release()


class ObserveWaiter(Waiter):
    """A durability wait on one copy of a key (section 2.3.2): what
    :meth:`repro.kv.engine.KVEngine.observe` says about the mutation
    with ``cas``, folded into this copy's contribution to
    ``replicate_to`` and ``persist_to``.  A flag, once set, stays set."""

    def __init__(self, key: str, cas: int, active: bool):
        super().__init__()
        self.key = key
        self.cas = cas
        #: The copy the client counts as active: it counts toward
        #: ``persist_to`` only, whatever version it holds.
        self.active = active
        self.replicated = False
        self.persisted = False

    def note(self, observed: ObserveResult) -> None:
        if self.active:
            self.persisted = self.persisted or observed.persisted
        elif observed.cas == self.cas:
            # A replica counts only the mutation itself: its live version
            # or, for a delete, its tombstone.  An older tombstone of the
            # key -- persisted long ago -- says nothing about a later
            # write.
            self.replicated = True
            self.persisted = self.persisted or observed.persisted

    @property
    def settled(self) -> bool:
        """Nothing the owner does later can change this waiter."""
        return self.error is not None or (
            self.persisted and (self.active or self.replicated))


class DurabilityWait(Waiter):
    """One durable wait on the mutation with ``cas`` (section 2.3.2):
    the :class:`ObserveWaiter` of every copy registered for it so far.
    The active registers its own when the wait starts; its replicator
    carries the registration to each replica in that replica's next
    replication batch, adds the waiter the batch returns, and records
    the replica in ``placed``.  Cancelling the wait cancels every waiter
    and takes the registrations not yet placed out of the replicator."""

    #: Bounded by the vBucket's chain: one waiter per copy, one entry
    #: per replica, and the object lives for one wait.
    __bounds__ = ("waiters", "placed")

    def __init__(self, key: str, cas: int):
        super().__init__()
        self.key = key
        self.cas = cas
        self.waiters: list[ObserveWaiter] = []
        #: Replica nodes that hold a waiter for this wait.
        self.placed: set[str] = set()

    def cancel(self) -> None:
        super().cancel()
        for waiter in self.waiters:
            waiter.cancel()


class SeqnoWaiter(Waiter):
    """A freshness wait (sections 3.1.2 and 4.2): the per-vBucket seqno
    marks one index on one node has not processed yet.  Its owner
    strikes a mark once its own watermark for that vBucket reaches it."""

    def __init__(self, marks: dict[int, int]):
        super().__init__()
        self.pending = dict(marks)

    def strike(self, watermarks: dict[int, int]) -> None:
        pending = self.pending
        for vbucket_id in [vb for vb, seqno in pending.items()
                           if watermarks.get(vb, 0) >= seqno]:
            del pending[vbucket_id]


def _raise_marks(into: dict[int, int],
                 marks: Iterable[tuple[int, int]]) -> None:
    for vbucket_id, seqno in marks:
        if seqno > into.get(vbucket_id, 0):
            into[vbucket_id] = seqno


class GroupCommit:
    """Group commit in time for an index (DESIGN.md § "Group commit in
    time for the index"): what the owner hands over -- a GSI instance's
    key versions, a view's documents -- is held with the per-vBucket
    seqno marks it brings and written by ``write(held, resets)`` in one
    go once it has waited ``FLUSH_ROUNDS`` calls of the owner's pump, at
    once while a freshness waiter (sections 3.1.2 and 4.2) is
    registered, and before a vBucket leaves.  A vBucket whose stream
    reopened at seqno 0 is a *reset*: the same write replaces its rows
    and its mark with what the replay brings.  A watermark names only
    seqnos whose rows were written."""

    #: One watermark and one held mark per vbucket -- capacity is the
    #: vbucket keyspace; a waiter leaves when its wait ends or once its
    #: marks are passed (:meth:`register`).
    __bounds__ = ("watermarks", "_marks", "_resets", "waiters")

    def __init__(self, write: Callable[[list, set], None]):
        self._write = write
        #: Items handed over and not yet written, in arrival order.
        self.held: list = []
        #: vbucket -> the highest seqno held; every held item and reset
        #: brings one, so it is empty exactly when nothing is held.
        self._marks: dict[int, int] = {}
        #: vBuckets whose rows and mark the next write replaces.
        self._resets: set[int] = set()
        #: Owner pump calls since something was first held.
        self._age = 0
        #: vbucket -> highest seqno written (or acknowledged).
        self.watermarks: dict[int, int] = {}
        self.waiters: list[SeqnoWaiter] = []

    def hold(self, items: list, marks: Iterable[tuple[int, int]],
             resets: Iterable[int] = ()) -> None:
        """Hold ``items`` and the ``(vbucket_id, seqno)`` marks they
        bring, after the ``resets`` -- vBuckets replayed from seqno 0,
        whose items all follow; written at once while a waiter is
        registered, so a barrier ends in the round its last item
        arrives."""
        for vbucket_id in resets:
            if vbucket_id in self._marks:
                self.commit()  # what is held for it predates the replay
            self._resets.add(vbucket_id)
            self._marks.setdefault(vbucket_id, 0)
        self.held += items
        _raise_marks(self._marks, marks)
        if self.waiters:
            self.commit()

    def tick(self) -> bool:
        """One call of the owner's pump; True while anything was held,
        so a drain ends with everything written."""
        if not self._marks:
            return False
        self._age += 1
        if self._age >= FLUSH_ROUNDS:
            self.commit()
        return True

    def commit(self) -> None:
        """One write of the resets and everything held, then the
        watermarks, then the waiters."""
        held, marks, resets = self.held, self._marks, self._resets
        if not marks:
            return
        self.held, self._marks, self._resets, self._age = [], {}, set(), 0
        if held or resets:
            self._write(held, resets)
        for vbucket_id in resets:
            self.watermarks.pop(vbucket_id, None)
        self._advance(marks)

    def reset(self, vbucket_ids: Iterable[int]) -> None:
        """Reset each of ``vbucket_ids`` that anything was held or
        written for, with no replay behind it: the next write drops its
        rows, and its mark goes.  For a vBucket no stream can replay --
        it has no active copy left anywhere."""
        resets = [vbucket_id for vbucket_id in vbucket_ids
                  if vbucket_id in self._marks or vbucket_id in self.watermarks]
        if resets:
            self.hold([], (), resets)

    def retire(self, vbucket_id: int) -> None:
        """A vBucket leaves: write what is held, then forget its mark."""
        self.commit()
        self.watermarks.pop(vbucket_id, None)

    def _advance(self, marks: dict[int, int]) -> None:
        _raise_marks(self.watermarks, marks.items())
        for waiter in list(self.waiters):
            waiter.strike(self.watermarks)
            if not waiter.pending:
                waiter.cancel()

    def register(self, marks: dict[int, int]) -> SeqnoWaiter:
        """Write what is held, then a waiter for the ``marks`` the
        watermarks have not passed yet; kept only while some are left."""
        self.commit()
        waiter = SeqnoWaiter(marks)
        waiter.strike(self.watermarks)
        if waiter.pending:
            self.waiters.append(waiter)
            waiter.hold(functools.partial(self.waiters.remove, waiter))
        return waiter

    def fail(self, error: ReproError) -> None:
        """The index is gone: every waiter carries ``error`` and leaves."""
        for waiter in list(self.waiters):
            waiter.error = error
            waiter.cancel()
