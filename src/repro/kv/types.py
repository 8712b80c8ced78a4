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
from typing import Callable

from ..common.contracts import bounded, protocol
from ..common.errors import ReproError

#: Group commit in time: a background writer holds what it was handed
#: and commits it once the oldest of it has waited this many calls of
#: its pump, unless a waiter asks sooner -- the flusher a vBucket's
#: queue (:meth:`repro.kv.engine.KVEngine.flush`), the indexer an
#: index's key versions (:meth:`repro.gsi.indexer.Indexer.pump`).
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


class SeqnoWaiters:
    """The freshness waits one index holds (a GSI instance, a node's
    view engine), struck against its own per-vBucket watermarks."""

    def __init__(self) -> None:
        self._waiters: list[SeqnoWaiter] = []

    def __len__(self) -> int:
        return len(self._waiters)

    @bounded("consumer-drained", "a waiter leaves when its wait ends "
                                 "(cancel) or once its marks are passed")
    def register(self, marks: dict[int, int],
                 watermarks: dict[int, int]) -> SeqnoWaiter:
        """A waiter for the ``marks`` these ``watermarks`` have not
        passed yet; kept only while some are left."""
        waiter = SeqnoWaiter(marks)
        waiter.strike(watermarks)
        if waiter.pending:
            self._waiters.append(waiter)
            waiter.hold(functools.partial(self._waiters.remove, waiter))
        return waiter

    def strike(self, watermarks: dict[int, int]) -> None:
        """The owner's watermarks advanced: strike every passed mark;
        a waiter with none left leaves."""
        done = []
        for waiter in self._waiters:
            waiter.strike(watermarks)
            if not waiter.pending:
                done.append(waiter)
        for waiter in done:
            waiter.cancel()

    def fail(self, error: ReproError) -> None:
        """The index is gone: every waiter carries ``error`` and leaves."""
        for waiter in list(self._waiters):
            waiter.error = error
            waiter.cancel()
