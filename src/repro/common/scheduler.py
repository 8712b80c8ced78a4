"""Cooperative scheduler for the cluster's asynchronous machinery.

Section 2.3.2 of the paper: *"Couchbase Server made a design choice to
update all other components of the database asynchronously when a data
update occurs."*  The flusher (disk write queue), intra-cluster
replicator, view engine, GSI projector/indexer, and XDCR are all
background consumers of work queues.

In the real system those are OS threads; here they are **pumps** -- small
callables registered with a shared :class:`Scheduler` that each drain a
bounded batch of their queue when invoked and report whether they did any
work.  ``run_until_idle()`` repeatedly invokes every pump until a full
round does nothing.  This gives the same observable semantics -- writes
acknowledge immediately, downstream state catches up "later" -- while
keeping tests exact and repeatable.  A blocking wait drives only the
pumps that can end it (:meth:`Scheduler.run_until` with the names
:func:`pump_name` builds): a durable write runs its vBucket's flusher
and replicator, not every node's compactor and projector.

The *order* pumps run in within a round is owned by a pluggable
:class:`SchedulePolicy`.  The default (:class:`RegistrationOrder`)
preserves the historical fixed order, so every existing test and the
Fig-15/16 harness observe the exact same interleaving as before.  The
sanitizer (``repro.sanitize``) swaps in seed-deterministic policies
(:class:`SeededShuffle`, :class:`StarveOne`, :class:`Weighted`) to explore
other interleavings: every policy returns a *permutation* of the live
pumps, so quiescence detection ("a full round made no progress") is
unchanged -- only the order inside the round varies, and identical seeds
always produce identical schedules.

The scheduler also owns timed events (lock timeouts, heartbeats,
compaction ticks) against the shared :class:`VirtualClock`.
"""

from __future__ import annotations

import heapq
import itertools
from random import Random
from typing import Callable, Collection

from . import tracing
from .clock import VirtualClock
from .errors import InvalidArgumentError, LivelockError, SchedulerReentrancyError

Pump = Callable[[], bool]


def pump_name(kind: str, node: str, bucket: str | None = None) -> str:
    """The name a node's pump registers under -- ``kind/node/bucket``
    for a bucket's pump, ``kind/node`` for the node's own -- and the
    name a wait passes to :meth:`Scheduler.run_until` to drive it."""
    return f"{kind}/{node}" if bucket is None else f"{kind}/{node}/{bucket}"


#: Large prime used to mix (seed, round) into a single int seed.  Seeding
#: with an int only -- never a tuple containing strings -- keeps schedules
#: stable across processes regardless of PYTHONHASHSEED.
_SEED_MIX = 1_000_003


class SchedulePolicy:
    """Decides the order pumps run in within one scheduler round.

    Contract: :meth:`order` receives the round index and the list of live
    pump names in registration order, and must return a **permutation** of
    that list (same names, each exactly once).  Policies must be
    deterministic functions of ``(constructor args, round_index, names)``
    so a schedule can be replayed exactly from its seed.
    """

    def order(self, round_index: int, names: list[str]) -> list[str]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class RegistrationOrder(SchedulePolicy):
    """The historical default: pumps run in registration order."""

    def order(self, round_index: int, names: list[str]) -> list[str]:
        return names

    def describe(self) -> str:
        return "registration-order"


class SeededShuffle(SchedulePolicy):
    """Uniformly shuffle each round with a per-round RNG derived from the
    seed, so round k's order is independent of rounds 0..k-1 and of how
    many pumps existed in earlier rounds."""

    def __init__(self, seed: int):
        self.seed = seed

    def order(self, round_index: int, names: list[str]) -> list[str]:
        rng = Random(self.seed * _SEED_MIX + round_index)
        shuffled = list(names)
        rng.shuffle(shuffled)
        return shuffled

    def describe(self) -> str:
        return f"seeded-shuffle(seed={self.seed})"


class StarveOne(SchedulePolicy):
    """Adversarial starvation: pick one victim pump per epoch (8 rounds)
    and push it to the end of every round in that epoch, so everything
    else repeatedly runs ahead of it.  This widens the window for bugs
    where component A implicitly assumes component B has caught up."""

    EPOCH_ROUNDS = 8

    def __init__(self, seed: int):
        self.seed = seed

    def order(self, round_index: int, names: list[str]) -> list[str]:
        if not names:
            return []
        epoch = round_index // self.EPOCH_ROUNDS
        rng = Random(self.seed * _SEED_MIX + epoch)
        victim = rng.randrange(len(names))
        ordered = list(names)
        ordered.append(ordered.pop(victim))
        return ordered

    def describe(self) -> str:
        return f"starve-one(seed={self.seed})"


class Weighted(SchedulePolicy):
    """Biased-order sampling: each pump draws an Efraimidis-Spirakis key
    ``u ** (1/w)`` and the round runs highest-key first, so heavier pump
    kinds tend to run earlier.  Weights are looked up by the pump name's
    first ``/``-separated segment (``flusher/n1/b`` -> ``flusher``)."""

    def __init__(self, seed: int, weights: dict[str, float] | None = None):
        self.seed = seed
        self.weights = dict(weights) if weights else {}

    def _weight(self, name: str) -> float:
        kind = name.split("/", 1)[0]
        weight = self.weights.get(kind, 1.0)
        if weight <= 0:
            raise InvalidArgumentError(f"pump weight must be positive: {kind}={weight}")
        return weight

    def order(self, round_index: int, names: list[str]) -> list[str]:
        rng = Random(self.seed * _SEED_MIX + round_index)
        keyed = [
            (rng.random() ** (1.0 / self._weight(name)), index, name)
            for index, name in enumerate(names)
        ]
        keyed.sort(key=lambda item: (-item[0], item[1]))
        return [name for _, _, name in keyed]

    def describe(self) -> str:
        return f"weighted(seed={self.seed})"


class Scheduler:
    """Deterministic cooperative scheduler.

    Pumps are callables returning ``True`` if they made progress.  Timers
    fire when the attached virtual clock is advanced past their deadline
    via :meth:`advance`.
    """

    #: Safety valve: ``run_until_idle`` raises if the system fails to
    #: quiesce after this many full rounds, which indicates a livelock
    #: (two pumps feeding each other forever).
    MAX_ROUNDS = 100_000

    def __init__(self, clock: VirtualClock | None = None,
                 policy: SchedulePolicy | None = None):
        self.clock = clock if clock is not None else VirtualClock()
        self.policy: SchedulePolicy = policy if policy is not None else RegistrationOrder()
        #: Diagnostic name, prefixed onto pump names in write-race reports
        #: so multi-cluster (XDCR) runs attribute writes unambiguously.
        self.name = "scheduler"
        #: Name of the pump currently executing, or ``None`` when control
        #: is in frontend/test code or a timer callback.
        self.current_pump: str | None = None
        #: When set to a list, every executed round's pump order is
        #: appended -- the schedule trace the divergence oracle reports.
        self.trace: list[list[str]] | None = None
        self._pumps: list[tuple[str, Pump]] = []
        self._by_name: dict[str, Pump] = {}
        self._round = 0
        self._in_pump = False
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        self._cancelled: set[int] = set()

    # -- pumps -------------------------------------------------------------

    def register(self, name: str, pump: Pump) -> None:
        """Register a background pump under a (diagnostic) name."""
        if name in self._by_name:
            raise InvalidArgumentError(f"pump already registered: {name!r}")
        self._pumps.append((name, pump))
        self._by_name[name] = pump

    def unregister(self, name: str) -> None:
        self._pumps = [(n, p) for n, p in self._pumps if n != name]
        self._by_name.pop(name, None)

    def pump_names(self) -> list[str]:
        return [name for name, _ in self._pumps]

    def step(self, pumps: Collection[str] | None = None) -> bool:
        """Run one round of every pump -- or, given ``pumps``, one pass
        over only the registered pumps it names -- and return True if
        any did work.

        The order is ``policy.order(...)`` over a snapshot of the live
        pump names (of the named ones, for a pass; a name nobody
        registered is skipped).  A pass counts in ``_round`` and in
        ``trace`` like a round.  A pump registered mid-round joins the
        *next* round; a pump unregistered mid-round is skipped for the
        remainder of this round (it no longer exists -- running it from
        the stale snapshot would execute a torn-down component).
        """
        if self._in_pump:
            raise SchedulerReentrancyError(
                f"pump {self.current_pump!r} re-entered the scheduler drive "
                "loop; pumps must do one bounded slice of work and return"
            )
        round_index = self._round
        self._round += 1
        names = self.pump_names()
        if pumps is not None:
            names = [name for name in names if name in pumps]
        ordered = self.policy.order(round_index, names)
        if ordered is not names and sorted(ordered) != sorted(names):
            raise InvalidArgumentError(
                f"schedule policy {self.policy.describe()} returned "
                f"{ordered!r}, not a permutation of {names!r}"
            )
        tracker = tracing.current()
        progressed = False
        executed: list[str] = []
        for name in ordered:
            pump = self._by_name.get(name)
            if pump is None:
                continue  # unregistered earlier this round
            executed.append(name)
            self.current_pump = name
            self._in_pump = True
            if tracker is not None:
                tracker.enter_pump(f"{self.name}:{name}")
            try:
                if pump():
                    progressed = True
            finally:
                if tracker is not None:
                    tracker.exit_pump()
                self.current_pump = None
                self._in_pump = False
        if self.trace is not None:
            self.trace.append(executed)
        return progressed

    def run_until_idle(self) -> int:
        """Drive all pumps until a full round makes no progress.

        Returns the number of rounds that did work.  This is the moral
        equivalent of "wait for all async work to settle" in the real
        system.
        """
        rounds = 0
        while self.step():
            rounds += 1
            if rounds > self.MAX_ROUNDS:
                raise LivelockError(
                    "scheduler livelock: pumps still busy after "
                    f"{self.MAX_ROUNDS} rounds: {self.pump_names()}"
                )
        return rounds

    def run_until(self, condition: Callable[[], bool],
                  max_rounds: int = 100_000,
                  pumps: Collection[str] | None = None) -> bool:
        """Drive pumps until ``condition()`` holds or the system goes idle.

        Returns True if the condition was met.  Used for blocking waits
        such as durable writes, ``stale=false`` view queries and
        ``request_plus`` scans.  Given ``pumps`` -- the pumps that can
        end the wait -- it runs passes over only those while they make
        progress, then whole rounds until one makes none.
        """
        if condition():
            return True
        for _ in range(max_rounds):
            progressed = self.step(pumps)
            if condition():
                return True
            if not progressed:
                if pumps is None:
                    return False
                pumps = None
        raise LivelockError("run_until exceeded max_rounds without idling")

    # -- timers ------------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to fire when virtual time reaches ``when``.

        Returns a handle usable with :meth:`cancel`.
        """
        handle = next(self._timer_seq)
        heapq.heappush(self._timers, (when, handle, callback))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> int:
        return self.call_at(self.clock.now() + delay, callback)

    def cancel(self, handle: int) -> None:
        self._cancelled.add(handle)

    def advance(self, seconds: float) -> None:
        """Advance virtual time, firing due timers in deadline order and
        letting the pumps settle after each firing."""
        deadline = self.clock.now() + seconds
        while self._timers and self._timers[0][0] <= deadline:
            when, handle, callback = heapq.heappop(self._timers)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self.clock.advance_to(max(when, self.clock.now()))
            callback()
            self.run_until_idle()
        self.clock.advance_to(deadline)

    def pending_timers(self) -> int:
        return sum(1 for _, h, _ in self._timers if h not in self._cancelled)
