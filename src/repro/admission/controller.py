"""The admission-control front door.

One :class:`AdmissionController` per cluster sits between the clients
and the fabric and decides, before any work is done, whether a request
may enter.  It composes the pieces of this package:

* **service budgets** -- one token bucket per service class (``kv``,
  ``n1ql``) refilled on the virtual clock; a query is charged once, at
  :meth:`admit_query`, and the query engine's own data fetches draw on
  no budget;
* **circuit breakers** -- one per data node, tripped by pressure-tagged
  ``TemporaryFailureError`` outcomes, so saturated nodes see cheap
  rejections instead of retry storms;
* **backpressure** -- the engine's TMPFAIL metadata (flusher backlog,
  memory ratio, retry hint) feeds a decaying per-node pressure score
  that drives the degradation order: **shed N1QL before KV**.  Queries
  are refused at :meth:`admit_query` while the data path is elevated;
  KV point ops are only ever refused by their own budget or an open
  breaker.

Everything is deterministic: time is the scheduler's virtual clock,
jitter comes from seeded ``random.Random`` streams, and the decay math
is a pure function of (score, elapsed virtual time).  Rejections raise
:class:`~repro.common.errors.AdmissionRejectedError`, a subclass of
``TemporaryFailureError``, so existing ``@declared_raises`` contracts
already cover the front door.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..common.contracts import declared_raises
from ..common.crc import crc32
from ..common.errors import AdmissionRejectedError
from ..common.metrics import MetricsRegistry
from ..common.scheduler import Scheduler
from .breaker import CLOSED, DEFAULT_COOLDOWN, CircuitBreaker
from .tokens import ExponentialBackoff, TokenBucket

#: Registered mutable module state (declared-shared-state lint rule):
#: monotonic controller-id source, mixed into each controller's seeds so
#: two clusters in one process never share jitter streams.
__shared_state__ = ("_controller_ids",)

_controller_ids = itertools.count(1)

#: Prime seed mixer (same idiom as the scheduler's policy seeding).
_SEED_MIX = 1_000_003


@dataclass
class AdmissionConfig:
    """Tuning knobs.  With nothing configured the controller sets no
    rate caps; breakers and backpressure are always on."""

    #: Per-service (rate, burst) budgets, e.g. {"n1ql": (50.0, 10.0)}.
    service_rates: dict = field(default_factory=dict)
    #: Breaker: consecutive overload failures before opening.
    breaker_threshold: int = 5


class AdmissionController:
    """Front door shared by every client of one cluster."""

    #: Population-keyed registries: ``_services`` holds one slot per
    #: service class ("kv", "n1ql") and ``_breakers`` one per data node
    #: of the cluster topology -- bounded by construction, not by
    #: eviction.
    __bounds__ = ("_services", "_breakers")

    #: Decayed pressure scores below this are indistinguishable from
    #: "never overloaded" and are dropped, so `_pressure` holds only
    #: nodes with live incidents (found by the bounds checks: entries for
    #: long-recovered or removed nodes lingered forever).
    PRESSURE_FLOOR = 1e-4
    #: Pressure-score half-life (virtual seconds).
    PRESSURE_HALF_LIFE = 0.5
    #: Pressure score at which the degradation policy starts shedding
    #: N1QL.
    SHED_THRESHOLD = 1.0
    #: Overload-signal weighting: a TMPFAIL's ``pending_writes`` adds
    #: one extra pressure point per this many queued mutations, and one
    #: signal's total weight never exceeds the cap.
    PRESSURE_DEPTH_SCALE = 256.0
    PRESSURE_WEIGHT_CAP = 4.0
    #: Bounded scheduler rounds granted per backoff so the flusher/pager
    #: make progress without a full-cluster quiesce.
    RELIEF_STEPS = 2
    #: Base of every jitter stream (mixed with the controller id).
    SEED = 101

    def __init__(self, scheduler: Scheduler, *,
                 config: AdmissionConfig | None = None):
        self.scheduler = scheduler
        self.clock = scheduler.clock
        self.config = config if config is not None else AdmissionConfig()
        self.metrics = MetricsRegistry()
        self.controller_id = next(_controller_ids)
        self._seed = self.SEED * _SEED_MIX + self.controller_id
        self._backoff = ExponentialBackoff(seed=self._seed)
        self._services: dict[str, TokenBucket] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Names of the connected client handles; only their traffic is
        #: counted at the fabric -- internal pumps (replication,
        #: projector, XDCR) are not client requests.
        self._clients: set[str] = set()
        #: node -> (decaying overload score, virtual time of last update).
        self._pressure: dict[str, tuple[float, float]] = {}

    # -- registration ------------------------------------------------------

    def register_client(self, name: str) -> None:
        self._clients.add(name)

    def unregister_client(self, name: str) -> None:
        """Release a disconnected client's registration.  Client handles
        get a fresh unique name on every connect, so without this the
        controller retained one entry per connection ever made (found
        by the bounds checks)."""
        self._clients.discard(name)

    # -- lazily-built parts ------------------------------------------------

    def _service_bucket(self, service: str) -> TokenBucket:
        bucket = self._services.get(service)
        if bucket is None:
            rate, burst = self.config.service_rates.get(service, (None, None))
            bucket = TokenBucket(self.clock, rate, burst)
            self._services[service] = bucket
        return bucket

    def breaker(self, node: str) -> CircuitBreaker:
        """The circuit breaker guarding RPCs to ``node``."""
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = CircuitBreaker(
                node, self.scheduler,
                threshold=self.config.breaker_threshold,
                seed=self._seed * _SEED_MIX + crc32(node.encode("utf-8")),
                metrics=self.metrics,
            )
            self._breakers[node] = breaker
        return breaker

    # -- admission ---------------------------------------------------------

    @declared_raises('AdmissionRejectedError')
    def acquire(self, service: str, ops: int = 1) -> None:
        """Admit ``ops`` operations on the ``service`` budget, or shed
        them with the budget's refill delay as the retry hint."""
        self.metrics.inc("admission.requests", ops)
        bucket = self._service_bucket(service)
        if not bucket.try_acquire(ops):
            self._count_shed(service, ops)
            raise AdmissionRejectedError(
                f"{service} service over its rate budget",
                retry_after=bucket.deficit_delay(ops),
            )

    @declared_raises('AdmissionRejectedError')
    def admit_query(self) -> None:
        """The query front door, charged once per query.  Degradation is
        ordered shed-N1QL-before-KV: whenever the data path reports
        overload (pressure score past threshold, or any breaker not
        closed) new queries are refused here, while KV point ops keep
        flowing."""
        if self.overloaded():
            self._count_shed("n1ql", 1)
            raise AdmissionRejectedError(
                "query shed: data service under memory pressure",
                retry_after=DEFAULT_COOLDOWN,
            )
        self.acquire("n1ql")

    def _count_shed(self, service: str, ops: int) -> None:
        if service == "n1ql":
            self.metrics.inc("admission.n1ql.shed", ops)
        else:
            self.metrics.inc("admission.kv.shed", ops)

    # -- fabric hook -------------------------------------------------------

    def fabric_filter(self, src: str, dst: str, method: str) -> None:
        """Installed as ``Network.call_filter``: runs before every
        dispatch and counts the calls of registered clients; pump
        traffic (replication, projector, XDCR, manager) is not
        counted."""
        if src in self._clients:
            self.metrics.inc("admission.fabric.calls")

    # -- backpressure ------------------------------------------------------

    def note_overload(self, node: str, error: Exception | None = None) -> None:
        """Record a pressure-tagged temporary failure from ``node``,
        weighted by the server's own overload metadata: a TMPFAIL
        carrying a deep flusher backlog (``pending_writes``) or memory
        far past quota (``memory_ratio``) moves the score more than a
        marginal overshoot, so the shed threshold trips faster when the
        data path is deeply behind.  The score decays with virtual time
        so old incidents stop shedding."""
        now = self.clock.now()
        score = self._decayed_score(node, now)
        weight = 1.0
        if error is not None:
            pending = getattr(error, "pending_writes", None) or 0
            ratio = getattr(error, "memory_ratio", None) or 0.0
            weight += pending / self.PRESSURE_DEPTH_SCALE
            weight += max(0.0, ratio - 1.0)
            weight = min(weight, self.PRESSURE_WEIGHT_CAP)
        self._pressure[node] = (score + weight, now)
        self.metrics.inc("admission.overload_signals")
        self.metrics.observe("admission.overload_weight", weight)

    def _decayed_score(self, node: str, now: float) -> float:
        score, last = self._pressure.get(node, (0.0, now))
        if score <= 0.0:
            return 0.0
        elapsed = max(0.0, now - last)
        return score * 0.5 ** (elapsed / self.PRESSURE_HALF_LIFE)

    def pressure_score(self) -> float:
        """Cluster-wide pressure: the hottest node's decayed score.
        Entries decayed below :data:`PRESSURE_FLOOR` are pruned."""
        now = self.clock.now()
        worst = 0.0
        for node in sorted(self._pressure):
            score = self._decayed_score(node, now)
            if score < self.PRESSURE_FLOOR:
                self._pressure.pop(node)
            else:
                worst = max(worst, score)
        return worst

    def overloaded(self) -> bool:
        """True while the degradation policy should shed N1QL."""
        if self.pressure_score() >= self.SHED_THRESHOLD:
            return True
        return any(b.state != CLOSED for b in self._breakers.values())

    @declared_raises('InvalidArgumentError')
    def backoff(self, attempt: int, hint: float | None = None) -> None:
        """Client-side reaction to one overload failure: a *bounded*
        number of scheduler rounds so the flusher and pager make
        progress, then an exponential-with-jitter virtual-time sleep
        (stretched to the server's ``retry_after`` hint) -- never a
        ``run_until_idle()`` full-cluster quiesce per retry.

        Declared: driving the scheduler surfaces its policy-permutation
        guard (``InvalidArgumentError``) if a schedule policy is buggy."""
        for _ in range(self.RELIEF_STEPS):
            if not self.scheduler.step():
                break
        delay = self._backoff.delay(attempt)
        if hint is not None:
            delay = max(delay, hint)
        self.metrics.inc("admission.backoffs")
        self.metrics.observe("admission.backoff_seconds", delay)
        self.scheduler.advance(delay)

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        now = self.clock.now()
        return {
            "pressure": {
                node: round(self._decayed_score(node, now), 4)
                for node in sorted(self._pressure)
            },
            "breakers": {
                node: breaker.state
                for node, breaker in sorted(self._breakers.items())
            },
            "metrics": self.metrics.snapshot(),
        }
