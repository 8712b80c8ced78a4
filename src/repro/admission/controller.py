"""The admission-control front door.

One :class:`AdmissionController` per cluster sits between the clients
and the fabric and decides, before any work is done, whether a request
may enter.  It composes the pieces of this package:

* **token buckets** -- per-tenant (client handle) and per-service rate
  budgets refilled on the virtual clock;
* **bulkheads** -- per-service compartments (``kv`` vs ``n1ql``) so a
  scan storm exhausts only its own compartment;
* **circuit breakers** -- one per data node, tripped by pressure-tagged
  ``TemporaryFailureError`` outcomes, so saturated nodes see cheap
  rejections instead of retry storms;
* **backpressure** -- the engine's TMPFAIL metadata (flusher backlog,
  memory ratio, retry hint) feeds a decaying per-node pressure score
  that drives the degradation order: **shed N1QL before KV**.  Queries
  are refused at :meth:`admit_query` while the data path is elevated;
  KV point ops are only ever refused by their own budgets or an open
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
from typing import Callable

from ..common.crc import crc32
from ..common.errors import AdmissionRejectedError, declared_raises
from ..common.metrics import MetricsRegistry
from ..common.scheduler import Scheduler
from .breaker import CLOSED, DEFAULT_COOLDOWN, CircuitBreaker
from .bulkhead import Bulkhead
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
    """Tuning knobs.  With nothing configured the controller is pure
    observability (no rate caps, no inflight caps) -- but the moment a
    deployment opts into a service budget, tenants get real defaults:
    an unconfigured tenant is limited to
    :attr:`AdmissionController.TENANT_FAIR_SHARE` of its service's
    budget, so one greedy handle cannot starve the tenants an operator
    actually provisioned.  Breakers and backpressure are always on."""

    #: Per-tenant token rate (ops per virtual second) and burst; None
    #: disables tenant throttling.
    tenant_rate: float | None = None
    tenant_burst: float | None = None
    #: Explicit per-tenant ``(rate, burst)`` overrides, e.g.
    #: ``{"analytics": (5.0, 2.0)}`` -- wins over every default.
    tenant_rates: dict = field(default_factory=dict)
    #: Per-service (rate, burst) budgets, e.g. {"n1ql": (50.0, 10.0)}.
    service_rates: dict = field(default_factory=dict)
    #: Per-service in-flight caps, e.g. {"n1ql": 4}.
    service_inflight: dict = field(default_factory=dict)
    #: Per-node in-flight cap enforced at the fabric dispatch point.
    node_inflight: int | None = None
    #: Breaker: consecutive overload failures before opening.
    breaker_threshold: int = 5
    #: Pressure score at which the degradation policy starts shedding
    #: N1QL.
    shed_threshold: float = 1.0


class AdmissionController:
    """Front door shared by every client of one cluster."""

    #: Population-keyed registries: ``_services`` holds one slot per
    #: service class ("kv", "n1ql"), ``_nodes`` and ``_breakers`` one
    #: per data node of the cluster topology -- bounded by construction,
    #: not by eviction.
    __bounds__ = ("_services", "_nodes", "_breakers")

    #: Decayed pressure scores below this are indistinguishable from
    #: "never overloaded" and are dropped, so `_pressure` holds only
    #: nodes with live incidents (found by the bounds checks: entries for
    #: long-recovered or removed nodes lingered forever).
    PRESSURE_FLOOR = 1e-4
    #: Pressure-score half-life (virtual seconds).
    PRESSURE_HALF_LIFE = 0.5
    #: Overload-signal weighting: a TMPFAIL's ``pending_writes`` adds
    #: one extra pressure point per this many queued mutations, and one
    #: signal's total weight never exceeds the cap.
    PRESSURE_DEPTH_SCALE = 256.0
    PRESSURE_WEIGHT_CAP = 4.0
    #: Fair-share default for tenants with no explicit budget: the
    #: fraction of the *service* budget one such tenant may consume.
    #: Only applies where ``service_rates`` names a budget, so the
    #: zero-config posture stays permissive.
    TENANT_FAIR_SHARE = 0.5
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
        self._tenants: dict[str, TokenBucket] = {}
        self._services: dict[str, tuple[TokenBucket, Bulkhead]] = {}
        self._nodes: dict[str, Bulkhead] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: client name -> service class; only registered (client) traffic
        #: is subject to fabric-level admission -- internal pumps
        #: (replication, projector, XDCR) are never shed.
        self._clients: dict[str, str] = {}
        #: node -> (decaying overload score, virtual time of last update).
        self._pressure: dict[str, tuple[float, float]] = {}

    # -- registration ------------------------------------------------------

    def register_client(self, name: str, service: str) -> None:
        self._clients[name] = service

    def unregister_client(self, name: str) -> None:
        """Release a disconnected client's registration and its tenant
        token bucket.  Client handles get a fresh unique name on every
        connect, so without this the controller retained one bucket per
        connection ever made (found by the bounds checks)."""
        self._clients.pop(name, None)
        self._tenants.pop(name, None)

    # -- lazily-built parts ------------------------------------------------

    def _tenant_bucket(self, tenant: str, service: str) -> TokenBucket:
        bucket = self._tenants.get(tenant)
        if bucket is None:
            rate, burst = self._tenant_budget(tenant, service)
            bucket = TokenBucket(self.clock, rate, burst)
            self._tenants[tenant] = bucket
        return bucket

    def _tenant_budget(self, tenant: str,
                       service: str) -> tuple[float | None, float | None]:
        """Resolve one tenant's (rate, burst): explicit per-tenant
        override, then the global tenant default, then a fair share of
        the service budget (see :class:`AdmissionConfig`)."""
        explicit = self.config.tenant_rates.get(tenant)
        if explicit is not None:
            return explicit
        if self.config.tenant_rate is not None:
            return self.config.tenant_rate, self.config.tenant_burst
        rate, burst = self.config.service_rates.get(service, (None, None))
        if rate is not None:
            share = self.TENANT_FAIR_SHARE
            return rate * share, (burst * share if burst is not None
                                  else None)
        return None, None

    def _service_slot(self, service: str) -> tuple[TokenBucket, Bulkhead]:
        slot = self._services.get(service)
        if slot is None:
            rate, burst = self.config.service_rates.get(service, (None, None))
            slot = (
                TokenBucket(self.clock, rate, burst),
                Bulkhead(service, self.config.service_inflight.get(service)),
            )
            self._services[service] = slot
        return slot

    def _node_bulkhead(self, node: str) -> Bulkhead:
        bulkhead = self._nodes.get(node)
        if bulkhead is None:
            bulkhead = Bulkhead(node, self.config.node_inflight)
            self._nodes[node] = bulkhead
        return bulkhead

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
    def acquire(self, service: str, tenant: str | None, ops: int = 1
                ) -> Callable[[], None]:
        """Admit ``ops`` operations for ``tenant`` on the ``service``
        compartment, or shed them.  ``tenant=None`` is a service-level
        admission: only the compartment's own budget applies.  Returns
        the compartment release callback (call exactly once, in a
        finally)."""
        self.metrics.inc("admission.requests", ops)
        if tenant is not None:
            tenant_bucket = self._tenant_bucket(tenant, service)
            if not tenant_bucket.try_acquire(ops):
                self.metrics.inc("admission.tenant.shed", ops)
                raise AdmissionRejectedError(
                    f"tenant {tenant!r} over its rate budget",
                    retry_after=tenant_bucket.deficit_delay(ops),
                )
        bucket, bulkhead = self._service_slot(service)
        if not bucket.try_acquire(ops):
            self._count_shed(service, ops)
            raise AdmissionRejectedError(
                f"{service} service over its rate budget",
                retry_after=bucket.deficit_delay(ops),
            )
        if not bulkhead.try_enter():
            self._count_shed(service, ops)
            raise AdmissionRejectedError(
                f"{service} bulkhead full "
                f"({bulkhead.inflight}/{bulkhead.max_inflight} in flight)"
            )
        return bulkhead.exit

    @declared_raises('AdmissionRejectedError')
    def admit_query(self, tenant: str | None = None) -> Callable[[], None]:
        """The query front door.  Degradation is ordered shed-N1QL-
        before-KV: whenever the data path reports overload (pressure
        score past threshold, or any breaker not closed) new queries are
        refused here, while KV point ops keep flowing.  Without a
        caller-supplied ``tenant`` this is a service-level admission on
        the n1ql compartment alone: one synthetic tenant shared by every
        query would be capped at a tenant's fair share of the budget."""
        if self.overloaded():
            self._count_shed("n1ql", 1)
            raise AdmissionRejectedError(
                "query shed: data service under memory pressure",
                retry_after=DEFAULT_COOLDOWN,
            )
        return self.acquire("n1ql", tenant)

    def _count_shed(self, service: str, ops: int) -> None:
        if service == "n1ql":
            self.metrics.inc("admission.n1ql.shed", ops)
        else:
            self.metrics.inc("admission.kv.shed", ops)

    # -- fabric hook -------------------------------------------------------

    @declared_raises('AdmissionRejectedError')
    def fabric_filter(self, src: str, dst: str, method: str
                      ) -> Callable[[], None] | None:
        """Installed as ``Network.call_filter``: runs before every
        dispatch.  Only traffic from registered clients is subject to
        admission; pump traffic (replication, projector, XDCR, manager)
        passes untouched.  Enforces the per-node in-flight bulkhead."""
        if src not in self._clients:
            return None
        self.metrics.inc("admission.fabric.calls")
        if self.config.node_inflight is None:
            return None
        bulkhead = self._node_bulkhead(dst)
        if not bulkhead.try_enter():
            self.metrics.inc("admission.fabric.shed")
            raise AdmissionRejectedError(
                f"node {dst!r} at in-flight capacity "
                f"({bulkhead.max_inflight})"
            )
        return bulkhead.exit

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
        if self.pressure_score() >= self.config.shed_threshold:
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
            "bulkheads": {
                name: {"inflight": bh.inflight, "peak": bh.peak_inflight,
                       "rejected": bh.rejected}
                for name, (_bucket, bh) in sorted(self._services.items())
            },
            "metrics": self.metrics.snapshot(),
        }
