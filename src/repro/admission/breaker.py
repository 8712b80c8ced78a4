"""Per-node circuit breakers for the RPC path.

A breaker watches the *overload* outcomes of calls to one node (quota
``TemporaryFailureError`` with a pressure tag) and trips after a run of
consecutive failures.  While open, callers fail fast instead of piling
retries onto a node that is already out of memory -- the load-shedding
half of the paper's TMPFAIL contract (section 4.3.3: the server says
"back off", so somebody has to actually back off).

State machine::

    closed --[threshold consecutive failures]--> open
    open   --[cooldown elapses]---------------> half-open
    half-open --[probe succeeds]--------------> closed
    half-open --[probe fails]-----------------> open (cooldown doubled)

Cooldowns are exponential with seeded jitter and are driven by the
deterministic scheduler: opening arms a virtual-time timer whose firing
moves the breaker to half-open, and ``allow()`` double-checks the clock
so the transition also happens if time advanced without draining timers.
No wall clock, no unseeded randomness -- repro.analysis enforces both.
"""

from __future__ import annotations

from random import Random

from ..common.metrics import MetricsRegistry
from ..common.contracts import protocol
from ..common.scheduler import Scheduler

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Initial cooldown of an opened breaker (virtual seconds); also the
#: retry hint the query front door hands a request shed for overload.
DEFAULT_COOLDOWN = 0.25


@protocol(
    # The docstring's machine, verbatim: closed trips open, open cools
    # down to half-open, and only a half-open probe outcome decides
    # between closing and re-opening.  OPEN->CLOSED is deliberately
    # absent: a success reported while open is a stale in-flight call,
    # and honoring it would reset the breaker mid-cooldown.
    "CLOSED->OPEN", "OPEN->HALF_OPEN",
    "HALF_OPEN->CLOSED", "HALF_OPEN->OPEN",
    field="state",
)
class CircuitBreaker:
    """Overload breaker for one target node."""

    def __init__(self, name: str, scheduler: Scheduler, *,
                 threshold: int = 5, cooldown: float = DEFAULT_COOLDOWN,
                 factor: float = 2.0, max_cooldown: float = 30.0,
                 jitter: float = 0.25, seed: int = 0,
                 metrics: MetricsRegistry | None = None):
        self.name = name
        self.scheduler = scheduler
        self.clock = scheduler.clock
        self.threshold = threshold
        self.base_cooldown = cooldown
        self.factor = factor
        self.max_cooldown = max_cooldown
        self.jitter = jitter
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rng = Random(seed)
        self.state = CLOSED
        self.failures = 0
        self.open_until = 0.0
        self._cooldown = cooldown
        self._timer: int | None = None

    # -- queries -----------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  In the open state this also
        performs the clock-driven open -> half-open transition, so a
        breaker recovers even if its timer was never pumped."""
        if self.state == OPEN:
            if self.clock.now() >= self.open_until:
                self._to_half_open()
                return True
            return False
        return True

    def remaining(self) -> float:
        """Virtual seconds left on the current cooldown (0 when not open);
        the ``retry_after`` hint for fail-fast rejections."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self.open_until - self.clock.now())

    # -- outcome reporting -------------------------------------------------

    def record_success(self) -> None:
        # Only a half-open probe's success closes the breaker.  A late
        # success while OPEN (an in-flight call from before the trip)
        # says nothing about recovery and must not short the cooldown.
        if self.state == HALF_OPEN:
            self._close()
        self.failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: the node is still saturated.
            self._open(escalate=True)
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.threshold:
            self._open(escalate=False)

    # -- transitions -------------------------------------------------------

    def _open(self, escalate: bool) -> None:
        if escalate:
            self._cooldown = min(self._cooldown * self.factor,
                                 self.max_cooldown)
        delay = self._cooldown * (1.0 + self.jitter * self._rng.random())
        self.state = OPEN
        self.open_until = self.clock.now() + delay
        self.metrics.inc("admission.breaker.opened")
        if self._timer is not None:
            self.scheduler.cancel(self._timer)
        self._timer = self.scheduler.call_at(self.open_until,
                                             self._on_cooldown_elapsed)

    def _on_cooldown_elapsed(self) -> None:
        self._timer = None
        if self.state == OPEN and self.clock.now() >= self.open_until:
            self._to_half_open()

    def _to_half_open(self) -> None:
        self.state = HALF_OPEN
        self.metrics.inc("admission.breaker.half_open")

    def _close(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self._cooldown = self.base_cooldown
        self.open_until = 0.0
        self.metrics.inc("admission.breaker.closed")
        if self._timer is not None:
            self.scheduler.cancel(self._timer)
            self._timer = None
