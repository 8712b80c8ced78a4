"""Token buckets and seeded exponential backoff.

The front door's rate limiting is the classic token bucket: a bucket
holds up to ``burst`` tokens, refills at ``rate`` tokens per *virtual*
second, and an operation is admitted only if it can take its tokens now
-- there is no queueing, because in an overloaded managed cache a queued
request is just a slower rejection.  Refill is computed lazily from the
shared :class:`~repro.common.clock.Clock`, so buckets cost nothing while
idle and stay exact under the deterministic scheduler.

Backoff delays are exponential with *seeded* jitter: the lint-family
``no-unseeded-random`` check (and the sanitizer's replay guarantee)
forbids wall clocks and unseeded randomness, so jitter comes from a
``random.Random(seed)`` stream owned by the backoff instance -- the same
seed always yields the same delay sequence.
"""

from __future__ import annotations

from random import Random

from ..common.clock import Clock


class TokenBucket:
    """A refillable budget against the virtual clock.

    ``rate=None`` means unlimited (every acquire succeeds) -- the default
    posture, so admission control is inert until configured."""

    def __init__(self, clock: Clock, rate: float | None = None,
                 burst: float | None = None):
        self.clock = clock
        self.rate = rate
        self.capacity = float(burst if burst is not None else (rate or 0.0))
        self.tokens = self.capacity
        self._last_refill = clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        if now > self._last_refill and self.rate is not None:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.rate,
            )
        self._last_refill = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks, never queues."""
        if self.rate is None:
            return True
        self._refill()
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False

    def deficit_delay(self, tokens: float = 1.0) -> float:
        """Virtual seconds until ``tokens`` would be available -- the
        ``retry_after`` hint handed to a shed caller."""
        if self.rate is None or self.rate <= 0:
            return 0.0
        self._refill()
        missing = tokens - self.tokens
        if missing <= 0:
            return 0.0
        return missing / self.rate


class ExponentialBackoff:
    """Deterministic exponential backoff with seeded jitter.

    ``delay(attempt)`` for attempt 1, 2, 3... grows by ``factor`` from
    ``base`` up to ``max_delay``, then multiplies by a jitter factor in
    ``[1 - jitter, 1]`` drawn from the seeded stream.  Jittering *down*
    keeps the cap honest while still decorrelating retry herds."""

    def __init__(self, *, base: float = 0.005, factor: float = 2.0,
                 max_delay: float = 0.25, jitter: float = 0.5, seed: int = 0):
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = Random(seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.base * self.factor ** max(0, attempt - 1),
                  self.max_delay)
        return raw * (1.0 - self.jitter * self._rng.random())
