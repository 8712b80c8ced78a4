"""Lightweight metrics: counters and latency histograms.

Every service keeps a :class:`MetricsRegistry`; tests and the perf
ledger read counts and latency percentiles from these.
Histograms use fixed logarithmic buckets so memory stays bounded no
matter how many samples are recorded.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager


class Counter:
    """A monotonically increasing named metric."""

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed latency histogram (seconds).

    Buckets span 1 microsecond to ~1000 seconds with 10 buckets per
    decade, which keeps percentile error under ~12% -- plenty for the
    shape comparisons this repo makes.
    """

    _MIN = 1e-6
    _BUCKETS_PER_DECADE = 10
    _DECADES = 9

    def __init__(self):
        size = self._BUCKETS_PER_DECADE * self._DECADES + 2
        self._counts = [0] * size
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def _bucket(self, value: float) -> int:
        if value < self._MIN:
            return 0
        index = int(math.log10(value / self._MIN) * self._BUCKETS_PER_DECADE) + 1
        return min(index, len(self._counts) - 1)

    def _bucket_upper(self, index: int) -> float:
        if index == 0:
            return self._MIN
        return self._MIN * 10 ** (index / self._BUCKETS_PER_DECADE)

    def record(self, value: float) -> None:
        self._counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100])."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                return min(self._bucket_upper(index), self.max)
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters and histograms, created on first touch."""

    def __init__(self):
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.histograms: dict[str, Histogram] = defaultdict(Histogram)

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name].inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histograms[name].record(value)

    @contextmanager
    def timer(self, name: str):
        """Record the duration of a ``with`` block into histogram ``name``.

        This is the one sanctioned wall-clock read in the library: the
        measured quantity *is* elapsed real time (how long our own code
        took), never simulated time, so it cannot leak nondeterminism
        into simulation logic.  Everything else must use the injected
        Clock -- enforced by the no-wall-clock check.
        """
        start = time.perf_counter()  # repro: disable=no-wall-clock
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start  # repro: disable=no-wall-clock
            self.histograms[name].record(elapsed)

    def counter_value(self, name: str) -> int:
        return self.counters[name].value if name in self.counters else 0

    def snapshot(self) -> dict:
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "histograms": {name: h.summary() for name, h in self.histograms.items()},
        }
