"""Ablation -- the ad-hoc plan cache on the hot path.

Section 4.5.3: "query parsing and planning are done serially" per
request, and the Figure 16 reproduction turns the measured per-query
service time into queries/sec -- so the serial front half is directly
benchmarked overhead.  This bench runs the Figure 16 scan statement
shape in two configurations:

* ``compiled, cold``     -- plan cache cleared before every request:
  parse -> plan -> compile on every execution.
* ``compiled + cached``  -- warm plan cache: the full hot path (what
  repeated ad-hoc statements actually get).

(The tree-walking interpreter this was once compared against left the
product; its numbers are in EXPERIMENTS.md and this file's git history.)

Self-timed (no pytest-benchmark fixture) so CI can run it as a smoke
test with ``REPRO_ABLATION_ITERS=1``; the acceptance assertion only
applies when enough iterations ran for the means to be meaningful.
"""

import os
import time

import pytest
from conftest import print_series

from repro import Cluster
from repro.common.services import Service

ITERS = int(os.environ.get("REPRO_ABLATION_ITERS", "400"))
#: Below this, means are noise; run the modes but skip the perf gate.
MIN_ITERS_FOR_ASSERT = 50

#: The Figure 16 / YCSB-E scan shape (see repro/ycsb/client.py).
SCAN_QUERY = ("SELECT meta().id AS id FROM `b` "
              "WHERE meta().id >= $1 LIMIT $2")
PARAMS = {"1": "u0100", "2": 20}


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(300):
        client.upsert("b", f"u{i:04d}", {"field0": f"v{i:04d}"})
    cluster.run_until_idle()
    cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
    cluster.run_until_idle()
    return cluster


def _timed_mean(cluster, iters: int, *, clear_cache: bool) -> float:
    service = cluster.service_node(Service.QUERY).query_service

    def op():
        if clear_cache:
            service.plan_cache.clear()
        return cluster.query(SCAN_QUERY, params=PARAMS).rows

    rows = op()  # warm-up; also primes the cache for the cached mode
    assert len(rows) == 20
    assert rows[0]["id"] == "u0100"
    start = time.perf_counter()
    for _ in range(iters):
        op()
    return (time.perf_counter() - start) / iters


def test_plan_cache_ablation(cluster):
    compiled_cold = _timed_mean(cluster, ITERS, clear_cache=True)
    compiled_cached = _timed_mean(cluster, ITERS, clear_cache=False)
    print_series(
        "Ablation: cached vs cold N1QL plans "
        f"(Figure 16 scan shape, {ITERS} iters)",
        ("mode", "mean latency", "speedup"),
        [
            ("compiled, cold", f"{compiled_cold * 1e3:.3f} ms", "1.00x"),
            ("compiled + cached", f"{compiled_cached * 1e3:.3f} ms",
             f"{compiled_cold / compiled_cached:.2f}x"),
        ],
    )
    # Sanity: the plan cache actually served the cached mode.
    service = cluster.service_node(Service.QUERY).query_service
    assert service.node.metrics.counter_value("n1ql.plan_cache.hit") >= ITERS
    if ITERS >= MIN_ITERS_FOR_ASSERT:
        # Acceptance gate: skipping parse + plan + compile must pay.
        assert compiled_cached < compiled_cold, (
            f"cached {compiled_cached * 1e3:.3f} ms not faster than "
            f"cold {compiled_cold * 1e3:.3f} ms"
        )
