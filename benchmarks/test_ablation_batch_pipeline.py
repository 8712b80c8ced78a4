"""Query pipeline bench -- batch operators over the scatter-gather scan.

Section 5.1: a secondary-index scan fans out to every index partition
and the query service merges the per-partition streams.  The Figure 16
reproduction reports per-query *service* time, which in this simulated
cluster is the measured wall time of the executor plus the virtual
network latency the transport charges per RPC wave (the same accounting
the YCSB closed-loop model consumes).  This bench runs the Figure 16
ordered-scan shape over a 3-partition covered index through the one
pipeline the engine has: batch operators over one concurrent
``gsi_scan_page`` wave across all partitions, k-way merged, LIMIT
short-circuited at the merge frontier.  (The row-at-a-time executor and
the serial fan-out it was once compared against are gone; their numbers
are in EXPERIMENTS.md and this file's git history.)

Self-timed (no pytest-benchmark fixture) so CI can run it as a smoke
test with ``REPRO_ABLATION_ITERS=1``.  Emits
``BENCH_query_pipeline.json`` at the repo root, which
``check_bench_trajectory.py`` gates against the committed baseline.
"""

import json
import os
import time

import pytest
from conftest import print_series

from repro import Cluster
from repro.gsi import manager as gsi_manager

ITERS = int(os.environ.get("REPRO_ABLATION_ITERS", "200"))

N_DOCS = 1800
#: Virtual per-RPC latency: charged to ``network.latency_charged``, not
#: slept, so the bench measures RPC *waves* without real waiting.
NETWORK_LATENCY = 0.001
LIMIT = 20

#: Figure 16 ordered-scan shape: covered by the partitioned (age, name)
#: index, sort eliminated, LIMIT pushed into the scan.
SCAN_QUERY = ("SELECT age, name FROM `b` WHERE b.age >= 0 "
              f"ORDER BY b.age LIMIT {LIMIT}")

#: The label the committed baseline records this pipeline under.
MODE = "batch + parallel"


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=4, vbuckets=32, network_latency=NETWORK_LATENCY)
    # Background compaction stays ON: with live tree nodes counted as
    # live bytes the compactor quiesces after the load phase instead of
    # rewriting clean files every pump round, so the bench no longer
    # needs to disable it to measure the query path.
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for base in range(0, N_DOCS, 300):
        client.multi_upsert("b", {
            f"u{i:05d}": {"age": i % 60, "name": f"user{i:05d}"}
            for i in range(base, base + 300)
        })
        cluster.run_until_idle()
    cluster.query('CREATE INDEX by_age ON b(age, name) USING GSI '
                  'WITH {"num_partitions": 3}')
    cluster.run_until_idle()
    return cluster


def _percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timed_samples(cluster, iters: int) -> list:
    """Per-query service time: executor wall time + virtual network
    latency charged for the query's RPC waves."""
    network = cluster.network
    rows = cluster.query(SCAN_QUERY).rows  # warm-up; primes plan cache
    assert len(rows) == LIMIT
    assert [r["age"] for r in rows] == sorted(r["age"] for r in rows)
    samples = []
    for _ in range(iters):
        charged = network.latency_charged
        start = time.perf_counter()
        cluster.query(SCAN_QUERY)
        wall = time.perf_counter() - start
        samples.append(wall + (network.latency_charged - charged))
    return samples


def test_query_pipeline_service_time(cluster):
    samples = _timed_samples(cluster, ITERS)
    stats = {
        "p50_us": _percentile(samples, 0.50) * 1e6,
        "p95_us": _percentile(samples, 0.95) * 1e6,
        "mean_us": sum(samples) / len(samples) * 1e6,
    }
    print_series(
        "Query pipeline: batch operators + parallel scatter-gather "
        f"(Figure 16 ordered scan, LIMIT {LIMIT}, {ITERS} iters)",
        ("mode", "p50 service", "p95 service"),
        [(MODE, f"{stats['p50_us']:.0f} us", f"{stats['p95_us']:.0f} us")],
    )

    out = os.path.join(os.path.dirname(__file__), "..",
                       "BENCH_query_pipeline.json")
    with open(out, "w") as handle:
        json.dump({
            "benchmark": "query_pipeline_ablation",
            "query": SCAN_QUERY,
            "docs": N_DOCS,
            "iters": ITERS,
            "network_latency_s": NETWORK_LATENCY,
            "modes": {MODE: stats},
        }, handle, indent=2)
        handle.write("\n")


def test_limit_drain_is_bounded(cluster):
    """LIMIT-k short circuit: each partition serves at most one page
    beyond the k rows the merge frontier consumed."""
    nodes = list(cluster.manager.nodes.values())
    before = {node.name: node.metrics.counter_value("gsi.scan_page_rows")
              for node in nodes}
    rows = cluster.query(SCAN_QUERY, scan_consistency="request_plus").rows
    assert len(rows) == LIMIT
    for node in nodes:
        drained = (node.metrics.counter_value("gsi.scan_page_rows")
                   - before[node.name])
        assert drained <= LIMIT + gsi_manager.SCAN_PAGE_SIZE
