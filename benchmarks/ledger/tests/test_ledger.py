"""The ledger end to end at a hundredth of the op counts."""

import gc
import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.kv.engine import KVEngine

from benchmarks.ledger import cli, driver
from benchmarks.ledger.metrics import DEMOTED, END_TO_END, EXACT, PER_LAYER
from benchmarks.ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def small(workload) -> int:
    """Ops of one lap at a hundredth of the run's op count."""
    return workload.ops_per_second * cli.DEFAULT_SECONDS // 100


def measure(workload, seed: int):
    """One lap: set-up, the timed phase, verification."""
    n_ops = small(workload)
    n_warm = driver.warmup_ops(n_ops)
    plan = workload.plan(seed, n_warm + n_ops)
    built = driver.set_up(workload, plan, n_warm)
    try:
        phase = driver.run_phase(built, n_warm, n_warm + n_ops)
        result = driver.verify(built, [built.warmup, phase], seed)
    finally:
        gc.unfreeze()
    return built, phase, result


def test_benchmark_json_repeats_the_declared_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(declared) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["command"] == ["python3", "benchmarks/ledger"]
    assert declared["run_seconds"] == cli.DEFAULT_SECONDS
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS]
    assert declared["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END]
    assert declared["per_layer"] == [{"name": n, "unit": u, "better": b}
                                     for n, u, b in PER_LAYER]
    # The contract's limits.
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_one_seed_gives_identical_exact_metrics(name):
    workload = BY_NAME[name]
    runs = []
    for _ in range(2):
        built, phase, result = measure(workload, seed=5)
        assert not phase.failed
        metrics = driver.end_to_end(phase, result, [built.setup_s])
        assert set(metrics) == {row[0] for row in END_TO_END}
        assert set(driver.demoted(phase)) == {row[0] for row in DEMOTED}
        assert all(value > 0 for value in metrics.values())
        runs.append(({m: metrics[m] for m in EXACT}, phase,
                     [(op.verb, op.key) for op in built.plan.ops]))
    assert runs[0][0] == runs[1][0] and runs[0][2] == runs[1][2]
    # Every count of every layer repeats: what folding the laps rests on.
    assert driver.same_work([runs[0][1], runs[1][1]])
    other = workload.plan(6, small(workload)).ops
    assert [(op.verb, op.key) for op in other] != runs[0][2][:len(other)]


@pytest.mark.parametrize("name", ["kv_a_resident", "n1ql_mix"])
def test_traced_run_reports_every_per_layer_metric(name):
    workload = BY_NAME[name]
    original = vars(KVEngine)["get"]
    reports = [driver.run_workload(workload, 5, small(workload), trace=True)
               for _ in range(2)]
    gc.unfreeze()
    assert vars(KVEngine)["get"] is original
    first, second = (report.metrics for report in reports)
    assert list(first) and set(first) == {row[0] for row in PER_LAYER}
    # Layer self times add up to the traced wall time within 5 %.
    assert 0.95 <= first["trace.coverage_ratio"] <= 1.0
    assert first["trace.overhead_ratio"] > 0
    for metric, unit, _better in PER_LAYER:
        counted = unit != "us" and (metric.startswith("disk.")
                                    or metric.endswith("_per_op"))
        if counted:
            assert first[metric] == second[metric], metric
    if name == "n1ql_mix":
        assert first["n1ql.calls_per_op"] > 0 and first["gsi.scan_us"] > 0
        assert 0 < first["n1ql.plan_cache_hit_ratio"] < 1
    else:
        assert first["storage.compactions"] >= 0
        assert first["kv.flush_us_per_doc"] > 0
        assert first["scheduler.busy_us.flusher"] > 0


def test_each_time_is_the_fastest_of_its_laps():
    # Three laps of four ops a second apart, each followed by a 2 s drain;
    # the host stalls the second lap's third op and the third lap's drain.
    laps = [driver.Phase(0, 4, latencies=[0.5] * 4, gaps=[1.0] * 4,
                         wall_s=6.0, drain_s=2.0,
                         counters=Counter(rpc=4, **{"x_seconds.total": lap}))
            for lap in range(3)]
    laps[1].latencies[2], laps[1].gaps[2], laps[1].wall_s = 7.5, 8.0, 13.0
    laps[2].drain_s, laps[2].wall_s = 9.0, 13.0
    folded = driver.fold(laps)
    assert folded.latencies == [0.5] * 4 and folded.gaps == [1.0] * 4
    assert (folded.wall_s, folded.drain_s) == (6.0, 2.0)
    assert folded.counters is laps[2].counters
    assert driver.same_work(laps)
    laps[1].counters["rpc"] += 1
    assert not driver.same_work(laps)


def test_a_run_far_below_its_checkouts_best_laps_on():
    workload = BY_NAME["kv_w_durable"]
    steady = driver.run_workload(workload, 5, small(workload), trace=False,
                                 best_ops_s=1.0, spare_s=60.0)
    assert steady.laps == driver.LAPS and steady.extra_s < 0.01
    # The best of the checkout is out of reach: laps until the time is up.
    spell = driver.run_workload(workload, 5, small(workload), trace=False,
                                best_ops_s=1e12, spare_s=0.2)
    gc.unfreeze()
    assert spell.laps > driver.LAPS and spell.extra_s >= 0.2
    assert spell.attempted == spell.laps * small(workload)
    for metric in EXACT:
        assert spell.metrics[metric] == steady.metrics[metric]


def test_tracing_off_run_installs_no_wrappers():
    original = vars(KVEngine)["get"]
    seen = []
    workload = BY_NAME["kv_w_durable"]

    class Spy(type(workload)):
        def plan(self, seed, n_ops):
            seen.append(vars(KVEngine)["get"] is original)
            return super().plan(seed, n_ops)

    spy = Spy(workload.name, workload.why, records=workload.records,
              ops_per_second=workload.ops_per_second, crash_check=True)
    report = driver.run_workload(spy, 5, small(workload), trace=False)
    gc.unfreeze()
    assert seen == [True]
    assert report.failed == 0
    assert report.attempted == driver.LAPS * small(workload)


def test_verification_catches_a_corrupted_shadow_entry():
    workload = BY_NAME["kv_a_resident"]
    built, phase, _result = measure(workload, seed=5)
    sample = random.Random(5).sample(sorted(built.plan.documents),
                                     driver.SAMPLE_KEYS)
    victim = sample[0]
    built.plan.documents[victim] = {**built.plan.documents[victim],
                                    "bogus": 1}
    with pytest.raises(driver.VerificationError, match=victim):
        driver.verify(built, [built.warmup, phase], 5)


def test_an_op_that_failed_after_its_write_is_not_a_mismatch():
    # A durable write can be stored and then time out waiting for
    # persistence: the op raised, the cluster holds its value.
    workload = BY_NAME["kv_w_durable"]
    built, phase, _result = measure(workload, seed=5)
    # Say every timed op did: whatever the read-back samples, it meets one.
    phase.failed.extend(range(phase.start, phase.stop))
    touched = {op.effect[1] for op in built.plan.ops[phase.start:phase.stop]}
    result = driver.verify(built, [built.warmup, phase], 5)
    assert result.uncertain == touched
    assert driver.demoted(phase)["failed_ops_ratio"] == 1.0


def _result_set(value: float, exact: float = 1.5, failed: int = 0) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, unit, _better, _bound in END_TO_END}
    for name in EXACT:
        metrics[name]["value"] = exact
    return {"seed": 1, "seconds": 6, "trace": 0,
            "results": {"kv_a_resident": {"correct": True, "attempted": 9,
                                          "failed": failed, "metrics": metrics}}}


def test_check_agreement_exit_codes(tmp_path):
    def write(name, result_set):
        path = tmp_path / name
        path.write_text(json.dumps(result_set))
        return str(path)

    base = write("a.json", _result_set(100.0))
    assert cli.main(["--check-agreement", base,
                     write("b.json", _result_set(104.0))]) == 0
    assert cli.main(["--check-agreement", base,
                     write("c.json", _result_set(140.0))]) == 1
    # A count that differs at all is a disagreement.
    assert cli.main(["--check-agreement", base,
                     write("d.json", _result_set(100.0, exact=1.5001))]) == 1
    # So is an op that failed on one side only.
    assert cli.main(["--check-agreement", base,
                     write("f.json", _result_set(100.0, failed=1))]) == 1
    other_seed = _result_set(100.0)
    other_seed["seed"] = 2
    assert cli.main(["--check-agreement", base,
                     write("e.json", other_seed)]) == 2
    assert cli.main(["--check-agreement", base,
                     str(tmp_path / "missing.json")]) == 2


def test_command_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger", "--workload", "kv_w_durable",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == BY_NAME["kv_w_durable"].ops_per_second
    assert list(result["metrics"]) == [row[0] for row in END_TO_END]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger", "--workload", "kv_c_resident",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout == ""
