"""Command line: run workloads, print every metric, compare result sets."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .driver import LAPS, VerificationError, run_workload
from .metrics import DEMOTED, END_TO_END, EXACT, PER_LAYER
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
#: ``run_seconds`` of BENCHMARK.json; the op counts scale with it.
DEFAULT_SECONDS = 10
#: What this checkout's runs have measured so far: the best throughput
#: per workload and op count, and the seconds spent on extra laps.  Left
#: behind by a run; named in the repository's ``.gitignore``.
STATE = Path(__file__).resolve().parent / ".spells.json"
#: Seconds a run may spend on extra laps while the host is in a slow
#: spell (``driver.SPELL_SHARE``), and all runs of a checkout together:
#: the contract gives 136 runs 3 420 s and they take about 2 700 s.
RUN_SPARE_S = 55.0
CHECKOUT_SPARE_S = 240.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=[w.name for w in WORKLOADS],
                        help="workload to run (repeatable; default: all six, "
                             "one subprocess each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="length the timed phases are sized for: each of "
                             "a run's laps runs ops_per_second x this / "
                             f"{LAPS} ops, a constant")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also make the traced run and report the "
                             "per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced run's spans here")
    parser.add_argument("--out", metavar="PATH",
                        help="write the result set as JSON")
    parser.add_argument("--check-agreement", nargs=2, metavar=("A", "B"),
                        help="compare two result sets against the bounds in "
                             "BENCHMARK.json; exit 0 agree, 1 disagree, "
                             "2 unusable input")
    return parser


def _read_state() -> dict:
    try:
        state = json.loads(STATE.read_text(encoding="utf-8"))
        return {"best_ops_s": dict(state["best_ops_s"]),
                "extra_s": float(state["extra_s"])}
    except (OSError, ValueError, KeyError, TypeError):
        return {"best_ops_s": {}, "extra_s": 0.0}


def _write_state(state: dict) -> None:
    try:
        STATE.write_text(json.dumps(state, indent=1) + "\n", encoding="utf-8")
    except OSError:
        pass    # a read-only checkout: every run makes its three laps


def _run_one(name: str, args) -> dict:
    """Run one workload in this process; returns the contract's result
    object (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    workload = next(w for w in WORKLOADS if w.name == name)
    n_ops = workload.ops_per_second * args.seconds // LAPS
    state = _read_state()
    best = state["best_ops_s"].get(f"{name}:{n_ops}", 0.0)
    spare_s = min(RUN_SPARE_S, CHECKOUT_SPARE_S - state["extra_s"])
    report = run_workload(workload, args.seed, n_ops, bool(args.trace),
                          args.trace_out, best, spare_s)
    if not args.trace:
        state["best_ops_s"][f"{name}:{n_ops}"] = max(
            best, report.metrics["throughput_ops_s"])
        state["extra_s"] += report.extra_s
        _write_state(state)
    table = PER_LAYER if args.trace else [row[:3] for row in END_TO_END]
    print(f"== {name}: seed {args.seed}, {report.attempted} timed ops over "
          f"{report.laps} lap(s), {report.failed} failed")
    metrics = {}
    for metric, unit, _better in table:
        value = report.metrics[metric]
        print(f"{metric:<40} {value:>16.4f} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    if not args.trace:
        # Printed for the reader; the result object holds exactly the
        # metrics BENCHMARK.json declares end to end.
        for metric, unit, _better in DEMOTED:
            print(f"{metric:<40} {report.metrics[metric]:>16.4f} {unit}")
    return {"correct": True, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def _run_in_subprocess(name: str, args) -> dict:
    """One process per workload, so workloads do not share a heap."""
    command = [sys.executable, str(Path(__file__).parent),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{name}"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise VerificationError(f"{name}: exited with {done.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def check_agreement(path_a: str, path_b: str) -> int:
    """Do two result sets of one commit agree within the benchmark's own
    bounds, with the exact-count metrics identical?"""
    try:
        a = json.loads(Path(path_a).read_text(encoding="utf-8"))
        b = json.loads(Path(path_b).read_text(encoding="utf-8"))
        declared = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m["name"]: (m["better"], m["bound"])
                  for m in declared["end_to_end"]}
        comparable = (a["results"].keys() == b["results"].keys()
                      and bool(a["results"])
                      and (a["seed"], a["seconds"]) == (b["seed"], b["seconds"]))
    except (OSError, ValueError, KeyError) as error:
        print(f"check-agreement: {error}", file=sys.stderr)
        return 2
    if not comparable:
        print("check-agreement: the result sets differ in workloads, seed "
              "or seconds", file=sys.stderr)
        return 2
    disagreements = 0
    for name in a["results"]:
        first, second = a["results"][name], b["results"][name]
        try:
            pairs = [(metric, first["metrics"][metric]["value"],
                      second["metrics"][metric]["value"]) for metric in bounds]
            # failed_ops_ratio: carried as two whole numbers, bound 0.
            failures = [(r["failed"], r["attempted"]) for r in (first, second)]
        except KeyError as error:
            print(f"check-agreement: {name} lacks {error}", file=sys.stderr)
            return 2
        if failures[0] != failures[1]:
            disagreements += 1
            print(f"{name}: failed_ops_ratio disagrees: failed / "
                  f"attempted {failures[0]} vs {failures[1]} (bound 0)")
        for metric, one, other in pairs:
            better, bound = bounds[metric]
            if metric in EXACT:
                agrees = one == other
            else:
                low, high = sorted((one, other))
                worse = (high - low) / (low if better == "lower" else high)
                agrees = worse <= bound
            if not agrees:
                disagreements += 1
                print(f"{name}: {metric} disagrees: {one} vs {other} "
                      f"(bound {bound})")
    print(f"check-agreement: {disagreements} disagreements")
    return 1 if disagreements else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.check_agreement:
        return check_agreement(*args.check_agreement)
    names = args.workload or [w.name for w in WORKLOADS]
    results = {}
    try:
        for name in names:
            if len(names) == 1:
                results[name] = _run_one(name, args)
            else:
                results[name] = _run_in_subprocess(name, args)
    except VerificationError as error:
        print(f"verification failed: {error}", file=sys.stderr)
        return 1
    result_set = {"seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n",
                                  encoding="utf-8")
    # Last line of stdout: the one result object for a single workload
    # (the benchmark contract), the whole result set for several.
    print(json.dumps(results[names[0]] if len(names) == 1 else result_set))
    return 0
