"""Figures 15 and 16 (appendix 10.1) from a ledger result set.

    python3 benchmarks/ledger --workload kv_a_resident --workload n1ql_e_scan \\
        --seed 1 --seconds 10 --out F.json
    PYTHONPATH=src python3 benchmarks/figures.py F.json

The ledger measures the single-stream service time of each figure's
workload (``op_p50_us``); the closed-loop MVA model in
``repro.ycsb.runner`` turns it into the paper's client-thread sweep.
Absolute numbers move with the host; what must reproduce is the shape.
Exit 0 when every shape claim holds, 1 when one fails, 2 when the file
is not a usable result set.
"""

import json
import sys

from repro.ycsb.runner import ClusterModel, sweep_threads

#: The paper's sweep: 4 clients x 12..32 threads.
THREADS = [48, 64, 80, 96, 112, 128]
#: (title, ledger workload, unit, the paper's series read off the plot).
FIGURES = (
    ("Figure 15: YCSB-A throughput vs total client threads",
     "kv_a_resident", "ops/sec", {48: 110_000, 128: 178_000}),
    ("Figure 16: YCSB-E N1QL range-query throughput vs total client threads",
     "n1ql_e_scan", "q/sec", {48: 4_500, 128: 5_400}),
)
#: The cross-figure ordering must never invert (paper: ~33x).
MIN_GAP = 3.0


def figure(title: str, unit: str, paper: dict, service_us: float) -> bool:
    """Print one figure's table; True when its shape claims hold."""
    model = ClusterModel()  # the paper's testbed: 4 nodes on a LAN
    service_time = service_us / 1e6
    points = sweep_threads(service_time, THREADS, model)
    print(f"\n{title}")
    print(f"service time {service_us:.1f} us (ledger op_p50_us)")
    print(f"{'threads':>7}  {'modeled ' + unit:>15}  {'paper ' + unit:>13}")
    for point in points:
        read_off = paper.get(point.threads)
        print(f"{point.threads:>7}  {point.throughput:>15,.0f}  "
              f"{format(read_off, ',') if read_off else '-':>13}")
    rates = [point.throughput for point in points]
    capacity = model.effective_servers / service_time
    rises = (rates[-1] > rates[0]
             and all(b >= a * 0.999 for a, b in zip(rates, rates[1:])))
    bounded = rates[-1] <= capacity * 1.001
    print(f"shape: monotone rise {'ok' if rises else 'FAILED'}; "
          f"within capacity {capacity:,.0f} {unit} "
          f"{'ok' if bounded else 'FAILED'}")
    return rises and bounded


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: figures.py <ledger --out file>", file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as handle:
            run = json.load(handle)
        service_us = {
            workload: run["results"][workload]["metrics"]["op_p50_us"]["value"]
            for _title, workload, _unit, _paper in FIGURES
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"figures: {argv[0]}: not a ledger result set with both "
              f"workloads ({exc!r})", file=sys.stderr)
        return 2
    print(f"ledger result set: seed {run.get('seed')}, "
          f"--seconds {run.get('seconds')}")
    ok = True
    for title, workload, unit, paper in FIGURES:
        ok &= figure(title, unit, paper, service_us[workload])
    gap = service_us["n1ql_e_scan"] / service_us["kv_a_resident"]
    wide = gap > MIN_GAP
    print(f"\nKV : N1QL service-time gap {gap:.1f}x (paper ~33x); "
          f"> {MIN_GAP:.0f}x {'ok' if wide else 'FAILED'}")
    return 0 if ok and wide else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
