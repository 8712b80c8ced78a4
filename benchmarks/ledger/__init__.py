"""The perf ledger: one sustained-throughput benchmark for the whole stack.

Six workloads, each a closed loop from one client in one process, with
the background pumps driven at a fixed cadence inside the timed
interval.  ``python -m benchmarks.ledger`` (``PYTHONPATH=src``) or
``python3 benchmarks/ledger`` runs it; see ``README.md`` next to this
file for every metric, workload and constant.
"""
