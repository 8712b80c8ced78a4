"""The dead-code list is kept honest.

``python -m repro.analysis src/repro --report dead-code`` names the
public functions in ``src/repro`` that no entry point reaches and no
other line of ``src/repro`` names.  This test pins that list.  Code left
with no caller in ``src/`` must either be deleted or be added here, with
the reason it stays.
"""

from __future__ import annotations

from repro.analysis.deadcode import analyze_dead_code

#: Each surviving candidate and what still calls it from outside
#: ``src/repro``.
SURVIVORS = {
    "repro.common.metrics.MetricsRegistry.counter_value":
        "tests read counters through it",
    "repro.common.scheduler.Scheduler.pending_timers":
        "the scheduler's timer-cancel tests read it",
    "repro.common.transport.Network.heal":
        "fault-injection tests end partitions with it",
    "repro.common.transport.Network.reset_counters":
        "tests zero the RPC counters with it",
    "repro.ycsb.workload.CoreWorkload.next_operation":
        "the ledger's YCSB workloads draw their ops with it",
}


def test_the_report_names_exactly_the_known_survivors(strict_tree_run):
    found = {candidate.fqn
             for candidate in analyze_dead_code(strict_tree_run.context.graph)}
    assert sorted(found - set(SURVIVORS)) == []  # new code with no caller
    assert sorted(set(SURVIVORS) - found) == []  # a survivor found a caller
