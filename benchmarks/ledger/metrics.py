"""Every metric the ledger reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root repeats these two tables; the
test suite checks that they agree.  Units are ASCII (``us`` is
microseconds).
"""

from __future__ import annotations

from .driver import SHAPES, VERBS
from .trace import LAYERS, PUMP_KINDS

#: ``(name, unit, better, bound)``: end-to-end, measured with tracing
#: off, wall-clock, the same names on every workload.  ``bound`` is the
#: share of the parent's median by which the metric may worsen.  The
#: benchmark contract judges each bound against runs on *different*
#: seeds (the distance between the quartiles of ten runs on ten seeds,
#: as a share of their median, must stay within it), so the counts carry
#: their seed-to-seed variation here; for one seed they repeat exactly,
#: which ``--check-agreement`` requires (``EXACT``).  See README.md for
#: the measured spreads behind each bound.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("net_round_trips_per_op", "count", "lower", 0.12),
    ("disk_write_amp", "ratio", "lower", 0.12),
    ("disk_space_amp", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.18),
)

#: ``(name, unit, better)``: the issue's other three end-to-end metrics,
#: listed per layer under their own names.  A p99 of times that are each
#: the fastest of three laps is clean only while the host disturbs less
#: than a fifth of a run (all three laps must be hit at the same op for
#: the op to count as slow: 0.2 ** 3 < 0.01), where the median stands up
#: to four fifths; in a spell in which every run was disturbed the
#: quartiles of the two tails lay 0.26 and 0.31 of the median apart, and
#: the issue rules out widening a bound to cover that.
#: ``failed_ops_ratio`` is 0 on every workload, and the contract wants
#: bounded metrics that are never 0 (the result object carries it as
#: ``failed`` / ``attempted``, which ``--check-agreement`` compares with
#: bound 0).  The tracing-off command prints them with the rest.
DEMOTED: tuple[tuple[str, str, str], ...] = (
    ("op_p99_us", "us", "lower"),
    ("gap_p99_us", "us", "lower"),
    ("failed_ops_ratio", "ratio", "lower"),
)

#: End-to-end metrics that are counts, not times: for one seed they
#: repeat exactly from run to run.
EXACT = ("net_round_trips_per_op", "disk_write_amp", "disk_space_amp")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = list(DEMOTED)
    for layer in LAYERS:
        rows.append((f"{layer}.self_us_per_op", "us", "lower"))
        rows.append((f"{layer}.calls_per_op", "count", "lower"))
    for verb in VERBS:
        rows.append((f"client.{verb}_p50_us", "us", "lower"))
        rows.append((f"client.{verb}_p99_us", "us", "lower"))
    rows += [
        ("client.retries_per_op", "count", "lower"),
        ("client.map_refreshes", "count", "lower"),
        ("admission.rejects", "count", "lower"),
        ("admission.backoffs", "count", "lower"),
        ("admission.breaker_opens", "count", "lower"),
        ("transport.rpcs_per_op", "count", "lower"),
        ("transport.fanout_width_mean", "count", "higher"),
        ("kv.cache_hit_ratio", "ratio", "higher"),
        ("kv.bg_fetches_per_op", "count", "lower"),
        ("kv.evictions_per_op", "count", "lower"),
        ("kv.pager_runs", "count", "lower"),
        ("kv.pager_us_per_run", "us", "lower"),
        ("kv.tmpfails", "count", "lower"),
        ("kv.resident_ratio_end", "ratio", "higher"),
        ("kv.flush_batch_docs_mean", "count", "higher"),
        ("kv.flush_us_per_doc", "us", "lower"),
        ("kv.queue_depth_max", "count", "lower"),
        ("storage.save_docs_us_per_doc", "us", "lower"),
        ("storage.header_writes_per_doc", "count", "lower"),
        ("storage.btree_nodes_read_per_lookup", "count", "lower"),
        ("storage.btree_bytes_written_per_doc", "bytes", "lower"),
        ("storage.lookup_us", "us", "lower"),
        ("storage.compactions", "count", "lower"),
        ("storage.compaction_bytes_rewritten", "bytes", "lower"),
        ("storage.compaction_busy_share", "ratio", "lower"),
        ("storage.fragmentation_end", "ratio", "lower"),
        ("disk.writes", "count", "lower"),
        ("disk.bytes_written", "bytes", "lower"),
        ("disk.reads", "count", "lower"),
        ("disk.bytes_read", "bytes", "lower"),
        ("disk.syncs", "count", "lower"),
        ("disk.syncs_per_mutation", "count", "lower"),
        ("disk.write_size_mean_bytes", "bytes", "higher"),
        ("disk.write_amp_timed", "ratio", "lower"),
        ("dcp.messages_per_mutation", "count", "lower"),
        ("dcp.take_batch_mean", "count", "higher"),
        ("dcp.backfills", "count", "lower"),
        ("replication.pump_busy_share", "ratio", "lower"),
        ("replication.batch_docs_mean", "count", "higher"),
        ("replication.rpcs_per_mutation", "count", "lower"),
        ("replication.lag_seqnos_p99", "count", "lower"),
        ("gsi.projector_busy_share", "ratio", "lower"),
        ("gsi.apply_us_per_keyversion", "us", "lower"),
        ("gsi.index_lag_seqnos_p99", "count", "lower"),
        ("gsi.scan_us", "us", "lower"),
        ("gsi.entries_scanned_per_row", "count", "lower"),
        ("gsi.scan_rpcs_per_query", "count", "lower"),
        ("gsi.barrier_wait_p50_us", "us", "lower"),
        ("n1ql.parse_us", "us", "lower"),
        ("n1ql.plan_us", "us", "lower"),
        ("n1ql.exec_us", "us", "lower"),
        ("n1ql.plan_cache_hit_ratio", "ratio", "higher"),
        ("n1ql.docs_fetched_per_row", "count", "lower"),
        ("n1ql.rows_per_query", "count", "higher"),
    ]
    for shape in SHAPES:
        rows.append((f"n1ql.shape.{shape}_p50_us", "us", "lower"))
    rows += [
        ("scheduler.rounds", "count", "lower"),
        ("scheduler.pump_calls", "count", "lower"),
        ("scheduler.idle_pump_call_ratio", "ratio", "lower"),
        ("scheduler.bg_share", "ratio", "lower"),
        ("scheduler.drain_ms", "ms", "lower"),
    ]
    for kind in PUMP_KINDS:
        rows.append((f"scheduler.busy_us.{kind}", "us", "lower"))
    rows += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage_ratio", "ratio", "higher"),
        ("host.calib_us", "us", "lower"),
    ]
    return tuple(rows)


#: ``(name, unit, better)``: single layers, from the ``--trace 1`` run.
PER_LAYER = _per_layer()
