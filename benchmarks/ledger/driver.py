"""The driver: set-up, the timed closed loop, verification, metrics.

One client in one process sends each op only after the previous one
completed (a closed loop).  The driver owns the background cadence:
after every ``PUMP_EVERY`` ops it advances the virtual clock and runs
**one** scheduler round, and the timed phase ends with a full drain
that is inside the timed interval -- so throughput is sustained, not
foreground-only.

A run makes ``LAPS`` laps: each sets up a fresh cluster and runs the same
ops on it.  The program is deterministic, so the laps do identical work
(checked), and each op's time is the fastest of its laps: a stall the
host put into one lap is not in the others.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro import Cluster
from repro.common.errors import (KeyNotFoundError, ReproError,
                                 TemporaryFailureError)

from .trace import PUMP_KINDS, Tracer
from .workloads import SHAPES as QUERY_SHAPES
from .workloads import Op, Plan, Workload, apply_effect

#: Cluster shape of every workload.
NODES = 4
VBUCKETS = 64
REPLICAS = 1
NETWORK_LATENCY = 1e-4
#: Background cadence: one scheduler round per this many ops...
PUMP_EVERY = 32
#: ...after advancing the virtual clock by this much per op.
VIRTUAL_SECONDS_PER_OP = 100e-6
#: Loader: documents per ``multi_upsert``, drained between chunks.
LOAD_CHUNK = 128
LOAD_RETRIES = 8
#: Share of the timed op count that runs first, untimed.
WARMUP_SHARE = 0.05
#: Set-ups and timed phases of one tracing-off run, each on its own
#: cluster, all over the same ops.
LAPS = 3
#: A run whose throughput, fastest of its laps and all, is below this
#: share of the best its checkout has measured on the workload sits in a
#: slow spell of the host that has outlasted the laps: it laps on for as
#: long as it has been given to spare.
SPELL_SHARE = 0.8
#: Keys read back through ``SmartClient.get`` after the drain.
SAMPLE_KEYS = 500
#: Query results kept for checking after the run: about this many per
#: phase, evenly spaced, so the kept rows do not dominate the heap.
RESULT_SAMPLE = 1000
#: Node crashed and restarted from its flushed bytes by the crash check.
CRASH_NODE = "node2"

VERBS = ("read", "update", "insert", "remove", "scan", "query")
SHAPES = QUERY_SHAPES + ("rp_query",)


class VerificationError(Exception):
    """The program's outputs did not match the shadow model."""


@dataclass
class Phase:
    """What one pass over ``ops[start:stop]`` measured."""

    start: int
    stop: int
    latencies: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    results: dict[int, list] = field(default_factory=dict)
    wall_s: float = 0.0
    background_s: float = 0.0
    drain_s: float = 0.0
    #: Registry, fabric and disk counters: deltas around the phase.
    counters: Counter = field(default_factory=Counter)
    #: Per pump slice (traced run only): queue depth and seqno lags.
    samples: dict[str, list[int]] = field(default_factory=dict)
    #: Cluster state right after the drain (see :func:`end_state`).
    end: dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return self.stop - self.start


@dataclass
class Built:
    """One set-up's product: a loaded, indexed, warmed-up cluster."""

    workload: Workload
    plan: Plan
    cluster: Cluster
    client: Any
    warmup: Phase
    #: Wall time of this set-up, warm-up included.
    setup_s: float


# -- set-up ------------------------------------------------------------------

def warmup_ops(n_ops: int) -> int:
    """Warm-up length: ``WARMUP_SHARE`` of the timed ops, a whole number
    of pump slices so the timed phase starts on a slice boundary."""
    slices = max(1, round(n_ops * WARMUP_SHARE / PUMP_EVERY))
    return slices * PUMP_EVERY


def load(cluster: Cluster, client, bucket: str, documents: dict) -> None:
    """Benchmark-owned loader: chunked ``multi_upsert`` with a drain
    between chunks and a bounded retry of shed keys."""
    items = list(documents.items())
    for offset in range(0, len(items), LOAD_CHUNK):
        pending = dict(items[offset:offset + LOAD_CHUNK])
        for _attempt in range(LOAD_RETRIES):
            batch = client.multi_upsert(bucket, pending)
            cluster.run_until_idle()
            if batch.ok:
                break
            for error in batch.errors.values():
                if not isinstance(error, TemporaryFailureError):
                    raise error
            pending = {key: pending[key] for key in batch.errors}
            # Breaker cooldowns and pressure decay run on the virtual clock.
            cluster.tick(1.0)
        else:
            raise TemporaryFailureError(
                f"load: {len(pending)} keys still shed after "
                f"{LOAD_RETRIES} attempts")


def set_up(workload: Workload, plan: Plan, n_warm: int) -> Built:
    """Build and load a cluster, build its indexes, run the warm-up over
    ``plan.ops[:n_warm]``.  Everything here is one ``setup_s`` sample."""
    began = time.perf_counter()
    cluster = Cluster(nodes=NODES, vbuckets=VBUCKETS,
                      network_latency=NETWORK_LATENCY)
    cluster.create_bucket(workload.bucket, replicas=REPLICAS,
                          quota_bytes=workload.quota_bytes)
    client = cluster.connect()
    load(cluster, client, workload.bucket, plan.documents)
    for statement in plan.statements:
        client.query(statement)
        cluster.run_until_idle()
    built = Built(workload, plan, cluster, client, Phase(0, n_warm), 0.0)
    built.warmup = run_phase(built, 0, n_warm)
    gc.collect()
    gc.freeze()
    built.setup_s = time.perf_counter() - began
    return built


# -- the closed loop ---------------------------------------------------------

def snapshot(cluster: Cluster) -> Counter:
    """Every count the layers already keep, summed over nodes."""
    totals: Counter = Counter()
    registries = [node.metrics for node in cluster.nodes()]
    registries.append(cluster.admission.metrics)
    for registry in registries:
        for name, counter in registry.counters.items():
            totals[name] += counter.value
        for name, histogram in registry.histograms.items():
            totals[f"{name}.count"] += histogram.count
            totals[f"{name}.total"] += histogram.total
    for node in cluster.nodes():
        for name, value in node.disk.stats.snapshot().items():
            totals[f"disk.{name}"] += value
    for (_node, method), calls in cluster.network.calls.items():
        totals[f"rpc.{method}"] += calls
        totals["rpc"] += calls
    totals["net.latency_charged"] = cluster.network.latency_charged
    return totals


def sample_lags(built: Built, samples: dict[str, list[int]]) -> None:
    """One reading per pump slice of the asynchronous backlog: flusher
    queue depth, replica lag and index lag, in mutations."""
    cluster, bucket = built.cluster, built.workload.bucket
    cluster_map = cluster.manager.cluster_maps[bucket]
    engines = {node.name: node.engine(bucket) for node in cluster.nodes()}
    samples["queue_depth"].append(
        sum(engine.pending_writes() for engine in engines.values()))
    high: dict[int, int] = {}
    replica_lag = 0
    for vbucket_id, chain in enumerate(cluster_map.chains):
        seqno = engines[chain[0]].vbuckets[vbucket_id].high_seqno
        high[vbucket_id] = seqno
        for replica in chain[1:]:
            copy = engines[replica].vbuckets[vbucket_id]
            replica_lag += seqno - copy.high_seqno
    samples["replica_lag"].append(replica_lag)
    index_lag = 0
    registry = cluster.manager.index_registry
    for name in registry.names():
        marks = [cluster.node(node).indexer.indexer.watermarks(name)
                 for node in dict.fromkeys(registry.require(name).nodes)]
        lag = sum(max(0, seqno - max(m.get(vb, 0) for m in marks))
                  for vb, seqno in high.items())
        index_lag = max(index_lag, lag)
    samples["index_lag"].append(index_lag)


def end_state(built: Built) -> dict[str, float]:
    """What the cluster holds after a drain: bytes on disk and written
    since it was created, residency and fragmentation."""
    nodes = built.cluster.nodes()
    engines = [node.engine(built.workload.bucket) for node in nodes]
    stores = [vb.store for engine in engines
              for vb in engine.vbuckets.values()]
    return {
        "disk_used_bytes": sum(node.disk.used_bytes() for node in nodes),
        "disk_written_bytes": sum(node.disk.stats.bytes_written
                                  for node in nodes),
        "resident_ratio": sum(engine.stats()["resident_ratio"]
                              for engine in engines) / len(engines),
        "fragmentation": sum(store.fragmentation() for store in stores)
        / len(stores),
    }


def run_phase(built: Built, start: int, stop: int,
              tracer: Tracer | None = None) -> Phase:
    """Run ``ops[start:stop]`` as a closed loop with the fixed background
    cadence, then drain.  With a tracer, spans are recorded and the
    backlog is sampled before each pump slice; the sampling is left out
    of the phase's wall time and gaps."""
    cluster, client = built.cluster, built.client
    bucket, ops = built.workload.bucket, built.plan.ops
    scheduler = cluster.scheduler
    phase = Phase(start, stop)
    latencies, gaps = phase.latencies, phase.gaps
    results, failed = phase.results, phase.failed
    if tracer is not None:
        phase.samples = {"queue_depth": [], "replica_lag": [],
                         "index_lag": []}
        tracer.recording = True
    keep_every = max(1, (stop - start) // RESULT_SAMPLE)
    clock = time.perf_counter
    slice_virtual_s = PUMP_EVERY * VIRTUAL_SECONDS_PER_OP
    background = 0.0
    before = snapshot(cluster)
    last = clock()
    for index in range(start, stop):
        op = ops[index]
        if tracer is not None:
            tracer.op_id = index
        called = clock()
        try:
            rows = op.run(client, bucket, op.key, op.arg)
        except ReproError:
            rows = None
            failed.append(index)
        done = clock()
        latencies.append(done - called)
        gaps.append(done - last)
        last = done
        if rows is not None and index % keep_every == 0:
            results[index] = rows
        if (index + 1 - start) % PUMP_EVERY == 0:
            if tracer is not None:
                tracer.op_id = -1
                # The backlog the last slice's ops built up, read before
                # the pumps drain it.
                sample_lags(built, phase.samples)
                last = done = clock()
            scheduler.advance(slice_virtual_s)
            scheduler.step()
            background += clock() - done
    if tracer is not None:
        tracer.op_id = -1
    # What follows the last op: its pump slice if it ended one, the drain.
    drain_began = clock()
    tail = drain_began - last
    cluster.run_until_idle()
    phase.drain_s = clock() - drain_began
    if tracer is not None:
        tracer.recording = False
    after = snapshot(cluster)
    phase.background_s = background + phase.drain_s
    phase.wall_s = sum(gaps) + tail + phase.drain_s
    phase.counters = Counter({name: after[name] - before[name]
                              for name in after})
    phase.end = end_state(built)
    return phase


# -- verification ------------------------------------------------------------

@dataclass
class Replay:
    """The shadow model after replaying every acknowledged op."""

    shadow: dict[str, Any]
    #: Every key that ever held a document (removed ones must be gone).
    ever: set[str]
    #: Keys a failed mutating op touched.  An op can raise after its
    #: write was applied (a durable write that timed out waiting for
    #: persistence, a query that failed after its upsert), so these hold
    #: either the state before the op or the one after it.
    uncertain: set[str]
    #: JSON bytes the user wrote: at load, and per replayed phase.
    loaded_bytes: int
    written_bytes: list[int]


def _json_bytes(value: Any) -> int:
    return len(json.dumps(value, separators=(",", ":")))


def replay(built: Built, phases: list[Phase], problems: list[str]) -> Replay:
    """Rebuild the shadow dict of acknowledged writes from the op stream
    (ops that raised are skipped and their keys set aside), checking each
    kept query result against the model as it stood right after that op
    -- for as long as the model is certain."""
    workload, plan = built.workload, built.plan
    shadow = dict(plan.documents)
    initial_keys = sorted(shadow)
    result = Replay(shadow, set(shadow), set(),
                    sum(_json_bytes(doc) for doc in shadow.values()), [])
    for phase in phases:
        failed = set(phase.failed)
        written = 0
        for index in range(phase.start, phase.stop):
            op: Op = plan.ops[index]
            if index in failed:
                if op.effect is not None:
                    result.uncertain.add(op.effect[1])
                continue
            if op.effect is not None and op.effect[1] not in result.uncertain:
                apply_effect(shadow, op.effect)
                key = op.effect[1]
                result.ever.add(key)
                if op.effect[0] != "del":
                    written += _json_bytes(shadow[key])
            if index in phase.results and not result.uncertain:
                workload.check_result(op, phase.results[index], shadow,
                                      initial_keys, problems)
        result.written_bytes.append(written)
    return result


def _check_keys(client, bucket: str, keys: list[str], shadow: dict,
                problems: list[str], context: str) -> None:
    for key in keys:
        try:
            value = client.get(bucket, key).value
        except KeyNotFoundError:
            value = None
        if value != shadow.get(key):
            problems.append(f"{context}: {key!r} differs from the shadow "
                            "model")


def verify(built: Built, phases: list[Phase], seed: int) -> Replay:
    """Check the program's outputs against the shadow model, outside any
    timed interval; raises :class:`VerificationError` on any mismatch."""
    workload, cluster, client = built.workload, built.cluster, built.client
    problems: list[str] = []
    result = replay(built, phases, problems)
    shadow = result.shadow
    if not result.uncertain:
        workload.recompute(client, shadow, problems)
    keys = sorted(result.ever - result.uncertain)
    sample = random.Random(seed).sample(keys, min(SAMPLE_KEYS, len(keys)))
    _check_keys(client, workload.bucket, sample, shadow, problems,
                "read-back")
    if workload.crash_check and not problems:
        # Acknowledged-and-drained writes must survive from flushed
        # bytes alone: kill the process, drop the unsynced suffix of
        # every file, restart from disk.
        cluster_map = cluster.manager.cluster_maps[workload.bucket]
        hosted = [key for key in sample
                  if cluster_map.active_node(cluster_map.vbucket_for_key(key))
                  == CRASH_NODE]
        cluster.crash_node(CRASH_NODE)
        cluster.node(CRASH_NODE).disk.crash()
        cluster.restart_node(CRASH_NODE)
        _check_keys(client, workload.bucket, hosted, shadow, problems,
                    f"after crash of {CRASH_NODE}")
    if problems:
        shown = "; ".join(problems[:5])
        raise VerificationError(f"{len(problems)} mismatches: {shown}")
    return result


# -- metrics -----------------------------------------------------------------

def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # The tolerance keeps 0.99 x 100 = 99.00000000000001 at rank 99.
    return ordered[max(1, math.ceil(len(ordered) * share - 1e-9)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def calibrate() -> float:
    """``host.calib_us``: median time of a fixed pure-Python loop, in
    microseconds.  Recorded so a reader can tell a slow host from a slow
    program; never used to rescale a metric."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return percentile(times, 0.5) * 1e6


def same_work(laps: list[Phase]) -> bool:
    """Did every lap do what the first did: the same ops failed and every
    count of every layer is the same?  (Registry timers accumulate wall
    seconds; the rest are counts.)"""
    def counts(phase: Phase) -> dict:
        return {name: value for name, value in phase.counters.items()
                if not name.endswith("_seconds.total")}
    return all(lap.failed == laps[0].failed
               and counts(lap) == counts(laps[0]) for lap in laps[1:])


def fold(laps: list[Phase]) -> Phase:
    """The laps as one phase: each op's latency and gap, and what follows
    the last op, is the fastest of the laps' (as ``timeit`` takes the
    fastest repeat: the laps do identical work, so whatever makes one of
    them slower at some op is the host, not the program).  Everything
    that is not a time is the last lap's."""
    last = laps[-1]
    gaps = [min(times) for times in zip(*(lap.gaps for lap in laps))]
    tail = min(lap.wall_s - sum(lap.gaps) for lap in laps)
    return dataclasses.replace(
        last,
        latencies=[min(times)
                   for times in zip(*(lap.latencies for lap in laps))],
        gaps=gaps, wall_s=sum(gaps) + tail,
        drain_s=min(lap.drain_s for lap in laps))


def end_to_end(phase: Phase, result: Replay,
               setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one tracing-off run, as wall-clock
    times; ``phase`` is the laps folded and ``setups`` their set-up
    times, of which the fastest counts too (the first set-up of a process
    runs on cold caches).  The two disk ratios cover a cluster's whole
    life (load, warm-up, timed phase), so they are defined on a workload
    that writes nothing while timed."""
    user_bytes = result.loaded_bytes + sum(result.written_bytes)
    live_bytes = sum(_json_bytes(doc) for doc in result.shadow.values())
    waves = round(phase.counters["net.latency_charged"] / NETWORK_LATENCY)
    return {
        "setup_s": min(setups),
        "throughput_ops_s": phase.ops / phase.wall_s,
        "op_p50_us": percentile(phase.latencies, 0.5) * 1e6,
        "net_round_trips_per_op": waves / phase.ops,
        "disk_write_amp": phase.end["disk_written_bytes"] / user_bytes,
        "disk_space_amp": phase.end["disk_used_bytes"] / live_bytes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def demoted(phase: Phase) -> dict[str, float]:
    """The issue's end-to-end metrics that ``BENCHMARK.json`` lists per
    layer (see ``metrics.DEMOTED``), from a tracing-off phase."""
    return {
        "op_p99_us": percentile(phase.latencies, 0.99) * 1e6,
        "gap_p99_us": percentile(phase.gaps, 0.99) * 1e6,
        "failed_ops_ratio": len(phase.failed) / phase.ops,
    }


def per_layer(plan_ops: list[Op], phase: Phase, result: Replay,
              traced: Phase, tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics: counts and latencies from the tracing-off
    ``phase``, times (and the few counts no registry keeps) from the
    spans of the ``traced`` phase; both ran the same ops of ``plan_ops``,
    one lap each."""
    ops, c = phase.ops, phase.counters
    t_ops, tc = traced.ops, traced.counters
    us = 1e6
    m: dict[str, float] = demoted(phase)

    # Self time and calls of every layer, from the spans.
    layers = tracer.by_layer()
    for layer, (own, calls) in layers.items():
        m[f"{layer}.self_us_per_op"] = own * us / t_ops
        m[f"{layer}.calls_per_op"] = calls / t_ops
    spans = tracer.by_name()

    def span(name: str) -> tuple[int, float, int]:
        return spans.get(name, (0, 0.0, 0))

    def mean_us(*names: str) -> float:
        count = sum(span(name)[0] for name in names)
        return _ratio(sum(span(name)[1] for name in names) * us, count)

    # client: per-verb and per-shape latency with tracing off.
    by_verb: dict[str, list[float]] = {}
    by_shape: dict[str, list[float]] = {}
    for index, latency in zip(range(phase.start, phase.stop),
                              phase.latencies):
        op = plan_ops[index]
        by_verb.setdefault(op.verb, []).append(latency)
        if op.shape is not None:
            by_shape.setdefault(op.shape, []).append(latency)
    for verb in VERBS:
        m[f"client.{verb}_p50_us"] = percentile(by_verb.get(verb, []), .5) * 1e6
        m[f"client.{verb}_p99_us"] = percentile(by_verb.get(verb, []), .99) * 1e6
    for shape in SHAPES:
        m[f"n1ql.shape.{shape}_p50_us"] = \
            percentile(by_shape.get(shape, []), 0.5) * 1e6
    m["client.retries_per_op"] = c["admission.backoffs"] / ops
    m["client.map_refreshes"] = span("SmartClient._refresh_map")[0]

    m["admission.rejects"] = (c["admission.tenant.shed"] + c["admission.kv.shed"]
                              + c["admission.n1ql.shed"]
                              + c["admission.fabric.shed"])
    m["admission.backoffs"] = c["admission.backoffs"]
    m["admission.breaker_opens"] = c["admission.breaker.opened"]

    fanouts, _seconds, fanout_targets = span("Network.call_fanout")
    m["transport.rpcs_per_op"] = c["rpc"] / ops
    m["transport.fanout_width_mean"] = _ratio(fanout_targets, fanouts)

    mutations = c["kv.mutations"]
    pager_runs, pager_seconds, _ = span("KVEngine.run_item_pager")
    # One sync per flusher commit (a vBucket's batch) and per compaction.
    commits = c["disk.syncs"] - c["kv.compactions"]
    m["kv.cache_hit_ratio"] = 1.0 - _ratio(c["kv.bg_fetches"], c["kv.gets"])
    m["kv.bg_fetches_per_op"] = c["kv.bg_fetches"] / ops
    m["kv.evictions_per_op"] = c["kv.evictions"] / ops
    m["kv.pager_runs"] = pager_runs
    m["kv.pager_us_per_run"] = _ratio(pager_seconds * us, pager_runs)
    m["kv.tmpfails"] = c["kv.tmpfails"]
    m["kv.resident_ratio_end"] = phase.end["resident_ratio"]
    m["kv.flush_batch_docs_mean"] = _ratio(c["kv.flushed"], commits)
    m["kv.flush_us_per_doc"] = _ratio(span("KVEngine.flush")[1] * us,
                                      tc["kv.flushed"])
    m["kv.queue_depth_max"] = max(traced.samples["queue_depth"], default=0)

    _saves, save_seconds, saved_docs = span("VBucketStore.save_docs")
    lookups = span("BTree.lookup")[0]
    lookup_reads, _ = tracer.sum_under("SimulatedFile.read", "BTree.lookup")
    _appends, tree_bytes = tracer.sum_under("SimulatedFile.append",
                                            "BTree.batch_update")
    _appends, rewritten = tracer.sum_under("SimulatedFile.append",
                                           "Compactor.compact")
    m["storage.save_docs_us_per_doc"] = _ratio(save_seconds * us, saved_docs)
    m["storage.header_writes_per_doc"] = _ratio(
        span("VBucketStore.write_header")[0], saved_docs)
    # A record is read as framing then body: two reads per node.
    m["storage.btree_nodes_read_per_lookup"] = _ratio(lookup_reads / 2,
                                                      lookups)
    m["storage.btree_bytes_written_per_doc"] = _ratio(tree_bytes, saved_docs)
    m["storage.lookup_us"] = mean_us("BTree.lookup")
    m["storage.compactions"] = c["kv.compactions"]
    m["storage.compaction_bytes_rewritten"] = rewritten
    m["storage.compaction_busy_share"] = (span("Compactor.compact")[1]
                                          / traced.wall_s)
    m["storage.fragmentation_end"] = phase.end["fragmentation"]

    m["disk.writes"] = c["disk.writes"]
    m["disk.bytes_written"] = c["disk.bytes_written"]
    m["disk.reads"] = c["disk.reads"]
    m["disk.bytes_read"] = c["disk.bytes_read"]
    m["disk.syncs"] = c["disk.syncs"]
    m["disk.syncs_per_mutation"] = _ratio(c["disk.syncs"], mutations)
    m["disk.write_size_mean_bytes"] = _ratio(c["disk.bytes_written"],
                                             c["disk.writes"])
    m["disk.write_amp_timed"] = _ratio(c["disk.bytes_written"],
                                       result.written_bytes[-1])

    _takes, _seconds, messages = span("DcpStream.take")
    busy_takes = sum(1 for name, value in zip(tracer.names, tracer.values)
                     if name == "DcpStream.take" and value)
    m["dcp.messages_per_mutation"] = _ratio(messages, tc["kv.mutations"])
    m["dcp.take_batch_mean"] = _ratio(messages, busy_takes)
    m["dcp.backfills"] = c["dcp.stream_backfill"]

    replica_rpcs = c["rpc.kv_replica_apply_batch"]
    m["replication.pump_busy_share"] = (span("IntraReplicator.pump")[1]
                                        / traced.wall_s)
    m["replication.batch_docs_mean"] = _ratio(c["kv.replica_mutations"],
                                              replica_rpcs)
    m["replication.rpcs_per_mutation"] = _ratio(replica_rpcs, mutations)
    m["replication.lag_seqnos_p99"] = percentile(
        traced.samples["replica_lag"], 0.99)

    selects = c["n1ql.selects"]
    rows = c["n1ql.result_rows"]
    scan_rpcs = (c["rpc.gsi_scan"] + c["rpc.gsi_scan_page"]
                 + c["rpc.gsi_scan_aggregate"])
    # Everything a coordinator scan does before its first partition scan
    # is the consistency barrier.
    barrier = tracer.first_descendant_delays(
        "GsiCoordinator.scan",
        ("Indexer.scan", "Indexer.scan_page", "Indexer.scan_aggregate"))
    barrier_waits = [delay for index, delay in barrier.items()
                     if tracer.op_ids[index] >= 0
                     and plan_ops[tracer.op_ids[index]].shape == "rp_query"]
    m["gsi.projector_busy_share"] = span("Projector.pump")[1] / traced.wall_s
    m["gsi.apply_us_per_keyversion"] = mean_us("Indexer.apply")
    m["gsi.index_lag_seqnos_p99"] = percentile(traced.samples["index_lag"],
                                               0.99)
    m["gsi.scan_us"] = mean_us("GsiCoordinator.scan",
                               "GsiCoordinator.scan_aggregate")
    m["gsi.entries_scanned_per_row"] = _ratio(
        c["gsi.scan_rows"] + c["gsi.scan_page_rows"], rows)
    m["gsi.scan_rpcs_per_query"] = _ratio(scan_rpcs, selects)
    m["gsi.barrier_wait_p50_us"] = percentile(barrier_waits, 0.5) * us

    hits, misses = c["n1ql.plan_cache.hit"], c["n1ql.plan_cache.miss"]
    for stage in ("parse", "plan", "exec"):
        m[f"n1ql.{stage}_us"] = _ratio(
            c[f"n1ql.{stage}_seconds.total"] * 1e6,
            c[f"n1ql.{stage}_seconds.count"])
    m["n1ql.plan_cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["n1ql.docs_fetched_per_row"] = _ratio(c["kv.gets"], rows) if selects \
        else 0.0
    m["n1ql.rows_per_query"] = _ratio(rows, selects)

    pump_calls = sum(span(f"pump.{kind}")[0] for kind in PUMP_KINDS)
    pump_progress = sum(span(f"pump.{kind}")[2] for kind in PUMP_KINDS)
    m["scheduler.rounds"] = span("Scheduler.step")[0]
    m["scheduler.pump_calls"] = pump_calls
    m["scheduler.idle_pump_call_ratio"] = 1.0 - _ratio(pump_progress,
                                                       pump_calls)
    m["scheduler.bg_share"] = phase.background_s / phase.wall_s
    m["scheduler.drain_ms"] = phase.drain_s * 1e3
    for kind in PUMP_KINDS:
        m[f"scheduler.busy_us.{kind}"] = span(f"pump.{kind}")[1] * us / t_ops

    # The traced phase repeats the tracing-off phase on an identical
    # cluster, so the two are compared like for like.
    m["trace.overhead_ratio"] = traced.wall_s / phase.wall_s
    m["trace.coverage_ratio"] = (sum(own for own, _calls in layers.values())
                                 / traced.wall_s)
    m["host.calib_us"] = calibrate()
    return m


# -- one workload, start to finish -------------------------------------------

@dataclass
class Report:
    """The result of one run of one workload."""

    #: Timed ops over all laps; each lap's ops are one latency sample each.
    attempted: int
    failed: int
    metrics: dict[str, float]
    laps: int
    #: Wall time spent on laps beyond ``LAPS``.
    extra_s: float


def run_lap(workload: Workload, plan: Plan, seed: int, n_ops: int,
            tracer: Tracer | None = None) -> tuple[Phase, Replay, float]:
    """Set up a fresh cluster, run the timed phase over the ``n_ops`` ops
    that follow the warm-up, verify; then let the cluster go.  Raises
    :class:`VerificationError`."""
    built = set_up(workload, plan, len(plan.ops) - n_ops)
    phase = run_phase(built, built.warmup.stop, len(plan.ops), tracer)
    result = verify(built, [built.warmup, phase], seed)
    # Un-freeze, or the next lap's heap holds this lap's cluster for good.
    gc.unfreeze()
    return phase, result, built.setup_s


def run_workload(workload: Workload, seed: int, n_ops: int, trace: bool,
                 trace_out: str | None = None, best_ops_s: float = 0.0,
                 spare_s: float = 0.0) -> Report:
    """Tracing off: ``LAPS`` laps of ``n_ops`` ops each, folded, and more
    laps for up to ``spare_s`` seconds while the throughput stays below
    ``SPELL_SHARE`` of ``best_ops_s``.  With ``trace``: one lap, then a
    traced lap with the wrappers installed before its cluster is built
    and removed after.  Raises :class:`VerificationError` before any
    metric is computed."""
    plan = workload.plan(seed, warmup_ops(n_ops) + n_ops)
    laps, setups = [], []

    def one_more() -> Replay:
        phase, result, setup_s = run_lap(workload, plan, seed, n_ops)
        laps.append(phase)
        setups.append(setup_s)
        if not same_work(laps):
            raise VerificationError("the laps did different work for one "
                                    "seed")
        return result

    for _lap in range(1 if trace else LAPS):
        result = one_more()
    phase = fold(laps)
    began = time.perf_counter()
    while (not trace and phase.ops / phase.wall_s < SPELL_SHARE * best_ops_s
           and time.perf_counter() - began < spare_s):
        result = one_more()
        phase = fold(laps)
    extra_s = time.perf_counter() - began
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _result, _setup_s = run_lap(workload, plan, seed, n_ops,
                                                tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(plan.ops, phase, result, traced, tracer)
        if trace_out is not None:
            tracer.write(trace_out)
    else:
        metrics = {**end_to_end(phase, result, setups), **demoted(phase)}
    return Report(sum(lap.ops for lap in laps),
                  sum(len(lap.failed) for lap in laps), metrics, len(laps),
                  extra_s)
