"""Built-in sanitizer scenarios.

Each scenario is a small, fast end-to-end workload whose converged state
must be schedule independent.  A scenario builds its clusters with the
policy under test installed *before* any pump registrations matter, runs
a workload with explicit settle points, and returns the clusters plus
its own observations (query results, durability acks) for digesting.

Scenarios keep clusters tiny (2-3 nodes, 4-8 vBuckets, tens of docs):
the oracle runs each one dozens of times, and interleaving bugs are a
property of orderings, not of scale.

Multi-cluster scenarios give every node a globally unique name so the
write-race tracker's ownership tags (``kv/<node>/<bucket>``) never
collide across clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..common.errors import (
    InvalidArgumentError,
    KeyNotFoundError,
    TemporaryFailureError,
)
from ..common.scheduler import SchedulePolicy
from ..gsi.indexdef import IndexDefinition, path_extractor
from ..server import Cluster
from ..views.mapreduce import ViewDefinition
from ..xdcr.replicator import XdcrReplication, settle


@dataclass
class RunOutcome:
    """What one scenario execution hands back to the oracle."""

    #: ``[(name, Cluster), ...]`` -- digested in order.
    clusters: list
    #: scheduler name -> Scheduler, for schedule traces.
    schedulers: dict
    #: Scenario-level observations folded into the digest (query rows,
    #: durability acks, converged reads).
    observations: dict


@dataclass
class Scenario:
    """A named workload the oracle can replay under many policies."""

    name: str
    description: str
    run: Callable[[SchedulePolicy], RunOutcome]
    #: True for deliberately broken fixtures that detectors must catch.
    expect_findings: bool = False


def sanitized_cluster(name: str, policy: SchedulePolicy, *,
                      nodes, vbuckets: int,
                      auto_failover: bool = True) -> Cluster:
    """A Cluster wired for sanitized runs: named scheduler (so pump
    names are cluster-qualified in reports), policy installed, and
    schedule tracing on -- all before any bucket pumps register."""
    cluster = Cluster(nodes=nodes, vbuckets=vbuckets,
                      auto_failover=auto_failover)
    cluster.scheduler.name = name
    cluster.scheduler.policy = policy
    cluster.scheduler.trace = []
    return cluster


def _outcome(*named_clusters, observations: dict) -> RunOutcome:
    return RunOutcome(
        clusters=list(named_clusters),
        schedulers={name: c.scheduler for name, c in named_clusters},
        observations=observations,
    )


_ALL = ("data", "index", "query")


# -- kv-durability ---------------------------------------------------------------


def _run_kv_durability(policy: SchedulePolicy) -> RunOutcome:
    """Durable writes and deletes: every ack must hold once quiesced,
    under any pump order."""
    cluster = sanitized_cluster(
        "kv", policy, vbuckets=8,
        nodes=[("kv1", _ALL), ("kv2", _ALL), ("kv3", _ALL)],
    )
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    acks: dict[str, str] = {}
    for i in range(12):
        client.upsert("b", f"k{i}", {"i": i}, replicate_to=1, persist_to=1)
        acks[f"k{i}"] = "write-durable"
    for i in range(0, 12, 3):
        client.remove("b", f"k{i}", persist_to=1)
        acks[f"k{i}"] = "delete-durable"
    cluster.run_until_idle()
    observed: dict[str, list] = {}
    cluster_map = cluster.manager.cluster_maps["b"]
    for key in sorted(acks):
        vbucket_id = cluster_map.vbucket_for_key(key)
        probes = []
        for node_name in cluster_map.chains[vbucket_id]:
            if node_name is None:
                continue
            result = cluster.network.call(
                "sanitize-probe", node_name, "kv_observe", "b", vbucket_id, key
            )
            probes.append([node_name, result.exists, result.persisted])
        observed[key] = probes
    return _outcome(("kv", cluster),
                    observations={"acks": acks, "observe": observed})


# -- failover-replica-promote -----------------------------------------------------


def _run_failover(policy: SchedulePolicy) -> RunOutcome:
    """Auto-failover promotes replicas; post-failover state must not
    depend on pump order.  The workload settles before the crash: data
    still in flight at crash time is *legitimately* schedule dependent."""
    cluster = sanitized_cluster(
        "fo", policy, vbuckets=8,
        nodes=[("fo1", _ALL), ("fo2", _ALL), ("fo3", _ALL)],
    )
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    for i in range(12):
        client.upsert("b", f"k{i}", {"i": i})
    cluster.run_until_idle()
    cluster.crash_node("fo3")
    cluster.tick(31.0)  # past AUTO_FAILOVER_TIMEOUT: replicas promote
    for i in range(12, 18):
        client.upsert("b", f"k{i}", {"i": i})
    cluster.run_until_idle()
    reads = {}
    for i in range(18):
        reads[f"k{i}"] = client.get("b", f"k{i}").value
    return _outcome(("fo", cluster), observations={"reads": reads})


# -- rebalance --------------------------------------------------------------------


def _run_rebalance(policy: SchedulePolicy) -> RunOutcome:
    """vBucket moves (add-node rebalance) followed by a failover
    promotion: the two paths that retire vBucket copies (move handoff
    marks the source DEAD; failover promotes replicas over lost
    actives).  Whatever order the movers, flushers and replicators
    pumped in, the surviving data -- including ids whose old copies died
    on a node that later takes them back -- must be identical."""
    cluster = sanitized_cluster(
        "rb", policy, vbuckets=8, nodes=[("rb1", _ALL), ("rb2", _ALL)],
    )
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    for i in range(16):
        client.upsert("b", f"k{i}", {"i": i})
    cluster.run_until_idle()
    # Join a node and move vBuckets onto it (source copies go DEAD).
    cluster.add_node("rb3", services=_ALL)
    cluster.rebalance()
    for i in range(16, 24):
        client.upsert("b", f"k{i}", {"i": i})
    for i in range(0, 16, 4):
        client.remove("b", f"k{i}")
    cluster.run_until_idle()
    # Then lose it: auto-failover promotes the replicas back onto the
    # original nodes, reusing ids they gave away during the move.
    cluster.crash_node("rb3")
    cluster.tick(31.0)  # past AUTO_FAILOVER_TIMEOUT: replicas promote
    cluster.run_until_idle()
    reads = {}
    for i in range(24):
        key = f"k{i}"
        try:
            reads[key] = client.get("b", key).value
        except KeyNotFoundError:
            reads[key] = "<deleted>"
    return _outcome(("rb", cluster), observations={"reads": reads})


# -- views-gsi-index --------------------------------------------------------------


def _run_views_gsi(policy: SchedulePolicy) -> RunOutcome:
    """View and GSI maintenance are DCP consumers racing the flusher and
    each other; index contents after quiescence must be identical.  A
    second view and a second GSI index are made after the writes, so
    their builds -- their own streams from seqno 0 -- run under the
    schedule too."""
    cluster = sanitized_cluster(
        "ix", policy, vbuckets=8, nodes=[("ix1", _ALL), ("ix2", _ALL)],
    )
    cluster.create_bucket("b", replicas=1)

    def by_group(doc, meta, emit):
        if "g" in doc:
            emit(doc["g"], doc.get("i"))

    cluster.define_view("b", ViewDefinition("dd", "by_g", by_group))
    cluster.create_index(IndexDefinition(
        "by_i", "b", ["i"], [path_extractor("i")],
    ))
    client = cluster.connect()
    for i in range(20):
        client.upsert("b", f"k{i}", {"i": i, "g": i % 4})
    for i in range(0, 20, 5):
        client.remove("b", f"k{i}")
    for i in range(1, 20, 5):
        client.upsert("b", f"k{i}", {"i": i + 100, "g": i % 4})
    cluster.define_view("b", ViewDefinition("dd", "by_g2", by_group))
    cluster.create_index(IndexDefinition(
        "by_g", "b", ["g"], [path_extractor("g")],
    ))
    cluster.run_until_idle()
    observations = {}
    for view in ("by_g", "by_g2"):
        rows = cluster.views.query("b", "dd", view, stale="false").rows
        observations[view] = [[row["key"], row["value"], row["id"]]
                              for row in rows]
    for index in ("by_i", "by_g"):
        rows = cluster.gsi.scan(index, scan_consistency="request_plus")
        observations[index] = [[key, doc_id] for key, doc_id in rows]
    return _outcome(("ix", cluster), observations=observations)


# -- xdcr-bidirectional -----------------------------------------------------------


def _run_xdcr(policy: SchedulePolicy) -> RunOutcome:
    """Bidirectional XDCR with conflicting writers: both clusters must
    converge on the same winners whatever order the pumps ran in -- also
    after a source rebalance moves vBuckets under their XDCR slots and a
    target node is down while the source writes, so slots resume from
    their checkpoints on new nodes and after failed pushes."""
    east = sanitized_cluster(
        "east", policy, vbuckets=8, nodes=[("e1", _ALL), ("e2", _ALL)],
    )
    west = sanitized_cluster(
        "west", policy, vbuckets=4,
        nodes=[("w1", _ALL), ("w2", _ALL), ("w3", _ALL)],
    )
    east.create_bucket("b", replicas=1)
    west.create_bucket("b", replicas=1)
    XdcrReplication(east, west, "b")
    XdcrReplication(west, east, "b")
    ce, cw = east.connect(), west.connect()
    for i in range(10):
        ce.upsert("b", f"k{i}", {"side": "east", "i": i})
    for i in range(10):
        # Conflicting writers: higher rev (two updates) must win on both
        # sides for even keys; east's single write wins ties... never --
        # deterministic resolution picks the same winner everywhere.
        cw.upsert("b", f"k{i}", {"side": "west", "i": i})
        if i % 2 == 0:
            cw.upsert("b", f"k{i}", {"side": "west", "i": i, "again": True})
    ce.remove("b", "k9")
    settle(east, west)
    east.add_node("e3", services=_ALL)
    east.rebalance()
    west.crash_node("w3")
    for i in range(10, 14):
        ce.upsert("b", f"k{i}", {"side": "east", "i": i})
    east.run_until_idle()  # pushes to w3's vBuckets fail: slots retire
    west.restart_node("w3")
    settle(east, west)
    converged = {}
    for i in range(14):
        key = f"k{i}"
        try:
            east_value = ce.get("b", key).value
        except KeyNotFoundError:
            east_value = "<deleted>"
        try:
            west_value = cw.get("b", key).value
        except KeyNotFoundError:
            west_value = "<deleted>"
        converged[key] = [east_value, west_value]
    return _outcome(("east", east), ("west", west),
                    observations={"converged": converged})


# -- scatter-gather-query ---------------------------------------------------------


def _run_scatter_gather(policy: SchedulePolicy) -> RunOutcome:
    """N1QL over a partitioned GSI index: the parallel scatter-gather
    scan fans out to every partition and k-way merges the streams, and
    the partial-aggregate pushdown merges per-partition group partials.
    Whatever order the index pumps drained mutations in, the merged row
    stream -- order included -- and the merged aggregates must be
    identical."""
    cluster = sanitized_cluster(
        "sg", policy, vbuckets=8,
        nodes=[("sg1", _ALL), ("sg2", _ALL), ("sg3", _ALL)],
    )
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    for i in range(24):
        client.upsert("b", f"k{i:02d}", {"v": i % 5, "w": i})
    for i in range(0, 24, 6):
        client.upsert("b", f"k{i:02d}", {"v": i % 5, "w": i + 100})
    for i in range(3, 24, 8):
        client.remove("b", f"k{i:02d}")
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_v ON b(v, w) USING GSI '
                  'WITH {"num_partitions": 3}')
    ordered = cluster.query(
        "SELECT v, w FROM b x WHERE x.v >= 0 ORDER BY x.v LIMIT 10",
        scan_consistency="request_plus").rows
    grouped = cluster.query(
        "SELECT v, COUNT(*) AS n, SUM(x.w) AS total FROM b x "
        "WHERE x.v >= 0 GROUP BY v",
        scan_consistency="request_plus").rows
    return _outcome(("sg", cluster), observations={
        "ordered": ordered, "grouped": grouped,
    })


# -- overload-quota ---------------------------------------------------------------


def _run_overload_quota(policy: SchedulePolicy) -> RunOutcome:
    """A write load against a deliberately tiny quota: TMPFAILs, client
    backoff, breaker trips, pager ejections.  How *often* the engine
    sheds depends on pump order (flusher progress is the schedule), and
    retry counts move the CAS counter -- so the cluster digest is
    legitimately schedule dependent and excluded.  What must NOT depend
    on the schedule: every retried write eventually lands with its final
    value, the incremental memory counter equals the ground-truth sum --
    also after falsy values (``{}``, ``[]``, ``""``, ``false``, ``null``)
    are ejected and fetched back, whose charge a bg-fetch once got wrong
    -- and the admission front door recovers (breaker closed, pressure
    decayed) once the load stops."""
    cluster = sanitized_cluster(
        "ov", policy, vbuckets=4, nodes=[("ov1", _ALL)],
    )
    cluster.create_bucket("b", replicas=0, quota_bytes=48 * 1024,
                          expiry_pager_interval=None)
    client = cluster.connect()
    for i in range(40):
        payload = {"i": i, "pad": "x" * 2048}
        for _attempt in range(60):
            try:
                client.upsert("b", f"k{i}", payload)
                break
            except TemporaryFailureError:
                cluster.tick(0.05)
        else:
            raise AssertionError(f"k{i} never landed under backoff")
    cluster.run_until_idle()
    # Let pressure decay and the breaker cooldown elapse, then probe.
    cluster.tick(35.0)
    client.upsert("b", "probe", {"i": -1})
    engine = cluster.node("ov1").engines["b"]
    reads = {f"k{i}": client.get("b", f"k{i}").value["i"] for i in range(40)}
    falsy = {f"falsy{i}": value
             for i, value in enumerate([{}, [], "", False, None])}
    for key, value in falsy.items():
        client.upsert("b", key, value)
    cluster.run_until_idle()  # flushed, so clean and ejectable
    for key in falsy:
        for vb in engine.vbuckets.values():
            vb.hashtable.eject_value(key)
        reads[key] = client.get("b", key).value
    # A drift would be the same under every schedule, so it would not
    # split the digests: fail the run instead.
    if engine.memory_used() != engine.memory_used_full():
        raise AssertionError(
            f"memory counter {engine.memory_used()} != entries' "
            f"footprints {engine.memory_used_full()}")
    return RunOutcome(
        clusters=[],
        schedulers={"ov": cluster.scheduler},
        observations={
            "reads": reads,
            "breaker_recovered": cluster.admission.breaker("ov1").state,
            "overloaded_after_quiesce": cluster.admission.overloaded(),
        },
    )


def builtin_scenarios() -> list[Scenario]:
    return [
        Scenario(
            "kv-durability",
            "durable writes/deletes: acks and observe() hold under any order",
            _run_kv_durability,
        ),
        Scenario(
            "failover-replica-promote",
            "auto-failover replica promotion is schedule independent",
            _run_failover,
        ),
        Scenario(
            "rebalance",
            "vBucket moves then a failover promotion converge under any order",
            _run_rebalance,
        ),
        Scenario(
            "views-gsi-index",
            "view and GSI contents converge identically under any order",
            _run_views_gsi,
        ),
        Scenario(
            "xdcr-bidirectional",
            "bidirectional XDCR conflict resolution converges identically",
            _run_xdcr,
        ),
        Scenario(
            "scatter-gather-query",
            "partitioned-index scatter-gather scan and aggregate "
            "pushdown merge identically under any order",
            _run_scatter_gather,
        ),
        Scenario(
            "overload-quota",
            "retried writes under quota pressure converge; the front "
            "door recovers after the storm",
            _run_overload_quota,
        ),
    ]


def scenario_registry(include_fixtures: bool = False) -> dict[str, Scenario]:
    from .fixtures import fixture_scenarios
    scenarios = list(builtin_scenarios())
    if include_fixtures:
        scenarios.extend(fixture_scenarios())
    return {scenario.name: scenario for scenario in scenarios}


def get_scenarios(names: list[str] | None,
                  include_fixtures: bool = False) -> list[Scenario]:
    registry = scenario_registry(include_fixtures=True)
    if names is None:
        return [s for s in scenario_registry(include_fixtures).values()]
    missing = [name for name in names if name not in registry]
    if missing:
        known = ", ".join(sorted(registry))
        raise InvalidArgumentError(
            f"unknown scenario(s) {', '.join(missing)}; known: {known}"
        )
    return [registry[name] for name in names]
