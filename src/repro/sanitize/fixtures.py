"""Deliberately broken scenarios that the detectors must catch.

These are the sanitizer's self-test: each fixture injects one class of
ordering bug, and a clean run over them is a *failure* of the tooling.
``python -m repro.sanitize --fixtures`` runs them expecting findings
(exit 1), and tests/sanitize/ asserts which detector fires for which
fixture:

* ``order-dependent`` -- two pumps append to a shared log; the final log
  depends on pump order, so the **divergence oracle** reports it.  (No
  tagged structure is touched, so the write tracker stays silent.)
* ``rogue-direct-write`` -- a pump calls ``KVEngine.upsert`` directly
  instead of going through the network fabric.  The write happens at a
  deterministic point, so digests agree -- only the **write-race
  tracker** sees it.
* ``queue-theft`` -- an extra pump takes from the view engine's DCP
  streams.  The **tracker** flags the double consumer, and because the
  stolen messages never reach the view index, digests diverge too.
"""

from __future__ import annotations

from ..common.contracts import declared_raises
from ..common.scheduler import SchedulePolicy, Scheduler
from .scenarios import RunOutcome, Scenario, sanitized_cluster

_ALL = ("data", "index", "query")


def _run_order_dependent(policy: SchedulePolicy) -> RunOutcome:
    scheduler = Scheduler(policy=policy)
    scheduler.name = "fixture"
    scheduler.trace = []
    log: list[str] = []
    budget = {"a": 3, "b": 3}

    def make_pump(name: str):
        def pump() -> bool:
            if budget[name] <= 0:
                return False
            budget[name] -= 1
            log.append(name)
            return True
        return pump

    scheduler.register("writer-a", make_pump("a"))
    scheduler.register("writer-b", make_pump("b"))
    scheduler.run_until_idle()
    return RunOutcome(
        clusters=[],
        schedulers={"fixture": scheduler},
        observations={"log": list(log)},
    )


def _run_rogue_direct_write(policy: SchedulePolicy) -> RunOutcome:
    cluster = sanitized_cluster(
        "rg", policy, vbuckets=4, nodes=[("rg1", _ALL)],
    )
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(4):
        client.upsert("b", f"k{i}", {"i": i})
    engine = cluster.node("rg1").engines["b"]
    cluster_map = cluster.manager.cluster_maps["b"]
    done = {"rogue": False}

    @declared_raises('CasMismatchError', 'DocumentLockedError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def rogue_pump() -> bool:
        # The bug under test: a background component mutating the KV
        # engine object-to-object instead of through Network.call.
        if done["rogue"]:
            return False
        done["rogue"] = True
        vbucket_id = cluster_map.vbucket_for_key("rogue-doc")
        engine.upsert(vbucket_id, "rogue-doc", {"rogue": True})
        return True

    cluster.scheduler.register("rogue", rogue_pump)
    cluster.run_until_idle()
    return RunOutcome(
        clusters=[("rg", cluster)],
        schedulers={"rg": cluster.scheduler},
        observations={},
    )


def _run_queue_theft(policy: SchedulePolicy) -> RunOutcome:
    cluster = sanitized_cluster(
        "qt", policy, vbuckets=4, nodes=[("qt1", _ALL)],
    )
    cluster.create_bucket("b", replicas=0)
    from ..views.mapreduce import ViewDefinition

    def by_i(doc, meta, emit):
        if "i" in doc:
            emit(doc["i"], None)

    cluster.define_view("b", ViewDefinition("dd", "by_i", by_i))
    view_engine = cluster.node("qt1").view_engines["b"]

    @declared_raises('CorruptFileError', 'InvalidArgumentError')
    def thief_pump() -> bool:
        # The bug under test: a second consumer draining the view
        # engine's single-consumer DCP streams, racing it for messages.
        stole = False
        for stream in list(view_engine.streams.values()):
            if stream.take(4):
                stole = True
        return stole

    cluster.scheduler.register("thief", thief_pump)
    client = cluster.connect()
    for i in range(4):
        client.upsert("b", f"k{i}", {"i": i})
    # First drain: the views pump opens its streams (and claims them).
    cluster.run_until_idle()
    for i in range(4, 8):
        client.upsert("b", f"k{i}", {"i": i})
    # Second drain: the new mutations sit in already-open streams, so
    # round-0 order decides whether the thief or the views pump gets
    # them -- stolen ones never reach the index.
    cluster.run_until_idle()
    return RunOutcome(
        clusters=[("qt", cluster)],
        schedulers={"qt": cluster.scheduler},
        observations={},
    )


def fixture_scenarios() -> list[Scenario]:
    return [
        Scenario(
            "order-dependent",
            "FIXTURE: shared log written by two pumps (oracle must catch)",
            _run_order_dependent,
            expect_findings=True,
        ),
        Scenario(
            "rogue-direct-write",
            "FIXTURE: pump bypasses the network fabric (tracker must catch)",
            _run_rogue_direct_write,
            expect_findings=True,
        ),
        Scenario(
            "queue-theft",
            "FIXTURE: pump drains a peer's DCP stream (both must catch)",
            _run_queue_theft,
            expect_findings=True,
        ),
    ]
