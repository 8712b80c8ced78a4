"""Overload goodput through the admission front door, deterministic in
scheduler rounds (virtual work units) -- no wall clock anywhere.

Two overload shapes from the paper's operational story:

* **N1QL scan storm**: every ``request_plus`` query runs the GSI
  consistency barrier, which quiesces the whole cluster, so an
  unthrottled query storm multiplies scheduler work while adding
  nothing to goodput.  The n1ql service budget sheds the excess at the
  front door for free and the KV point-op path never notices (shed
  N1QL before KV).

* **TMPFAIL retry spin**: a write storm drives a small bucket into
  *unrecoverable* memory pressure (metadata alone approaches the quota,
  and metadata is not ejectable under value eviction).  The client takes
  bounded relief steps plus a virtual-time backoff per retry, and the
  per-node breaker converts the sustained failure run into cheap
  fail-fast rejections.

What the same loads cost a client without a controller is recorded in
EXPERIMENTS.md (measured at e8e6da7, before that arm was deleted).
"""

import itertools

import pytest

from repro import Cluster
from repro.admission import AdmissionConfig
from repro.common.errors import TemporaryFailureError

#: Load ticks per run; each tick is one batch of offered load followed
#: by a virtual-time advance (the inter-arrival gap).
TICKS = 30
TICK_SECONDS = 0.5
OVERLOAD_MULTIPLIER = 10


# -- shape 1: N1QL scan storm over a healthy KV write load -----------------

KV_PER_TICK = 32
QUERY_BASE = 4  # queries/tick at saturation (= the admitted budget)


def _run_scan_storm(multiplier: int) -> dict:
    cluster = Cluster(nodes=2, vbuckets=16, admission=AdmissionConfig(
        service_rates={"n1ql": (QUERY_BASE / TICK_SECONDS,
                                float(QUERY_BASE))},
    ))
    cluster.create_bucket("b", replicas=0)
    cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
    client = cluster.connect()
    for i in range(64):
        client.upsert("b", f"seed{i}", {"v": i % 8, "pad": "x" * 64})
    # CREATE INDEX drew a token from the same n1ql budget; one tick
    # refills it, so the storm starts with the full burst.
    cluster.tick(TICK_SECONDS)

    sched = cluster.scheduler
    fresh = itertools.count()
    kv_ok = q_ok = q_shed = 0
    start = sched._round
    offered_queries = QUERY_BASE * multiplier
    for _tick in range(TICKS):
        # Interleave the query storm with the steady KV write load the
        # way concurrent tenants would hit the fabric.
        for i in range(max(KV_PER_TICK, offered_queries)):
            if i < KV_PER_TICK:
                try:
                    client.upsert("b", f"k{next(fresh) % 256}",
                                  {"v": i % 8, "pad": "x" * 64})
                    kv_ok += 1
                except TemporaryFailureError:
                    pass
            if i < offered_queries:
                try:
                    cluster.query(
                        "SELECT meta(x).id FROM b x WHERE x.v = $v",
                        {"v": i % 8}, scan_consistency="request_plus")
                    q_ok += 1
                except TemporaryFailureError:
                    q_shed += 1
        sched.advance(TICK_SECONDS)
    metrics = cluster.admission.metrics
    return {
        "kv_ok": kv_ok, "q_ok": q_ok, "q_shed": q_shed,
        "goodput": (kv_ok + q_ok) / (sched._round - start),
        "shed_n1ql": metrics.counter_value("admission.n1ql.shed"),
        "shed_tenant": metrics.counter_value("admission.tenant.shed"),
        "shed_kv": metrics.counter_value("admission.kv.shed"),
    }


@pytest.fixture(scope="module")
def at_saturation() -> dict:
    return _run_scan_storm(1)


def test_query_budget_is_fully_usable_at_saturation(at_saturation):
    """Offered load equal to the provisioned n1ql budget is admitted in
    full: the query front door charges the n1ql compartment, not a
    synthetic tenant capped at a fair share of it (which admitted 59 of
    120 and booked the other 61 as tenant sheds)."""
    assert at_saturation["q_ok"] == QUERY_BASE * TICKS
    assert at_saturation["q_shed"] == 0
    assert at_saturation["shed_tenant"] == 0


def test_scan_storm_is_shed_from_the_n1ql_compartment(at_saturation):
    storm = _run_scan_storm(OVERLOAD_MULTIPLIER)
    # Goodput at 10x saturation stays within 20% of goodput at
    # saturation ...
    assert storm["goodput"] >= 0.8 * at_saturation["goodput"]
    # ... because the excess was refused at the door: exactly the
    # budget got in, the rest was shed from the n1ql compartment ...
    assert storm["q_ok"] == QUERY_BASE * TICKS
    assert storm["shed_n1ql"] == storm["q_shed"] > 0
    assert storm["shed_tenant"] == 0
    # ... and not one KV op was refused or lost.
    assert storm["shed_kv"] == 0
    assert storm["kv_ok"] == KV_PER_TICK * TICKS


# -- shape 2: TMPFAIL retry spin under unrecoverable memory pressure ------

SPIN_TICKS = 2 * TICKS
SPIN_QUOTA = 96 * 1024
SPIN_PUMP_BUDGET = 6  # bounded background work granted per tick
HOT_KEYS = 64
HOT_PER_TICK = 24  # small resident rewrites: the viable traffic
BLOAT_PER_TICK = 4 * OVERLOAD_MULTIPLIER  # 2 KiB inserts: the doomed traffic


def test_retry_spin_is_bounded_by_backoff_and_breaker():
    cluster = Cluster(nodes=1, vbuckets=8)
    cluster.create_bucket("b", replicas=0, quota_bytes=SPIN_QUOTA,
                          expiry_pager_interval=None)
    client = cluster.connect()
    fresh = itertools.count()
    sched = cluster.scheduler
    successes = failures = 0
    start = sched._round
    for _tick in range(SPIN_TICKS):
        plan = [(f"hot{i % HOT_KEYS}", "v" * 16)
                for i in range(HOT_PER_TICK)]
        plan += [(f"new{next(fresh)}", "x" * 2048)
                 for _ in range(BLOAT_PER_TICK)]
        for key, value in plan:
            try:
                client.upsert("b", key, value)
                successes += 1
            except TemporaryFailureError:
                failures += 1
        sched.advance(TICK_SECONDS)
        for _ in range(SPIN_PUMP_BUDGET):
            if not sched.step():
                break
    rounds = sched._round - start
    tmpfails = cluster.node("node1").engines["b"].metrics.counter_value(
        "kv.tmpfails")
    assert successes + failures == SPIN_TICKS * (HOT_PER_TICK
                                                 + BLOAT_PER_TICK)
    assert successes > 0 and failures > 0
    # Ceilings pinned just above today's 508 rounds / 248 engine
    # TMPFAILs: bounded relief steps per retry, and the breaker shields
    # the engine from the retry storm.  A quiesce per retry cost 8 770
    # rounds / 8 537 TMPFAILs on this load.
    assert rounds <= 540
    assert tmpfails <= 270
