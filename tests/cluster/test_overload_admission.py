"""Client-path overload behavior: the TMPFAIL quiesce-spin fix and the
per-node circuit breaker, measured end to end through ``SmartClient``.

The seed client answered every ``TemporaryFailureError`` with a full
``scheduler.run_until_idle()`` -- an unbounded cluster-wide quiesce per
retry.  The client now takes ``RELIEF_STEPS`` bounded scheduler rounds
plus a seeded virtual-time backoff instead, and a run of
pressure-tagged failures trips the node's breaker so further attempts
fail fast without an RPC.
"""

import pytest

from repro import Cluster
from repro.admission import CLOSED, HALF_OPEN, OPEN, AdmissionConfig
from repro.common.errors import AdmissionRejectedError, TemporaryFailureError

QUOTA = 64 * 1024
VALUE = "x" * 4096


def _drive() -> tuple[int, int]:
    """Push a write-heavy load through a small quota and count the
    scheduler rounds the whole exercise consumed.  The outer driver
    retries client-visible temporary failures the way an application
    would: wait a beat, try again."""
    cluster = Cluster(nodes=3, vbuckets=32)
    cluster.create_bucket("b", replicas=1, quota_bytes=QUOTA,
                          expiry_pager_interval=None)
    client = cluster.connect()
    scheduler = cluster.scheduler
    start = scheduler._round
    completed = 0
    for i in range(600):
        key = f"k{i % 200}"
        for _attempt in range(20):
            try:
                client.upsert("b", key, VALUE)
                completed += 1
                break
            except TemporaryFailureError:
                cluster.tick(0.05)
        else:
            pytest.fail(f"upsert of {key!r} never completed")
    return completed, scheduler._round - start


class TestQuiesceSpinReplacement:
    def test_bounded_backoff_beats_quiesce_spin(self):
        """Every write lands, and a retry costs bounded relief rounds,
        never a drain of the entire cluster.  Deterministic in scheduler
        rounds: 36 today; the quiesce-per-TMPFAIL client took 72 for the
        same 600 upserts (measured at e8e6da7, the last commit that had
        it)."""
        done, rounds = _drive()
        assert done == 600
        assert rounds <= 40, (
            f"600 upserts through a 64 KiB quota took {rounds} scheduler "
            f"rounds -- regression in the bounded-backoff client"
        )

    def test_backoff_advances_virtual_time_and_is_counted(self):
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", replicas=0, quota_bytes=16 * 1024,
                              expiry_pager_interval=None)
        client = cluster.connect()
        before = cluster.clock.now()
        for i in range(8):
            client.upsert("b", f"k{i}", "y" * 2048)
        metrics = cluster.admission.metrics
        if metrics.counter_value("admission.backoffs"):
            assert cluster.clock.now() > before
        # The engine reported pressure at least once on this tiny quota
        # and every signal was recorded for the degradation policy.
        engine = cluster.node("node1").engines["b"]
        assert metrics.counter_value("admission.overload_signals") \
            == engine.metrics.counter_value("kv.tmpfails")


class TestClientBreakerPath:
    """Sustained pressure trips the per-node breaker *through* the
    public client API; recovery is timer-driven on the virtual clock."""

    @pytest.fixture
    def overloaded(self):
        # A value that can never fit: every attempt TMPFAILs with a
        # pressure tag, so one doomed upsert walks the whole ladder
        # (threshold failures -> breaker opens -> fail fast).
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", replicas=0, quota_bytes=32 * 1024,
                              expiry_pager_interval=None)
        client = cluster.connect()
        with pytest.raises(AdmissionRejectedError):
            client.upsert("b", "doomed", "z" * (64 * 1024))
        return cluster, client

    def test_sustained_overload_opens_the_breaker(self, overloaded):
        cluster, _client = overloaded
        breaker = cluster.admission.breaker("node1")
        assert breaker.state == OPEN
        assert cluster.admission.overloaded()

    def test_open_breaker_fails_fast_without_rpc(self, overloaded):
        cluster, client = overloaded
        calls_before = cluster.admission.metrics.counter_value(
            "admission.fabric.calls")
        rounds_before = cluster.scheduler._round
        with pytest.raises(AdmissionRejectedError) as exc_info:
            client.upsert("b", "small", "v")
        assert exc_info.value.retry_after > 0.0
        # No RPC reached the fabric and no scheduler work was burned.
        assert cluster.admission.metrics.counter_value(
            "admission.fabric.calls") == calls_before
        assert cluster.scheduler._round == rounds_before

    def test_timer_driven_recovery_closes_the_breaker(self, overloaded):
        cluster, client = overloaded
        breaker = cluster.admission.breaker("node1")
        cluster.tick(breaker.remaining() + 0.01)
        assert breaker.state == HALF_OPEN
        # The half-open probe is a viable op; success closes the breaker
        # and normal traffic resumes.
        client.upsert("b", "small", "v")
        assert breaker.state == CLOSED
        assert client.get("b", "small").value == "v"
        # The decaying pressure score lags the breaker by design; once
        # it halves below the shed threshold queries come back too.
        cluster.tick(5.0)
        assert not cluster.admission.overloaded()

    def test_semantic_tmpfail_still_raises_immediately(self):
        """A TMPFAIL without a retry hint (counter on a non-integer doc)
        is not overload: it must surface unchanged, never feed the
        breaker, never back off."""
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        client.upsert("b", "doc", {"not": "an int"})
        with pytest.raises(TemporaryFailureError) as exc_info:
            client.counter("b", "doc", 1)
        assert not isinstance(exc_info.value, AdmissionRejectedError)
        assert cluster.admission.breaker("node1").state == CLOSED
        assert cluster.admission.metrics.counter_value(
            "admission.backoffs") == 0


class TestQueryChargedOnce:
    def test_query_fetches_draw_on_no_budget(self):
        """Regression: the query engine's own handle charged every
        fetched key to a budget again -- first a tenant fair share of
        the n1ql budget, under that the n1ql budget itself -- so a
        query admitted at the front door was refused mid-fetch."""
        cluster = Cluster(nodes=2, vbuckets=16, admission=AdmissionConfig(
            service_rates={"n1ql": (8.0, 4.0)}))
        cluster.create_bucket("b", replicas=0)
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        client = cluster.connect()
        for i in range(20):
            client.upsert("b", f"k{i}", {"v": i % 2, "i": i})
        cluster.tick(1.0)
        rows = cluster.query("SELECT x.* FROM b x WHERE x.v = 0",
                             scan_consistency="request_plus").rows
        assert sorted(row["i"] for row in rows) == list(range(0, 20, 2))
        assert cluster.admission.metrics.counter_value(
            "admission.n1ql.shed") == 0
