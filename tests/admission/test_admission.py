"""Unit tests for the admission-control building blocks: token buckets,
seeded backoff, the circuit-breaker state machine under the
deterministic scheduler, and the controller's shed-N1QL-before-KV
degradation order."""

import pytest

from repro.admission import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    ExponentialBackoff,
    TokenBucket,
)
from repro.common.clock import VirtualClock
from repro.common.errors import AdmissionRejectedError, TemporaryFailureError
from repro.common.scheduler import Scheduler


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def scheduler(clock):
    return Scheduler(clock)


class TestTokenBucket:
    def test_unlimited_by_default(self, clock):
        bucket = TokenBucket(clock)
        assert all(bucket.try_acquire() for _ in range(10_000))
        assert bucket.deficit_delay() == 0.0

    def test_burst_then_reject(self, clock):
        bucket = TokenBucket(clock, rate=10.0, burst=3.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_with_virtual_time(self, clock):
        bucket = TokenBucket(clock, rate=10.0, burst=2.0)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        clock.advance(0.1)  # 1 token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self, clock):
        bucket = TokenBucket(clock, rate=100.0, burst=2.0)
        clock.advance(60.0)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()

    def test_deficit_delay_is_the_retry_hint(self, clock):
        bucket = TokenBucket(clock, rate=10.0, burst=1.0)
        assert bucket.try_acquire()
        delay = bucket.deficit_delay()
        assert delay == pytest.approx(0.1)
        clock.advance(delay)
        assert bucket.try_acquire()


class TestExponentialBackoff:
    def test_grows_and_caps(self):
        backoff = ExponentialBackoff(base=0.01, factor=2.0, max_delay=0.05,
                                     jitter=0.0, seed=7)
        delays = [backoff.delay(attempt) for attempt in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_only_shrinks_and_is_seeded(self):
        first = ExponentialBackoff(base=0.01, jitter=0.5, seed=42)
        second = ExponentialBackoff(base=0.01, jitter=0.5, seed=42)
        other = ExponentialBackoff(base=0.01, jitter=0.5, seed=43)
        a = [first.delay(i) for i in range(1, 8)]
        b = [second.delay(i) for i in range(1, 8)]
        c = [other.delay(i) for i in range(1, 8)]
        assert a == b  # same seed, same stream
        assert a != c  # different seed decorrelates
        for attempt, delay in enumerate(a, start=1):
            raw = min(0.01 * 2.0 ** (attempt - 1), 0.25)
            assert 0.5 * raw <= delay <= raw


class TestCircuitBreaker:
    def make(self, scheduler, **overrides):
        params = dict(threshold=3, cooldown=0.2, factor=2.0,
                      max_cooldown=5.0, jitter=0.25, seed=11)
        params.update(overrides)
        return CircuitBreaker("node1", scheduler, **params)

    def test_opens_after_threshold_consecutive_failures(self, scheduler):
        breaker = self.make(scheduler)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.remaining() > 0.0

    def test_success_resets_the_failure_run(self, scheduler):
        breaker = self.make(scheduler)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_timer_driven_half_open_then_close(self, clock, scheduler):
        breaker = self.make(scheduler)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN
        # The cooldown timer fires during a virtual-time advance; no
        # allow() poll is needed for the transition.
        scheduler.advance(breaker.open_until - clock.now())
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe is admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.remaining() == 0.0

    def test_clock_fallback_without_timer_drain(self, clock, scheduler):
        breaker = self.make(scheduler)
        for _ in range(3):
            breaker.record_failure()
        # Advance the raw clock only: timers never pump, but allow()
        # must still recover via its clock check.
        clock.advance(breaker.open_until + 1.0)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_failed_probe_escalates_cooldown(self, clock, scheduler):
        breaker = self.make(scheduler, jitter=0.0)
        for _ in range(3):
            breaker.record_failure()
        first_cooldown = breaker.open_until - clock.now()
        scheduler.advance(first_cooldown)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        second_cooldown = breaker.open_until - clock.now()
        assert second_cooldown == pytest.approx(first_cooldown * 2.0)
        # A successful probe after the next cooldown resets the ladder.
        scheduler.advance(second_cooldown)
        breaker.record_success()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.open_until - clock.now() == pytest.approx(first_cooldown)

    def test_same_seed_same_jittered_schedule(self):
        def open_times(seed):
            clock = VirtualClock()
            scheduler = Scheduler(clock)
            breaker = self.make(scheduler, seed=seed)
            times = []
            for _ in range(4):
                while breaker.state == CLOSED:
                    breaker.record_failure()
                times.append(breaker.open_until)
                scheduler.advance(breaker.open_until - clock.now())
                breaker.record_failure()  # fail every probe: escalate
                times.append(breaker.open_until)
                scheduler.advance(breaker.open_until - clock.now())
                breaker.record_success()
            return times

        assert open_times(5) == open_times(5)
        assert open_times(5) != open_times(6)


class TestController:
    def make(self, scheduler, **overrides):
        config = AdmissionConfig(**overrides)
        return AdmissionController(scheduler, config=config)

    def test_permissive_defaults_admit_everything(self, scheduler):
        controller = self.make(scheduler)
        for _ in range(1000):
            controller.acquire("kv")
        assert controller.metrics.counter_value("admission.requests") == 1000

    def test_service_rate_shed_carries_retry_hint(self, scheduler):
        controller = self.make(scheduler, service_rates={"kv": (10.0, 2.0)})
        controller.acquire("kv")
        controller.acquire("kv")
        with pytest.raises(AdmissionRejectedError) as exc_info:
            controller.acquire("kv")
        assert exc_info.value.retry_after == pytest.approx(0.1)
        assert isinstance(exc_info.value, TemporaryFailureError)
        assert controller.metrics.counter_value("admission.kv.shed") == 1

    def test_overload_weight_scales_with_error_metadata(self, scheduler):
        controller = self.make(scheduler)
        controller.note_overload("flat")
        deep_error = TemporaryFailureError(
            retry_after=0.1, pending_writes=512, memory_ratio=1.5)
        controller.note_overload("deep", deep_error)
        assert controller._pressure["flat"][0] == pytest.approx(1.0)
        # 1.0 base + 512/PRESSURE_DEPTH_SCALE + (1.5 - 1.0) overshoot.
        assert controller._pressure["deep"][0] == pytest.approx(3.5)

    def test_overload_weight_is_capped(self, scheduler):
        controller = self.make(scheduler)
        monster = TemporaryFailureError(
            retry_after=0.1, pending_writes=10 ** 6, memory_ratio=9.0)
        controller.note_overload("node1", monster)
        assert controller._pressure["node1"][0] == pytest.approx(
            controller.PRESSURE_WEIGHT_CAP)

    def test_service_budget_isolates_compartments(self, scheduler):
        controller = self.make(scheduler, service_rates={"n1ql": (1.0, 1.0)})
        controller.acquire("n1ql")
        with pytest.raises(AdmissionRejectedError):
            controller.acquire("n1ql")
        # The KV budget is untouched by the spent n1ql one.
        for _ in range(100):
            controller.acquire("kv")
        assert controller.metrics.counter_value("admission.n1ql.shed") == 1
        assert controller.metrics.counter_value("admission.kv.shed") == 0

    def test_shed_order_n1ql_before_kv_under_pressure(self, clock, scheduler):
        controller = self.make(scheduler)
        controller.note_overload("node1")
        assert controller.overloaded()
        with pytest.raises(AdmissionRejectedError):
            controller.admit_query()
        # KV point ops keep flowing through the same controller.
        controller.acquire("kv")
        # Pressure decays with virtual time; queries come back.
        clock.advance(10.0)
        assert not controller.overloaded()
        controller.admit_query()

    def test_query_front_door_draws_on_the_service_budget(self, scheduler):
        """Regression: ``admit_query`` once charged every query to a
        synthetic tenant capped at half the n1ql budget, so half the
        provisioned rate was unusable.  The whole budget is usable."""
        controller = self.make(scheduler, service_rates={"n1ql": (8.0, 4.0)})
        for _ in range(4):
            controller.admit_query()
        with pytest.raises(AdmissionRejectedError):
            controller.admit_query()
        assert controller.metrics.counter_value("admission.n1ql.shed") == 1

    def test_open_breaker_sheds_queries(self, clock, scheduler):
        controller = self.make(scheduler, breaker_threshold=1)
        controller.breaker("node1").record_failure()
        assert controller.overloaded()
        with pytest.raises(AdmissionRejectedError):
            controller.admit_query()
        scheduler.advance(controller.breaker("node1").open_until - clock.now())
        controller.breaker("node1").record_success()
        assert not controller.overloaded()

    def test_fabric_filter_ignores_unregistered_pumps(self, scheduler):
        controller = self.make(scheduler)
        controller.fabric_filter("flusher/node1/b", "node1", "x")
        counter = controller.metrics.counter_value
        assert counter("admission.fabric.calls") == 0
        controller.register_client("client1")
        controller.fabric_filter("client1", "node1", "kv_get")
        controller.fabric_filter("client1", "node1", "kv_get")
        assert counter("admission.fabric.calls") == 2

    def test_backoff_advances_virtual_time_not_a_quiesce(self, clock,
                                                         scheduler):
        controller = self.make(scheduler)
        pumped = []
        scheduler.register("noisy", lambda: (pumped.append(1), True)[1])
        before_rounds = scheduler._round
        controller.backoff(1, hint=0.05)
        # Bounded relief: at most RELIEF_STEPS rounds, never a drain of
        # the always-busy pump.
        assert scheduler._round - before_rounds <= controller.RELIEF_STEPS
        assert clock.now() >= 0.05

    def test_snapshot_shape(self, scheduler):
        controller = self.make(scheduler)
        controller.note_overload("node2")
        controller.breaker("node2").record_failure()
        controller.acquire("n1ql")
        snapshot = controller.snapshot()
        assert snapshot["pressure"]["node2"] > 0
        assert snapshot["breakers"]["node2"] == CLOSED
        assert snapshot["metrics"]["counters"]["admission.requests"] == 1
