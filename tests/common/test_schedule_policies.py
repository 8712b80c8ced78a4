"""Schedule policies and the scheduler's policy/safety contract.

The sanitizer's whole premise is that a seed *is* a schedule: identical
seeds must reproduce identical orders, every order must be a permutation
of the live pumps (quiescence detection depends on it), and the
scheduler must tolerate mid-round unregistration and reject reentrancy.
"""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidArgumentError, SchedulerReentrancyError
from repro.common.scheduler import (
    RegistrationOrder,
    SchedulePolicy,
    Scheduler,
    SeededShuffle,
    StarveOne,
    Weighted,
)

NAMES = ["flusher/n1/b", "replicator/n1/b", "views/n1/b",
         "projector/n1/b", "xdcr/b->b", "cluster-manager"]


# -- policy determinism and the permutation contract ------------------------------


@pytest.mark.parametrize("make_policy", [
    lambda: RegistrationOrder(),
    lambda: SeededShuffle(7),
    lambda: StarveOne(7),
    lambda: Weighted(7, {"flusher": 3.0, "xdcr": 0.25}),
])
def test_identical_seeds_reproduce_identical_orders(make_policy):
    first, second = make_policy(), make_policy()
    for round_index in range(40):
        assert first.order(round_index, list(NAMES)) == \
            second.order(round_index, list(NAMES))


@pytest.mark.parametrize("policy", [
    RegistrationOrder(),
    SeededShuffle(3),
    StarveOne(3),
    Weighted(3, {"flusher": 3.0}),
])
def test_every_order_is_a_permutation(policy):
    for round_index in range(40):
        ordered = policy.order(round_index, list(NAMES))
        assert sorted(ordered) == sorted(NAMES)


def test_registration_order_is_identity():
    assert RegistrationOrder().order(5, list(NAMES)) == NAMES


def test_different_seeds_explore_different_orders():
    orders = {tuple(SeededShuffle(seed).order(0, list(NAMES)))
              for seed in range(1, 20)}
    assert len(orders) > 1


def test_seeded_shuffle_varies_across_rounds():
    policy = SeededShuffle(11)
    orders = {tuple(policy.order(r, list(NAMES))) for r in range(20)}
    assert len(orders) > 1


def test_starve_one_pins_the_epoch_victim_last():
    policy = StarveOne(5)
    for epoch in range(4):
        base = epoch * StarveOne.EPOCH_ROUNDS
        victims = {policy.order(base + r, list(NAMES))[-1]
                   for r in range(StarveOne.EPOCH_ROUNDS)}
        assert len(victims) == 1  # one victim per epoch, every round


def test_weighted_rejects_nonpositive_weights():
    policy = Weighted(1, {"flusher": 0.0})
    with pytest.raises(InvalidArgumentError, match="weight"):
        policy.order(0, list(NAMES))


def test_weighted_bias_orders_heavy_kinds_earlier_on_average():
    policy_positions = []
    for seed in range(1, 60):
        ordered = Weighted(seed, {"flusher": 50.0}).order(0, list(NAMES))
        policy_positions.append(ordered.index("flusher/n1/b"))
    average = sum(policy_positions) / len(policy_positions)
    assert average < len(NAMES) / 2 - 0.5


def test_describe_names_the_seed():
    assert "7" in SeededShuffle(7).describe()
    assert "7" in StarveOne(7).describe()
    assert "7" in Weighted(7).describe()
    assert RegistrationOrder().describe() == "registration-order"


# -- scheduler integration ---------------------------------------------------------


def _run_traced(policy: SchedulePolicy) -> list[list[str]]:
    scheduler = Scheduler(policy=policy)
    scheduler.trace = []
    budget = {"a": 2, "b": 2, "c": 2}

    def make_pump(name):
        def pump() -> bool:
            if budget[name] <= 0:
                return False
            budget[name] -= 1
            return True
        return pump

    for name in budget:
        scheduler.register(name, make_pump(name))
    scheduler.run_until_idle()
    return scheduler.trace


def test_scheduler_trace_reproduces_under_same_seed():
    assert _run_traced(SeededShuffle(9)) == _run_traced(SeededShuffle(9))


def test_scheduler_rejects_non_permutation_policy():
    class Dropper(SchedulePolicy):
        def order(self, round_index, names):
            return names[:-1]

    scheduler = Scheduler(policy=Dropper())
    scheduler.register("a", lambda: False)
    scheduler.register("b", lambda: False)
    with pytest.raises(InvalidArgumentError, match="permutation"):
        scheduler.step()


def test_duplicate_pump_registration_rejected():
    scheduler = Scheduler()
    scheduler.register("a", lambda: False)
    with pytest.raises(InvalidArgumentError, match="already registered"):
        scheduler.register("a", lambda: False)


def test_pump_unregistered_mid_round_does_not_run():
    scheduler = Scheduler()
    ran = []

    def first() -> bool:
        if "first" not in ran:
            ran.append("first")
            scheduler.unregister("second")
            return True
        return False

    def second() -> bool:
        ran.append("second")
        return False

    scheduler.register("first", first)
    scheduler.register("second", second)
    scheduler.run_until_idle()
    assert ran == ["first"]  # the stale snapshot never executed "second"


def test_pump_registered_mid_round_joins_next_round():
    scheduler = Scheduler()
    scheduler.trace = []
    late_ran = []

    def late() -> bool:
        late_ran.append(True)
        return False

    def registrar() -> bool:
        if "late" not in scheduler.pump_names():
            scheduler.register("late", late)
            return True
        return False

    scheduler.register("registrar", registrar)
    scheduler.run_until_idle()
    assert late_ran  # it did run eventually...
    assert "late" not in scheduler.trace[0]  # ...but not in the round
    assert "late" in scheduler.trace[1]      # it was registered during


@pytest.mark.parametrize("reenter", [
    lambda s: s.step(),
    lambda s: s.run_until_idle(),
    lambda s: s.run_until(lambda: False),
    lambda s: (s.call_later(0.0, lambda: None), s.advance(1.0)),
])
def test_pump_reentrancy_raises(reenter):
    scheduler = Scheduler()
    seen = []

    def bad() -> bool:
        if seen:
            return False
        seen.append(True)
        reenter(scheduler)
        return True

    scheduler.register("bad", bad)
    with pytest.raises(SchedulerReentrancyError, match="re-entered"):
        scheduler.run_until_idle()


def test_reentrancy_flag_cleared_after_normal_round():
    scheduler = Scheduler()
    scheduler.register("fine", lambda: False)
    scheduler.step()
    scheduler.step()  # would raise if _in_pump leaked


def test_current_pump_visible_inside_and_cleared_outside():
    scheduler = Scheduler()
    observed = []

    def pump() -> bool:
        observed.append(scheduler.current_pump)
        return False

    scheduler.register("me", pump)
    scheduler.step()
    assert observed == ["me"]
    assert scheduler.current_pump is None


# -- a pass over named pumps (what a blocking wait drives) -------------------------


def _recording_scheduler(policy: SchedulePolicy | None = None):
    scheduler = Scheduler(policy=policy)
    calls: list[str] = []

    def make_pump(name):
        def pump() -> bool:
            calls.append(name)
            return False
        return pump

    for name in NAMES:
        scheduler.register(name, make_pump(name))
    return scheduler, calls


def test_a_pass_runs_only_the_named_pumps_in_the_policys_order():
    policy = SeededShuffle(4)
    scheduler, calls = _recording_scheduler(policy)
    named = ["views/n1/b", "flusher/n1/b", "xdcr/b->b", "cluster-manager"]
    in_registration_order = [name for name in NAMES if name in named]
    orders = set()
    for round_index in range(6):
        calls.clear()
        scheduler.step(set(named))
        assert calls == policy.order(round_index, in_registration_order)
        orders.add(tuple(calls))
    assert len(orders) > 1  # the policy, not the set, orders the pass


def test_a_pass_counts_as_a_round_and_is_traced():
    scheduler, _calls = _recording_scheduler()
    scheduler.trace = []
    scheduler.step({"replicator/n1/b", "flusher/n1/b"})
    scheduler.step()
    assert scheduler._round == 2
    assert scheduler.trace == [["flusher/n1/b", "replicator/n1/b"], NAMES]


def test_a_pass_skips_a_name_nobody_registered():
    scheduler, calls = _recording_scheduler()
    scheduler.trace = []
    assert not scheduler.step({"flusher/n1/b", "flusher/n9/b"})
    assert calls == ["flusher/n1/b"]
    assert scheduler.trace == [["flusher/n1/b"]]


def test_whole_rounds_take_over_once_the_named_pumps_stall():
    """The named pump makes progress twice and then stalls; the pump
    that ends the wait is not named, so the first whole round ends it."""
    scheduler = Scheduler()
    scheduler.trace = []
    budget = [2]
    done = []

    def named() -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return True

    def other() -> bool:
        done.append(True)
        return True

    scheduler.register("named", named)
    scheduler.register("other", other)
    assert scheduler.run_until(lambda: bool(done), pumps={"named"})
    assert scheduler.trace == [["named"]] * 3 + [["named", "other"]]


def test_a_wait_over_named_pumps_ends_when_a_whole_round_is_idle():
    scheduler, _calls = _recording_scheduler()
    scheduler.trace = []
    assert not scheduler.run_until(lambda: False, pumps={"views/n1/b"})
    assert scheduler.trace == [["views/n1/b"], NAMES]


@pytest.mark.parametrize("drive", [
    lambda s: s.step({"bad"}),
    lambda s: s.run_until(lambda: False, pumps={"bad"}),
])
def test_a_pump_reentering_a_pass_raises(drive):
    scheduler = Scheduler()

    def bad() -> bool:
        scheduler.step({"bad"})
        return True

    scheduler.register("bad", bad)
    with pytest.raises(SchedulerReentrancyError, match="re-entered"):
        drive(scheduler)
    assert scheduler.current_pump is None
