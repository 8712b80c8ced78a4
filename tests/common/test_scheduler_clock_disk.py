"""Tests for the virtual clock, cooperative scheduler, simulated disk,
network fabric, and metrics."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.disk import SimulatedDisk
from repro.common.errors import DiskFullError, NodeDownError
from repro.common.metrics import Histogram, MetricsRegistry
from repro.common.scheduler import Scheduler
from repro.common.transport import Network


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestScheduler:
    def test_run_until_idle_drains_queue(self):
        scheduler = Scheduler()
        queue = list(range(5))
        drained = []

        def pump():
            if queue:
                drained.append(queue.pop(0))
                return True
            return False

        scheduler.register("pump", pump)
        rounds = scheduler.run_until_idle()
        assert drained == [0, 1, 2, 3, 4]
        assert rounds == 5

    def test_pumps_feed_each_other(self):
        """Work produced by one pump in a round is consumed in a later
        round -- models flusher -> DCP -> indexer chains."""
        scheduler = Scheduler()
        stage1, stage2, done = [1, 2], [], []
        scheduler.register("s1", lambda: bool(stage1) and (stage2.append(stage1.pop()) or True))
        scheduler.register("s2", lambda: bool(stage2) and (done.append(stage2.pop()) or True))
        scheduler.run_until_idle()
        assert sorted(done) == [1, 2]

    def test_livelock_detection(self):
        scheduler = Scheduler()
        scheduler.MAX_ROUNDS = 50
        scheduler.register("busy", lambda: True)
        with pytest.raises(RuntimeError, match="livelock"):
            scheduler.run_until_idle()

    def test_run_until_condition(self):
        scheduler = Scheduler()
        state = {"n": 0}

        def pump():
            if state["n"] < 10:
                state["n"] += 1
                return True
            return False

        scheduler.register("p", pump)
        assert scheduler.run_until(lambda: state["n"] >= 3)
        assert state["n"] >= 3

    def test_run_until_unreachable_condition_returns_false(self):
        scheduler = Scheduler()
        scheduler.register("idle", lambda: False)
        assert not scheduler.run_until(lambda: False)

    def test_timers_fire_in_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_later(2.0, lambda: fired.append("b"))
        scheduler.call_later(1.0, lambda: fired.append("a"))
        scheduler.advance(3.0)
        assert fired == ["a", "b"]
        assert scheduler.clock.now() == 3.0

    def test_timer_cancel(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.call_later(1.0, lambda: fired.append("x"))
        scheduler.cancel(handle)
        scheduler.advance(2.0)
        assert fired == []
        assert scheduler.pending_timers() == 0

    def test_unregister(self):
        scheduler = Scheduler()
        scheduler.register("a", lambda: False)
        scheduler.unregister("a")
        assert scheduler.pump_names() == []


class TestSimulatedDisk:
    def test_append_and_read(self):
        disk = SimulatedDisk()
        file = disk.open("vb0.couch")
        offset = file.append(b"hello")
        assert file.read(offset, 5) == b"hello"

    def test_crash_loses_unsynced(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        file.append(b"durable")
        file.sync()
        file.append(b"volatile")
        disk.crash()
        assert file.size == len(b"durable")

    def test_crash_keeps_synced(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        file.append(b"abc")
        file.sync()
        disk.crash()
        assert file.read(0, 3) == b"abc"

    def test_capacity_enforced(self):
        disk = SimulatedDisk(capacity=10)
        file = disk.open("f")
        file.append(b"12345")
        with pytest.raises(DiskFullError):
            file.append(b"123456789")

    def test_rename_is_atomic_swap(self):
        disk = SimulatedDisk()
        old = disk.open("data.couch")
        old.append(b"old")
        new = disk.open("data.couch.compact")
        new.append(b"newer")
        disk.delete("data.couch")
        disk.rename("data.couch.compact", "data.couch")
        assert disk.open("data.couch").read(0, 5) == b"newer"

    def test_rename_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            SimulatedDisk().rename("a", "b")

    def test_read_past_eof_raises(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        file.append(b"ab")
        with pytest.raises(ValueError):
            file.read(0, 3)

    def test_io_accounting(self):
        disk = SimulatedDisk()
        file = disk.open("f")
        file.append(b"abcd")
        file.sync()
        file.read(0, 4)
        assert disk.stats.bytes_written == 4
        assert disk.stats.bytes_read == 4
        assert disk.stats.syncs == 1


class TestNetwork:
    class Echo:
        def ping(self, value):
            return value

    def test_call_routes(self):
        net = Network()
        net.register("n1", self.Echo())
        assert net.call("client", "n1", "ping", 42) == 42
        assert net.calls[("n1", "ping")] == 1

    def test_down_node_unreachable(self):
        net = Network()
        net.register("n1", self.Echo())
        net.set_down("n1")
        with pytest.raises(NodeDownError):
            net.call("client", "n1", "ping", 1)
        net.set_down("n1", False)
        assert net.call("client", "n1", "ping", 1) == 1

    def test_partition_is_pairwise(self):
        net = Network()
        net.register("n1", self.Echo())
        net.partition("n2", "n1")
        with pytest.raises(NodeDownError):
            net.call("n2", "n1", "ping", 1)
        assert net.call("n3", "n1", "ping", 1) == 1

    def test_heal_all(self):
        net = Network()
        net.register("n1", self.Echo())
        net.partition("n2", "n1")
        net.heal()
        assert net.call("n2", "n1", "ping", 1) == 1

    def test_heal_one_node_removes_all_its_partitions(self):
        net = Network()
        net.register("n1", self.Echo())
        net.register("n4", self.Echo())
        net.partition("n1", "n2")
        net.partition("n3", "n1")
        net.partition("n3", "n4")
        net.heal("n1")  # single argument: every partition involving n1
        assert net.call("n2", "n1", "ping", 1) == 1
        assert net.call("n3", "n1", "ping", 1) == 1
        with pytest.raises(NodeDownError):
            net.call("n3", "n4", "ping", 1)  # untouched pair stays cut

    def test_heal_pair_unordered(self):
        net = Network()
        net.register("n1", self.Echo())
        net.partition("n1", "n2")
        net.heal("n2", "n1")
        assert net.call("n2", "n1", "ping", 1) == 1

    def test_heal_none_with_node_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.heal(None, "n2")

    def test_unknown_endpoint(self):
        with pytest.raises(NodeDownError):
            Network().call("a", "ghost", "ping")

    def test_latency_charged(self):
        net = Network(default_latency=0.001)
        net.register("n1", self.Echo())
        net.call("c", "n1", "ping", 1)
        net.call("c", "n1", "ping", 1)
        assert net.latency_charged == pytest.approx(0.002)

    class Picky(Echo):
        def refuse(self, value):
            raise ValueError(value)

    def three_nodes(self) -> Network:
        net = Network(default_latency=0.001)
        for name in ("n1", "n2", "n3"):
            net.register(name, self.Picky())
        return net

    def test_scatter_slots_hold_results_or_errors(self):
        net = self.three_nodes()
        net.set_down("n2")
        outcomes = net.scatter("c", ["n1", "n2", "n3"], "ping",
                               [(1,), (2,), (3,)])
        assert outcomes[0] == 1 and outcomes[2] == 3
        assert isinstance(outcomes[1], NodeDownError)
        raised = net.scatter("c", ["n1", "n3"], "refuse", [("a",), ("b",)])
        assert [type(error) for error in raised] == [ValueError, ValueError]
        assert [error.args for error in raised] == [("a",), ("b",)]

    def test_scatter_charges_one_wave_however_wide(self):
        net = self.three_nodes()
        net.scatter("c", ["n1", "n2", "n3"], "ping", [(1,), (2,), (3,)])
        assert net.latency_charged == pytest.approx(0.001)
        net.scatter("c", ["n1"], "ping", [(1,)])
        assert net.latency_charged == pytest.approx(0.002)
        # The first destination unreachable: the wave is charged at the
        # first dispatch that reaches its endpoint, once.
        net.partition("c", "n1")
        net.scatter("c", ["n1", "n2", "n3"], "ping", [(1,), (2,), (3,)])
        assert net.latency_charged == pytest.approx(0.003)

    def test_scatter_to_unreachable_nodes_charges_nothing(self):
        net = self.three_nodes()
        net.set_down("n1")
        net.partition("c", "n2")
        outcomes = net.scatter("c", ["n1", "n2", "ghost"], "ping",
                               [(1,), (2,), (3,)])
        assert all(isinstance(error, NodeDownError) for error in outcomes)
        assert net.scatter("c", [], "ping", []) == []
        assert net.latency_charged == 0.0
        assert not net.calls

    def test_scatter_counts_each_delivered_call(self):
        net = self.three_nodes()
        net.set_down("n3")
        net.scatter("c", ["n1", "n2", "n3"], "ping", [(1,), (2,), (3,)])
        net.scatter("c", ["n1", "n2"], "refuse", [(1,), (2,)])
        assert net.calls == {("n1", "ping"): 1, ("n2", "ping"): 1,
                             ("n1", "refuse"): 1, ("n2", "refuse"): 1}

    def test_scatter_needs_one_argument_tuple_per_destination(self):
        with pytest.raises(ValueError):
            self.three_nodes().scatter("c", ["n1", "n2"], "ping", [(1,)])

    def test_call_fanout_is_all_or_nothing(self):
        net = self.three_nodes()
        assert net.call_fanout("c", ["n1", "n2", "n3"], "ping", 7) == [7, 7, 7]
        assert net.latency_charged == pytest.approx(0.001)
        net.set_down("n2")
        with pytest.raises(NodeDownError):
            net.call_fanout("c", ["n1", "n2", "n3"], "ping", 7)
        assert net.calls[("n3", "ping")] == 1  # n3 never saw the second
        net.set_down("n1")
        with pytest.raises(NodeDownError):
            net.call_fanout("c", ["n1", "n3"], "ping", 7)
        assert net.latency_charged == pytest.approx(0.002)


class TestMetrics:
    def test_histogram_percentiles_ordered(self):
        histogram = Histogram()
        for i in range(1, 1001):
            histogram.record(i / 1000.0)
        assert histogram.percentile(50) <= histogram.percentile(95) <= histogram.percentile(99)
        assert histogram.percentile(50) == pytest.approx(0.5, rel=0.2)

    def test_histogram_mean(self):
        histogram = Histogram()
        histogram.record(1.0)
        histogram.record(3.0)
        assert histogram.mean == pytest.approx(2.0)

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(99) == 0.0
        assert histogram.mean == 0.0

    def test_registry(self):
        registry = MetricsRegistry()
        registry.inc("ops")
        registry.inc("ops", 2)
        registry.observe("latency", 0.001)
        snap = registry.snapshot()
        assert snap["counters"]["ops"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert registry.counter_value("missing") == 0
