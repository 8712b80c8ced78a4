"""Regressions for the true positives the bounds checks found in its first
whole-tree run.  Each test pins the *fix* (a real bound or lifecycle,
never a suppression):

* ``ClusterManager.event_log`` -- fed from the failure-detector pump,
  it grew forever; now capped at ``EVENT_LOG_LIMIT``.
* ``AdmissionController._clients`` / ``_tenants`` -- every connect
  registered a fresh unique handle name and lazily built it a token
  bucket, and nothing ever removed either; now ``SmartClient.close()``
  releases both.
* ``AdmissionController._pressure`` -- decayed-to-nothing overload
  scores lingered per node forever; now pruned at ``PRESSURE_FLOOR``.
"""

import pytest

from repro import Cluster
from repro.admission import AdmissionConfig, AdmissionController
from repro.common.clock import VirtualClock
from repro.common.scheduler import Scheduler


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=2, vbuckets=16)
    cluster.create_bucket("b")
    return cluster


@pytest.fixture
def controller():
    return AdmissionController(Scheduler(VirtualClock()),
                               config=AdmissionConfig())


class TestEventLogBounded:
    def test_event_log_caps_at_limit(self, cluster):
        manager = cluster.manager
        limit = manager.EVENT_LOG_LIMIT
        for i in range(limit + 100):
            manager._log("node-suspect", f"synthetic-{i}")
        assert len(manager.event_log) == limit
        # Trimming drops the oldest entries, keeping the recent tail.
        assert manager.event_log[-1][2] == f"synthetic-{limit + 99}"
        assert not any(
            detail == "synthetic-0" for _t, _e, detail in manager.event_log
        )

    def test_lifecycle_events_survive_under_the_cap(self, cluster):
        events = [event for _t, event, _d in cluster.manager.event_log]
        assert "node-added" in events
        assert "bucket-created" in events


class TestClientLifecycleReleasesAdmissionState:
    def test_close_releases_registration_and_tenant_bucket(self, cluster):
        controller = cluster.admission
        baseline_clients = len(controller._clients)
        baseline_tenants = len(controller._tenants)
        handles = [cluster.connect() for _ in range(8)]
        for handle in handles:
            handle.upsert("b", f"k-{handle.name}", 1)
        assert len(controller._clients) == baseline_clients + 8
        for handle in handles:
            handle.close()
        assert len(controller._clients) == baseline_clients
        assert len(controller._tenants) == baseline_tenants

    def test_connect_close_churn_does_not_accumulate(self, cluster):
        controller = cluster.admission
        # The query service keeps its own long-lived internal handles;
        # churned application handles must not add to them.
        baseline_clients = len(controller._clients)
        baseline_tenants = len(controller._tenants)
        for i in range(50):
            handle = cluster.connect()
            handle.upsert("b", f"churn-{i}", i)
            handle.close()
        assert len(controller._clients) == baseline_clients
        assert len(controller._tenants) == baseline_tenants

    def test_close_is_idempotent(self, cluster):
        handle = cluster.connect()
        handle.close()
        handle.close()


class TestPressureEntriesPruned:
    def test_fully_decayed_scores_are_dropped(self, controller):
        controller.note_overload("node1")
        controller.note_overload("node2")
        assert len(controller._pressure) == 2
        # Many half-lives later the scores are indistinguishable from
        # "never overloaded" and must not linger.
        controller.clock.advance(
            controller.PRESSURE_HALF_LIFE * 64)
        assert controller.pressure_score() == 0.0
        assert controller._pressure == {}

    def test_live_scores_survive_pruning(self, controller):
        controller.note_overload("node1")
        controller.clock.advance(controller.PRESSURE_HALF_LIFE)
        assert controller.pressure_score() == pytest.approx(0.5)
        assert "node1" in controller._pressure
