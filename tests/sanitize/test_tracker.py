"""Write-race tracker unit tests: ownership, mediation, theft, dedup."""

from __future__ import annotations

from repro.common import tracing
from repro.sanitize import WriteRaceTracker, allowed_writers


def test_allowed_writers_by_convention():
    assert allowed_writers("kv/n1/b") == {"flusher/n1/b", "compactor/n1/b"}
    assert allowed_writers("views/n1/b") == {"views/n1/b"}
    assert allowed_writers("gsi/n1/by_i") == {"indexer/n1"}


def test_frontend_writes_never_flagged():
    tracker = WriteRaceTracker()
    tracker.record_write("kv/n1/b")
    assert tracker.findings == []
    assert tracker.writes_seen == 1


def test_owning_pump_writes_are_clean():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:flusher/n1/b")
    tracker.record_write("kv/n1/b")
    tracker.exit_pump()
    assert tracker.findings == []


def test_foreign_pump_write_is_flagged():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:xdcr/b->b")
    tracker.record_write("kv/n1/b")
    tracker.exit_pump()
    [finding] = tracker.findings
    assert finding.kind == "unmediated-write"
    assert finding.pump == "c:xdcr/b->b"
    assert finding.target == "kv/n1/b"
    assert "kv/n1/b" in finding.format()


def test_only_its_own_indexer_pump_commits_an_index_directly():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:indexer/n1")
    tracker.record_write("gsi/n1/by_i")  # the owning node's commit
    tracker.exit_pump()
    assert tracker.findings == []
    for pump in ("c:projector/n2/b", "c:indexer/n2", "c:views/n1/b"):
        tracker.enter_pump(pump)
        tracker.record_write("gsi/n1/by_i")
        tracker.exit_pump()
    assert [(finding.kind, finding.pump) for finding in tracker.findings] == [
        ("unmediated-write", "c:projector/n2/b"),
        ("unmediated-write", "c:indexer/n2"),
        ("unmediated-write", "c:views/n1/b"),
    ]
    assert "['indexer/n1']" in tracker.findings[0].detail


def test_mediated_write_is_clean():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:xdcr/b->b")
    tracker.enter_mediated()
    tracker.record_write("kv/n1/b")
    tracker.exit_mediated()
    tracker.exit_pump()
    assert tracker.findings == []


def test_findings_dedup_by_pump_and_target():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:rogue")
    tracker.record_write("kv/n1/b")
    tracker.record_write("kv/n1/b")
    tracker.record_write("kv/n1/other")
    tracker.exit_pump()
    assert len(tracker.findings) == 2


def test_first_taker_claims_the_stream():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:views/n1/b")
    tracker.record_take("dcp/n1/b/vb0#1")
    tracker.record_take("dcp/n1/b/vb0#1")
    tracker.exit_pump()
    assert tracker.findings == []


def test_second_pump_taking_is_queue_theft():
    tracker = WriteRaceTracker()
    tracker.enter_pump("c:views/n1/b")
    tracker.record_take("dcp/n1/b/vb0#1")
    tracker.exit_pump()
    tracker.enter_pump("c:thief")
    tracker.record_take("dcp/n1/b/vb0#1")
    tracker.exit_pump()
    [finding] = tracker.findings
    assert finding.kind == "queue-theft"
    assert finding.pump == "c:thief"
    assert "views/n1/b" in finding.detail


def test_frontend_takes_do_not_claim():
    tracker = WriteRaceTracker()
    tracker.record_take("dcp/n1/b/vb0#1")  # rebalance mover on the frontend
    tracker.enter_pump("c:views/n1/b")
    tracker.record_take("dcp/n1/b/vb0#1")
    tracker.exit_pump()
    assert tracker.findings == []


def test_tracing_install_roundtrip():
    tracker = WriteRaceTracker()
    assert tracing.current() is None
    previous = tracing.install(tracker)
    assert previous is None
    assert tracing.current() is tracker
    tracing.record_write("kv/n1/b")  # module-level helper routes to it
    assert tracker.writes_seen == 1
    tracing.install(previous)
    assert tracing.current() is None
    tracing.record_write("kv/n1/b")  # no tracker: a cheap no-op
    assert tracker.writes_seen == 1
