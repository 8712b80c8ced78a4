"""The one registry: the single fixture <-> registry bijection, and the
guarantee that a run indexes the tree, builds the call graph and
derives each shared fact exactly once."""

from __future__ import annotations

from repro.analysis import (
    FAMILIES,
    all_checks,
    analyze,
    runner,
    select_checks,
)
from repro.analysis.callgraph import CallGraph, _Builder
from repro.analysis.cli import main
from repro.analysis.containers import Inventory
from repro.analysis.project import Project
from repro.analysis.proto import Analysis

from .support import EXPECTED, TESTS, fixture_dir


def test_fixtures_and_registry_are_a_bijection():
    """Every known-bad fixture directory on disk is in the table, every
    non-lint check has a fixture (n-plus-one-rpc has two: the op in the
    loop, and a wrapper around it; retry-without-backoff has two: a
    handler that always retries, and one that re-raises on one branch),
    and nothing else is registered."""
    on_disk = sorted(
        f"{family}/{path.name}"
        for family in FAMILIES if (TESTS / family / "fixtures").is_dir()
        for path in (TESTS / family / "fixtures").iterdir() if path.is_dir()
    )
    assert on_disk == sorted(EXPECTED)
    assert len(on_disk) == 26
    by_family = {family: {c.name for c in all_checks() if c.family == family}
                 for family in FAMILIES}
    for family in FAMILIES[1:]:
        covered = {check for key, check in EXPECTED.items()
                   if key.startswith(family + "/")}
        assert covered == by_family[family], family
    # The lint family's known-bad inputs are the inline sources of
    # tests/lint/test_rules.py; its names are pinned in test_engine.py.
    assert len(by_family["lint"]) == 6
    assert len(all_checks()) == 29


def test_check_names_are_unique_across_families():
    names = [check.name for check in all_checks()]
    assert len(names) == len(set(names))
    assert not set(names) & set(FAMILIES)


def _count_calls(monkeypatch, owner, name: str, calls: dict) -> None:
    original = getattr(owner, name)
    key = f"{owner.__name__}.{name}"

    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_one_invocation_indexes_and_derives_everything_once(
        monkeypatch, capsys):
    """One CLI invocation with every family selected: one parse per
    file, one call graph, and each derived fact (hot set and bounds
    scope = two closures, container inventory, protocol analysis,
    exception flow) computed exactly once, however many of the 29
    checks read it."""
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, Project, "add_source", calls)
    _count_calls(monkeypatch, _Builder, "build", calls)
    _count_calls(monkeypatch, CallGraph, "closure", calls)
    _count_calls(monkeypatch, Inventory, "__init__", calls)
    _count_calls(monkeypatch, Analysis, "__init__", calls)
    _count_calls(monkeypatch, runner, "analyze_exceptions", calls)

    tree = fixture_dir("hotpath/list_shift")
    assert main([str(tree), "--profile", "strict", "-q"]) == 1
    capsys.readouterr()
    files = len(list(tree.rglob("*.py")))
    assert calls == {
        "Project.add_source": files,
        "_Builder.build": 1,
        "CallGraph.closure": 2,
        "Inventory.__init__": 1,
        "Analysis.__init__": 1,
        "repro.analysis.runner.analyze_exceptions": 1,
    }


def test_lint_only_run_never_builds_the_call_graph(monkeypatch):
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, _Builder, "build", calls)
    project = Project.build([fixture_dir("flow/exc_swallow") / "repro"
                             / "client" / "smart_client.py"])
    analyze(project, select_checks("lint"))
    assert calls == {}
