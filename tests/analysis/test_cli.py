"""The one command's contract where it spans families: ``--check``
takes families and check names, one ``# repro:`` tag serves every
family, ``strict_only`` is one bit per check, every ``--report`` is
informational, and the parser has five flags.  The exit-code, format,
profile and suppression cases that need a family's own known-bad input
live next to that family's fixtures."""

from __future__ import annotations

import pytest

from repro.analysis import all_checks
from repro.analysis.cli import _build_parser, main

from .support import EXPECTED, fixture_dir

LIST_SHIFT = str(fixture_dir("hotpath/list_shift"))

#: One line that breaks a hotpath rule *and* a bounds rule.
TWO_FAMILIES = '''\
def hot_path(fn):
    return fn


def cost(bound):
    return lambda fn: fn


class Collector:
    def __init__(self):
        self.backlog = []

    @hot_path
    @cost("O(1)")
    def on_event(self, event):
        self.backlog.insert(0, event)
'''


def _findings(out: str) -> list[str]:
    """The check name of every finding line of a text-format run."""
    return [line.split(": ")[1] for line in out.splitlines()
            if not line.startswith("repro-analysis:")]


class TestCheckSelection:
    def test_family_name_selects_the_whole_family(self, capsys):
        assert main([LIST_SHIFT, "--check", "hotpath",
                     "--profile", "strict"]) == 1
        assert "(11 checks)" in capsys.readouterr().out

    def test_other_families_do_not_run(self, capsys):
        assert main([LIST_SHIFT, "--check", "lint,flow,bounds,proto",
                     "--profile", "strict"]) == 0
        assert "(26 checks)" in capsys.readouterr().out

    def test_families_and_checks_mix(self, capsys):
        assert main([LIST_SHIFT, "--check", "lint,list-shift",
                     "--profile", "strict"]) == 1
        out = capsys.readouterr().out
        assert _findings(out) == ["list-shift"]
        assert "(9 checks)" in out

    def test_unknown_name_lists_the_families(self, capsys):
        assert main([LIST_SHIFT, "--check", "hotpath,nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown check nonsense" in err
        assert "lint, flow, hotpath, bounds, proto" in err


class TestOneSuppressionTag:
    def test_one_comment_silences_checks_of_two_families(
            self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(TWO_FAMILIES)
        assert main([str(tmp_path), "--profile", "strict"]) == 1
        assert sorted(_findings(capsys.readouterr().out)) == [
            "list-shift", "unbounded-buffer"]
        (tmp_path / "mod.py").write_text(TWO_FAMILIES.replace(
            "insert(0, event)",
            "insert(0, event)  # repro: disable=list-shift,unbounded-buffer"))
        assert main([str(tmp_path), "--profile", "strict"]) == 0
        capsys.readouterr()

    def test_disable_all_covers_every_family(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(TWO_FAMILIES.replace(
            "insert(0, event)", "insert(0, event)  # repro: disable=all"))
        assert main([str(tmp_path), "--profile", "strict"]) == 0
        capsys.readouterr()


STRICT_ONLY_FIXTURES = sorted(
    (key, check) for key, check in EXPECTED.items()
    if check in {c.name for c in all_checks() if c.strict_only}
)


class TestProfiles:
    def test_every_family_has_a_strict_only_check(self):
        assert {c.family for c in all_checks() if c.strict_only} == {
            "lint", "flow", "hotpath", "bounds", "proto"}

    @pytest.mark.parametrize("key,check", STRICT_ONLY_FIXTURES)
    def test_strict_only_checks_are_off_under_relaxed(self, key, check,
                                                      capsys):
        """Fixture trees live outside src/repro, so ``auto`` resolves
        them to relaxed -- exactly like ``--profile relaxed``."""
        assert main([str(fixture_dir(key)), "--profile", "strict"]) == 1
        assert main([str(fixture_dir(key)), "--profile", "relaxed"]) == 0
        assert main([str(fixture_dir(key))]) == 0
        capsys.readouterr()


class TestReports:
    @pytest.mark.parametrize("report,needle", [
        ("dead-code", "dead-code candidate"),
        ("hot-set", "hot functions from"),
        ("scope", "functions in scope from"),
        ("protocols", "transition sites"),
        ("raises", "with undeclared escapes"),
    ])
    def test_tree_reports_are_informational(self, report, needle, capsys):
        """Exit 0 even on a known-bad tree: a report is not a gate."""
        assert main([LIST_SHIFT, "--report", report]) == 0
        out = capsys.readouterr().out
        assert needle in out and "not a gate" in out

    def test_quiet_report_prints_only_its_rows(self, capsys):
        assert main([LIST_SHIFT, "--report", "hot-set", "-q"]) == 0
        out = capsys.readouterr().out
        assert "drain" in out and "repro-analysis:" not in out

    def test_rules_report_needs_no_files(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing"), "--report", "rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n    ") == len(all_checks()) == 37
        assert "exception-escape (flow, strict-only)" in out


def test_the_parser_has_five_flags():
    options = sorted(
        action.option_strings[-1] for action in _build_parser()._actions
        if action.option_strings and action.dest != "help"
    )
    assert options == ["--check", "--format", "--profile", "--quiet",
                       "--report"]
