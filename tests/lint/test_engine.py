"""Framework self-tests seen through the lint family: suppressions,
profiles, module naming, check selection, the CLI exit-code contract,
and the registry."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    Project,
    UsageError,
    all_checks,
    analyze,
    discover,
    profile_for,
    select_checks,
)
from repro.analysis.cli import main
from repro.analysis.project import module_name_for
from tests.analysis.support import analyze_sources


def run(source: str, check: str = "lint", profile: str = "strict"):
    return analyze_sources({"fixture": source}, check=check, profile=profile)


# -- suppressions -----------------------------------------------------------


def test_same_line_suppression():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro: disable=no-wall-clock
    """)
    assert violations == []


def test_disable_next_covers_following_line():
    violations = run("""
        import time

        def stamp():
            # repro: disable-next=no-wall-clock
            return time.time()
    """)
    assert violations == []


def test_disable_all_suppresses_every_rule():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro: disable=all
    """)
    assert violations == []


def test_suppressing_a_different_rule_does_not_hide():
    violations = run("""
        import time

        def stamp():
            return time.time()  # repro: disable=error-taxonomy
    """)
    assert [v.check for v in violations] == ["no-wall-clock"]


def test_suppression_list_is_comma_separated():
    violations = run("""
        import time, random

        def stamp():
            return time.time(), random.random()  # repro: disable=no-wall-clock, no-unseeded-random
    """)
    assert violations == []


# -- profiles ---------------------------------------------------------------


def test_relaxed_profile_allows_wall_clock():
    source = """
        import time

        def stamp():
            return time.time()
    """
    assert run(source, profile="strict") != []
    assert run(source, profile="relaxed") == []


def test_relaxed_profile_still_enforces_other_rules():
    violations = run("""
        import random

        def pick():
            return random.random()
    """, profile="relaxed")
    assert [v.check for v in violations] == ["no-unseeded-random"]


def test_profile_for_auto_resolution():
    assert profile_for(Path("src/repro/kv/engine.py"), "auto") == "strict"
    assert profile_for(Path("/abs/src/repro/kv/engine.py"), "auto") == "strict"
    assert profile_for(Path("benchmarks/figures.py"), "auto") == "relaxed"
    assert profile_for(Path("examples/quickstart.py"), "auto") == "relaxed"
    assert profile_for(Path("benchmarks/x.py"), "strict") == "strict"


# -- module naming ----------------------------------------------------------


def test_module_name_inside_package():
    assert module_name_for(Path("src/repro/kv/engine.py")) == "repro.kv.engine"
    assert module_name_for(Path("src/repro/kv/__init__.py")) == "repro.kv"


def test_module_name_outside_package_is_stem():
    assert module_name_for(Path("examples/quickstart.py")) == "quickstart"


# -- parse errors and selection ---------------------------------------------


def test_syntax_error_reports_parse_error_violation():
    """A file that does not parse is a usage error (exit 2), recorded on
    the index instead of being analyzed half-way."""
    project = Project()
    project.add_source(Path("fixture.py"), "def broken(:\n")
    assert [(path, line) for path, line, _msg in project.parse_errors] == [
        ("fixture.py", 1)]
    assert project.modules == {}


def test_select_unknown_rule_raises():
    with pytest.raises(UsageError):
        select_checks("no-such-rule")


def test_select_limits_to_named_rules():
    violations = run("""
        import time, random

        def stamp():
            return time.time(), random.random()
    """, check="no-wall-clock")
    assert {v.check for v in violations} == {"no-wall-clock"}


def test_registry_has_the_six_lint_rules():
    lint = [check for check in all_checks() if check.family == "lint"]
    assert {check.name for check in lint} == {
        "no-wall-clock",
        "no-unseeded-random",
        "error-taxonomy",
        "pump-contract",
        "metrics-naming",
        "declared-shared-state",
    }
    assert {check.name for check in lint if check.strict_only} == {
        "no-wall-clock", "declared-shared-state"}
    assert all(check.invariant for check in all_checks())


# -- CLI exit codes ---------------------------------------------------------


def test_cli_exits_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "src" / "repro" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("def nothing():\n    return 1\n")
    assert main([str(clean)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exits_one_on_violation(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "no-wall-clock" in out


def test_cli_exits_two_on_empty_path(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main([str(empty)]) == 2


def test_cli_exits_two_on_unknown_rule(tmp_path, capsys):
    f = tmp_path / "x.py"
    f.write_text("x = 1\n")
    assert main([str(f), "--check", "bogus"]) == 2


def test_cli_list_rules(capsys):
    assert main(["--report", "rules", "--check", "lint"]) == 0
    out = capsys.readouterr().out
    assert "no-wall-clock (lint, strict-only)" in out
    assert "pump-contract (lint)" in out
    assert "layer-violation" not in out


def test_lint_paths_auto_profile(tmp_path):
    """``auto`` resolves per file: the same wall-clock read is a finding
    under src/repro and harness business under benchmarks/."""
    repro_file = tmp_path / "src" / "repro" / "mod.py"
    repro_file.parent.mkdir(parents=True)
    repro_file.write_text("import time\nt = time.time()\n")
    bench_file = tmp_path / "benchmarks" / "bench.py"
    bench_file.parent.mkdir(parents=True)
    bench_file.write_text("import time\nt = time.time()\n")
    violations = analyze(Project.build(discover([tmp_path])),
                         select_checks("lint")).findings
    assert [Path(v.path).name for v in violations] == ["mod.py"]


def test_scripts_sharing_a_stem_are_both_checked(tmp_path):
    """Outside the package a module is named by its bare stem; two
    ``conftest.py`` must not shadow each other in the index."""
    for directory in ("examples", "benchmarks"):
        script = tmp_path / directory / "conftest.py"
        script.parent.mkdir()
        script.write_text("import random\nx = random.random()\n")
    violations = analyze(Project.build(discover([tmp_path])),
                         select_checks("lint")).findings
    assert sorted(Path(v.path).parent.name for v in violations) == [
        "benchmarks", "examples"]
