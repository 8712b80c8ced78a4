"""Shared helpers for the static-analysis tests.

The family-specific cases live next to their fixtures
(``tests/{lint,flow,hotpath,bounds,proto}``); everything they have in
common -- the known-bad fixture table, the "exactly its check" runner,
inline-source analysis, mini-tree writers -- lives here, once.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import Project, all_checks, analyze, select_checks
from repro.analysis.cli import main

TESTS = Path(__file__).resolve().parents[1]
REPO_ROOT = TESTS.parent
SRC = REPO_ROOT / "src" / "repro"

#: known-bad fixture directory (``<family>/<name>``, i.e.
#: ``tests/<family>/fixtures/<name>``) -> the single check its defect
#: must trip.  The lint family has inline sources instead
#: (``tests/lint/test_rules.py``).
EXPECTED = {
    "flow/exc_undeclared": "exception-escape",
    "flow/exc_swallow": "swallowed-exception",
    "flow/exc_pump": "exception-escape",
    "flow/opt_dropped": "option-dropped",
    "flow/opt_domain": "option-domain",
    "flow/layer_up": "layer-violation",
    "flow/layer_restricted": "layer-restricted",
    "hotpath/quadratic_membership": "quadratic-membership",
    "hotpath/list_shift": "list-shift",
    "hotpath/sort_in_loop": "sort-in-loop",
    "hotpath/str_concat_in_loop": "str-concat-in-loop",
    "hotpath/copy_in_loop": "copy-in-loop",
    "hotpath/invariant_in_loop": "invariant-in-loop",
    "hotpath/n_plus_one_rpc": "n-plus-one-rpc",
    "hotpath/n_plus_one_rpc_wrapper": "n-plus-one-rpc",
    "hotpath/byte_loop": "byte-loop",
    "bounds/unbounded_buffer": "unbounded-buffer",
    "bounds/cache_without_eviction": "cache-without-eviction",
    "bounds/retry_without_backoff": "retry-without-backoff",
    "bounds/retry_reraise_branch": "retry-without-backoff",
    "bounds/leak_on_error": "leak-on-error",
    "proto/illegal_transition": "illegal-transition",
    "proto/unguarded_transition": "unguarded-transition",
    "proto/handoff_order": "handoff-order",
    "proto/outside_owner": "transition-outside-owner",
    "proto/silent_transition": "silent-transition",
}


def fixture_dir(key: str) -> Path:
    family, name = key.split("/")
    return TESTS / family / "fixtures" / name


def family_fixtures(family: str) -> list[tuple[str, str]]:
    """``(fixture name, expected check)`` pairs of one family, for
    ``pytest.mark.parametrize``."""
    return sorted((key.split("/")[1], check)
                  for key, check in EXPECTED.items()
                  if key.startswith(family + "/"))


def family_checks(family: str) -> list[str]:
    return sorted(c.name for c in all_checks() if c.family == family)


def fixture_dirs_on_disk(family: str) -> list[str]:
    return sorted(p.name for p in (TESTS / family / "fixtures").iterdir()
                  if p.is_dir())


def assert_fails_with_exactly(family: str, fixture: str, check: str,
                              capsys) -> None:
    """The fixture exits 1 through the one CLI -- every family selected,
    strict profile -- and every finding is its intended check."""
    code = main([str(fixture_dir(f"{family}/{fixture}")),
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    finding_lines = [line for line in out.splitlines()
                     if line and not line.startswith("repro-analysis:")]
    assert finding_lines, out
    assert all(f" {check}: " in line for line in finding_lines), out


def analyze_sources(sources: dict[str, str], check: str | None = None,
                    profile: str = "strict"):
    """Findings for inline sources keyed by dotted module name (the
    module name decides package-scoped rules and the file's profile)."""
    project = Project()
    for module, source in sources.items():
        path = Path("src", *module.split(".")).with_suffix(".py")
        project.add_source(path, textwrap.dedent(source))
    assert not project.parse_errors, project.parse_errors
    return analyze(project, select_checks(check), profile).findings


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a mini ``repro`` tree under ``tmp_path`` and return it."""
    for rel, source in files.items():
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def build_tree(tmp_path: Path, files: dict[str, str]) -> Project:
    write_tree(tmp_path, files)
    project = Project.build(sorted((tmp_path / "repro").rglob("*.py")))
    assert not project.parse_errors
    return project


#: Stub of ``repro.common.contracts`` for mini trees: the analyzer reads
#: decorators statically (by name), so trees never import the real one.
CONTRACTS_STUB = """
    def hot_path(fn):
        fn.__hot_path__ = True
        return fn
    """
