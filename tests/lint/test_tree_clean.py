"""The tree itself must be clean -- the tier-1 gate that keeps the
invariants true going forward, mirroring the two CI analysis steps:
every check, strict, over ``src/repro`` (shared with the per-family
slices through the ``strict_tree_run`` fixture), and the lint family,
relaxed, over the harness code."""

from __future__ import annotations

from repro.analysis.cli import main
from tests.analysis.support import REPO_ROOT


def test_repro_package_is_strictly_clean(strict_tree_run):
    findings = strict_tree_run.findings
    assert findings == [], "\n".join(f.format() for f in findings)


def test_harness_code_is_clean_under_relaxed_profile(capsys):
    code = main([str(REPO_ROOT / "examples"), str(REPO_ROOT / "benchmarks"),
                 "--check", "lint", "--profile", "relaxed"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("repro-analysis: 0 findings"), out
