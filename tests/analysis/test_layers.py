"""The layer table has no holes: every package under ``src/repro`` is
ranked, and an import of -- or from -- an unranked ``repro.*`` package
is a ``layer-violation`` rather than silently skipped (which is how
three analyzer packages once went unchecked)."""

from __future__ import annotations

from repro.analysis.layers import RANKS, RESTRICTED_IMPORTERS

from .support import SRC, analyze_sources

UNRANKED = {"repro.newpkg.tool": "def analyze():\n    return []\n"}


def test_every_directory_under_src_repro_has_a_rank():
    packages = sorted(path.name for path in SRC.iterdir()
                      if path.is_dir() and path.name != "__pycache__")
    assert [name for name in packages if name not in RANKS] == []
    modules = sorted(path.stem for path in SRC.glob("*.py")
                     if path.stem != "__init__")
    assert [name for name in modules if name not in RANKS] == []
    # ... and the table names nothing that no longer exists.
    assert sorted(set(RANKS) - {""}) == sorted(packages + modules)
    assert RESTRICTED_IMPORTERS <= set(RANKS)


def test_ranked_package_importing_an_unranked_sibling_is_a_violation():
    assert "newpkg" not in RANKS
    findings = analyze_sources({
        **UNRANKED,
        "repro.kv.types": "from ..newpkg.tool import analyze\n",
    }, check="flow")
    assert [(f.check, f.path, f.line) for f in findings] == [
        ("layer-violation", "src/repro/kv/types.py", 1)]
    assert "does not rank repro.newpkg.tool" in findings[0].message


def test_unranked_package_importing_a_ranked_one_is_a_violation():
    findings = analyze_sources({
        "repro.common.clock": "class Clock:\n    pass\n",
        "repro.newpkg.tool": "from ..common.clock import Clock\n",
    }, check="flow")
    assert [f.check for f in findings] == ["layer-violation"]
    assert "does not rank repro.newpkg.tool" in findings[0].message


def test_scripts_outside_the_package_are_not_layer_checked():
    findings = analyze_sources({
        "repro.common.clock": "class Clock:\n    pass\n",
        "quickstart": "from repro.common.clock import Clock\n",
    }, check="flow")
    assert findings == []
