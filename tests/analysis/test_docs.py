"""DESIGN.md's "Static analysis" table is the registry, written down:
one row per registered check, with its family and strict-only bit."""

from __future__ import annotations

import re

from repro.analysis import all_checks

from .support import REPO_ROOT

ROW = re.compile(r"^\| `([a-z0-9-]+)` \| (\w+) \| .+ \| (yes)? ?\| [^|]+ \|$")


def test_every_registered_check_is_a_row_of_the_design_table():
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## Static analysis (repro.analysis)")[1]
    section = section.split("\n## ")[0]
    rows = {match.group(1): (match.group(2), match.group(3) == "yes")
            for match in map(ROW.match, section.splitlines()) if match}
    assert rows == {check.name: (check.family, check.strict_only)
                    for check in all_checks()}
