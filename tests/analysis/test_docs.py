"""DESIGN.md's "Static analysis" table is the registry, written down:
one row per registered check, with its family, its strict-only bit and
why it stays.  EXPERIMENTS.md's "Which checks ever fired" table is the
evidence behind it, and a check that table marks retired is gone for
good: not registered, not in the fixture table, not suppressed."""

from __future__ import annotations

import re

from repro.analysis import all_checks

from .support import EXPECTED, REPO_ROOT

#: A table cell boundary: a ``|`` not escaped as ``\|``.
CELL = re.compile(r"(?<!\\)\|")


def _check_rows(document: str, heading: str) -> dict[str, list[str]]:
    """The rows of the check table under ``heading`` -- the table whose
    header starts ``| Check |`` -- keyed by the back-quoted check name."""
    text = (REPO_ROOT / document).read_text(encoding="utf-8")
    section = text.split(heading)[1].split("\n## ")[0]
    table = section[section.index("| Check |"):].split("\n\n")[0]
    return {
        cells[0].strip("`"): cells[1:]
        for cells in ([cell.strip() for cell in CELL.split(line)[1:-1]]
                      for line in table.splitlines()[2:])
    }


def _retired() -> set[str]:
    rows = _check_rows("EXPERIMENTS.md", "## Which checks ever fired")
    return {name for name, cells in rows.items() if cells[-1] == "retired"}


def test_every_registered_check_is_a_row_of_the_design_table():
    rows = _check_rows("DESIGN.md", "## Static analysis (repro.analysis)")
    assert {name: (cells[0], cells[2] == "yes")
            for name, cells in rows.items()} == {
        check.name: (check.family, check.strict_only)
        for check in all_checks()}
    unexplained = sorted(name for name, cells in rows.items()
                         if not cells[3])
    assert unexplained == [], "no 'Stays because' entry"


def test_no_retired_check_survives(strict_tree_run):
    retired = _retired()
    assert len(retired) >= 8
    assert retired.isdisjoint(check.name for check in all_checks())
    assert retired.isdisjoint(EXPECTED.values())
    suppressed = {
        name
        for module in strict_tree_run.context.project.modules.values()
        for names in module.suppressions.values()
        for name in names
    }
    assert retired.isdisjoint(suppressed)
