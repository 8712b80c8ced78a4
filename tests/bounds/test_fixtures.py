"""Every broken bounds fixture must fail with exactly its intended
check through the one CLI with every family selected, and the bounds
slice of the shared strict tree run must be clean."""

from __future__ import annotations

import pytest

from tests.analysis.support import (
    assert_fails_with_exactly,
    family_checks,
    family_fixtures,
    fixture_dirs_on_disk,
)

FAMILY = "bounds"


def test_every_fixture_is_covered():
    assert [name for name, _check in family_fixtures(FAMILY)] \
        == fixture_dirs_on_disk(FAMILY)


def test_every_check_has_a_fixture():
    assert sorted({check for _name, check in family_fixtures(FAMILY)}) \
        == family_checks(FAMILY)


@pytest.mark.parametrize("fixture,check", family_fixtures(FAMILY))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    assert_fails_with_exactly(FAMILY, fixture, check, capsys)


def test_repro_package_is_strictly_clean(strict_tree_run):
    checks = set(family_checks(FAMILY))
    remaining = [f for f in strict_tree_run.findings if f.check in checks]
    assert remaining == [], "\n".join(f.format() for f in remaining)
    # The derived scope must stay non-trivial: pumps, RPC handlers, and
    # @hot_path roots pull in the whole data path.
    scope = strict_tree_run.context.bounds_scope
    assert len(scope.roots) > 40
    assert len(scope.members) > len(scope.roots)
    # And the inventory actually tracks the system's containers.
    assert len(strict_tree_run.context.containers.containers) > 100


def test_tree_clean_via_cli(strict_tree_cli):
    code, out = strict_tree_cli
    assert code == 0, out
    assert out.startswith("repro-analysis: 0 findings"), out
