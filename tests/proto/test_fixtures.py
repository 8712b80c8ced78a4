"""Every broken proto fixture must fail with exactly its intended check
through the one CLI with every family selected, and the proto slice of
the shared strict tree run must be clean with *zero* suppressions."""

from __future__ import annotations

import pytest

from tests.analysis.support import (
    assert_fails_with_exactly,
    family_checks,
    family_fixtures,
    fixture_dirs_on_disk,
)

FAMILY = "proto"


def test_every_fixture_is_covered():
    assert [name for name, _check in family_fixtures(FAMILY)] \
        == fixture_dirs_on_disk(FAMILY)


def test_every_check_has_a_fixture():
    assert sorted(check for _name, check in family_fixtures(FAMILY)) \
        == family_checks(FAMILY)


@pytest.mark.parametrize("fixture,check", family_fixtures(FAMILY))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    assert_fails_with_exactly(FAMILY, fixture, check, capsys)


def test_repro_package_is_strictly_clean(strict_tree_run):
    # Zero suppressions: the raw findings themselves must be empty, not
    # merely silenced.
    checks = set(family_checks(FAMILY))
    raw = [f for f in strict_tree_run.raw if f.check in checks]
    assert raw == [], "\n".join(f.format() for f in raw)
    # The declared surface must stay non-trivial: the vBucket, breaker,
    # DCP and XDCR lifecycles at minimum.
    analysis = strict_tree_run.context.protocols
    assert len(analysis.specs) >= 4
    assert len(analysis.inventory.bindings) >= 4
    assert len(analysis.inventory.sites) >= 15
    assert {spec.name for spec in analysis.specs.values()} >= {
        "VBucketState", "CircuitBreaker", "DcpStreamState", "XdcrStreamState",
    }


def test_no_proto_suppressions_in_tree(strict_tree_run):
    checks = set(family_checks(FAMILY))
    offenders = [
        (module.path, line)
        for module in strict_tree_run.context.project.modules.values()
        for line, names in module.suppressions.items()
        if names & checks
    ]
    assert offenders == []


def test_tree_clean_via_cli(strict_tree_cli):
    code, out = strict_tree_cli
    assert code == 0, out
    assert out.startswith("repro-analysis: 0 findings"), out
