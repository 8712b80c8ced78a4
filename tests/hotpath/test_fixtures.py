"""Every broken hotpath fixture must fail with exactly its intended
check through the one CLI with every family selected, and the hotpath
slice of the shared strict tree run must be clean."""

from __future__ import annotations

import pytest

from tests.analysis.support import (
    CONTRACTS_STUB,
    analyze_sources,
    assert_fails_with_exactly,
    family_checks,
    family_fixtures,
    fixture_dirs_on_disk,
)

FAMILY = "hotpath"


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
    checks = set(family_checks(FAMILY))
    remaining = [f for f in strict_tree_run.findings if f.check in checks]
    assert remaining == [], "\n".join(f.format() for f in remaining)
    # The hot set itself must stay non-trivial: the KV ops, client
    # senders, and operator bodies are decorated roots.
    hot_set = strict_tree_run.context.hot_set
    assert len(hot_set.roots) > 40
    assert len(hot_set.members) > len(hot_set.roots)


def test_tree_clean_through_the_cli(strict_tree_cli):
    code, out = strict_tree_cli
    assert code == 0, out
    assert out.startswith("repro-analysis: 0 findings"), out


def test_byte_loop_goes_by_the_annotation():
    """Only a parameter *annotated* bytes-like counts (unions included,
    comprehensions included); str, unannotated and local iterables are
    other rules' business."""
    findings = analyze_sources({
        "repro.common.contracts": CONTRACTS_STUB,
        "repro.kv.ops": """
            from ..common.contracts import cost, hot_path


            @hot_path
            @cost("O(n)")
            def fold(data: bytes | bytearray, text: str, rows):
                flipped = [byte ^ 1 for byte in data]
                for char in text:
                    flipped.append(ord(char))
                for row in rows:
                    flipped.append(row)
                return sum(flipped)
            """,
    }, check="byte-loop")
    assert [(f.check, f.line) for f in findings] == [("byte-loop", 8)]
