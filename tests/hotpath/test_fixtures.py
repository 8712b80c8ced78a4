"""Every broken hotpath fixture must fail with exactly its intended
check through the one CLI with every family selected, and the hotpath
slice of the shared strict tree run must be clean."""

from __future__ import annotations

import pytest

from repro.analysis.cli import main
from tests.analysis.support import (
    CONTRACTS_STUB,
    analyze_sources,
    assert_fails_with_exactly,
    family_checks,
    family_fixtures,
    fixture_dir,
    fixture_dirs_on_disk,
)

FAMILY = "hotpath"


def test_every_fixture_is_covered():
    assert [name for name, _check in family_fixtures(FAMILY)] \
        == fixture_dirs_on_disk(FAMILY)


def test_every_check_has_a_fixture():
    assert sorted({check for _name, check in family_fixtures(FAMILY)}) \
        == family_checks(FAMILY)


@pytest.mark.parametrize("fixture,check", family_fixtures(FAMILY))
def test_fixture_fails_with_its_intended_check(fixture, check, capsys):
    assert_fails_with_exactly(FAMILY, fixture, check, capsys)


def test_wrapper_in_a_row_loop_is_flagged_with_its_chain(capsys):
    """The fixture is a pair: ``per_row`` calls the one-line
    ``fetch_doc`` wrapper per row (the shape ``run_join`` had) and is
    flagged with the call chain; ``per_batch`` calls its batched twin
    once per batch, still inside the batch loop, and is clean."""
    code = main([str(fixture_dir("hotpath/n_plus_one_rpc_wrapper")),
                 "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1, out
    findings = [line for line in out.splitlines()
                if not line.startswith("repro-analysis:")]
    assert len(findings) == 1, out
    assert "per_row.py:10:" in findings[0]
    assert "(ExecutionContext.fetch_doc -> client.get)" in findings[0]


def test_reach_follows_client_ops_not_bare_fabric_calls():
    """Through a function boundary only single-key *client* ops count:
    a helper that makes one raw ``network.call`` (a handshake, a map
    push) is its caller's business only when the call sits in the loop
    itself; and nothing behind a batched ``multi_*`` name is followed."""
    findings = analyze_sources({
        "repro.common.contracts": CONTRACTS_STUB,
        "repro.kv.ops": """
            from ..common.contracts import hot_path


            def handshake(network, node):
                return network.call("me", node, "hello")


            def lookup(client, key):
                return client.get("b", key)


            def indirect(client, key):
                return lookup(client, key)


            def multi_lookup(client, keys):
                return lookup(client, keys[0])


            @hot_path
            def sweep(client, network, nodes, keys):
                for node in nodes:
                    handshake(network, node)
                for key in keys:
                    indirect(client, key)
                for chunk in keys:
                    multi_lookup(client, chunk)
            """,
    }, check="n-plus-one-rpc")
    assert [(f.line, f.message.split(" [")[0]) for f in findings] == [
        (26, "indirect(...) inside a loop issues one RPC per item "
             "(indirect -> lookup -> client.get); use the batched "
             "multi_* / call_fanout path"),
    ]


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
            from ..common.contracts import hot_path


            @hot_path
            def fold(data: bytes | bytearray, text: str, rows):
                flipped = [byte ^ 1 for byte in data]
                for char in text:
                    flipped.append(ord(char))
                for row in rows:
                    flipped.append(row)
                return sum(flipped)
            """,
    }, check="byte-loop")
    assert [(f.check, f.line) for f in findings] == [("byte-loop", 7)]
