"""The hotpath family through ``python -m repro.analysis``: the 0/1/2
exit contract shared with repro-sanitize, output formats, profiles,
suppressions, and the hot-set provenance report."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import main
from tests.analysis.support import CONTRACTS_STUB, write_tree

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _write_tree(tmp_path, files: dict[str, str]) -> Path:
    return write_tree(tmp_path,
                      {"common/contracts.py": CONTRACTS_STUB, **files})


CLEAN_TREE = {"kv/engine.py": """
    from ..common.contracts import cost, hot_path


    @hot_path
    @cost("O(1)")
    def get(store, key):
        return store[key]
    """}


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write_tree(tmp_path, CLEAN_TREE)
        assert main([str(root), "--profile", "strict"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main([str(FIXTURES / "list_shift"), "--profile", "strict"])
        assert code == 1
        assert "list-shift" in capsys.readouterr().out

    def test_unknown_check_is_a_usage_error(self, capsys):
        code = main([str(FIXTURES / "list_shift"), "--check", "nonsense"])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err

    def test_no_files_is_a_usage_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "does-not-exist")])
        assert code == 2
        assert "no Python files" in capsys.readouterr().err

    def test_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        assert main([str(tmp_path)]) == 2
        assert "broken.py" in capsys.readouterr().err


class TestCheckSelection:
    def test_other_checks_do_not_run(self, capsys):
        """The membership fixture is clean as far as list-shift goes."""
        code = main([str(FIXTURES / "quadratic_membership"),
                     "--check", "list-shift", "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_selected_check_still_fires(self, capsys):
        code = main([str(FIXTURES / "quadratic_membership"),
                     "--check", "quadratic-membership",
                     "--profile", "strict"])
        assert code == 1
        assert "quadratic-membership" in capsys.readouterr().out

    def test_comma_separated_selection(self, capsys):
        code = main([str(FIXTURES / "cost_exceeds_caller"), "--check",
                     "cost-exceeds-caller,cost-loop-amplified",
                     "--profile", "strict"])
        assert code == 1
        assert "cost-exceeds-caller" in capsys.readouterr().out


class TestProfiles:
    def test_relaxed_exempts_cost_undeclared(self, capsys):
        """Fixture trees live outside src/repro, so auto resolves to
        relaxed -- a demo hot root need not commit to a @cost bound."""
        assert main([str(FIXTURES / "cost_undeclared")]) == 0
        capsys.readouterr()

    def test_strict_requires_the_declaration(self, capsys):
        code = main([str(FIXTURES / "cost_undeclared"),
                     "--profile", "strict"])
        assert code == 1
        assert "cost-undeclared" in capsys.readouterr().out

    def test_relaxed_still_flags_rule_findings(self, capsys):
        assert main([str(FIXTURES / "list_shift")]) == 1
        capsys.readouterr()


class TestSuppressions:
    def test_disable_next_silences_the_finding(self, tmp_path, capsys):
        root = _write_tree(tmp_path, {"dcp/stream.py": """
            from ..common.contracts import cost, hot_path


            @hot_path
            @cost("O(n)")
            def drain(pending):
                taken = []
                while pending:
                    # The queue is bounded at 2 in-flight messages.
                    # repro: disable-next=list-shift
                    taken.append(pending.pop(0))
                return taken
            """})
        assert main([str(root), "--profile", "strict"]) == 0
        capsys.readouterr()

    def test_other_tools_suppressions_do_not_apply(self, tmp_path, capsys):
        """A comment silences only the checks it names: another
        family's name leaves this finding standing."""
        root = _write_tree(tmp_path, {"dcp/stream.py": """
            from ..common.contracts import cost, hot_path


            @hot_path
            @cost("O(n)")
            def drain(pending):
                taken = []
                while pending:
                    # repro: disable-next=unbounded-buffer
                    taken.append(pending.pop(0))
                return taken
            """})
        assert main([str(root), "--profile", "strict"]) == 1
        capsys.readouterr()


class TestOutputFormats:
    def test_github_format_emits_error_commands(self, capsys):
        code = main([str(FIXTURES / "n_plus_one_rpc"), "--profile",
                     "strict", "--format", "github", "-q"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("::error ")
        assert "title=n-plus-one-rpc" in out

    def test_quiet_drops_the_summary_line(self, tmp_path, capsys):
        root = _write_tree(tmp_path, CLEAN_TREE)
        assert main([str(root), "--profile", "strict", "-q"]) == 0
        assert capsys.readouterr().out == ""

    def test_summary_counts_the_hot_set(self, tmp_path, capsys):
        root = _write_tree(tmp_path, CLEAN_TREE)
        assert main([str(root), "--report", "hot-set"]) == 0
        out = capsys.readouterr().out
        assert "1 hot functions from 1 roots" in out


class TestHotSetReport:
    def test_report_prints_provenance_and_exits_zero(self, capsys):
        code = main([str(FIXTURES / "invariant_in_loop"),
                     "--report", "hot-set"])
        out = capsys.readouterr().out
        assert code == 0
        assert "project_rows" in out
        assert "@hot_path" in out
        # compile_expr is hot *via* the root, not a root itself.
        assert "via compile_expr" in out or "compile_expr" in out
        assert "not a gate" in out
