"""The flow family through ``python -m repro.analysis``: the 0/1/2 exit
contract shared with repro-sanitize, output formats, profiles,
suppressions, and the dead-code / raises reports."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import main
from tests.analysis.support import write_tree as _write_tree

FIXTURES = Path(__file__).resolve().parent / "fixtures"


CLEAN_TREE = {"common/util.py": """
    def double(value):
        return value * 2
    """}


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _write_tree(tmp_path, CLEAN_TREE)
        assert main([str(root), "--profile", "strict"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main([str(FIXTURES / "exc_swallow"), "--profile", "strict"])
        assert code == 1
        assert "swallowed-exception" in capsys.readouterr().out

    def test_unknown_check_is_a_usage_error(self, capsys):
        code = main([str(FIXTURES / "exc_swallow"), "--check", "nonsense"])
        assert code == 2
        assert "unknown check nonsense" in capsys.readouterr().err

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
    def test_other_analyses_do_not_run(self, capsys):
        """A layering fixture is clean as far as option plumbing goes."""
        code = main([str(FIXTURES / "layer_up"), "--check",
                     "option-dropped,option-renamed,option-domain",
                     "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_selected_analysis_still_fires(self, capsys):
        code = main([str(FIXTURES / "layer_up"), "--check", "flow",
                     "--profile", "strict"])
        assert code == 1
        assert "layer-violation" in capsys.readouterr().out


class TestProfiles:
    def test_relaxed_exempts_exception_escape(self, capsys):
        """Fixture trees live outside src/repro, so auto resolves to
        relaxed -- no @declared_raises contract is required there."""
        assert main([str(FIXTURES / "exc_undeclared")]) == 0
        capsys.readouterr()

    def test_relaxed_still_flags_swallowed_exceptions(self, capsys):
        assert main([str(FIXTURES / "exc_swallow")]) == 1
        capsys.readouterr()


class TestSuppressions:
    def test_disable_next_silences_the_finding(self, tmp_path, capsys):
        root = _write_tree(tmp_path, {
            "common/errors.py": """
            class ReproError(Exception):
                pass


            class KeyNotFoundError(ReproError):
                pass
            """,
            "client/smart_client.py": """
            from ..common.errors import KeyNotFoundError


            def _lookup(key):
                raise KeyNotFoundError(key)


            class SmartClient:
                def get_quietly(self, key):
                    try:
                        return _lookup(key)
                    # Absence is an expected answer here.
                    # repro: disable-next=swallowed-exception
                    except KeyNotFoundError:
                        return None
            """,
        })
        assert main([str(root), "--profile", "strict"]) == 0
        capsys.readouterr()


class TestOutputFormats:
    def test_github_format_emits_error_commands(self, capsys):
        code = main([str(FIXTURES / "opt_dropped"), "--profile", "strict",
                     "--format", "github", "-q"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("::error ")
        assert "title=option-dropped" in out

    def test_quiet_drops_the_summary_line(self, tmp_path, capsys):
        root = _write_tree(tmp_path, CLEAN_TREE)
        assert main([str(root), "--profile", "strict", "-q"]) == 0
        assert capsys.readouterr().out == ""


class TestHelperModes:
    def test_dead_code_report_is_informational(self, tmp_path, capsys):
        root = _write_tree(tmp_path, {"common/util.py": """
            def used():
                return unused_helper is not None


            def unused_helper():
                return None
            """})
        assert main([str(root), "--report", "dead-code"]) == 0
        out = capsys.readouterr().out
        assert "not a gate" in out

    def test_suggest_raises_prints_a_decorator(self, capsys):
        code = main([str(FIXTURES / "exc_undeclared"), "--report", "raises"])
        out = capsys.readouterr().out
        assert code == 0
        assert "@declared_raises('KeyNotFoundError')" in out
