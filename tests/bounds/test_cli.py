"""The bounds family through ``python -m repro.analysis``: exit codes,
check selection, profiles, suppressions, declaration forms, output
formats, and the scope report."""

from __future__ import annotations

import pytest

from repro.analysis.cli import main

#: A hot, growing, undrained buffer: one unbounded-buffer finding.
BAD_BUFFER = '''\
def hot_path(fn):
    return fn


class EventCollector:
    def __init__(self):
        self.backlog = []

    @hot_path
    def on_event(self, event):
        self.backlog.append(event)
'''

#: The same shape, bounded by a consumer drain: clean.
CLEAN_BUFFER = '''\
def hot_path(fn):
    return fn


class DrainedCollector:
    def __init__(self):
        self.queue = []

    @hot_path
    def push(self, item):
        self.queue.append(item)

    def drain(self):
        items, self.queue = self.queue, []
        return items
'''


def _write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return str(tmp_path)


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        code = main([_write(tmp_path, CLEAN_BUFFER), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER), "--profile", "strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unbounded-buffer" in out
        assert "EventCollector.backlog" in out

    def test_unknown_check_exits_two(self, tmp_path, capsys):
        code = main([_write(tmp_path, CLEAN_BUFFER), "--check", "nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_no_files_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path)])
        assert code == 2
        assert "no Python files" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        code = main([_write(tmp_path, "def broken(:\n")])
        assert code == 2
        assert "mod.py" in capsys.readouterr().err


class TestCheckSelection:
    def test_deselected_check_is_silent(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER),
                     "--check", "leak-on-error", "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_selected_check_still_fires(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER),
                     "--check", "unbounded-buffer,leak-on-error",
                     "--profile", "strict"])
        assert code == 1, capsys.readouterr().out


class TestProfiles:
    CACHE = '''\
def hot_path(fn):
    return fn


class Memo:
    def __init__(self):
        self.seen = {}

    @hot_path
    def get(self, key):
        value = self.seen.get(key)
        if value is None:
            value = key * 2
            self.seen[key] = value
        return value
'''

    def test_relaxed_exempts_cache_eviction(self, tmp_path, capsys):
        root = _write(tmp_path, self.CACHE)
        assert main([root, "--profile", "relaxed"]) == 0
        assert main([root, "--profile", "strict"]) == 1
        capsys.readouterr()

    def test_relaxed_still_enforces_buffers(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER), "--profile", "relaxed"])
        assert code == 1, capsys.readouterr().out


class TestSuppressions:
    def test_disable_next_silences(self, tmp_path, capsys):
        suppressed = BAD_BUFFER.replace(
            "        self.backlog.append(event)",
            "        # justified: fixture harness, reset between runs\n"
            "        # repro: disable-next=unbounded-buffer\n"
            "        self.backlog.append(event)",
        )
        code = main([_write(tmp_path, suppressed), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_other_tools_comments_do_not_silence(self, tmp_path, capsys):
        """A comment silences only the checks it names: another
        family's name leaves this finding standing."""
        not_ours = BAD_BUFFER.replace(
            "        self.backlog.append(event)",
            "        # repro: disable-next=list-shift,no-wall-clock\n"
            "        self.backlog.append(event)",
        )
        code = main([_write(tmp_path, not_ours), "--profile", "strict"])
        assert code == 1, capsys.readouterr().out


class TestDeclarations:
    def test_bounded_decorator_silences_growth(self, tmp_path, capsys):
        declared = BAD_BUFFER.replace(
            "class EventCollector:",
            "def bounded(kind, reason):\n"
            "    def mark(fn):\n        return fn\n    return mark\n\n\n"
            "class EventCollector:",
        ).replace(
            "    def on_event",
            "    @bounded(\"consumer-drained\", \"reporting pump drains "
            "it each round\")\n    def on_event",
        )
        code = main([_write(tmp_path, declared), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_class_bounds_tuple_silences(self, tmp_path, capsys):
        declared = BAD_BUFFER.replace(
            "class EventCollector:",
            "class EventCollector:\n    __bounds__ = (\"backlog\",)",
        )
        code = main([_write(tmp_path, declared), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_module_bounds_tuple_silences(self, tmp_path, capsys):
        declared = BAD_BUFFER + "\n\n__bounds__ = (\"EventCollector.backlog\",)\n"
        code = main([_write(tmp_path, declared), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out

    def test_deque_maxlen_is_a_bound(self, tmp_path, capsys):
        source = CLEAN_BUFFER.replace(
            "        self.queue = []",
            "        from collections import deque\n"
            "        self.queue = deque(maxlen=128)",
        ).replace(
            "    def drain(self):\n"
            "        items, self.queue = self.queue, []\n"
            "        return items\n",
            "",
        )
        code = main([_write(tmp_path, source), "--profile", "strict"])
        assert code == 0, capsys.readouterr().out


class TestOutputFormats:
    def test_github_annotations(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER), "--profile", "strict",
                     "--format", "github"])
        out = capsys.readouterr().out
        assert code == 1
        assert "::error " in out
        assert "title=unbounded-buffer" in out

    def test_quiet_drops_summary(self, tmp_path, capsys):
        main([_write(tmp_path, CLEAN_BUFFER), "--profile", "strict", "-q"])
        assert capsys.readouterr().out == ""


class TestScopeReport:
    def test_scope_report_lists_provenance(self, tmp_path, capsys):
        code = main([_write(tmp_path, BAD_BUFFER), "--report", "scope"])
        out = capsys.readouterr().out
        assert code == 0
        assert "on_event" in out
        assert "@hot_path root" in out


@pytest.mark.parametrize("flag", ["--profile", "--format", "--report"])
def test_bad_flag_values_exit_two(tmp_path, flag, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([str(tmp_path), flag, "bogus-value"])
    capsys.readouterr()
    assert exc_info.value.code == 2
