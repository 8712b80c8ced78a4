"""Shared test fixtures, including the runtime wall-clock guard.

The ``no-wall-clock`` check catches wall-clock reads statically;
the autouse fixture below is its runtime counterpart.  It wraps
``time.time`` and ``time.sleep`` so that any call whose *direct caller*
is a frame inside ``src/repro`` fails the test immediately -- simulation
code must go through the injected :class:`~repro.common.clock.Clock`.
Harness code (tests, benchmarks, pytest internals) passes through to the
real functions untouched.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import Project, analyze, discover
from repro.analysis.cli import main

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_REPRO_MARKER = os.path.join("src", "repro") + os.sep


def _guarded(real, name: str):
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_filename
        if _REPRO_MARKER in caller:
            raise AssertionError(
                f"time.{name}() called from simulation code "
                f"({caller}); use the injected Clock "
                f"(repro.common.clock) instead"
            )
        return real(*args, **kwargs)

    return wrapper


@pytest.fixture(autouse=True)
def forbid_wall_clock_in_repro(monkeypatch):
    monkeypatch.setattr(time, "time", _guarded(time.time, "time"))
    monkeypatch.setattr(time, "sleep", _guarded(time.sleep, "sleep"))


@pytest.fixture(scope="session")
def strict_tree_run():
    """Every check over ``src/repro`` under the strict profile, run once
    per session: the tree is parsed once and the call graph built once
    for all the per-family tree-clean tests."""
    project = Project.build(discover([_SRC]))
    assert not project.parse_errors
    return analyze(project, profile="strict")


@pytest.fixture(scope="session")
def strict_tree_cli():
    """``(exit code, stdout)`` of ``python -m repro.analysis src/repro
    --profile strict`` -- the CI step -- run once per session."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([str(_SRC), "--profile", "strict"])
    return code, out.getvalue()
