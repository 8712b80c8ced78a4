"""repro.analysis: one static-analysis framework for the repro tree.

The paper's architecture rests on invariants Python does not enforce --
services reach the data service only over the fabric, all background
work is bounded scheduler pumps under a memory quota, vBucket and
stream lifecycles are small state machines (sections 2.3, 4.2, 4.3.1).
This package encodes them as many small checks over one shared
structure: the tree is parsed once into a :class:`Project` index, one
name-resolved :class:`CallGraph` is built over it, and every check is a
function registered in one rule registry that reads them (and the facts
derived from them, each computed at most once per run) through a
per-run :class:`Context`.  Five families:

* **lint** -- per-module AST invariants: determinism (no wall clock,
  no unseeded randomness), pump discipline, error taxonomy, metric
  naming, MISSING/NULL discipline, declared shared state;
* **flow** -- whole-program: exception-flow exhaustiveness against
  ``@declared_raises``, option plumbing from client API to engine sink,
  layer conformance of the import graph;
* **hotpath** -- cost rules scoped to the hot set (``@hot_path`` roots
  and scheduler pumps, closed over the call graph) and the ``@cost``
  contract up the graph;
* **bounds** -- everything that accumulates is bounded, memory charges
  balance, retries back off, acquired slots release on error paths;
* **proto** -- every write of a ``@protocol`` state field is a
  declared, guarded, ordered, owner-local, observable transition.

One contract for all of them, and for the dynamic ``repro.sanitize``:

* ``python -m repro.analysis [paths] --check <family|check>[,...]``
  exits 0 when clean, 1 when findings were reported, 2 on usage errors;
* one :class:`Finding` ``(check, path, line, col, message)``;
* per-line suppressions ``# repro: disable=<check>[,<check>...]`` with a
  ``disable-next=`` form for multi-line statements, parsed once per
  module at index time -- every suppression should carry a
  justification comment;
* ``--format github`` emits ``::error`` workflow commands that land as
  inline PR annotations;
* ``--profile auto`` resolves per file -- strict under ``src/repro``,
  relaxed (``strict_only`` checks off) for harness code.
"""

# Importing a rule module registers its checks; this order is the order
# ``--report rules`` lists them in.
from . import (  # noqa: F401
    lint,
    layers,
    excflow,
    options,
    hotpath,
    costs,
    bounds,
    charges,
    proto,
)
from .callgraph import CallEdge, CallGraph, build_callgraph
from .framework import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    FAMILIES,
    PROFILES,
    Check,
    Finding,
    UsageError,
    all_checks,
    profile_for,
    select_checks,
)
from .output import FORMATS, github_annotation
from .project import Project, discover
from .runner import Context, Run, analyze

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "FAMILIES",
    "FORMATS",
    "PROFILES",
    "CallEdge",
    "CallGraph",
    "Check",
    "Context",
    "Finding",
    "Project",
    "Run",
    "UsageError",
    "all_checks",
    "analyze",
    "build_callgraph",
    "discover",
    "github_annotation",
    "profile_for",
    "select_checks",
]
