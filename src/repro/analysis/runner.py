"""The run loop: one project index, one call graph, facts derived once.

The :class:`Context` holds what the checks share: the project index,
the call graph, and the facts derived from them (hot set, bounds scope,
container inventory, protocol analysis, exception flow).  Each is a
``cached_property``, so a run computes it at most once however many
checks read it -- and not at all when none does (``--check lint`` over
harness code never builds the call graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .callgraph import CallGraph, build_callgraph
from .containers import Inventory
from .excflow import ExcFlowResult, analyze_exceptions
from .framework import Check, Finding, all_checks, profile_for
from .project import Project
from .proto import Analysis
from .reach import HotSet, derive_bounds_scope, derive_hot_set


class Context:
    """One run's shared state: the index, the graph, the derived facts."""

    def __init__(self, project: Project):
        self.project = project

    @cached_property
    def graph(self) -> CallGraph:
        return build_callgraph(self.project)

    @cached_property
    def hot_set(self) -> HotSet:
        return derive_hot_set(self.graph)

    @cached_property
    def bounds_scope(self) -> HotSet:
        return derive_bounds_scope(self.graph)

    @cached_property
    def containers(self) -> Inventory:
        # Through the graph, not self.project: the call-graph builder
        # adds the lambda bodies it synthesizes to the index, and the
        # inventory must see the same functions whatever the check order.
        return Inventory(self.graph.project)

    @cached_property
    def protocols(self) -> Analysis:
        return Analysis(self.graph)

    @cached_property
    def exception_flow(self) -> ExcFlowResult:
        return analyze_exceptions(self.graph)


@dataclass
class Run:
    """What one analysis run produced."""

    context: Context
    #: every finding the selected checks raised, before filtering.
    raw: list[Finding]
    #: what the gate reports: ``raw`` minus per-line suppressions and
    #: minus strict-only checks on files resolving to relaxed.
    findings: list[Finding]


def analyze(project: Project, checks: Iterable[Check] | None = None,
            profile: str = "auto") -> Run:
    """Run ``checks`` (default: all) over one project index."""
    checks = all_checks() if checks is None else tuple(checks)
    context = Context(project)
    selected = {check.name: check for check in checks}
    raw: list[Finding] = []
    for run in dict.fromkeys(check.run for check in checks):
        raw.extend(f for f in run(context) if f.check in selected)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    suppressions = {module.path: module.suppressions
                    for module in project.modules.values()}
    findings = []
    for finding in raw:
        disabled = suppressions.get(finding.path, {}).get(finding.line, ())
        if finding.check in disabled or "all" in disabled:
            continue
        if selected[finding.check].strict_only \
                and profile_for(Path(finding.path), profile) == "relaxed":
            continue
        findings.append(finding)
    return Run(context, raw, findings)
