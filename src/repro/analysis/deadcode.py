"""Dead-code report: functions the call graph cannot reach.

Reachability starts from everything the outside world can invoke --
service entry points, RPC handlers, pump and timer bodies, dunders,
``main`` functions, anything decorated (decorators usually mean an
external registry) and the ``visit_*`` methods of direct
``ast.NodeVisitor`` subclasses, which ``visit`` calls by name -- and
walks *every* edge kind, including ``ref`` (bound-method references)
and ``partial``.

A function the walk misses is only a *candidate*: dynamic dispatch can
hide uses from any static analysis.  So each candidate is cross-checked
textually against every analyzed source file; one occurrence of its name
anywhere beyond its own ``def`` line (a test, a getattr string, a table)
clears it.  What survives is reported by ``--report dead-code`` --
informationally (exit 0), because deleting code is a human decision the
tool should motivate, not force.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .callgraph import CallGraph
from .excflow import _entry_points
from .project import ClassInfo, Project


@dataclass(frozen=True)
class DeadCandidate:
    fqn: str
    path: str
    line: int
    reason: str


def _roots(graph: CallGraph) -> set[str]:
    project = graph.project
    roots: set[str] = set(_entry_points(graph))
    for fqn, func in project.functions.items():
        if func.is_dunder:
            roots.add(fqn)
        elif func.name == "main" or func.module.endswith("__main__"):
            roots.add(fqn)
        elif func.decorators:
            roots.add(fqn)
        elif func.name.startswith("visit_") and func.cls is not None and (
            _is_visitor(project, project.classes[func.cls])
        ):
            roots.add(fqn)
    return roots


def _is_visitor(project: Project, klass: ClassInfo) -> bool:
    """Whether ``klass`` names ``ast.NodeVisitor`` among its own bases."""
    bindings = project.modules[klass.module].bindings
    return any(
        bindings.get(head, head) + dot + rest == "ast.NodeVisitor"
        for head, dot, rest in (base.partition(".") for base in klass.bases)
    )


def analyze_dead_code(graph: CallGraph) -> list[DeadCandidate]:
    project = graph.project
    reached = graph.closure(_roots(graph))
    sources = {
        name: module.source_lines
        for name, module in project.modules.items()
    }
    candidates = []
    for fqn, func in sorted(project.functions.items()):
        if fqn in reached or not func.is_public:
            continue
        if "<lambda" in fqn or ".<locals>." in fqn:
            continue
        if _textually_referenced(func, sources):
            continue
        module = project.modules.get(func.module)
        candidates.append(DeadCandidate(
            fqn=fqn,
            path=str(module.path) if module else func.module,
            line=func.line,
            reason="unreached from any entry point and never named "
                   "outside its own def",
        ))
    return candidates


def _textually_referenced(func, sources: dict[str, list[str]]) -> bool:
    pattern = re.compile(rf"\b{re.escape(func.name)}\b")
    span_start = func.line
    span_end = getattr(func.node, "end_lineno", func.line) or func.line
    for module_name, lines in sources.items():
        own_module = module_name == func.module
        for lineno, line in enumerate(lines, start=1):
            if own_module and span_start <= lineno <= span_end:
                continue  # its own def/body (recursion doesn't count)
            if pattern.search(line):
                return True
    return False
