"""Declared-cost contract: ``@cost`` consistency up the call graph.

Three checks over the hot set:

``cost-undeclared``
    A function marked ``@hot_path`` carries no ``@cost`` declaration.
    Hot roots are the contract surface -- every one must state its
    per-call bound so callers (and reviewers) can rely on it.
``cost-exceeds-caller``
    An annotated function calls another annotated function whose
    declared bound is *greater* than its own: an ``O(1)`` op cannot be
    built on an ``O(n)`` callee.
``cost-loop-amplified``
    An annotated function calls an annotated callee from inside a loop
    (or comprehension) where the loop multiplies the callee's bound past
    the caller's declaration: ``O(n)`` work per iteration of a loop
    inside an ``O(n)`` function is O(n^2).  Inside a loop a callee must
    declare *strictly less* than the caller (an ``O(n)`` caller may do
    ``O(log n)`` per item; an ``O(log n)`` or ``O(1)`` caller only
    ``O(1)`` per item).

Only annotated pairs are compared -- the per-function AST rules
(:mod:`repro.analysis.hotpath`) cover the unannotated middle of the graph.
"""

from __future__ import annotations

import ast

from ..common.contracts import COST_RANK, COSTS
from .callgraph import CallGraph
from .contracts import declared_cost, is_hot_root
from .framework import Finding, register
from .project import FuncInfo
from .reach import HotSet


def _loop_nodes(func: FuncInfo) -> set[int]:
    """ids of AST nodes lexically inside a loop within ``func``.

    Nested function bodies are excluded: code in a closure runs when the
    closure is *called*, which the call graph models separately.
    """
    inside: set[int] = set()

    def mark(node: ast.AST) -> None:
        inside.add(id(node))
        walk(node, True)

    def walk(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                walk(child, False)
            return
        if isinstance(node, ast.For):
            walk(node.iter, in_loop)  # evaluated once, before the loop
            for stmt in node.body:
                mark(stmt)
            for stmt in node.orelse:
                walk(stmt, in_loop)
            return
        if isinstance(node, ast.While):
            mark(node.test)  # re-evaluated every iteration
            for stmt in node.body:
                mark(stmt)
            for stmt in node.orelse:
                walk(stmt, in_loop)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            walk(node.generators[0].iter, in_loop)
            for index, comp in enumerate(node.generators):
                if index > 0:
                    mark(comp.iter)
                for condition in comp.ifs:
                    mark(condition)
            if isinstance(node, ast.DictComp):
                mark(node.key)
                mark(node.value)
            else:
                mark(node.elt)
            return
        for child in ast.iter_child_nodes(node):
            if in_loop:
                inside.add(id(child))
            walk(child, in_loop)

    walk(func.node, False)
    return inside


@register("hotpath", {
    "cost-undeclared":
        "every @hot_path root declares its per-call @cost bound",
    "cost-exceeds-caller":
        "a function never calls a callee declared costlier than itself "
        "(an O(1) op cannot lean on an O(n) callee)",
    "cost-loop-amplified":
        "inside a loop a callee's declared cost is strictly below the "
        "caller's, so the loop cannot multiply past the declared bound",
}, strict_only={"cost-undeclared"})
def cost_contract(context) -> list[Finding]:
    return check_costs(context.graph, context.hot_set)


def check_costs(graph: CallGraph, hotset: HotSet) -> list[Finding]:
    project = graph.project
    findings: list[Finding] = []

    declared: dict[str, str] = {}
    for fqn in hotset.members:
        func = project.functions.get(fqn)
        if func is None:
            continue
        bound = declared_cost(func)
        if bound is not None:
            if bound not in COST_RANK:
                continue  # the decorator itself rejects this at runtime
            declared[fqn] = bound
        elif is_hot_root(func):
            module = project.modules.get(func.module)
            findings.append(Finding(
                check="cost-undeclared",
                path=module.path if module else func.module,
                line=func.line, col=func.col,
                message=f"@hot_path root {func.name!r} declares no "
                        f"@cost bound (one of {', '.join(COSTS)})",
            ))

    loop_cache: dict[str, set[int]] = {}
    for caller_info, call, callee_info, kind in graph.call_sites:
        caller_bound = declared.get(caller_info.fqn)
        callee_bound = declared.get(callee_info.fqn)
        if caller_bound is None or callee_bound is None:
            continue
        if caller_info.fqn == callee_info.fqn:
            continue  # recursion: the declaration already covers itself
        caller_rank = COST_RANK[caller_bound]
        callee_rank = COST_RANK[callee_bound]
        loops = loop_cache.get(caller_info.fqn)
        if loops is None:
            loops = _loop_nodes(caller_info)
            loop_cache[caller_info.fqn] = loops
        in_loop = id(call) in loops
        module = project.modules.get(caller_info.module)
        path = module.path if module else caller_info.module
        if in_loop and callee_rank >= max(caller_rank, 1):
            findings.append(Finding(
                check="cost-loop-amplified",
                path=path, line=call.lineno, col=call.col_offset,
                message=f"{callee_info.name!r} is declared "
                        f"{callee_bound} but is called in a loop inside "
                        f"{caller_info.name!r} ({caller_bound}): the loop "
                        f"multiplies it past the declared bound",
            ))
        elif not in_loop and callee_rank > caller_rank:
            findings.append(Finding(
                check="cost-exceeds-caller",
                path=path, line=call.lineno, col=call.col_offset,
                message=f"{caller_info.name!r} is declared {caller_bound} "
                        f"but calls {callee_info.name!r} declared "
                        f"{callee_bound}",
            ))
    return findings
