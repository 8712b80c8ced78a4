"""Option plumbing: tracked query/durability options must survive the
trip from the client API to the engine sink.

The tracked set is the options the paper's consistency story hangs on:
``replicate_to`` / ``persist_to`` (durability requirements) and
``scan_consistency`` / ``consistent_with`` / ``stale`` (index staleness
control).  Two ways to lose one:

``option-dropped``
    The caller takes a tracked option and calls a function that would
    accept it, but doesn't pass it on -- the option silently reverts to
    the callee's default.  Forwarding through ``*args`` / ``**kwargs``
    splats counts as passing.

``option-domain``
    Code that dispatches on a tracked option's string value must handle
    the values that change behavior: a function distinguishing
    ``request_plus`` but never mentioning ``at_plus`` silently degrades
    the stronger mode, and a literal outside the option's domain is a
    typo that would never match.
"""

from __future__ import annotations

import ast

from .callgraph import CallGraph, has_star_kwargs, map_call_args
from .framework import Finding, register
from .project import FuncInfo

TRACKED = frozenset({
    "replicate_to", "persist_to",
    "scan_consistency", "consistent_with", "stale",
})

#: Full value domains for string-valued tracked options.
DOMAINS = {
    "scan_consistency": frozenset({"not_bounded", "request_plus", "at_plus"}),
    "stale": frozenset({"ok", "false", "update_after"}),
}

#: Values that, once a function starts distinguishing among them, must
#: all be handled: degrading ``at_plus`` to the ``request_plus`` path
#: (or ``stale="false"`` to ``"ok"``) changes observable consistency.
MUST_HANDLE = {
    "scan_consistency": frozenset({"request_plus", "at_plus"}),
    "stale": frozenset({"false"}),
}


@register("flow", {
    "option-dropped":
        "a tracked durability/consistency option a caller takes is "
        "passed on to every callee that accepts it",
    "option-domain":
        "code dispatching on scan_consistency / stale handles every "
        "value that changes behaviour, and only values in the domain",
})
def option_plumbing(context) -> list[Finding]:
    return analyze_options(context.graph)


def analyze_options(graph: CallGraph) -> list[Finding]:
    findings: list[Finding] = []
    project = graph.project
    for func, call, callee, _kind in graph.call_sites:
        module = project.modules.get(func.module)
        path = str(module.path) if module else func.module
        findings.extend(_check_site(func, call, callee, path))
    for func in project.functions.values():
        module = project.modules.get(func.module)
        path = str(module.path) if module else func.module
        findings.extend(_check_domains(func, path))
    return findings


def _check_site(func: FuncInfo, call: ast.Call, callee: FuncInfo,
                path: str) -> list[Finding]:
    if has_star_kwargs(call) or (
            callee.has_vararg and any(isinstance(a, ast.Starred)
                                      for a in call.args)):
        return []   # forwarding through a splat counts as passing
    bound = map_call_args(call, callee)
    return [
        Finding(
            check="option-dropped", path=path,
            line=call.lineno, col=call.col_offset + 1,
            message=(
                f"call to {_display(callee.fqn)} drops {option!r}: the "
                f"caller takes it and the callee accepts it, but it is not "
                f"passed on (silently falls back to the callee default)"
            ),
        )
        for option in (*func.params, *func.kwonly)
        if option in TRACKED and option not in bound
        and callee.accepts(option)
    ]


def _check_domains(func: FuncInfo, path: str) -> list[Finding]:
    findings = []
    mentioned: dict[str, set[str]] = {}
    first_line: dict[str, int] = {}
    node = func.node
    for child in ast.walk(node):
        if not isinstance(child, ast.Compare):
            continue
        option = _compared_option(child.left)
        operands = list(child.comparators)
        if option is None and len(operands) == 1:
            option = _compared_option(operands[0])
            operands = [child.left]
        if option is None:
            continue
        if not all(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                   for op in child.ops):
            continue
        for operand in operands:
            for literal in _string_literals(operand):
                mentioned.setdefault(option, set()).add(literal)
                first_line.setdefault(option, child.lineno)
    for option, literals in mentioned.items():
        domain = DOMAINS[option]
        unknown = sorted(literals - domain)
        line = first_line[option]
        if unknown:
            findings.append(Finding(
                check="option-domain", path=path, line=line, col=1,
                message=(
                    f"{_display(func.fqn)} compares {option!r} against "
                    f"{', '.join(repr(u) for u in unknown)}, outside its "
                    f"domain {sorted(domain)}"
                ),
            ))
        must = MUST_HANDLE[option]
        handled = literals & domain
        if handled & must and not must <= handled \
                and not (domain - must) <= handled:
            missing = sorted(must - handled)
            findings.append(Finding(
                check="option-domain", path=path, line=line, col=1,
                message=(
                    f"{_display(func.fqn)} distinguishes {option!r} values "
                    f"{sorted(handled)} but never handles "
                    f"{', '.join(repr(m) for m in missing)}; the stronger "
                    f"consistency mode silently degrades"
                ),
            ))
    return findings


def _compared_option(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name) and expr.id in DOMAINS:
        return expr.id
    if isinstance(expr, ast.Attribute) and expr.attr in DOMAINS:
        return expr.attr
    return None


def _string_literals(expr: ast.expr) -> list[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for element in expr.elts:
            out.extend(_string_literals(element))
        return out
    return []


def _display(fqn: str) -> str:
    parts = fqn.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else fqn
