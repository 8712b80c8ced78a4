"""The bounds family: everything the running system *accumulates* is
bounded and everything it *acquires* is released.

Container rules (**unbounded-buffer**, **cache-without-eviction**) run
off the :class:`~repro.analysis.containers.Inventory`; the lifecycle
rules (**retry-without-backoff**, **leak-on-error**) are per-function
AST scans in the style of :mod:`repro.analysis.hotpath`;
**charge-balance** lives in :mod:`repro.analysis.charges`.  Everything
is scoped to the bounds scope (:func:`repro.analysis.reach.
derive_bounds_scope`): growth in setup code is a one-shot, growth on a
pump/RPC path is a leak.

Containers with a *mechanism* rather than a comment should prefer
``@bounded`` / ``__bounds__`` declarations
(:mod:`repro.common.contracts`) over a suppression: they document the
mechanism at the definition instead of silencing one line.
"""

from __future__ import annotations

import ast

from .containers import Inventory
from .contracts import declared_bound
from .framework import Finding, register
from .project import ClassInfo, FuncInfo, Project, last_component
from .reach import HotSet

#: The retryable-failure class the backoff rule keys on, plus anything
#: that resolves to a subclass of it.
TMPFAIL = "TemporaryFailureError"

#: Calls that relieve pressure between retries.  ``run_until_idle`` is
#: deliberately NOT here: quiescing the scheduler per retry was the
#: PR 6 spin bug this rule generalizes.
RELIEF_CALLS = frozenset({"backoff", "delay", "sleep", "sleep_until"})

#: RPC send surfaces a retry loop re-issues work through.
RPC_ATTRS = frozenset({"call", "call_fanout"})
RPC_RECEIVERS = frozenset({"network", "fabric"})
RPC_WRAPPERS = frozenset(
    {"_call", "_multi_call", "_routed_call", "_routed_multi_call"})

#: Primitives whose return value is a slot/permit that must be released.
ACQUIRE_ATTRS = frozenset(
    {"acquire", "admit_query", "fabric_filter", "try_enter"})
RELEASE_ATTRS = frozenset({"release", "exit", "close"})


def _finding(check: str, path: str, node: ast.AST, message: str,
             func: FuncInfo) -> Finding:
    return Finding(
        check=check, path=path,
        line=getattr(node, "lineno", func.line),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


# -- container rules ---------------------------------------------------------------


@register("bounds", {
    "unbounded-buffer":
        "every container that grows on a pump/RPC/hot path has a maxlen, "
        "a drain site, a len() cap or an @bounded declaration",
    "cache-without-eviction":
        "every dict filled as a cache on a pump/RPC/hot path has an "
        "eviction policy or an @bounded justification",
}, strict_only={"cache-without-eviction"})
def container_bounds(context) -> list[Finding]:
    return check_buffers(context.project, context.containers,
                         context.bounds_scope)


def check_buffers(project: Project, inventory: Inventory,
                  scope: HotSet) -> list[Finding]:
    """unbounded-buffer and cache-without-eviction over the inventory.

    One finding per container per check, anchored at its first in-scope
    growth site: the fix is to bound the *container*, not one call."""
    findings: list[Finding] = []
    for key in sorted(inventory.containers):
        info = inventory.containers[key]
        if info.bounded:
            continue
        for check, sites in (("unbounded-buffer", info.growth),
                             ("cache-without-eviction", info.memo_sites)):
            live = []
            for site in sites:
                func = project.functions.get(site.func)
                if func is None or site.func not in scope.members:
                    continue
                if declared_bound(func) is not None:
                    continue
                live.append((site, func))
            if not live:
                continue
            live.sort(key=lambda pair: (pair[0].line, pair[0].col))
            site, func = live[0]
            module = project.modules.get(func.module)
            if module is None:
                continue
            if check == "unbounded-buffer":
                message = (
                    f"{info.describe()} grows here ({site.how}; "
                    f"{scope.why(site.func)}) but nothing bounds it: no "
                    f"maxlen, no drain/eviction site, no len() cap, no "
                    f"@bounded declaration"
                )
            else:
                message = (
                    f"{info.describe()} is filled as a cache here "
                    f"({scope.why(site.func)}) but never evicts: add "
                    f"LRU/epoch invalidation or an @bounded justification"
                )
            findings.append(Finding(check, module.path, site.line, site.col,
                                    message))
    return findings


# -- retry-without-backoff ---------------------------------------------------------


def _is_tmpfail_class(name: str, func: FuncInfo, project: Project,
                      _depth: int = 0) -> bool:
    if name == TMPFAIL:
        return True
    if _depth > 4:
        return False
    resolved = project.resolve_in_module(func.module, name)
    if isinstance(resolved, ClassInfo):
        return any(_is_tmpfail_class(base.rsplit(".", 1)[-1],
                                     func, project, _depth + 1)
                   for base in resolved.bases)
    return False


def _catches_tmpfail(handler: ast.ExceptHandler, func: FuncInfo,
                     project: Project) -> bool:
    node = handler.type
    if node is None:
        return True     # bare except retries everything, TMPFAIL included
    names: list[str] = []
    if isinstance(node, ast.Tuple):
        names = [n for n in map(last_component, node.elts) if n]
    else:
        last = last_component(node)
        if last:
            names = [last]
    expanded: list[str] = []
    module = project.modules.get(func.module)
    klass = project.classes.get(func.cls) if func.cls else None
    for name in names:
        alias = (klass.exc_aliases.get(name) if klass else None) \
            or (module.exc_aliases.get(name) if module else None)
        expanded.extend(alias if alias else (name,))
    return any(_is_tmpfail_class(name, func, project) for name in expanded)


def _handler_retries(handler: ast.ExceptHandler) -> bool:
    """Does control return to the loop after this handler?  A handler
    that re-raises or leaves the loop is not a retry."""
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Return, ast.Break)):
            return False
    return True


def _loop_reissues_rpc(loop: ast.AST) -> bool:
    for node in ast.walk(loop):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr in RPC_WRAPPERS:
            return True
        if attr in RPC_ATTRS and last_component(node.func.value) in RPC_RECEIVERS:
            return True
    return False


def _loop_has_relief(loop: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and last_component(node.func) in RELIEF_CALLS
        for node in ast.walk(loop)
    )


def check_retry(func: FuncInfo, path: str,
                project: Project) -> list[Finding]:
    """Flag TMPFAIL retry loops with no relief on the retry path.

    Loops are visited outermost-first: a relief call anywhere in a loop
    covers everything nested inside it (a per-node fan-out loop inside a
    backed-off retry round is fine), and a loop already flagged is not
    re-flagged through its children."""
    findings: list[Finding] = []

    def flag(loop: ast.AST) -> None:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _catches_tmpfail(handler, func, project) \
                        and _handler_retries(handler):
                    findings.append(_finding(
                        "retry-without-backoff", path, handler,
                        f"{func.name} retries the RPC after "
                        f"{TMPFAIL} with no backoff/delay call in the "
                        f"loop: under sustained overload this spins at "
                        f"full speed against a node that asked for "
                        f"relief", func,
                    ))

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.While)):
                if _loop_has_relief(child):
                    continue    # relief covers this loop and everything nested
                if _loop_reissues_rpc(child):
                    flag(child)
                    continue    # one finding per retry structure
            visit(child)

    visit(func.node)
    return findings


# -- leak-on-error -----------------------------------------------------------------


def _acquire_call(expr: ast.expr) -> ast.Call | None:
    """The acquire call in ``expr``, looking through the
    ``x.acquire(...) if x is not None else None`` conditional idiom."""
    if isinstance(expr, ast.IfExp):
        return _acquire_call(expr.body) or _acquire_call(expr.orelse)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in ACQUIRE_ATTRS:
        return expr
    return None


def _in_finally(target: ast.AST, func_node: ast.AST) -> bool:
    """Is ``target`` lexically inside some ``finally`` block?"""
    def visit(node: ast.AST, inside: bool) -> bool:
        if node is target:
            return inside
        if isinstance(node, ast.Try):
            for child in node.body + node.orelse:
                if visit(child, inside):
                    return True
            for handler in node.handlers:
                if visit(handler, inside):
                    return True
            for child in node.finalbody:
                if visit(child, True):
                    return True
            return False
        return any(visit(child, inside)
                   for child in ast.iter_child_nodes(node))
    return visit(func_node, False)


def check_leaks(func: FuncInfo, path: str) -> list[Finding]:
    findings: list[Finding] = []
    node = func.node
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return findings
    for stmt in ast.walk(node):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        acquire = _acquire_call(stmt.value)
        if acquire is None:
            continue
        name = stmt.targets[0].id
        primitive = acquire.func.attr
        handed_off = False
        releases: list[ast.AST] = []
        for use in ast.walk(node):
            if isinstance(use, ast.Return) and use.value is not None \
                    and any(isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(use.value)):
                handed_off = True
            elif isinstance(use, ast.Call):
                if isinstance(use.func, ast.Name) and use.func.id == name:
                    releases.append(use)
                elif isinstance(use.func, ast.Attribute) \
                        and use.func.attr in RELEASE_ATTRS \
                        and isinstance(use.func.value, ast.Name) \
                        and use.func.value.id == name:
                    releases.append(use)
                elif use is not acquire and any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in use.args):
                    handed_off = True   # passed along: callee owns it now
        if handed_off:
            continue
        if not releases:
            findings.append(_finding(
                "leak-on-error", path, stmt,
                f"{func.name} acquires via {primitive}() but never "
                f"releases {name!r}: the slot leaks on every call", func,
            ))
        elif not any(_in_finally(release, node) for release in releases):
            findings.append(_finding(
                "leak-on-error", path, stmt,
                f"{func.name} releases {name!r} only on the success "
                f"path: an exception between {primitive}() and the "
                f"release leaks the slot -- release in a finally block",
                func,
            ))
    return findings


@register("bounds", {
    "retry-without-backoff":
        "a loop that re-issues RPCs after TemporaryFailureError calls "
        "backoff/delay/sleep before retrying",
    "leak-on-error":
        "an acquired slot/permit is released in a finally block (or "
        "handed off), never only on the success path",
})
def lifecycle(context) -> list[Finding]:
    """The per-function lifecycle rules over every scope member."""
    project = context.project
    findings: list[Finding] = []
    for fqn in sorted(context.bounds_scope.members):
        func = project.functions.get(fqn)
        if func is None:
            continue
        module = project.modules.get(func.module)
        if module is None:
            continue
        findings.extend(check_retry(func, module.path, project))
        findings.extend(check_leaks(func, module.path))
    return findings
