"""Exception-flow exhaustiveness over the call graph.

Computes, for every function, the set of ``common.errors`` taxonomy
exceptions that can escape it (direct raises, re-raises of caught or
stored exceptions, and propagation through call / method / rpc edges,
filtered at each call site by the enclosing ``try`` handlers).  Then:

``exception-escape``
    A service entry point (smart client public API, N1QL service,
    fabric RPC handler, pump or timer body) lets a taxonomy exception
    escape without declaring it via ``@declared_raises(...)`` or an
    in-body ``__raises__ = (...)``.  The declaration is the contract a
    caller can program against; an undeclared escape is either a missing
    declaration or a missing handler, and both are bugs worth a look.

``swallowed-exception``
    An ``except <TaxonomyError>`` handler whose body is nothing but
    ``pass`` or ``continue``.  In a database, silently eating a
    ``NodeDownError`` usually means silently returning partial results;
    genuinely best-effort paths carry a
    ``# repro: disable=swallowed-exception`` with a justification.

Propagation deliberately excludes ``pump``/``timer``/``partial``/``ref``
edges: registering a callback does not raise at the registration site --
the callback body is instead analyzed as its own entry point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph
from .framework import Finding, register
from .project import ClassInfo, FuncInfo, Project, last_component

#: Edge kinds along which exceptions propagate to the caller.
PROPAGATING = frozenset({"call", "method", "rpc"})

#: Marker for handlers that catch everything taxonomy-wide
#: (bare ``except``, ``except Exception``, the taxonomy root).
CATCH_ALL = "*"

#: Module suffixes whose public class methods are service entry points.
ENTRY_MODULE_SUFFIXES = {
    "client.smart_client": "client API",
    "n1ql.service": "query service API",
    "admission.controller": "admission API",
}

#: Panics from the simulation harness itself -- livelock detection and
#: scheduler reentrancy guards.  Any code that drives the scheduler can
#: hit them, so requiring them on every declaration would drown the
#: contract in noise; they are unchecked, like RuntimeError (which both
#: subclass).
UNCHECKED = frozenset({"LivelockError", "SchedulerReentrancyError"})


@dataclass(frozen=True)
class Handler:
    """One ``except`` clause as seen by a protected site."""

    caught: frozenset[str]   #: taxonomy names (subtree-expanded) or CATCH_ALL
    reraises: bool           #: bare ``raise`` / ``raise <bound name>`` inside

    def absorbs(self, exc: str) -> bool:
        if self.reraises:
            return False
        return CATCH_ALL in self.caught or exc in self.caught


class Taxonomy:
    """The ``ReproError`` class tree: membership and subtree expansion."""

    def __init__(self, project: Project, root: str = "ReproError"):
        self.project = project
        self.root = root
        self.children: dict[str, set[str]] = {}
        members = {root}
        by_name: dict[str, ClassInfo] = {}
        for klass in project.classes.values():
            by_name.setdefault(klass.name, klass)
        grew = True
        while grew:
            grew = False
            for klass in project.classes.values():
                if klass.name in members:
                    continue
                for base in klass.bases:
                    if base.rsplit(".", 1)[-1] in members:
                        members.add(klass.name)
                        self.children.setdefault(
                            base.rsplit(".", 1)[-1], set()
                        ).add(klass.name)
                        grew = True
                        break
        self.members = members

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def subtree(self, name: str) -> frozenset[str]:
        out = {name}
        frontier = [name]
        while frontier:
            for child in self.children.get(frontier.pop(), ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        return frozenset(out)


def _exc_names_from_expr(expr: ast.expr, func: FuncInfo, project: Project,
                         taxonomy: Taxonomy) -> frozenset[str]:
    """Resolve an ``except <expr>`` type expression to caught taxonomy
    names.  Broad catches collapse to CATCH_ALL; non-taxonomy types
    (``ValueError``) catch nothing we track."""
    if isinstance(expr, ast.Tuple):
        caught: set[str] = set()
        for element in expr.elts:
            caught |= _exc_names_from_expr(element, func, project, taxonomy)
        return frozenset(caught)
    name = last_component(expr)
    if name is None:
        return frozenset()
    if name in ("Exception", "BaseException", taxonomy.root):
        return frozenset({CATCH_ALL})
    if name in taxonomy:
        return taxonomy.subtree(name)
    # ``except self._RETRYABLE`` / module-level alias tuples.
    alias_names: tuple[str, ...] | None = None
    if isinstance(expr, ast.Attribute) and func.cls is not None \
            and isinstance(expr.value, ast.Name) \
            and expr.value.id in ("self", "cls"):
        klass = project.classes.get(func.cls)
        seen: set[str] = set()
        while klass is not None and klass.fqn not in seen:
            seen.add(klass.fqn)
            if expr.attr in klass.exc_aliases:
                alias_names = klass.exc_aliases[expr.attr]
                break
            parent = None
            for base in klass.bases:
                resolved = project.resolve_in_module(klass.module, base)
                if isinstance(resolved, ClassInfo):
                    parent = resolved
                    break
            klass = parent
    elif isinstance(expr, ast.Name):
        module = project.modules.get(func.module)
        if module is not None and expr.id in module.exc_aliases:
            alias_names = module.exc_aliases[expr.id]
    if alias_names:
        caught = set()
        for alias in alias_names:
            if alias in ("Exception", "BaseException", taxonomy.root):
                return frozenset({CATCH_ALL})
            if alias in taxonomy:
                caught |= taxonomy.subtree(alias)
        return frozenset(caught)
    return frozenset()


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if isinstance(node.exc, ast.Name) and handler.name is not None \
                    and node.exc.id == handler.name:
                return True
    return False


class _SiteScanner:
    """Per-function walk assigning each Call/Raise node its protection
    stack and collecting raise sites and swallowed-handler findings."""

    def __init__(self, func: FuncInfo, project: Project, taxonomy: Taxonomy):
        self.func = func
        self.project = project
        self.taxonomy = taxonomy
        #: node id -> tuple[Handler, ...] (innermost first)
        self.protection: dict[int, tuple[Handler, ...]] = {}
        #: (exceptions, line) escaping at each raise site, pre-filtered.
        self.raises: list[tuple[frozenset[str], int]] = []
        self.swallows: list[tuple[frozenset[str], int, int]] = []
        self._var_sets: dict[str, set[str]] = {}

    def scan(self) -> None:
        self._collect_var_sets()
        body = getattr(self.func.node, "body", [])
        if isinstance(body, ast.expr):
            body = [ast.Expr(value=body)]
        self._block(body, ())

    def _collect_var_sets(self) -> None:
        """``last_error = NodeDownError(...)`` / ``except T as e`` binding
        analysis so ``raise last_error`` resolves.  Two passes settle
        ``a = b`` chains."""
        node = self.func.node
        for _pass in range(2):
            for child in ast.walk(node):
                if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                        and isinstance(child.targets[0], ast.Name):
                    target = child.targets[0].id
                    value = child.value
                    if isinstance(value, ast.Call):
                        name = last_component(value.func)
                        if name is not None and name in self.taxonomy:
                            self._var_sets.setdefault(target, set()).add(name)
                    elif isinstance(value, ast.Name) \
                            and value.id in self._var_sets:
                        self._var_sets.setdefault(target, set()).update(
                            self._var_sets[value.id])
                elif isinstance(child, ast.ExceptHandler) \
                        and child.name is not None and child.type is not None:
                    caught = _exc_names_from_expr(
                        child.type, self.func, self.project, self.taxonomy)
                    self._var_sets.setdefault(child.name, set()).update(
                        caught - {CATCH_ALL})

    def _block(self, stmts, stack: tuple[Handler, ...],
               caught_here: frozenset[str] = frozenset()) -> None:
        for stmt in stmts:
            self._stmt(stmt, stack, caught_here)

    def _stmt(self, stmt: ast.stmt, stack: tuple[Handler, ...],
              caught_here: frozenset[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are their own functions
        # Record protection for every expression hanging directly off
        # this statement (child blocks recurse with their own stacks).
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                for node in ast.walk(child):
                    if isinstance(node, ast.Call):
                        self.protection[id(node)] = stack
        if isinstance(stmt, ast.Raise):
            self._raise_site(stmt, stack, caught_here)
            return
        if isinstance(stmt, ast.Try):
            handlers = []
            for handler in stmt.handlers:
                caught = (frozenset({CATCH_ALL}) if handler.type is None
                          else _exc_names_from_expr(
                              handler.type, self.func, self.project,
                              self.taxonomy))
                handlers.append(Handler(caught=caught,
                                        reraises=_handler_reraises(handler)))
                self._check_swallow(handler, caught)
            self._block(stmt.body, tuple(handlers) + stack, caught_here)
            for handler, spec in zip(stmt.handlers, handlers):
                # Exceptions raised inside a handler see only the
                # *outer* protection; a bare ``raise`` re-raises what
                # this clause caught.
                self._block(handler.body, stack,
                            spec.caught - {CATCH_ALL})
            self._block(stmt.orelse, stack, caught_here)
            self._block(stmt.finalbody, stack, caught_here)
            return
        for block_name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, block_name, None)
            if isinstance(block, list):
                self._block(block, stack, caught_here)
        for handler in getattr(stmt, "handlers", []) or []:
            self._block(handler.body, stack, caught_here)

    def _check_swallow(self, handler: ast.ExceptHandler,
                       caught: frozenset[str]) -> None:
        if not caught or caught == frozenset({CATCH_ALL}):
            relevant = bool(caught)
        else:
            relevant = True
        if not relevant:
            return
        if all(isinstance(s, (ast.Pass, ast.Continue)) for s in handler.body):
            self.swallows.append(
                (caught, handler.lineno, handler.col_offset + 1))

    def _raise_site(self, stmt: ast.Raise, stack: tuple[Handler, ...],
                    caught_here: frozenset[str]) -> None:
        raised: set[str] = set()
        if stmt.exc is None:
            raised |= caught_here  # bare re-raise inside a handler
        elif isinstance(stmt.exc, ast.Call):
            name = last_component(stmt.exc.func)
            if name is not None and name in self.taxonomy:
                raised.add(name)
        elif isinstance(stmt.exc, ast.Name):
            raised |= self._var_sets.get(stmt.exc.id, set())
        escaping = frozenset(
            exc for exc in raised
            if not any(h.absorbs(exc) for h in stack)
        )
        if escaping:
            self.raises.append((escaping, stmt.lineno))


@dataclass
class ExcFlowResult:
    #: function fqn -> taxonomy exceptions that can escape it
    escapes: dict[str, frozenset[str]]
    #: (fqn, exc) -> ("raise", line) | ("via", callee_fqn, line)
    evidence: dict[tuple[str, str], tuple]
    findings: list[Finding]
    entry_points: dict[str, str]   #: fqn -> reason
    #: entry-point fqn -> the escaping exceptions it fails to declare
    #: (what ``--report raises`` turns into @declared_raises lines).
    undeclared: dict[str, list[str]]


@register("flow", {
    "exception-escape":
        "every taxonomy exception that can escape a service entry point "
        "(client API, query service, RPC handler, pump, timer) is "
        "declared with @declared_raises",
    "swallowed-exception":
        "no handler eats a taxonomy exception with a bare pass/continue",
}, strict_only={"exception-escape"})
def exception_flow(context) -> list[Finding]:
    return context.exception_flow.findings


def analyze_exceptions(graph: CallGraph) -> ExcFlowResult:
    project = graph.project
    taxonomy = Taxonomy(project)
    scanners: dict[str, _SiteScanner] = {}
    escapes: dict[str, set[str]] = {}
    evidence: dict[tuple[str, str], tuple] = {}
    findings: list[Finding] = []

    for fqn, func in project.functions.items():
        scanner = _SiteScanner(func, project, taxonomy)
        scanner.scan()
        scanners[fqn] = scanner
        local = escapes.setdefault(fqn, set())
        for raised, line in scanner.raises:
            for exc in raised:
                if exc not in local:
                    local.add(exc)
                    evidence[(fqn, exc)] = ("raise", line)
        module = project.modules.get(func.module)
        for caught, line, col in scanner.swallows:
            names = sorted(caught - {CATCH_ALL}) or ["Exception"]
            finding = Finding(
                check="swallowed-exception",
                path=str(module.path) if module else func.module,
                line=line, col=col,
                message=(
                    f"handler swallows {', '.join(names)} with a bare "
                    f"pass/continue; handle it, re-raise, or justify with a "
                    f"suppression"
                ),
            )
            findings.append(finding)

    # Precompute the protection stack guarding each edge's call site so
    # the fixpoint below is a dict hit, not a scan.
    edge_stacks: dict[tuple, tuple[Handler, ...]] = {}
    for call_id, site_edges in graph.site_edges.items():
        for edge in site_edges:
            scanner = scanners.get(edge.caller)
            if scanner is not None:
                edge_stacks[_edge_key(edge)] = scanner.protection.get(
                    call_id, ())

    # Propagation fixpoint: a callee's escapes flow to the caller unless
    # absorbed by the handlers enclosing that specific call site.
    changed = True
    while changed:
        changed = False
        for caller, edges in graph.by_caller.items():
            if caller not in scanners:
                continue
            local = escapes.setdefault(caller, set())
            for edge in edges:
                if edge.kind not in PROPAGATING:
                    continue
                stack = edge_stacks.get(_edge_key(edge), ())
                for exc in tuple(escapes.get(edge.callee, ())):
                    if exc in local:
                        continue
                    if any(h.absorbs(exc) for h in stack):
                        continue
                    local.add(exc)
                    evidence[(caller, exc)] = ("via", edge.callee, edge.line)
                    changed = True

    entry_points = _entry_points(graph)
    frozen = {fqn: frozenset(excs) for fqn, excs in escapes.items()}
    undeclared = _undeclared_escapes(project, taxonomy, frozen, entry_points)
    findings.extend(
        _escape_findings(project, evidence, entry_points, undeclared))
    return ExcFlowResult(escapes=frozen, evidence=evidence,
                         findings=findings, entry_points=entry_points,
                         undeclared=undeclared)


def _edge_key(edge) -> tuple:
    return (edge.caller, edge.callee, edge.kind, edge.line, edge.col)


def _entry_points(graph: CallGraph) -> dict[str, str]:
    project = graph.project
    entries: dict[str, str] = {}
    for module_suffix, reason in ENTRY_MODULE_SUFFIXES.items():
        for klass in project.classes.values():
            if not klass.module.endswith(module_suffix):
                continue
            for method in klass.methods.values():
                if method.is_public and not method.is_dunder:
                    entries.setdefault(method.fqn, reason)
    for handlers in graph.rpc_handlers.values():
        for handler in handlers:
            entries.setdefault(handler, "rpc handler")
    for registration in graph.pumps:
        entries.setdefault(registration.target, registration.kind)
    return entries


def _undeclared_escapes(project: Project, taxonomy: Taxonomy,
                        escapes: dict[str, frozenset[str]],
                        entry_points: dict[str, str]) -> dict[str, list[str]]:
    undeclared: dict[str, list[str]] = {}
    for fqn in sorted(entry_points):
        func = project.functions.get(fqn)
        if func is None:
            continue
        declared: set[str] = set()
        for name in func.raises_decl or ():
            declared |= taxonomy.subtree(name) if name in taxonomy else {name}
        missing = sorted(
            escapes.get(fqn, frozenset()) - declared - UNCHECKED
        )
        if missing:
            undeclared[fqn] = missing
    return undeclared


def _escape_findings(project: Project,
                     evidence: dict[tuple[str, str], tuple],
                     entry_points: dict[str, str],
                     undeclared: dict[str, list[str]]) -> list[Finding]:
    findings = []
    for fqn, missing in undeclared.items():
        func = project.functions[fqn]
        module = project.modules.get(func.module)
        path = str(module.path) if module else func.module
        reason = entry_points[fqn]
        for exc in missing:
            findings.append(Finding(
                check="exception-escape",
                path=path, line=func.line, col=func.col,
                message=(
                    f"{_display(fqn)} ({reason}) can raise {exc} "
                    f"({_trace(project, evidence, fqn, exc)}) but does not "
                    f"declare it; add @declared_raises({exc!r}, ...) or "
                    f"handle it"
                ),
            ))
    return findings


def _display(fqn: str) -> str:
    parts = fqn.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else fqn


def _trace(project: Project, evidence: dict[tuple[str, str], tuple],
           fqn: str, exc: str, limit: int = 6) -> str:
    hops = []
    current = fqn
    for _ in range(limit):
        record = evidence.get((current, exc))
        if record is None:
            break
        if record[0] == "raise":
            hops.append(f"raised at line {record[1]}")
            break
        _via, callee, _line = record
        hops.append(f"via {_display(callee)}")
        current = callee
    return " ".join(hops) if hops else "propagated"
