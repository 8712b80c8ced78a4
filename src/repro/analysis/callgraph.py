"""Name-resolved call graph over the project index.

Edges carry a *kind* because this codebase moves control in five
distinct ways and each needs different treatment downstream:

``call`` / ``method``
    Ordinary direct and attribute-resolved calls (including property
    loads, which execute the property body).  Exceptions propagate.
``rpc``
    Fabric dispatch-by-string: ``network.call(src, dst, "kv_get", ...)``
    reaches ``getattr(endpoint, "kv_get")`` on the destination node.
    The builder resolves the string against the registered endpoint
    classes and against dynamically attached handlers
    (``node.gsi_apply = self.indexer.apply``).  Call sites that forward
    a *parameter* as the method name (the smart client's ``_call``)
    are resolved one level up: every caller that passes a string
    literal for that parameter gets the rpc edge.  Exceptions propagate
    (the in-process fabric re-raises at the call site).
``pump`` / ``timer``
    ``scheduler.register(name, fn)`` and ``call_later`` / ``call_at``
    callbacks.  Registration is not invocation: no exception flow along
    the edge, but the target becomes a scheduler entry point.
``partial``
    ``functools.partial(fn, ...)`` -- creation over-approximates as
    reachability (dead-code analysis) but not as invocation
    (exception flow).
``ref``
    A bound-method reference stored or passed without being called.
    Reachability only.

Type inference is deliberately shallow -- parameter and return
annotations, ``self.x = ClassName(...)`` constructor assignments,
class-body annotations, and dict value types -- because that is exactly
the discipline the tree already follows; where the baseline run found
resolution gaps, the fix was to add the missing annotation, which helps
human readers as much as the analyzer.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterable

from .project import (
    ClassInfo,
    FuncInfo,
    ModuleInfo,
    Project,
    last_component,
)


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    kind: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact for debugging reports
        return f"{self.caller} -[{self.kind}]-> {self.callee} @{self.line}"


@dataclass(frozen=True)
class PumpRegistration:
    kind: str           #: "pump" | "timer"
    name: str | None    #: literal registration name, when constant
    target: str         #: FuncInfo fqn of the pump/callback body
    registrar: str      #: function doing the registration
    line: int


#: Inference results: ("instance"|"class"|"func"|"module"|"dictof"|"listof", fqn)
TRef = tuple[str, str]


@dataclass
class CallGraph:
    project: Project
    edges: list[CallEdge] = field(default_factory=list)
    by_caller: dict[str, list[CallEdge]] = field(default_factory=dict)
    #: ast.Call node id -> edge list (for per-site handler filtering).
    site_edges: dict[int, list[CallEdge]] = field(default_factory=dict)
    pumps: list[PumpRegistration] = field(default_factory=list)
    rpc_handlers: dict[str, list[str]] = field(default_factory=dict)
    rpc_names_used: set[str] = field(default_factory=set)
    #: functions forwarding a parameter as the RPC method name.
    forwarders: dict[str, str] = field(default_factory=dict)
    endpoint_classes: set[str] = field(default_factory=set)
    unresolved_calls: int = 0
    #: ast.Call id -> (callee fqn, kind) for option plumbing arg mapping.
    call_sites: list[tuple[FuncInfo, ast.Call, FuncInfo, str]] = \
        field(default_factory=list)

    def out_edges(self, fqn: str) -> list[CallEdge]:
        return self.by_caller.get(fqn, [])

    def closure(self, roots: Iterable[str],
                kinds: frozenset[str] | None = None) -> dict[str, str | None]:
        """Everything reachable from ``roots`` over out-edges (of the
        given ``kinds``; every kind when None), as member -> the caller
        that pulled it in (None for the roots themselves).  Following
        that chain back reaches a root, which is the provenance hot-set
        and bounds-scope findings print."""
        frontier = sorted(roots)
        pulled_in_by: dict[str, str | None] = dict.fromkeys(frontier)
        while frontier:
            caller = frontier.pop()
            for edge in self.out_edges(caller):
                if kinds is not None and edge.kind not in kinds:
                    continue
                callee = edge.callee
                if callee in pulled_in_by \
                        or callee not in self.project.functions:
                    continue
                pulled_in_by[callee] = caller
                frontier.append(callee)
        return pulled_in_by


def build_callgraph(project: Project) -> CallGraph:
    return _Builder(project).build()


class _Builder:
    def __init__(self, project: Project):
        self.project = project
        self.graph = CallGraph(project)
        self._edge_keys: set[tuple] = set()
        #: ast.Call ids belonging to detached (pump/timer) lambdas.
        self._detached: set[int] = set()
        #: (func fqn) -> initial env for nested/lambda processing.
        self._queue: list[tuple[FuncInfo, dict[str, TRef]]] = []
        self._processed: set[str] = set()
        self._dynamic_handlers: dict[str, set[str]] = {}

    # -- top level ----------------------------------------------------------------

    def build(self) -> CallGraph:
        self._infer_class_attrs()
        self._find_endpoints_and_dynamic_handlers()
        for func in list(self.project.functions.values()):
            if ".<locals>." in func.fqn or "<lambda" in func.fqn:
                continue
            self._process(func, self._initial_env(func))
        while self._queue:
            func, env = self._queue.pop()
            self._process(func, env)
        # Anything nested that no enclosing function queued (unreached
        # closures) still contributes edges, with an annotation-only env.
        for func in list(self.project.functions.values()):
            if func.fqn not in self._processed:
                self._process(func, self._initial_env(func))
        self._resolve_forwarded_rpc()
        return self.graph

    def _initial_env(self, func: FuncInfo) -> dict[str, TRef]:
        env: dict[str, TRef] = {}
        if func.cls is not None:
            env["self"] = ("instance", func.cls)
        for param, ann in func.annotations.items():
            tref = self._ann_tref(ann, func.module)
            if tref is not None:
                env[param] = tref
        return env

    def _ann_tref(self, ann: ast.expr | None, module: str) -> TRef | None:
        kind, target = self.project.annotation_type(ann, module)
        if kind == "class":
            return ("instance", target)
        if kind == "dict" and target:
            return ("dictof", target)
        if kind == "list" and target:
            return ("listof", target)
        return None

    # -- class attribute inference ------------------------------------------------

    def _infer_class_attrs(self) -> None:
        """Fill ClassInfo.attr_types from class-body annotations and
        ``self.x = ...`` assignments; iterate so constructor chains
        (``self.router = Router(...)``) settle."""
        for klass in self.project.classes.values():
            for attr, ann in klass.annotations.items():
                kind, target = self.project.annotation_type(ann, klass.module)
                if kind == "class" and target:
                    klass.attr_types[attr] = target
                elif kind == "dict" and target:
                    klass.attr_value_types[attr] = target
        for _round in range(3):
            changed = False
            for klass in self.project.classes.values():
                for method in klass.methods.values():
                    env = self._initial_env(method)
                    for node in ast.walk(method.node):
                        if isinstance(node, ast.Assign) \
                                and len(node.targets) == 1:
                            target, tref = node.targets[0], None
                        elif isinstance(node, ast.AnnAssign):
                            # ``self.x: dict[str, Node] = {}`` declares
                            # the type right at the assignment.
                            target = node.target
                            tref = self._ann_tref(node.annotation,
                                                  method.module)
                        else:
                            continue
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        if tref is None and isinstance(node, ast.Assign):
                            tref = self._infer(node.value, env, method,
                                               emit=False)
                        if tref is None:
                            continue
                        kind, fqn = tref
                        if kind == "instance" \
                                and klass.attr_types.get(target.attr) != fqn:
                            klass.attr_types[target.attr] = fqn
                            changed = True
                        elif kind == "dictof" and \
                                klass.attr_value_types.get(target.attr) != fqn:
                            klass.attr_value_types[target.attr] = fqn
                            changed = True
            if not changed:
                break

    def _find_endpoints_and_dynamic_handlers(self) -> None:
        """Locate fabric endpoint classes (``network.register(name,
        self)``) and dynamically attached RPC handlers
        (``node.gsi_apply = self.indexer.apply``)."""
        for func in self.project.functions.values():
            env = self._initial_env(func)
            for node in ast.walk(func.node):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "register" \
                        and self._receiver_is(node.func.value, env, func,
                                              "network", "Network") \
                        and len(node.args) >= 2:
                    endpoint = node.args[1]
                    if isinstance(endpoint, ast.Name) \
                            and endpoint.id == "self" and func.cls:
                        self.graph.endpoint_classes.add(func.cls)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Attribute):
                    target = node.targets[0]
                    if isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        continue  # plain attribute state, not RPC wiring
                    bound = self._infer(node.value, env, func, emit=False)
                    if bound is not None and bound[0] == "func":
                        self._dynamic_handlers.setdefault(
                            target.attr, set()).add(bound[1])

    # -- receiver classification ---------------------------------------------------

    def _receiver_is(self, base: ast.expr, env: dict[str, TRef],
                     func: FuncInfo, suffix: str, class_name: str) -> bool:
        if last_component(base) == suffix:
            return True
        tref = self._infer(base, env, func, emit=False)
        if tref is not None and tref[0] == "instance":
            return tref[1].rsplit(".", 1)[-1] == class_name
        return False

    # -- function processing -------------------------------------------------------

    def _process(self, func: FuncInfo, env: dict[str, TRef]) -> None:
        if func.fqn in self._processed:
            return
        self._processed.add(func.fqn)
        env = dict(env)
        env.update(self._initial_env(func))
        body = getattr(func.node, "body", [])
        if isinstance(body, ast.expr):  # lambda body
            body = [ast.Expr(value=body)]
        self._walk_block(body, env, func)

    def _walk_block(self, stmts, env: dict[str, TRef],
                    func: FuncInfo) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, env, func)

    def _walk_stmt(self, stmt: ast.stmt, env: dict[str, TRef],
                   func: FuncInfo) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_fqn = f"{func.fqn}.<locals>.{stmt.name}"
            nested = self.project.functions.get(nested_fqn)
            if nested is not None:
                env[stmt.name] = ("func", nested_fqn)
                self._queue.append((nested, dict(env)))
            return
        if isinstance(stmt, ast.ClassDef):
            return
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr):
                self._scan_expr(expr, env, func)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            tref = self._infer(stmt.value, env, func, emit=False)
            if tref is not None:
                env[stmt.targets[0].id] = tref
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            tref = self._ann_tref(stmt.annotation, func.module)
            if tref is not None:
                env[stmt.target.id] = tref
        elif isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
            iterable = self._infer(stmt.iter, env, func, emit=False)
            if iterable is not None and iterable[0] == "listof":
                env[stmt.target.id] = ("instance", iterable[1])
        # Recurse into compound statement bodies with the same env.
        for block_name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, block_name, None)
            if isinstance(block, list):
                self._walk_block(block, env, func)
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk_block(handler.body, env, func)

    def _scan_expr(self, expr: ast.expr, env: dict[str, TRef],
                   func: FuncInfo) -> None:
        for node in ast.walk(expr):
            if id(node) in self._detached:
                continue
            if isinstance(node, ast.Call):
                self._handle_call(node, env, func)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                self._handle_attribute_load(node, env, func)

    # -- edges --------------------------------------------------------------------

    def _add_edge(self, func: FuncInfo, callee: str, kind: str,
                  node: ast.AST, call: ast.Call | None = None) -> None:
        edge = CallEdge(caller=func.fqn, callee=callee, kind=kind,
                        line=getattr(node, "lineno", func.line),
                        col=getattr(node, "col_offset", 0) + 1)
        key = (edge.caller, edge.callee, edge.kind, edge.line, edge.col)
        if key in self._edge_keys:
            return
        self._edge_keys.add(key)
        self.graph.edges.append(edge)
        self.graph.by_caller.setdefault(edge.caller, []).append(edge)
        if call is not None:
            self.graph.site_edges.setdefault(id(call), []).append(edge)

    def _handle_attribute_load(self, node: ast.Attribute,
                               env: dict[str, TRef], func: FuncInfo) -> None:
        """Property loads execute the property body: give them a real
        ``method`` edge so exception flow and reachability see them."""
        base = self._infer(node.value, env, func, emit=False)
        if base is None or base[0] != "instance":
            return
        klass = self.project.classes.get(base[1])
        if klass is None:
            return
        method = self.project.lookup_method(klass, node.attr)
        if method is not None and method.is_property:
            self._add_edge(func, method.fqn, "method", node)
        elif method is not None and not isinstance(
                getattr(node, "parent", None), ast.Call):
            # Bound-method reference (stored/passed, not called here).
            self._add_edge(func, method.fqn, "ref", node)

    def _handle_call(self, call: ast.Call, env: dict[str, TRef],
                     func: FuncInfo) -> None:
        callee = call.func
        if isinstance(callee, ast.Attribute):
            attr = callee.attr
            base = callee.value
            if attr == "register" and len(call.args) >= 2 \
                    and self._receiver_is(base, env, func,
                                          "scheduler", "Scheduler"):
                self._register_callback(call, call.args[1], "pump", env, func)
                return
            if attr in ("call_later", "call_at") and len(call.args) >= 2 \
                    and self._receiver_is(base, env, func,
                                          "scheduler", "Scheduler"):
                self._register_callback(call, call.args[1], "timer", env, func)
                return
            if attr in ("call", "call_fanout") and len(call.args) >= 3 \
                    and self._receiver_is(base, env, func,
                                          "network", "Network"):
                # Both put the method name at args[2]; call_fanout is the
                # parallel-wave variant, one rpc edge covers every dst.
                self._handle_rpc_site(call, env, func)
                return
            if attr == "partial" and last_component(base) == "functools" \
                    and call.args:
                self._handle_partial(call, env, func)
                return
        elif isinstance(callee, ast.Name):
            bound = self.project.modules.get(func.module)
            if callee.id == "partial" and bound is not None \
                    and bound.bindings.get("partial", "").startswith("functools") \
                    and call.args:
                self._handle_partial(call, env, func)
                return
        resolved = self._resolve_call_target(call, env, func)
        if resolved is None:
            if not (isinstance(callee, ast.Name)
                    and hasattr(builtins, callee.id)):
                self.graph.unresolved_calls += 1
            return
        target, kind = resolved
        if isinstance(target, ClassInfo):
            return  # default-constructor call: nothing to traverse
        self._add_edge(func, target.fqn, kind, call, call)
        self.graph.call_sites.append((func, call, target, kind))

    def _resolve_call_target(
            self, call: ast.Call, env: dict[str, TRef],
            func: FuncInfo) -> tuple[FuncInfo | ClassInfo, str] | None:
        callee = call.func
        if isinstance(callee, ast.Name):
            tref = env.get(callee.id)
            if tref is None:
                resolved = self.project.resolve_in_module(func.module,
                                                          callee.id)
                tref = self._entity_tref(resolved)
            return self._callable_target(tref, "call")
        if isinstance(callee, ast.Attribute):
            base = self._infer(callee.value, env, func, emit=False)
            if base is None:
                return None
            kind, fqn = base
            if kind == "module":
                resolved = self.project.resolve(f"{fqn}.{callee.attr}")
                return self._callable_target(self._entity_tref(resolved),
                                             "call")
            if kind == "instance":
                klass = self.project.classes.get(fqn)
                if klass is None:
                    return None
                method = self.project.lookup_method(klass, callee.attr)
                if method is None:
                    return None
                return method, "method"
            if kind == "class":
                klass = self.project.classes.get(fqn)
                if klass is None:
                    return None
                method = self.project.lookup_method(klass, callee.attr)
                if method is None:
                    return None
                return method, "call"
        return None

    def _callable_target(
            self, tref: TRef | None,
            kind: str) -> tuple[FuncInfo | ClassInfo, str] | None:
        if tref is None:
            return None
        if tref[0] == "func":
            target = self.project.functions.get(tref[1])
            return (target, kind) if target is not None else None
        if tref[0] == "class":
            klass = self.project.classes.get(tref[1])
            if klass is None:
                return None
            init = self.project.lookup_method(klass, "__init__")
            if init is not None:
                return (init, "call")
            # Default constructor: no user code runs, but the call is
            # resolved and its result type is the class itself.
            return (klass, "call")
        return None

    def _entity_tref(self, resolved) -> TRef | None:
        if isinstance(resolved, FuncInfo):
            return ("func", resolved.fqn)
        if isinstance(resolved, ClassInfo):
            return ("class", resolved.fqn)
        if isinstance(resolved, ModuleInfo):
            return ("module", resolved.name)
        return None

    # -- special edge kinds --------------------------------------------------------

    def _register_callback(self, call: ast.Call, target_expr: ast.expr,
                           kind: str, env: dict[str, TRef],
                           func: FuncInfo) -> None:
        name = None
        if call.args and isinstance(call.args[0], ast.Constant) \
                and isinstance(call.args[0].value, str):
            name = call.args[0].value
        target = self._resolve_callable_ref(target_expr, env, func)
        if target is None:
            self.graph.unresolved_calls += 1
            return
        self._add_edge(func, target, kind, call)
        self.graph.pumps.append(PumpRegistration(
            kind=kind, name=name, target=target, registrar=func.fqn,
            line=call.lineno,
        ))

    def _resolve_callable_ref(self, expr: ast.expr, env: dict[str, TRef],
                              func: FuncInfo) -> str | None:
        """What function does this callback expression denote?"""
        if isinstance(expr, ast.Lambda):
            return self._synthesize_lambda(expr, env, func)
        if isinstance(expr, ast.Call):
            # partial(fn, ...) or functools.partial(fn, ...)
            last = last_component(expr.func)
            if last == "partial" and expr.args:
                return self._resolve_callable_ref(expr.args[0], env, func)
            return None
        if isinstance(expr, ast.Name):
            tref = env.get(expr.id)
            if tref is None:
                resolved = self.project.resolve_in_module(func.module, expr.id)
                tref = self._entity_tref(resolved)
            if tref is not None and tref[0] == "func":
                return tref[1]
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer(expr.value, env, func, emit=False)
            if base is not None and base[0] == "instance":
                klass = self.project.classes.get(base[1])
                if klass is not None:
                    method = self.project.lookup_method(klass, expr.attr)
                    if method is not None:
                        return method.fqn
            if base is not None and base[0] == "module":
                resolved = self.project.resolve(f"{base[1]}.{expr.attr}")
                if isinstance(resolved, FuncInfo):
                    return resolved.fqn
            # Fallback: a uniquely named method across the project.
            candidates = {
                m.fqn
                for klass in self.project.classes.values()
                for name, m in klass.methods.items()
                if name == expr.attr
            }
            if len(candidates) == 1:
                return candidates.pop()
        return None

    def _synthesize_lambda(self, node: ast.Lambda, env: dict[str, TRef],
                           func: FuncInfo) -> str:
        fqn = f"{func.fqn}.<lambda:{node.lineno}:{node.col_offset}>"
        if fqn not in self.project.functions:
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            info = FuncInfo(
                fqn=fqn, module=func.module, cls=None, name="<lambda>",
                node=node, line=node.lineno, col=node.col_offset + 1,
                params=params, kwonly=[a.arg for a in args.kwonlyargs],
                has_vararg=args.vararg is not None,
                has_kwarg=args.kwarg is not None,
            )
            self.project.functions[fqn] = info
            # Seed the lambda's env from its default expressions
            # (``lambda e=engine: e.flush()``) and the closure.
            lambda_env = dict(env)
            defaults = args.defaults
            if defaults:
                for arg, default in zip(
                        (args.posonlyargs + args.args)[-len(defaults):],
                        defaults):
                    tref = self._infer(default, env, func, emit=False)
                    if tref is not None:
                        lambda_env[arg.arg] = tref
            self._queue.append((info, lambda_env))
        # Detach the lambda body from the enclosing function's edge scan.
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._detached.add(id(child))
        return fqn

    def _handle_rpc_site(self, call: ast.Call, env: dict[str, TRef],
                         func: FuncInfo) -> None:
        method_arg = call.args[2]
        if isinstance(method_arg, ast.Constant) \
                and isinstance(method_arg.value, str):
            self._add_rpc_edges(func, method_arg.value, call)
        elif isinstance(method_arg, ast.Name) \
                and func.accepts(method_arg.id):
            self.graph.forwarders[func.fqn] = method_arg.id
        else:
            self.graph.unresolved_calls += 1

    def _add_rpc_edges(self, func: FuncInfo, name: str,
                       node: ast.AST) -> None:
        self.graph.rpc_names_used.add(name)
        for handler in self._rpc_targets(name):
            self._add_edge(func, handler, "rpc", node,
                           node if isinstance(node, ast.Call) else None)

    def _rpc_targets(self, name: str) -> list[str]:
        cached = self.graph.rpc_handlers.get(name)
        if cached is not None:
            return cached
        targets: set[str] = set(self._dynamic_handlers.get(name, ()))
        classes = [
            self.project.classes[fqn]
            for fqn in self.graph.endpoint_classes
            if fqn in self.project.classes
        ] or list(self.project.classes.values())
        for klass in classes:
            method = klass.methods.get(name)
            if method is not None:
                targets.add(method.fqn)
        resolved = sorted(targets)
        self.graph.rpc_handlers[name] = resolved
        return resolved

    def _handle_partial(self, call: ast.Call, env: dict[str, TRef],
                        func: FuncInfo) -> None:
        target = self._resolve_callable_ref(call.args[0], env, func)
        if target is None:
            self.graph.unresolved_calls += 1
            return
        self._add_edge(func, target, "partial", call)

    def _resolve_forwarded_rpc(self) -> None:
        """Second pass: a call into an rpc-forwarding function that binds
        a string literal to the forwarded parameter dispatches that RPC
        from the *caller's* site."""
        for func, call, target, _kind in list(self.graph.call_sites):
            param = self.graph.forwarders.get(target.fqn)
            if param is None:
                continue
            bound = map_call_args(call, target)
            literal = bound.get(param)
            if isinstance(literal, ast.Constant) \
                    and isinstance(literal.value, str):
                self._add_rpc_edges(func, literal.value, call)

    # -- expression inference ------------------------------------------------------

    def _infer(self, expr: ast.expr, env: dict[str, TRef],
               func: FuncInfo, emit: bool) -> TRef | None:
        if isinstance(expr, ast.Name):
            tref = env.get(expr.id)
            if tref is not None:
                return tref
            return self._entity_tref(
                self.project.resolve_in_module(func.module, expr.id)
            )
        if isinstance(expr, ast.Attribute):
            base = self._infer(expr.value, env, func, emit)
            if base is None:
                return None
            kind, fqn = base
            if kind == "module":
                return self._entity_tref(
                    self.project.resolve(f"{fqn}.{expr.attr}")
                )
            if kind == "instance":
                klass = self.project.classes.get(fqn)
                if klass is None:
                    return None
                method = self.project.lookup_method(klass, expr.attr)
                if method is not None:
                    if method.is_property:
                        return self._ann_tref(method.returns, method.module)
                    return ("func", method.fqn)
                attr_type = self.project.lookup_attr_type(klass, expr.attr)
                if attr_type:
                    return ("instance", attr_type)
                value_type = klass.attr_value_types.get(expr.attr)
                if value_type:
                    return ("dictof", value_type)
                return None
            if kind == "class":
                klass = self.project.classes.get(fqn)
                if klass is None:
                    return None
                method = self.project.lookup_method(klass, expr.attr)
                if method is not None:
                    return ("func", method.fqn)
            return None
        if isinstance(expr, ast.Subscript):
            base = self._infer(expr.value, env, func, emit)
            if base is not None and base[0] in ("dictof", "listof"):
                return ("instance", base[1])
            return None
        if isinstance(expr, ast.Call):
            return self._infer_call_type(expr, env, func)
        if isinstance(expr, ast.Await):
            return self._infer(expr.value, env, func, emit)
        if isinstance(expr, ast.IfExp):
            return (self._infer(expr.body, env, func, emit)
                    or self._infer(expr.orelse, env, func, emit))
        if isinstance(expr, ast.BoolOp) and expr.values:
            return self._infer(expr.values[0], env, func, emit)
        return None

    def _infer_call_type(self, call: ast.Call, env: dict[str, TRef],
                         func: FuncInfo) -> TRef | None:
        callee = call.func
        if isinstance(callee, ast.Attribute):
            base = self._infer(callee.value, env, func, emit=False)
            if base is not None and base[0] == "dictof" \
                    and callee.attr in ("get", "pop", "setdefault"):
                return ("instance", base[1])
        resolved = self._resolve_call_target(call, env, func)
        if resolved is None:
            return None
        target, _kind = resolved
        if isinstance(target, ClassInfo):
            return ("instance", target.fqn)
        if target.name == "__init__" and target.cls is not None:
            return ("instance", target.cls)
        return self._ann_tref(target.returns, target.module)


def map_call_args(call: ast.Call,
                  callee: FuncInfo) -> dict[str, ast.expr]:
    """Map call-site argument expressions onto callee parameter names
    (positional and keyword; ``self`` already stripped from methods)."""
    bound: dict[str, ast.expr] = {}
    params = callee.params
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            bound[params[index]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    return bound


def has_star_kwargs(call: ast.Call) -> bool:
    return any(kw.arg is None for kw in call.keywords)
