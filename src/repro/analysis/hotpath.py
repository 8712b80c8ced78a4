"""The hotpath family's per-function AST cost rules, run only inside
the hot set so cold setup code stays free to be simple.

Each rule recognizes one *shape* of accidental per-call blowup that has
actually bitten this tree (the O(n^2) item pager, the compaction-pump
crawl, per-row expression interpretation):

``quadratic-membership``
    ``x in seen`` / ``seen.index(x)`` / ``seen.count(x)`` inside a loop,
    where ``seen`` is a list built in this function.  Each test scans
    the list, so the loop is quadratic -- use a set/dict.
``list-shift``
    ``items.pop(0)`` / ``items.insert(0, ...)`` anywhere in a hot
    function: both shift every element, O(len) per call -- use
    ``collections.deque``.
``sort-in-loop``
    ``sorted(...)`` or ``.sort()`` inside a loop: O(k log k) per
    iteration; sort once outside, or keep a heap.
``str-concat-in-loop``
    ``acc += ...`` on a string initialized in this function, or the
    ``acc = acc + ...`` self-rebuild, inside a loop: each step copies
    the whole accumulator -- collect parts and join/extend once.
``copy-in-loop``
    ``deepcopy(x)`` / ``deep_copy(x)`` / ``x.copy()`` / ``list(x)`` /
    ``dict(x)`` inside a loop where ``x`` is loop-invariant: the same
    value is re-copied every iteration -- hoist the copy (or stop
    copying).
``invariant-in-loop``
    A known-expensive call (``compile_expr``, ``compile_sort_key``,
    ``parse``, catalog/planner lookups) whose arguments are all
    loop-invariant, inside a loop: per-row compilation of a per-batch
    fact -- hoist it ("compile once per batch, not per row").
``n-plus-one-rpc``
    A single-key client op (``client.get`` and friends, ``self._call``)
    inside a loop over keys: one RPC per key where a batched
    ``multi_*`` / ``call_fanout`` path exists.  A wrapper does not hide
    it: a call in the loop whose callee reaches such an op over the
    call graph (without passing through a batched ``multi_*`` /
    ``*batch*`` / ``*fanout*`` function) counts, and the finding prints
    the chain.
``byte-loop``
    ``for byte in data`` (statement or comprehension) where ``data`` is
    a parameter annotated ``bytes`` / ``bytearray`` / ``memoryview``: a
    Python-level iteration per byte -- the table-driven CRC-32 that was
    59 % of the write path.  Use the C routine (``zlib``, ``struct``,
    ``bytes`` methods).

Rules are heuristic by design; a justified exception carries a
``# repro: disable=<check>`` suppression at the site.  Every finding
carries the hot-set provenance of its function ("hot: @hot_path root
KVEngine.get via ...").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph
from .framework import Finding, register
from .project import FuncInfo, ModuleInfo, last_component

#: Calls that are expensive enough that doing them per row with
#: loop-invariant arguments is always a hoisting miss.
EXPENSIVE_CALLS = frozenset({
    "compile_expr", "compile_sort_key", "parse", "plan_select",
    "compile", "loads", "dumps",
})

#: Receiver name segments that mark catalog/metadata lookups.
CATALOG_RECEIVERS = frozenset({"catalog", "planner"})

#: Single-key ops on a client-like receiver that have batched variants.
SINGLE_KEY_OPS = frozenset({
    "get", "upsert", "insert", "replace", "remove", "delete", "touch",
    "counter", "observe",
})

#: Receiver name segments treated as RPC-issuing clients.
CLIENT_RECEIVERS = frozenset({"client", "network"})

RULES = {
    "quadratic-membership":
        "no membership test / index() / count() on a list inside a hot "
        "loop; use a set or dict",
    "list-shift":
        "no pop(0) / insert(0, ...) in hot code; use collections.deque",
    "sort-in-loop":
        "a loop-invariant value is sorted once, outside the hot loop",
    "str-concat-in-loop":
        "hot loops collect parts and join once instead of rebuilding "
        "an accumulator each step",
    "copy-in-loop":
        "a loop-invariant value is copied once, outside the hot loop",
    "invariant-in-loop":
        "expensive calls with loop-invariant arguments (compile, parse, "
        "catalog lookups) are hoisted: compile once per batch, not per "
        "row",
    "n-plus-one-rpc":
        "a hot loop over keys issues one batched multi_* / call_fanout "
        "RPC, not one single-key RPC per item",
    "byte-loop":
        "hot code never iterates a bytes parameter in Python; per-byte "
        "work goes through a C routine (zlib, struct, bytes methods)",
}

_LIST_BUILTINS = {"list", "sorted"}
_BYTES_TYPES = {"bytes", "bytearray", "memoryview"}
_COPY_CALLS = {"deepcopy", "deep_copy", "copy"}


def _call_name(call: ast.Call) -> str | None:
    return last_component(call.func)


def _batched(name: str) -> bool:
    """The name says one call serves many items."""
    return "multi" in name or "batch" in name or "fanout" in name


def _client_receiver(call: ast.Call) -> str | None:
    """The receiver's last name segment when it is client-like."""
    if not isinstance(call.func, ast.Attribute):
        return None
    receiver = last_component(call.func.value)
    if receiver is not None and (receiver in CLIENT_RECEIVERS
                                 or receiver.endswith("_client")):
        return receiver
    return None


def _single_key_op(call: ast.Call) -> str | None:
    """``"client.get"`` when ``call`` is a single-key op on a
    client-like receiver, or the smart client's own ``_call`` /
    ``_routed_call`` sender: an RPC per call that has a batched twin."""
    name = _call_name(call)
    if name in {"_call", "_routed_call"} \
            and isinstance(call.func, ast.Attribute):
        return f"{last_component(call.func.value)}.{name}"
    receiver = _client_receiver(call)
    if receiver is not None and name in SINGLE_KEY_OPS:
        return f"{receiver}.{name}"
    return None


def _fabric_call(call: ast.Call) -> str | None:
    """``"network.call"`` for a raw fabric dispatch, unless its method
    name literal says it is batched (one call serves many items --
    exactly what the rule asks for)."""
    receiver = _client_receiver(call)
    if receiver is None or _call_name(call) != "call" or any(
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            and _batched(arg.value) for arg in call.args):
        return None
    return f"{receiver}.call"


class _RpcReach:
    """Which functions issue a single-key client op every time they are
    called, themselves or through their callees -- so a one-line
    wrapper around ``client.get`` is as visible in a loop as the op.

    Only client ops are followed through a function boundary, not raw
    ``network.call`` sites: a key lookup has a batched twin by
    construction, while a function that makes one fabric call (a map
    push, a stream handshake, a page pull) says nothing about whether
    its caller's loop could have been one call."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: fqn -> chain down to the op; () when there is none, and
        #: while the walk is still inside the function (recursion).
        self._chains: dict[str, tuple[str, ...]] = {}

    def chain(self, fqn: str) -> tuple[str, ...]:
        """``("ExecutionContext.fetch_doc", "client.get")`` when ``fqn``
        reaches a single-key op, else ``()``."""
        known = self._chains.get(fqn)
        if known is not None:
            return known
        self._chains[fqn] = ()
        func = self.graph.project.functions.get(fqn)
        if func is None:
            return ()
        op = next((op for node in ast.walk(func.node)
                   if isinstance(node, ast.Call)
                   and (op := _single_key_op(node)) is not None), None)
        rest = (op,) if op is not None \
            else self.through(self.graph.out_edges(fqn))
        if rest:
            label = func.name if func.cls is None \
                else f"{func.cls.rsplit('.', 1)[-1]}.{func.name}"
            self._chains[fqn] = (label, *rest)
        return self._chains[fqn]

    def through(self, edges) -> tuple[str, ...]:
        """The chain of the first of ``edges`` that leads to a
        single-key op.  Only ordinary calls are followed, and never into
        a batched function: what happens behind ``multi_get`` is one
        call serving many items."""
        for edge in edges:
            if edge.kind in ("call", "method") \
                    and not _batched(edge.callee.rsplit(".", 1)[-1]):
                chain = self.chain(edge.callee)
                if chain:
                    return chain
        return ()


@dataclass
class _Loop:
    node: ast.AST
    #: names (re)bound anywhere inside the loop body.
    assigned: set[str] = field(default_factory=set)


def _assigned_names(node: ast.AST) -> set[str]:
    """Every Name bound by statements under ``node`` (loop bodies)."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
    return names


def _is_list_expr(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    if isinstance(value, ast.Call) and _call_name(value) in _LIST_BUILTINS:
        return True
    return False


def _annotation_is_list(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    name = None
    if isinstance(annotation, ast.Subscript):
        name = last_component(annotation.value)
    else:
        name = last_component(annotation)
    return name in {"list", "List"}


def _annotation_is_bytes(annotation: ast.expr | None) -> bool:
    """``bytes``, or a union that includes it (``bytes | bytearray``)."""
    return annotation is not None and any(
        isinstance(node, ast.Name) and node.id in _BYTES_TYPES
        for node in ast.walk(annotation))


class _FunctionScan(ast.NodeVisitor):
    """One pass over a hot function's body, tracking loop context."""

    def __init__(self, func: FuncInfo, module: ModuleInfo, why: str,
                 reach: _RpcReach):
        self.func = func
        self.module = module
        self.why = why
        self.reach = reach
        self.findings: list[Finding] = []
        self.loops: list[_Loop] = []
        #: names known to hold lists / strings in this function.
        self.list_names: set[str] = set()
        self.str_names: set[str] = set()
        #: parameters annotated as a bytes-like type.
        self.bytes_params: set[str] = set()

    # -- plumbing --------------------------------------------------------------

    def _flag(self, check: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            check=check,
            path=self.module.path,
            line=getattr(node, "lineno", self.func.line),
            col=getattr(node, "col_offset", 0),
            message=f"{message} [{self.why}]",
        ))

    def _invariant(self, node: ast.expr) -> bool:
        """True when ``node`` cannot change across iterations of the
        innermost loop: constants, and names/attribute-chains rooted at
        a name the loop body never rebinds."""
        if isinstance(node, ast.Constant):
            return True
        if not self.loops:
            return False
        assigned = self.loops[-1].assigned
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name):
            return base.id not in assigned
        return False

    def scan(self) -> list[Finding]:
        node = self.func.node
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if _annotation_is_list(arg.annotation):
                self.list_names.add(arg.arg)
            elif _annotation_is_bytes(arg.annotation):
                self.bytes_params.add(arg.arg)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._note_binding(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                if _annotation_is_list(stmt.annotation) or (
                        stmt.value is not None
                        and _is_list_expr(stmt.value)):
                    self.list_names.add(stmt.target.id)
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        return self.findings

    def _note_binding(self, name: str, value: ast.expr) -> None:
        if _is_list_expr(value):
            self.list_names.add(name)
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.str_names.add(name)

    # -- loop context ----------------------------------------------------------

    def _enter_loop(self, node: ast.AST, bodies: list) -> None:
        loop = _Loop(node)
        for body in bodies:
            for stmt in body:
                loop.assigned |= _assigned_names(stmt)
        if isinstance(node, ast.For):
            loop.assigned |= _assigned_names(node.target)
        self.loops.append(loop)

    def _check_byte_loop(self, iterable: ast.expr) -> None:
        if isinstance(iterable, ast.Name) and iterable.id in self.bytes_params:
            self._flag(
                "byte-loop", iterable,
                f"iterating bytes parameter {iterable.id!r} runs Python "
                f"code once per byte; use the C routine (zlib, struct, "
                f"bytes methods)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_byte_loop(node.iter)
        self.visit(node.iter)
        self._enter_loop(node, [node.body])
        for stmt in node.body:
            self.visit(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node, [node.body])
        self.visit(node.test)
        for stmt in node.body:
            self.visit(stmt)
        self.loops.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_byte_loop(comp.iter)
            self.visit(comp.iter)
        loop = _Loop(node)
        for comp in node.generators:
            loop.assigned |= _assigned_names(comp.target)
        self.loops.append(loop)
        for comp in node.generators:
            for condition in comp.ifs:
                self.visit(condition)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self.loops.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def _skip_nested(self, node) -> None:
        # A nested def's body runs when *called*, not where it is
        # written; scan it without the enclosing loop context.
        saved, self.loops = self.loops, []
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(stmt)
        self.loops = saved

    visit_FunctionDef = _skip_nested
    visit_AsyncFunctionDef = _skip_nested
    visit_Lambda = _skip_nested

    # -- the rules -------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.loops and len(node.ops) == 1 and isinstance(
                node.ops[0], (ast.In, ast.NotIn)):
            target = node.comparators[0]
            if isinstance(target, ast.Name) and target.id in self.list_names:
                self._flag(
                    "quadratic-membership", node,
                    f"membership test on list {target.id!r} inside a loop "
                    f"is O(len) per hit; use a set",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (self.loops and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Name)
                and node.target.id in self.str_names):
            self._flag(
                "str-concat-in-loop", node,
                f"string accumulation {node.target.id!r} += ... in a loop "
                f"copies the whole accumulator each step; collect parts "
                f"and join once",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # acc = acc + ... self-rebuild inside a loop.
        if (self.loops and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)):
            target = node.targets[0].id
            left = node.value.left
            if isinstance(left, ast.Name) and left.id == target:
                self._flag(
                    "str-concat-in-loop", node,
                    f"{target!r} = {target} + ... in a loop rebuilds the "
                    f"whole value each step; append/extend instead",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name == "pop" and isinstance(node.func, ast.Attribute):
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                self._flag(
                    "list-shift", node,
                    "pop(0) shifts every remaining element, O(len) per "
                    "call; use collections.deque",
                )
        elif name == "insert" and isinstance(node.func, ast.Attribute):
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == 0):
                self._flag(
                    "list-shift", node,
                    "insert(0, ...) shifts every element, O(len) per "
                    "call; use collections.deque",
                )
        if (self.loops and name in {"index", "count"}
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self.list_names):
            self._flag(
                "quadratic-membership", node,
                f"{node.func.value.id}.{name}(...) scans the list on "
                f"every loop iteration; use a set or dict",
            )
        if self.loops:
            self._check_sort(node, name)
            self._check_copy(node, name)
            self._check_invariant_call(node, name)
            self._check_rpc(node)
        self.generic_visit(node)

    def _check_sort(self, node: ast.Call, name: str | None) -> None:
        # Only a loop-invariant value re-sorted per iteration is waste;
        # sorting data produced by the iteration itself is legitimate
        # (e.g. sorting each retry round's fresh node grouping).
        if name == "sorted" and isinstance(node.func, ast.Name):
            if node.args and self._invariant(node.args[0]):
                self._flag("sort-in-loop", node,
                           "sorted(...) of a loop-invariant value inside a "
                           "loop re-sorts per iteration; sort once outside")
        elif name == "sort" and isinstance(node.func, ast.Attribute):
            if self._invariant(node.func.value):
                self._flag("sort-in-loop", node,
                           ".sort() of a loop-invariant value inside a loop "
                           "re-sorts per iteration; sort once outside")

    def _check_copy(self, node: ast.Call, name: str | None) -> None:
        if name in _COPY_CALLS:
            if isinstance(node.func, ast.Attribute) and last_component(
                    node.func.value) != "copy":
                # x.copy() -- judge the receiver; copy.copy(x) falls
                # through to the argument form below.
                receiver: ast.expr | None = node.func.value
            else:
                receiver = node.args[0] if node.args else None
            if receiver is not None and not isinstance(
                    receiver, ast.Constant) and self._invariant(receiver):
                self._flag(
                    "copy-in-loop", node,
                    f"{name}() of a loop-invariant value inside a loop "
                    f"re-copies the same data every iteration; hoist it",
                )
        elif (name in {"list", "dict"} and isinstance(node.func, ast.Name)
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Name)
                and self._invariant(node.args[0])):
            self._flag(
                "copy-in-loop", node,
                f"{name}({node.args[0].id}) rebuilds a loop-invariant "
                f"value every iteration; hoist it",
            )

    def _check_invariant_call(self, node: ast.Call, name: str | None) -> None:
        expensive = name in EXPENSIVE_CALLS
        if not expensive and isinstance(node.func, ast.Attribute):
            expensive = last_component(node.func.value) in CATALOG_RECEIVERS
        if not expensive or not node.args:
            return
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        if all(self._invariant(arg) for arg in arguments):
            label = name or "call"
            self._flag(
                "invariant-in-loop", node,
                f"{label}(...) has loop-invariant arguments but runs "
                f"every iteration; compile/resolve once before the loop",
            )

    def _check_rpc(self, node: ast.Call) -> None:
        op = _single_key_op(node) or _fabric_call(node)
        if op is not None:
            self._flag(
                "n-plus-one-rpc", node,
                f"single-key {op}(...) inside a loop issues "
                f"one RPC per item; use the batched multi_* / "
                f"call_fanout path",
            )
            return
        chain = self.reach.through(
            self.reach.graph.site_edges.get(id(node), ()))
        if chain:
            self._flag(
                "n-plus-one-rpc", node,
                f"{chain[0]}(...) inside a loop issues one RPC per "
                f"item ({' -> '.join(chain)}); use the batched "
                f"multi_* / call_fanout path",
            )


def scan_function(func: FuncInfo, module: ModuleInfo, why: str,
                  reach: _RpcReach) -> list[Finding]:
    """Run every rule over one hot function."""
    return _FunctionScan(func, module, why, reach).scan()


@register("hotpath", RULES)
def hot_rules(context) -> list[Finding]:
    project, hot_set = context.project, context.hot_set
    reach = _RpcReach(context.graph)
    findings: list[Finding] = []
    for fqn in sorted(hot_set.members):
        func = project.functions.get(fqn)
        if func is None:
            continue
        module = project.modules.get(func.module)
        if module is None:
            continue
        findings.extend(
            scan_function(func, module, f"hot: {hot_set.why(fqn)}", reach))
    return findings
