"""Container inventory: who grows what, and what bounds it.

The **unbounded-buffer** and **cache-without-eviction** rules both need
the same whole-program picture: every container-typed class attribute,
every site that grows it, and every mechanism that could bound it --
a construction-time ``maxlen``, a drain site (``pop``/``del``/
``clear``/a rebind that trims the container from itself, anywhere in
the project: queues are routinely filled by one class and drained by a
consumer pump in another), a ``len()`` cap check, or an explicit
``@bounded`` / ``__bounds__`` declaration.

Receiver matching is deliberately shallow, like the call-graph
builder's type inference: a site on ``self.X`` binds to the enclosing
class's container ``X``; a site on any other receiver (``vb.
dirty_queue.append`` from the engine) matches *every* container with
that attribute name.  Name collisions therefore err toward "bounded"
(any same-named drain counts), never toward a false positive.

Heuristics, stated so suppressions can cite them:

* a dict store whose value expression *reads the same container*
  (``x[k] = x.get(k, 0) + 1``) is an update, not growth -- the
  counter-update idiom implies a bounded key space;
* augmented stores (``x[k] += 1``) are updates for the same reason;
* implicit containers (no recorded construction) are created only for
  the unambiguous growth methods (``append``/``appendleft``/``add``)
  and dict stores on ``self`` -- ``update``/``extend`` on an unknown
  attribute could be config plumbing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .contracts import class_bounds, module_bounds
from .project import FuncInfo, Project

#: Methods that add elements.  The frozenset split matches the implicit-
#: container heuristic above.
UNAMBIGUOUS_GROWTH = frozenset({"append", "appendleft", "add"})
GROWTH_METHODS = UNAMBIGUOUS_GROWTH | frozenset(
    {"extend", "insert", "setdefault", "update"})
DRAIN_METHODS = frozenset(
    {"pop", "popleft", "popitem", "remove", "discard", "clear"})
#: Constructor names that announce a container attribute.
CONTAINER_CTORS = {
    "dict": "dict", "defaultdict": "dict", "OrderedDict": "dict",
    "Counter": "dict", "list": "list", "set": "set", "deque": "deque",
}


@dataclass(frozen=True)
class Site:
    """One growth/drain/cap site: where, in which function, how."""

    func: str           #: enclosing function fqn
    line: int
    col: int
    how: str            #: "append", "store", "del", "rebind-trim", ...


@dataclass
class ContainerInfo:
    owner: str          #: owning class fqn ("" for implicit attrs)
    attr: str
    kind: str           #: "list" | "dict" | "set" | "deque" | "unknown"
    module: str
    line: int
    has_maxlen: bool = False
    declared: tuple[str, str] | None = None    #: (kind, reason)
    growth: list[Site] = field(default_factory=list)
    drains: list[Site] = field(default_factory=list)
    caps: list[Site] = field(default_factory=list)
    #: growth sites that belong to a memoize pattern (checked-then-
    #: stored in the same function): cache-without-eviction territory.
    memo_sites: list[Site] = field(default_factory=list)

    @property
    def bounded(self) -> bool:
        return bool(self.has_maxlen or self.drains or self.caps
                    or self.declared)

    def describe(self) -> str:
        owner = self.owner.rsplit(".", 1)[-1] if self.owner else "<implicit>"
        return f"{owner}.{self.attr}"


def _ctor_kind(value: ast.expr) -> tuple[str, bool] | None:
    """(kind, has_maxlen) when ``value`` constructs a container."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list", False
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict", False
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set", False
    if isinstance(value, ast.Call):
        name = value.func.attr if isinstance(value.func, ast.Attribute) \
            else (value.func.id if isinstance(value.func, ast.Name) else None)
        kind = CONTAINER_CTORS.get(name or "")
        if kind is None:
            return None
        has_maxlen = kind == "deque" and any(
            kw.arg == "maxlen"
            and not (isinstance(kw.value, ast.Constant)
                     and kw.value.value is None)
            for kw in value.keywords
        )
        return kind, has_maxlen
    return None


def _annotation_kind(ann: ast.expr) -> str | None:
    head = ann.value if isinstance(ann, ast.Subscript) else ann
    name = head.attr if isinstance(head, ast.Attribute) else (
        head.id if isinstance(head, ast.Name) else None)
    return CONTAINER_CTORS.get((name or "").split("[")[0])


def _attr_of(node: ast.expr) -> tuple[str, bool] | None:
    """(attribute name, receiver is self) for an Attribute chain tail."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    return node.attr, isinstance(base, ast.Name) and base.id == "self"


def _reads_attr(expr: ast.expr, attr: str) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(expr)
    )


class Inventory:
    """The project-wide container index."""

    def __init__(self, project: Project):
        self.project = project
        #: (owner fqn, attr) -> ContainerInfo
        self.containers: dict[tuple[str, str], ContainerInfo] = {}
        #: attr name -> containers carrying it (for non-self receivers)
        self.by_attr: dict[str, list[ContainerInfo]] = {}
        self._collect_definitions()
        self._scan_sites()
        self._apply_declarations()
        self._mark_memo_sites()

    # -- definitions ---------------------------------------------------------------

    def _define(self, owner: str, attr: str, kind: str, module: str,
                line: int, has_maxlen: bool) -> None:
        key = (owner, attr)
        existing = self.containers.get(key)
        if existing is not None:
            if kind != "unknown" and existing.kind == "unknown":
                existing.kind = kind
            existing.has_maxlen = existing.has_maxlen or has_maxlen
            return
        info = ContainerInfo(owner=owner, attr=attr, kind=kind,
                             module=module, line=line,
                             has_maxlen=has_maxlen)
        self.containers[key] = info
        self.by_attr.setdefault(attr, []).append(info)

    def _collect_definitions(self) -> None:
        for klass in self.project.classes.values():
            for attr, ann in klass.annotations.items():
                kind = _annotation_kind(ann)
                if kind is not None:
                    self._define(klass.fqn, attr, kind, klass.module,
                                 klass.line, False)
            for stmt in klass.node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name) \
                        and stmt.value is not None:
                    ctor = _ctor_kind(stmt.value)
                    if ctor is not None:
                        self._define(klass.fqn, stmt.target.id, ctor[0],
                                     klass.module, stmt.lineno, ctor[1])
            for method in klass.methods.values():
                for node in ast.walk(method.node):
                    if not (isinstance(node, (ast.Assign, ast.AnnAssign))):
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    value = node.value
                    if value is None or len(targets) != 1:
                        continue
                    target = targets[0]
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    ctor = _ctor_kind(value)
                    if ctor is not None:
                        self._define(klass.fqn, target.attr, ctor[0],
                                     klass.module, node.lineno, ctor[1])
                    elif isinstance(node, ast.AnnAssign):
                        kind = _annotation_kind(node.annotation)
                        if kind is not None:
                            self._define(klass.fqn, target.attr, kind,
                                         klass.module, node.lineno, False)

    # -- site scanning -------------------------------------------------------------

    def _matches(self, attr: str, is_self: bool,
                 func: FuncInfo) -> list[ContainerInfo]:
        if is_self and func.cls is not None:
            owned = self.containers.get((func.cls, attr))
            if owned is not None:
                return [owned]
            # Inherited containers: fall through to name matching so a
            # subclass method's site binds the base class's attribute.
        return self.by_attr.get(attr, [])

    def _record(self, bucket: str, attr: str, is_self: bool,
                func: FuncInfo, node: ast.AST, how: str,
                implicit_ok: bool = False) -> None:
        matches = self._matches(attr, is_self, func)
        if not matches and implicit_ok and is_self and func.cls is not None:
            self._define(func.cls, attr, "unknown", func.module,
                         getattr(node, "lineno", func.line), False)
            matches = [self.containers[(func.cls, attr)]]
        site = Site(func=func.fqn, line=getattr(node, "lineno", func.line),
                    col=getattr(node, "col_offset", 0) + 1, how=how)
        for info in matches:
            getattr(info, bucket).append(site)

    def _scan_sites(self) -> None:
        for func in list(self.project.functions.values()):
            node = func.node
            body = getattr(node, "body", None)
            if body is None:
                continue
            for stmt in ast.walk(node):
                self._scan_stmt(stmt, func)

    def _scan_stmt(self, stmt: ast.AST, func: FuncInfo) -> None:
        if isinstance(stmt, ast.Call):
            self._scan_call(stmt, func)
        elif isinstance(stmt, ast.Assign):
            self._scan_assign(stmt, func)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    ref = _attr_of(target.value)
                    if ref is not None:
                        self._record("drains", ref[0], ref[1], func,
                                     stmt, "del")
        elif isinstance(stmt, ast.Compare):
            self._scan_compare(stmt, func)

    def _scan_call(self, call: ast.Call, func: FuncInfo) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        ref = _attr_of(call.func.value)
        if ref is None:
            return
        attr, is_self = ref
        if method in DRAIN_METHODS:
            self._record("drains", attr, is_self, func, call, method)
        elif method in GROWTH_METHODS:
            if method in UNAMBIGUOUS_GROWTH \
                    and (len(call.args) != 1 or call.keywords):
                # list.append/set.add take exactly one positional arg; a
                # different arity means a domain method that happens to
                # share the name (log.append(record_type, body)).
                return
            self._record("growth", attr, is_self, func, call, method,
                         implicit_ok=method in UNAMBIGUOUS_GROWTH)

    def _scan_assign(self, stmt: ast.Assign, func: FuncInfo) -> None:
        targets: list[ast.expr] = []
        for target in stmt.targets:
            if isinstance(target, ast.Tuple):
                targets.extend(target.elts)
            else:
                targets.append(target)
        for target in targets:
            if isinstance(target, ast.Subscript):
                ref = _attr_of(target.value)
                if ref is None:
                    continue
                attr, is_self = ref
                if _reads_attr(stmt.value, attr):
                    continue    # x[k] = x.get(k, ...) update idiom
                self._record("growth", attr, is_self, func, stmt, "store",
                             implicit_ok=True)
            elif isinstance(target, ast.Attribute):
                ref = _attr_of(target)
                if ref is None:
                    continue
                attr, is_self = ref
                if _reads_attr(stmt.value, attr):
                    # vb.queue = vb.queue[budget:] -- trimming rebind.
                    self._record("drains", attr, is_self, func, stmt,
                                 "rebind-trim")
                elif func.name != "__init__" \
                        and _ctor_kind(stmt.value) is not None:
                    # Re-binding to a fresh container resets it.
                    self._record("drains", attr, is_self, func, stmt,
                                 "reset")

    def _scan_compare(self, stmt: ast.Compare, func: FuncInfo) -> None:
        for operand in [stmt.left, *stmt.comparators]:
            if (isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "len" and operand.args):
                ref = _attr_of(operand.args[0])
                if ref is not None:
                    self._record("caps", ref[0], ref[1], func, stmt,
                                 "len-cap")

    # -- declarations --------------------------------------------------------------

    def _apply_declarations(self) -> None:
        for info in self.containers.values():
            if info.declared is not None:
                continue
            klass = self.project.classes.get(info.owner)
            if klass is not None and info.attr in class_bounds(klass):
                info.declared = ("declared", "__bounds__ (class)")
                continue
            module = self.project.modules.get(info.module)
            if module is not None:
                names = module_bounds(module)
                short = info.owner.rsplit(".", 1)[-1]
                if info.attr in names or f"{short}.{info.attr}" in names:
                    info.declared = ("declared", "__bounds__ (module)")

    # -- memoize detection ---------------------------------------------------------

    def _mark_memo_sites(self) -> None:
        """A growth store into a dict the same function first *checked*
        (``x.get(k)`` / ``k in x``) is a cache fill, not queue growth:
        route it to cache-without-eviction instead."""
        checked: dict[tuple[str, str], set[str]] = {}
        for func in self.project.functions.values():
            body = getattr(func.node, "body", None)
            if body is None:
                continue
            for node in ast.walk(func.node):
                attr = None
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get"):
                    ref = _attr_of(node.func.value)
                    attr = ref[0] if ref else None
                elif isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops):
                    for comparator in node.comparators:
                        ref = _attr_of(comparator)
                        if ref is not None:
                            attr = ref[0]
                if attr is not None:
                    checked.setdefault((func.fqn, attr), set()).add(attr)
        for info in self.containers.values():
            if info.kind not in ("dict", "unknown"):
                continue
            memo, plain = [], []
            for site in info.growth:
                if site.how == "store" \
                        and (site.func, info.attr) in checked:
                    memo.append(site)
                else:
                    plain.append(site)
            info.memo_sites = memo
            info.growth = plain
