"""Protocol bindings and the transition-site inventory.

The proto family needs the same whole-program picture for every rule
family: which (class, attribute) pairs carry a protocol's state, and
every assignment that stores a state into one of them.  Mirrors the
shallow receiver discipline of :mod:`repro.analysis.containers`: a write
on ``self.X`` binds to the enclosing class's binding for ``X``; a write
on any other receiver (``vb.state = state`` from the engine) counts
only when the *value* is recognizable -- a literal protocol state, a
state-constant name, or a parameter annotated with the protocol class.
That keeps unrelated same-named fields (``meta.state = "ready"``) out
of the inventory instead of erring toward false positives.

Site kinds:

``init``
    The owner class's ``__init__`` establishing the field.  Exempt from
    the transition rules (there is no previous state yet), but listed
    in the coverage report.
``write``
    A store with a literal target state (``self.phase = State.CLOSED``).
``forward``
    A store of a protocol-annotated parameter (``vb.state = state``);
    the target state is resolved per call site through the call
    graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .contracts import ProtocolSpec
from .project import FuncInfo, Project


@dataclass(frozen=True)
class Binding:
    """One (owner class, attribute) carrying a protocol's state."""

    owner: str          #: owning class fqn
    owner_module: str
    attr: str
    spec: ProtocolSpec


@dataclass(frozen=True)
class TransitionSite:
    """One assignment that stores a protocol state."""

    binding: Binding
    func: str           #: enclosing function fqn
    module: str
    path: str
    line: int
    col: int
    kind: str           #: "init" | "write" | "forward"
    dst: str | None     #: literal target state when known
    param: str | None   #: forwarded parameter name for kind="forward"
    receiver: str       #: receiver key, e.g. "vb.state"


def resolve_state(expr: ast.expr,
                  specs: dict[str, ProtocolSpec]) -> tuple[ProtocolSpec, str] | None:
    """(spec, state) when ``expr`` denotes a protocol state literally:
    an enum member access (``State.CLOSED``) or, for field protocols, a
    state-constant name (``OPEN``)."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        spec = specs.get(expr.value.id)
        if spec is not None and expr.attr in spec.states:
            return spec, expr.attr
        return None
    if isinstance(expr, ast.Name):
        hits = [spec for spec in specs.values()
                if spec.kind == "field" and expr.id in spec.states]
        if len(hits) == 1:
            return hits[0], expr.id
    return None


def annotation_spec(ann: ast.expr | None,
                    specs: dict[str, ProtocolSpec]) -> ProtocolSpec | None:
    """The protocol a parameter/attribute annotation names, if any."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        name = ann.value.split("|")[0].strip()
    else:
        node = ann
        if isinstance(node, ast.Subscript):    # Optional[State] and kin
            node = node.slice
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            node = node.left                   # State | None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return None
    return specs.get(name.rsplit(".", 1)[-1])


def local_walk(root: ast.AST):
    """Walk ``root``'s statements without descending into nested
    function or class definitions (those are indexed separately)."""
    body = getattr(root, "body", None)
    if not isinstance(body, list):    # lambdas carry an expression body
        return
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _single_attr_target(stmt: ast.stmt) -> tuple[ast.Attribute, ast.expr] | None:
    """(target, value) for ``<expr>.<attr> = <value>`` statements."""
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        targets, value = [stmt.target], stmt.value
    else:
        return None
    if value is None or len(targets) != 1 \
            or not isinstance(targets[0], ast.Attribute):
        return None
    return targets[0], value


class ProtoInventory:
    """The project-wide protocol field and transition-site index."""

    def __init__(self, project: Project, specs: dict[str, ProtocolSpec]):
        self.project = project
        self.specs = specs
        self.bindings: list[Binding] = []
        #: attribute name -> bindings carrying it (non-self receivers)
        self.by_attr: dict[str, list[Binding]] = {}
        self.sites: list[TransitionSite] = []
        #: id(assign stmt) -> site, for the path walker in rules.py
        self.site_by_node: dict[int, TransitionSite] = {}
        self._collect_bindings()
        self._collect_sites()

    # -- bindings ------------------------------------------------------------------

    def _bind(self, owner: str, owner_module: str, attr: str,
              spec: ProtocolSpec) -> None:
        if any(b.owner == owner and b.attr == attr for b in self.bindings):
            return
        binding = Binding(owner=owner, owner_module=owner_module,
                         attr=attr, spec=spec)
        self.bindings.append(binding)
        self.by_attr.setdefault(attr, []).append(binding)

    def _collect_bindings(self) -> None:
        for spec in self.specs.values():
            if spec.kind == "field" and spec.field:
                self._bind(spec.fqn, spec.module, spec.field, spec)
        for klass in self.project.classes.values():
            for attr, ann in klass.annotations.items():
                spec = annotation_spec(ann, self.specs)
                if spec is not None and spec.kind == "enum":
                    self._bind(klass.fqn, klass.module, attr, spec)
            init = klass.methods.get("__init__")
            if init is None:
                continue
            for stmt in local_walk(init.node):
                found = _single_attr_target(stmt)
                if found is None:
                    continue
                target, value = found
                if not (isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                spec = None
                resolved = resolve_state(value, self.specs)
                if resolved is not None and resolved[0].kind == "enum":
                    spec = resolved[0]
                elif isinstance(value, ast.Name):
                    candidate = annotation_spec(
                        init.annotations.get(value.id), self.specs)
                    if candidate is not None and candidate.kind == "enum":
                        spec = candidate
                if spec is not None:
                    self._bind(klass.fqn, klass.module, target.attr, spec)

    # -- sites ---------------------------------------------------------------------

    def _collect_sites(self) -> None:
        for func in list(self.project.functions.values()):
            if getattr(func.node, "body", None) is None:
                continue
            module = self.project.modules.get(func.module)
            path = module.path if module is not None else func.module
            for stmt in local_walk(func.node):
                found = _single_attr_target(stmt)
                if found is None:
                    continue
                site = self._site_for(stmt, found[0], found[1], func, path)
                if site is not None:
                    self.sites.append(site)
                    self.site_by_node[id(stmt)] = site

    def _site_for(self, stmt: ast.stmt, target: ast.Attribute,
                  value: ast.expr, func: FuncInfo,
                  path: str) -> TransitionSite | None:
        candidates = self.by_attr.get(target.attr)
        if not candidates:
            return None
        is_self = isinstance(target.value, ast.Name) \
            and target.value.id == "self"
        resolved = resolve_state(value, self.specs)
        param_spec = None
        if isinstance(value, ast.Name) and value.id in func.params:
            param_spec = annotation_spec(
                func.annotations.get(value.id), self.specs)

        if is_self:
            binding = next(
                (b for b in candidates if b.owner == func.cls), None)
            if binding is None:
                return None
            kind, dst, param = "write", None, None
            if resolved is not None and resolved[0] is binding.spec:
                dst = resolved[1]
            elif param_spec is binding.spec and param_spec is not None:
                kind, param = "forward", value.id
            if func.name == "__init__":
                kind = "init"
        else:
            # Non-self receivers bind only through a recognizable value.
            spec = dst = param = None
            kind = "write"
            if resolved is not None:
                spec, dst = resolved
            elif param_spec is not None:
                spec, kind, param = param_spec, "forward", value.id
            if spec is None:
                return None
            matches = [b for b in candidates if b.spec is spec]
            if len(matches) != 1:
                return None
            binding = matches[0]

        try:
            receiver = f"{ast.unparse(target.value)}.{target.attr}"
        except Exception:
            return None
        return TransitionSite(
            binding=binding, func=func.fqn, module=func.module, path=path,
            line=stmt.lineno, col=stmt.col_offset + 1,
            kind=kind, dst=dst, param=param, receiver=receiver,
        )
