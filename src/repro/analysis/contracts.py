"""Static readers for the declared contracts in ``common/contracts.py``.

The mirror of :mod:`repro.common.contracts`: every declaration that
module attaches at runtime is read here by name, off the AST, so fixture
trees (and code that stubs the declaration module) analyze without
being importable.

* ``@hot_path`` / ``@cost("...")`` on a function
  (:func:`is_hot_root`, :func:`declared_cost`);
* ``@bounded("kind", "reason")`` on a function exempts every container
  growth site inside it (:func:`declared_bound`); ``__bounds__ =
  ("attr", ...)`` in a class body -- or ``("Class.attr", ...)`` at
  module level -- exempts the named container attributes wherever they
  grow (:func:`class_bounds`, :func:`module_bounds`);
* ``@protocol("A->B", ..., field=..., order=(...))`` on a class, or
  ``__protocol__ = ("field", "A->B", ...)`` in a class body -- on an
  enum the field element is omitted and every element is a transition
  (:func:`collect_protocols`).

``@declared_raises`` is read at index time (``FuncInfo.raises_decl``)
because the exception-flow fixpoint needs it on every function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .project import ClassInfo, FuncInfo, ModuleInfo, Project, decorator_name


def is_hot_root(func: FuncInfo) -> bool:
    """True when ``func`` carries the ``@hot_path`` decorator."""
    return any(decorator_name(dec) == "hot_path" for dec in func.decorators)


def declared_cost(func: FuncInfo) -> str | None:
    """The ``@cost("...")`` bound declared on ``func``, or None."""
    for dec in func.decorators:
        if (decorator_name(dec) == "cost" and isinstance(dec, ast.Call)
                and dec.args and isinstance(dec.args[0], ast.Constant)
                and isinstance(dec.args[0].value, str)):
            return dec.args[0].value
    return None


def declared_bound(func: FuncInfo) -> tuple[str, str] | None:
    """The ``@bounded(kind, reason)`` declaration on ``func``, or None."""
    for dec in func.decorators:
        if (decorator_name(dec) == "bounded" and isinstance(dec, ast.Call)
                and len(dec.args) >= 2
                and all(isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        for arg in dec.args[:2])):
            return dec.args[0].value, dec.args[1].value
    return None


def _bounds_tuple(body: list[ast.stmt]) -> frozenset[str]:
    """The names listed by a first-level ``__bounds__ = (...)``."""
    for stmt in body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__bounds__"):
            value = stmt.value
            if isinstance(value, (ast.Tuple, ast.List)):
                return frozenset(
                    elt.value for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                return frozenset({value.value})
    return frozenset()


def class_bounds(klass: ClassInfo) -> frozenset[str]:
    """Attribute names declared bounded in the class body."""
    return _bounds_tuple(klass.node.body)


def module_bounds(module: ModuleInfo) -> frozenset[str]:
    """``Class.attr`` (or bare ``attr``) names declared bounded at
    module level."""
    return _bounds_tuple(module.tree.body)


#: Base-class names that mark a protocol class as an enum (states are
#: the members; fields are bound by value, not by owning class).
_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


@dataclass(frozen=True)
class ProtocolSpec:
    """One declared state machine, read off the AST."""

    name: str                       #: protocol (class) short name
    fqn: str                        #: declaring class FQN
    module: str
    line: int
    kind: str                       #: "enum" | "field"
    states: frozenset[str]
    transitions: frozenset[tuple[str, str]]
    order: tuple[str, ...]
    field: str | None               #: state attribute for kind="field"

    def forbidden_sources(self, dst: str) -> list[str]:
        """States from which writing ``dst`` is illegal (self-transitions
        are implicit no-ops; everything else must be a declared pair)."""
        return sorted(
            s for s in self.states if s != dst and (s, dst) not in self.transitions
        )


def _is_enum(klass: ClassInfo) -> bool:
    return any(
        base.rsplit(".", 1)[-1] in _ENUM_BASES for base in klass.bases
    )


def _enum_members(klass: ClassInfo) -> frozenset[str]:
    members = set()
    for stmt in klass.node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if not name.startswith("_"):
                members.add(name)
    return frozenset(members)


def _parse_pairs(raw: list[str]) -> frozenset[tuple[str, str]]:
    pairs = set()
    for item in raw:
        src, sep, dst = item.partition("->")
        if sep and src.strip() and dst.strip():
            pairs.add((src.strip(), dst.strip()))
    return pairs


def _str_constants(exprs: list[ast.expr]) -> list[str]:
    return [e.value for e in exprs
            if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _from_decorator(klass: ClassInfo) -> ProtocolSpec | None:
    for call in klass.decorators:
        if not (isinstance(call, ast.Call)
                and decorator_name(call) == "protocol"):
            continue
        raw = _str_constants(call.args)
        field = None
        order: tuple[str, ...] = ()
        for kw in call.keywords:
            if kw.arg == "field" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                field = kw.value.value
            elif kw.arg == "order" and isinstance(kw.value, (ast.Tuple, ast.List)):
                order = tuple(_str_constants(list(kw.value.elts)))
        return _build(klass, raw, field, order)
    return None


def _from_tuple(klass: ClassInfo) -> ProtocolSpec | None:
    for stmt in klass.node.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == "__protocol__" \
                and isinstance(stmt.value, (ast.Tuple, ast.List)):
            items = _str_constants(list(stmt.value.elts))
            field = None
            if items and "->" not in items[0]:
                field = items[0]
                items = items[1:]
            return _build(klass, items, field, ())
    return None


def _build(klass: ClassInfo, raw: list[str], field: str | None,
           order: tuple[str, ...]) -> ProtocolSpec | None:
    pairs = _parse_pairs(raw)
    if not pairs:
        return None
    enum = _is_enum(klass)
    if enum:
        states = _enum_members(klass)
        field = None
    else:
        states = frozenset(name for pair in pairs for name in pair)
        if field is None:
            return None     # a non-enum protocol must name its field
    return ProtocolSpec(
        name=klass.name, fqn=klass.fqn, module=klass.module,
        line=klass.line, kind="enum" if enum else "field",
        states=states, transitions=frozenset(pairs),
        order=order, field=field,
    )


def collect_protocols(project: Project) -> dict[str, ProtocolSpec]:
    """Every declared protocol in the project, by short class name."""
    specs: dict[str, ProtocolSpec] = {}
    for klass in project.classes.values():
        spec = _from_decorator(klass) or _from_tuple(klass)
        if spec is not None:
            specs[spec.name] = spec
    return specs
