"""N1QL row environments and per-execution expression state.

Rows are :class:`Env` chains: alias -> document value, with document
metadata in a parallel namespace for ``META()``.  LET bindings,
UNNEST/comprehension variables, and group aggregates extend the chain.
Expressions themselves are lowered to closures by
:mod:`repro.n1ql.compile`; each closure is called as ``fn(env, ev)``
with a row :class:`Env` and the execution's :class:`Evaluator`.
"""

from __future__ import annotations

from typing import Any

from .collation import MISSING
from .functions import is_aggregate
from .printer import print_expr
from .syntax import Expr, FunctionCall


class Env:
    """A chained environment: name -> value, plus per-alias metadata."""

    __slots__ = ("values", "metas", "parent")

    #: One frame holds at most one binding per alias/LET name of the
    #: query; frames live for one row of one operator.
    __bounds__ = ("values", "metas")

    def __init__(self, parent: "Env | None" = None):
        self.values: dict[str, Any] = {}
        self.metas: dict[str, dict] = {}
        self.parent = parent

    def bind(self, name: str, value: Any, meta: dict | None = None) -> None:
        self.values[name] = value
        if meta is not None:
            self.metas[name] = meta

    def lookup(self, name: str) -> tuple[bool, Any]:
        env: Env | None = self
        while env is not None:
            if name in env.values:
                return True, env.values[name]
            env = env.parent
        return False, MISSING

    def lookup_meta(self, name: str) -> dict | None:
        env: Env | None = self
        while env is not None:
            if name in env.metas:
                return env.metas[name]
            env = env.parent
        return None

    def child(self) -> "Env":
        return Env(self)

    def aliases(self) -> list[str]:
        names: list[str] = []
        env: Env | None = self
        while env is not None:
            names.extend(env.metas.keys())
            env = env.parent
        return names


class Evaluator:
    """Per-execution state the compiled closures read: the query
    parameters and the (optional) default keyspace alias for unqualified
    field references."""

    def __init__(self, params: dict[str, Any] | None = None,
                 default_alias: str | None = None):
        self.params = params if params is not None else {}
        self.default_alias = default_alias


def collect_aggregates(exprs: list[Expr]) -> list[FunctionCall]:
    """Find every aggregate call in a list of expressions (deduplicated
    by canonical print)."""
    seen: dict[str, FunctionCall] = {}

    def walk(node):
        if isinstance(node, FunctionCall):
            if is_aggregate(node.name):
                seen.setdefault(print_expr(node), node)
                return  # nested aggregates are invalid; don't recurse
            for arg in node.args:
                walk(arg)
            return
        for attr in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, attr)
            if isinstance(value, Expr):
                walk(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Expr):
                        walk(item)
                    elif isinstance(item, tuple):
                        for part in item:
                            if isinstance(part, Expr):
                                walk(part)

    for expr in exprs:
        if expr is not None:
            walk(expr)
    return list(seen.values())
