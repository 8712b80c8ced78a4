"""N1QL row environments and per-execution expression state.

Rows are :class:`Env` chains: alias -> document value, with document
metadata in a parallel namespace for ``META()``.  LET bindings,
UNNEST/comprehension variables, and group aggregates extend the chain.
A covered index row is a :class:`ScanRow` and a fetched document's row
a :class:`FetchedRow`, each one object with the same read interface,
at the root of its chain.
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

    def __init__(self, values: dict[str, Any] | None = None,
                 metas: dict[str, dict] | None = None,
                 parent: "Env | ScanRow | FetchedRow | None" = None):
        """A frame over ``parent``; a scan row passes its one binding
        in, ``Env({alias: doc}, {alias: meta})``, and the frame takes
        both dicts as its own."""
        self.values: dict[str, Any] = {} if values is None else values
        self.metas: dict[str, dict] = {} if metas is None else metas
        self.parent = parent

    def bind(self, name: str, value: Any, meta: dict | None = None) -> None:
        self.values[name] = value
        if meta is not None:
            self.metas[name] = meta

    def lookup(self, name: str) -> tuple[bool, Any]:
        if name in self.values:
            return True, self.values[name]
        if self.parent is None:
            return False, MISSING
        return self.parent.lookup(name)

    def lookup_meta(self, name: str) -> dict | None:
        if name in self.metas:
            return self.metas[name]
        if self.parent is None:
            return None
        return self.parent.lookup_meta(name)

    def child(self) -> "Env":
        return Env(parent=self)

    def aliases(self) -> list[str]:
        names = list(self.metas)
        if self.parent is not None:
            names += self.parent.aliases()
        return names


class ScanRow:
    """One covered index row: ``alias`` bound to ``doc``, the document
    its covered keys rebuild, and ``META(alias).id`` the row's document
    id.  It reads as an :class:`Env` frame (``lookup``, ``lookup_meta``,
    ``child``, ``aliases``) and binds nothing: a LET, join or group
    extends it with a child frame."""

    __slots__ = ("alias", "doc", "doc_id")

    def __init__(self, alias: str, doc: dict, doc_id: str):
        self.alias = alias
        self.doc = doc
        self.doc_id = doc_id

    def lookup(self, name: str) -> tuple[bool, Any]:
        if name == self.alias:
            return True, self.doc
        return False, MISSING

    def lookup_meta(self, name: str) -> dict | None:
        if name == self.alias:
            return {"id": self.doc_id}
        return None

    def child(self) -> Env:
        return Env(parent=self)

    def aliases(self) -> list[str]:
        return [self.alias]


def meta_dict(doc) -> dict:
    """``META()`` of a document: its metadata as a new object."""
    meta = doc.meta
    return {
        "id": meta.key,
        "cas": meta.cas,
        "seqno": meta.seqno,
        "rev": meta.rev,
        "expiration": meta.expiry,
        "flags": meta.flags,
    }


class FetchedRow:
    """One fetched row: ``alias`` bound to a stored document's value,
    read in place, and ``META(alias)`` to its metadata, built when an
    expression asks for it.  It reads as an :class:`Env` frame, like
    :class:`ScanRow`, and binds nothing."""

    __slots__ = ("alias", "document")

    def __init__(self, alias: str, document):
        self.alias = alias
        self.document = document

    def lookup(self, name: str) -> tuple[bool, Any]:
        if name == self.alias:
            return True, self.document.value
        return False, MISSING

    def lookup_meta(self, name: str) -> dict | None:
        if name == self.alias:
            return meta_dict(self.document)
        return None

    def child(self) -> Env:
        return Env(parent=self)

    def aliases(self) -> list[str]:
        return [self.alias]


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
