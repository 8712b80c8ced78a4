"""Query plan nodes.

The operator vocabulary of section 4.5.3 / Figure 11: keyspace scans
(KeyScan / PrimaryScan / IndexScan), Fetch, Filter, the join operators
(Join / Nest / Unnest -- all key-based, section 3.2.4), grouping,
ordering, pagination, and the two projection phases (InitialProject
turns each row into its result value, FinalProject hands the values
on).

EXPLAIN renders these nodes as a JSON-ish tree (section 4.5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .printer import print_expr
from .syntax import Expr, OrderTerm, Projection


class PlanOp:
    def describe(self) -> dict:
        raise NotImplementedError


@dataclass
class ScanSpan:
    """One contiguous range over an index's composite keys.  Bounds are
    expressions evaluated once at execution start (they may reference
    query parameters, as in the YCSB-E query)."""

    low: list[Expr] | None
    high: list[Expr] | None
    inclusive_low: bool = True
    inclusive_high: bool = True

    def describe(self) -> dict:
        return {
            "low": [print_expr(e) for e in self.low] if self.low else None,
            "high": [print_expr(e) for e in self.high] if self.high else None,
            "inclusive_low": self.inclusive_low,
            "inclusive_high": self.inclusive_high,
        }


@dataclass
class KeyScan(PlanOp):
    """USE KEYS access: the fundamental KV bridge (section 3.2.3)."""

    alias: str
    keyspace: str
    keys: Expr

    def describe(self) -> dict:
        return {"#operator": "KeyScan", "keyspace": self.keyspace,
                "as": self.alias, "keys": print_expr(self.keys)}


@dataclass
class PrimaryScan(PlanOp):
    """Full keyspace scan through a primary index -- "the equivalent of a
    full table scan ... quite expensive" (section 4.5.3)."""

    alias: str
    keyspace: str
    index_name: str
    using: str  # "gsi" | "view"
    #: The projection needs nothing beyond meta().id, which the primary
    #: index already yields -- skip the Fetch (section 5.1.2 applied to
    #: the primary index).
    covered: bool = False
    #: LIMIT pushed into the scan (set by the planner only when nothing
    #: downstream can drop or reorder rows).
    limit: Expr | None = None

    def describe(self) -> dict:
        return {"#operator": "PrimaryScan", "keyspace": self.keyspace,
                "as": self.alias, "index": self.index_name,
                "using": self.using, "covered": self.covered,
                "limit": print_expr(self.limit) if self.limit else None}


@dataclass
class IndexScan(PlanOp):
    alias: str
    keyspace: str
    index_name: str
    span: ScanSpan
    using: str = "gsi"
    #: Covering scan: the index supplies every referenced field, so the
    #: Fetch operator is skipped entirely (section 5.1.2).
    covered: bool = False
    #: Dotted paths of the index keys, for covered-row reconstruction.
    cover_paths: list[str] = field(default_factory=list)
    #: LIMIT pushed into the scan (set by the planner only when the span
    #: subsumes the filter and nothing downstream drops or reorders
    #: rows), so the indexer stops walking the tree after enough rows.
    limit: Expr | None = None

    def describe(self) -> dict:
        return {"#operator": "IndexScan", "keyspace": self.keyspace,
                "as": self.alias, "index": self.index_name,
                "span": self.span.describe(), "using": self.using,
                "covers": self.cover_paths if self.covered else None,
                "limit": print_expr(self.limit) if self.limit else None}


@dataclass
class IndexAggregateScan(PlanOp):
    """Covered GROUP BY pushed down to the index nodes (section 5.1's
    pre-computed aggregates): each partition groups and partially
    aggregates its own index rows, and the coordinator merges the
    partial states -- rows never cross the fabric.  Replaces the
    IndexScan (+ subsumed Filter) + Group prefix of the pipeline when
    the planner proves every grouping key and aggregate argument is an
    index key."""

    alias: str
    keyspace: str
    index_name: str
    span: ScanSpan
    #: Dotted paths of the grouped index keys (for reconstructing a
    #: covered document per group), aligned with ``group_positions``.
    group_paths: list[str]
    #: Positions of the grouping keys within the index key tuple.
    group_positions: list[int]
    #: Per aggregate: its ``$agg:`` binding key, the aggregate name, and
    #: the argument's index-key position (None for COUNT(*), -1 for the
    #: document id).
    agg_entries: list[tuple[str, str, int | None]]

    def describe(self) -> dict:
        return {
            "#operator": "IndexAggregateScan", "keyspace": self.keyspace,
            "as": self.alias, "index": self.index_name,
            "span": self.span.describe(),
            "group_keys": list(self.group_paths),
            "aggregates": [key[len("$agg:"):]
                           for key, _name, _position in self.agg_entries],
        }


@dataclass
class SystemScan(PlanOp):
    """Scan of a system catalog keyspace (system:indexes,
    system:keyspaces, system:nodes) -- the query catalog surface of
    section 4.3.5."""

    alias: str
    what: str  # "indexes" | "keyspaces" | "nodes"

    def describe(self) -> dict:
        return {"#operator": "SystemScan", "keyspace": f"system:{self.what}",
                "as": self.alias}


@dataclass
class Fetch(PlanOp):
    alias: str
    keyspace: str

    def describe(self) -> dict:
        return {"#operator": "Fetch", "keyspace": self.keyspace,
                "as": self.alias}


@dataclass
class Filter(PlanOp):
    condition: Expr

    def describe(self) -> dict:
        return {"#operator": "Filter", "condition": print_expr(self.condition)}


@dataclass
class JoinOp(PlanOp):
    """Nested-loop key join: for each left row, KEYSCAN the inner
    keyspace on the evaluated ON KEYS (section 4.5.3, "Join methods")."""

    alias: str
    keyspace: str
    on_keys: Expr
    outer: bool = False

    def describe(self) -> dict:
        return {"#operator": "Join", "keyspace": self.keyspace,
                "as": self.alias, "on_keys": print_expr(self.on_keys),
                "outer": self.outer}


@dataclass
class NestOp(PlanOp):
    alias: str
    keyspace: str
    on_keys: Expr
    outer: bool = False

    def describe(self) -> dict:
        return {"#operator": "Nest", "keyspace": self.keyspace,
                "as": self.alias, "on_keys": print_expr(self.on_keys),
                "outer": self.outer}


@dataclass
class UnnestOp(PlanOp):
    alias: str
    expr: Expr
    outer: bool = False

    def describe(self) -> dict:
        return {"#operator": "Unnest", "as": self.alias,
                "expr": print_expr(self.expr), "outer": self.outer}


@dataclass
class LetOp(PlanOp):
    bindings: list[tuple[str, Expr]]

    def describe(self) -> dict:
        return {"#operator": "Let",
                "bindings": {n: print_expr(e) for n, e in self.bindings}}


@dataclass
class GroupOp(PlanOp):
    group_exprs: list[Expr]
    aggregates: list  # FunctionCall nodes

    def describe(self) -> dict:
        return {
            "#operator": "Group",
            "by": [print_expr(e) for e in self.group_exprs],
            "aggregates": [print_expr(a) for a in self.aggregates],
        }


@dataclass
class OrderOp(PlanOp):
    terms: list[OrderTerm]

    def describe(self) -> dict:
        return {
            "#operator": "Order",
            "terms": [
                {"expr": print_expr(t.expr), "desc": t.descending}
                for t in self.terms
            ],
        }


@dataclass
class OffsetOp(PlanOp):
    count: Expr

    def describe(self) -> dict:
        return {"#operator": "Offset", "count": print_expr(self.count)}


@dataclass
class LimitOp(PlanOp):
    count: Expr

    def describe(self) -> dict:
        return {"#operator": "Limit", "count": print_expr(self.count)}


@dataclass
class InitialProject(PlanOp):
    projections: list[Projection]
    raw: bool = False

    def describe(self) -> dict:
        out = []
        for projection in self.projections:
            if projection.expr is None:
                out.append(projection.star_of + ".*" if projection.star_of else "*")
            else:
                text = print_expr(projection.expr)
                if projection.alias:
                    text += f" AS {projection.alias}"
                out.append(text)
        return {"#operator": "InitialProject", "exprs": out, "raw": self.raw}


@dataclass
class FinalProject(PlanOp):
    def describe(self) -> dict:
        return {"#operator": "FinalProject"}


@dataclass
class DistinctOp(PlanOp):
    def describe(self) -> dict:
        return {"#operator": "Distinct"}


@dataclass
class QueryPlan:
    """An ordered operator pipeline plus context the executor needs."""

    operators: list[PlanOp]
    default_alias: str | None = None
    statement_kind: str = "SELECT"

    def describe(self) -> dict:
        return {
            "#operator": "Sequence",
            "~children": [op.describe() for op in self.operators],
        }
