"""The N1QL planner.

Section 4.5.3: "the N1QL query planner analyzes the query and available
access path options for each keyspace ... The planner needs to first
select the access path for each bucket, determine the join order, and
then determine the type of the join operation."

Access-path selection, in preference order:

1. **KeyScan** when USE KEYS is present -- the key-value bridge.
2. **IndexScan** over the best qualifying secondary index: the WHERE
   clause is split into conjuncts, each conjunct of the form
   ``<path> <cmp> <constant>`` contributes a bound, and the index whose
   leading keys absorb the most bounds wins.  A **covering** index (all
   referenced fields among the index keys, section 5.1.2) skips the
   Fetch operator.  Partial indexes qualify only when the WHERE clause
   provably implies the index condition.
3. **IndexScan on the primary index** when the predicate ranges over
   ``meta().id`` (the YCSB workload-E shape).
4. **PrimaryScan** -- the full-keyspace fallback the paper warns about
   (section 5.1.1).

Join order is the textual order (N1QL 4.x behaviour); every join is the
nested-loop key-lookup join of section 4.5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NoSuitableIndexError, N1qlSemanticError
from .catalog import require_keyspace
from .collation import MISSING
from .expressions import collect_aggregates
from .functions import is_aggregate
from .plan import (
    DistinctOp,
    Fetch,
    Filter,
    FinalProject,
    GroupOp,
    IndexAggregateScan,
    IndexScan,
    InitialProject,
    JoinOp,
    KeyScan,
    LetOp,
    LimitOp,
    NestOp,
    OffsetOp,
    OrderOp,
    PrimaryScan,
    QueryPlan,
    ScanSpan,
    UnnestOp,
)
from .parser import is_slot
from .printer import path_of, print_expr
from .syntax import (
    Between,
    Binary,
    CollectionPredicate,
    Expr,
    FieldAccess,
    FunctionCall,
    Identifier,
    JoinClause,
    Literal,
    NestClause,
    Parameter,
    SelectStatement,
    UnnestClause,
)


class SlotValueRead(Exception):
    """Planning a lifted statement (``parser.parse_lifted``) needed the
    value of a lifted literal -- a LIKE pattern's prefix bound, a partial
    index's implication proof -- so its plan would be right for that
    value only.  The caller plans the statement as written instead."""


@dataclass
class Bounds:
    """Accumulated restrictions on one attribute path.

    Each bound remembers the WHERE conjunct that set it.  The first
    conjunct to set a bound keeps it: a later ``=``, ``>=`` or ``<`` on
    the same path stays in the Filter.  A bound with no source (a LIKE
    prefix range, a BETWEEN end whose twin was already set) narrows the
    span without proving its conjunct."""

    eq: Expr | None = None
    low: Expr | None = None
    low_inclusive: bool = True
    high: Expr | None = None
    high_inclusive: bool = True
    eq_source: Expr | None = None
    low_source: Expr | None = None
    high_source: Expr | None = None

    @property
    def restricted(self) -> bool:
        return self.eq is not None or self.low is not None or self.high is not None

    @property
    def sources(self) -> list[Expr]:
        """The WHERE conjuncts a span built from these bounds enforces:
        every row the span admits satisfies each of them.  A span uses
        ``eq`` when there is one (``_build_span``), so the range
        conjuncts then prove nothing."""
        if self.eq is not None:
            return [self.eq_source] if self.eq_source is not None else []
        return [source for source in (self.low_source, self.high_source)
                if source is not None]


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def is_constant(expr: Expr) -> bool:
    """No free identifiers: literals, parameters, and operators/functions
    over them.  Such expressions can become index scan bounds."""
    if isinstance(expr, (Literal, Parameter)):
        return True
    if isinstance(expr, Identifier):
        return False
    if isinstance(expr, FieldAccess):
        return False
    if isinstance(expr, Binary):
        return is_constant(expr.left) and is_constant(expr.right)
    if isinstance(expr, FunctionCall):
        return bool(expr.args) and all(is_constant(a) for a in expr.args) \
            and expr.name != "META"
    from .syntax import Unary, ArrayLiteral
    if isinstance(expr, Unary):
        return is_constant(expr.operand)
    if isinstance(expr, ArrayLiteral):
        return all(is_constant(i) for i in expr.items)
    return False


def extract_bounds(where: Expr | None, alias: str) -> dict[str, Bounds]:
    """Map attribute paths (alias-stripped) to their sargable bounds;
    ``ANY v IN <path> SATISFIES v = c END`` bounds the array index key
    ``distinct array <path>``."""
    bounds: dict[str, Bounds] = {}

    def bound_for(path: str) -> Bounds:
        return bounds.setdefault(path, Bounds())

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, Binary) and conjunct.op in (
            "=", "<", "<=", ">", ">=",
        ):
            for left, right, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _flip(conjunct.op)),
            ):
                path = path_of(left, strip_alias=alias)
                if path is None or not is_constant(right):
                    continue
                b = bound_for(path)
                if op == "=":
                    if b.eq is None:
                        b.eq, b.eq_source = right, conjunct
                elif op in (">", ">="):
                    if b.low is None:
                        b.low, b.low_source = right, conjunct
                        b.low_inclusive = op == ">="
                elif b.high is None:
                    b.high, b.high_source = right, conjunct
                    b.high_inclusive = op == "<="
                break
        elif isinstance(conjunct, Between) and not conjunct.negated:
            path = path_of(conjunct.operand, strip_alias=alias)
            if path is not None and is_constant(conjunct.low) \
                    and is_constant(conjunct.high):
                b = bound_for(path)
                # The span proves BETWEEN only when it set both ends.
                source = (conjunct if b.low is None and b.high is None
                          else None)
                if b.low is None:
                    b.low, b.low_source = conjunct.low, source
                if b.high is None:
                    b.high, b.high_source = conjunct.high, source
        elif isinstance(conjunct, Binary) and conjunct.op == "LIKE":
            path = path_of(conjunct.left, strip_alias=alias)
            if path is not None and is_slot(conjunct.right):
                raise SlotValueRead(print_expr(conjunct))
            if path is not None and isinstance(conjunct.right, Literal) \
                    and isinstance(conjunct.right.value, str):
                pattern = conjunct.right.value
                prefix = _like_prefix(pattern)
                if prefix:
                    b = bound_for(path)
                    if b.low is None:
                        b.low = Literal(prefix)
                    if b.high is None:
                        b.high = Literal(prefix + "￿")
        elif isinstance(conjunct, CollectionPredicate) and conjunct.quantifier == "ANY" \
                and isinstance(conjunct.condition, Binary) and conjunct.condition.op == "=":
            path = path_of(conjunct.collection, strip_alias=alias)
            left, right = conjunct.condition.left, conjunct.condition.right
            for element, value in ((left, right), (right, left)):
                if path is not None and isinstance(element, Identifier) \
                        and element.name == conjunct.variable and is_constant(value):
                    bounds.setdefault(f"distinct array {path}", Bounds(eq=value))
    return bounds


def _flip(op: str) -> str:
    return {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _like_prefix(pattern: str) -> str:
    prefix = []
    for char in pattern:
        if char in ("%", "_"):
            break
        prefix.append(char)
    return "".join(prefix)


def _span_absorbs_where(where: Expr | None, used_bounds: list[Bounds]) -> bool:
    """True when the span enforces every WHERE conjunct -- i.e. the scan
    returns only rows the Filter would keep anyway.  Then a covered scan
    needs no Filter, and LIMIT and GROUP BY may be pushed into it.

    The proof per conjunct: it set a bound the span uses
    (:attr:`Bounds.sources`); a NULL or MISSING bound value makes the
    span empty, as it makes the comparison not TRUE
    (``operators._evaluate_span``); and a span with only an upper bound
    on its range key starts past NULL, which no comparison admits."""
    absorbed: set[int] = set()
    for b in used_bounds:
        absorbed.update(id(conjunct) for conjunct in b.sources)
    return all(id(conjunct) in absorbed for conjunct in split_conjuncts(where))


def _span_is_filter(operators: list) -> bool:
    """The pipeline so far is one covered GSI scan whose span absorbs
    the whole WHERE clause, so a Filter would keep every row.  A scan
    followed by Fetch keeps its Filter: the fetched document may be
    newer than the index entry that matched."""
    return (len(operators) == 1
            and isinstance(operators[0], (IndexScan, PrimaryScan))
            and operators[0].using == "gsi"
            and getattr(operators[0], "_filter_subsumed", False))


def referenced_paths(statement: SelectStatement, alias: str) -> set[str] | None:
    """Dotted paths of ``alias`` referenced anywhere in the statement.

    Returns None when coverage analysis is impossible (``*`` projections
    or whole-document references)."""
    paths: set[str] = set()
    impossible = [False]

    def walk(node):
        if node is None or isinstance(node, (Literal, Parameter, str, bool,
                                             int, float)):
            return
        if isinstance(node, Identifier):
            if node.name == alias:
                impossible[0] = True
            else:
                paths.add(node.name)
            return
        if isinstance(node, FieldAccess):
            path = path_of(node, strip_alias=alias)
            if path is not None:
                paths.add(path)
                return
            walk(node.base)
            return
        if isinstance(node, FunctionCall):
            if node.name == "META":
                paths.add("meta().id")
                return
            for arg in node.args:
                walk(arg)
            return
        for attr in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, attr)
            if isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, tuple):
                        for part in item:
                            walk(part) if not isinstance(part, str) else None
                    else:
                        walk(item)
            elif not isinstance(value, (str, bool, int, float, type(None))):
                walk(value)

    for projection in statement.projections:
        if projection.expr is None:
            return None  # '*' projection: not coverable
        walk(projection.expr)
    walk(statement.where)
    for expr in statement.group_by:
        walk(expr)
    walk(statement.having)
    for term in statement.order_by:
        walk(term.expr)
    for _name, expr in statement.let_bindings:
        walk(expr)
    if statement.joins:
        return None  # joins reference whole documents; keep it simple
    if impossible[0]:
        return None
    return paths


def implies(bounds: dict[str, Bounds], condition: Expr, alias: str) -> bool:
    """Conservatively check that the query's WHERE implies a partial
    index's condition.  Handles conjunctions of single-attribute
    comparisons against literals (the paper's ``WHERE age > 21`` shape);
    anything it cannot prove is treated as not implied."""
    for conjunct in split_conjuncts(condition):
        if not _implies_one(bounds, conjunct, alias):
            return False
    return True


def _implies_one(bounds: dict[str, Bounds], conjunct: Expr, alias: str) -> bool:
    if not isinstance(conjunct, Binary) or conjunct.op not in (
        "=", "<", "<=", ">", ">=",
    ):
        return False
    path = path_of(conjunct.left, strip_alias=alias)
    target = conjunct.right
    op = conjunct.op
    if path is None:
        path = path_of(conjunct.right, strip_alias=alias)
        target = conjunct.left
        op = _flip(op)
    if path is None or not isinstance(target, Literal):
        return False
    b = bounds.get(path)
    if b is None:
        return False
    threshold = target.value

    def literal_value(expr):
        if is_slot(expr):
            raise SlotValueRead(print_expr(conjunct))
        return expr.value if isinstance(expr, Literal) else MISSING

    from .collation import compare
    if b.eq is not None:
        value = literal_value(b.eq)
        if value is MISSING:
            return False
        return {
            "=": compare(value, threshold) == 0,
            ">": compare(value, threshold) > 0,
            ">=": compare(value, threshold) >= 0,
            "<": compare(value, threshold) < 0,
            "<=": compare(value, threshold) <= 0,
        }[op]
    if op in (">", ">=") and b.low is not None:
        value = literal_value(b.low)
        if value is MISSING:
            return False
        order = compare(value, threshold)
        if op == ">":
            return order > 0 or (order == 0 and not b.low_inclusive)
        return order >= 0
    if op in ("<", "<=") and b.high is not None:
        value = literal_value(b.high)
        if value is MISSING:
            return False
        order = compare(value, threshold)
        if op == "<":
            return order < 0 or (order == 0 and not b.high_inclusive)
        return order <= 0
    return False


class Planner:
    """Access-path selection and pipeline assembly (section 4.5.3)."""

    def __init__(self, catalog):
        #: The cluster catalog (:mod:`repro.cluster.catalog`).
        self.catalog = catalog

    # -- SELECT ---------------------------------------------------------------------

    def plan_select(self, statement: SelectStatement) -> QueryPlan:
        operators = []
        default_alias = None
        if statement.from_term is not None:
            term = statement.from_term
            if not term.keyspace.startswith("system:"):
                require_keyspace(self.catalog, term.keyspace)
            default_alias = term.alias
            operators.extend(self._plan_access_path(statement, term))
            for clause in statement.joins:
                if isinstance(clause, JoinClause):
                    require_keyspace(self.catalog, clause.keyspace)
                    operators.append(JoinOp(clause.alias, clause.keyspace,
                                            clause.on_keys, clause.outer))
                elif isinstance(clause, NestClause):
                    require_keyspace(self.catalog, clause.keyspace)
                    operators.append(NestOp(clause.alias, clause.keyspace,
                                            clause.on_keys, clause.outer))
                elif isinstance(clause, UnnestClause):
                    operators.append(UnnestOp(clause.alias, clause.expr,
                                              clause.outer))
        if statement.let_bindings:
            operators.append(LetOp(statement.let_bindings))
        if statement.where is not None and not _span_is_filter(operators):
            operators.append(Filter(statement.where))

        aggregate_sources = (
            [p.expr for p in statement.projections if p.expr is not None]
            + ([statement.having] if statement.having is not None else [])
            + [t.expr for t in statement.order_by]
        )
        aggregates = collect_aggregates(aggregate_sources)
        if statement.group_by or aggregates:
            pushed = self._push_group_to_index(statement, operators,
                                               aggregates)
            if pushed is not None:
                operators = pushed
            else:
                operators.append(GroupOp(statement.group_by, aggregates))
        if statement.having is not None:
            operators.append(Filter(statement.having))

        order_terms = self._resolve_order_aliases(statement)
        if order_terms and self._index_provides_order(statement, operators,
                                                      order_terms):
            order_terms = []  # the scan already yields index order
        if order_terms:
            operators.append(OrderOp(order_terms))
        if not order_terms:
            self._push_limit(statement, operators, aggregates)
        if statement.offset is not None:
            operators.append(OffsetOp(statement.offset))
        if statement.limit is not None:
            operators.append(LimitOp(statement.limit))
        operators.append(InitialProject(statement.projections, statement.raw))
        if statement.distinct:
            operators.append(DistinctOp())
        operators.append(FinalProject())
        return QueryPlan(operators, default_alias, "SELECT")

    def _push_limit(self, statement, operators, aggregates) -> None:
        """LIMIT pushdown: when nothing between the scan and the LIMIT
        can drop, multiply, or reorder rows, the scan itself can stop
        after LIMIT (+ OFFSET) entries -- the indexer stops walking the
        tree instead of materializing the whole range (the dominant cost
        of the YCSB-E scan shape)."""
        if statement.limit is None or statement.group_by or aggregates \
                or statement.having is not None or statement.distinct \
                or statement.joins or statement.let_bindings:
            return
        scan = operators[0] if operators else None
        if not isinstance(scan, (IndexScan, PrimaryScan)) \
                or scan.using != "gsi":
            return
        if not getattr(scan, "_filter_subsumed", False):
            return
        limit = statement.limit
        if statement.offset is not None:
            limit = Binary("+", limit, statement.offset)
        scan.limit = limit

    def _push_group_to_index(self, statement, operators,
                             aggregates) -> list | None:
        """Partial-aggregate pushdown (section 5.1): replace a covering
        IndexScan (+ fully subsumed Filter) + Group prefix with an
        IndexAggregateScan, so each index partition groups and partially
        aggregates its own rows and only group summaries cross the
        fabric.  Returns the replacement operator list, or None when the
        rewrite cannot be proven safe.

        Requirements, all planner-proven:

        * the pipeline so far is exactly a covering GSI scan whose span
          absorbs the WHERE clause (so it has no Filter);
        * every grouping expression is a *leading prefix* of the index
          keys, in clause order -- that makes the coordinator's merged
          (collation) order identical to the Group operator's first-seen
          order, since a covering scan sees rows in key order;
        * every aggregate is a non-DISTINCT COUNT/SUM/AVG/MIN/MAX whose
          argument is an index key or meta().id, so the node can fold it
          into a mergeable [count, total, best] partial;
        * everything else the statement references (projections, HAVING,
          ORDER BY) only touches grouping keys, which the scan
          reconstructs into a covered document per group.
        """
        if statement.joins or statement.let_bindings \
                or not _span_is_filter(operators):
            return None
        scan = operators[0]
        meta = self.catalog.get(scan.index_name)
        if meta is None or meta.definition.array_component is not None:
            return None
        key_sources = meta.definition.key_sources
        alias = statement.from_term.alias
        analysis = self._aggregate_pushdown_analysis(
            statement, alias, key_sources, aggregates)
        if analysis is None:
            return None
        group_paths, group_positions, agg_entries = analysis
        span = (scan.span if isinstance(scan, IndexScan)
                else ScanSpan(low=None, high=None))
        return [IndexAggregateScan(alias, scan.keyspace, scan.index_name,
                                   span, group_paths, group_positions,
                                   agg_entries)]

    def _aggregate_pushdown_analysis(self, statement, alias, key_sources,
                                     aggregates):
        """Prove the GROUP BY / aggregate list is computable from index
        keys alone; returns (group_paths, group_positions, agg_entries)
        or None."""
        group_paths: list[str] = []
        group_positions: list[int] = []
        for expr in statement.group_by:
            path = path_of(expr, strip_alias=alias)
            if path is None or path == "meta().id" \
                    or path not in key_sources:
                return None
            group_paths.append(path)
            group_positions.append(key_sources.index(path))
        # Prefix-in-order: merged collation order == row first-seen order.
        if group_positions != list(range(len(group_positions))):
            return None
        agg_entries: list[tuple[str, str, int | None]] = []
        for aggregate in aggregates:
            if aggregate.distinct \
                    or aggregate.name not in ("COUNT", "SUM", "AVG",
                                              "MIN", "MAX"):
                return None
            if aggregate.star:
                position: int | None = None
            else:
                path = path_of(aggregate.args[0], strip_alias=alias)
                if path == "meta().id":
                    position = -1
                elif path in key_sources:
                    position = key_sources.index(path)
                else:
                    return None
            agg_entries.append(("$agg:" + print_expr(aggregate),
                                aggregate.name, position))
        plain = self._non_aggregate_paths(statement, alias)
        if plain is None or not plain <= set(group_paths):
            return None
        return group_paths, group_positions, agg_entries

    def _non_aggregate_paths(self, statement, alias) -> set[str] | None:
        """Paths referenced outside aggregate arguments in the parts of
        the statement that run *after* grouping (projections, HAVING,
        ORDER BY).  The unpushed plan evaluates these against each
        group's representative row; the pushed plan only reconstructs
        the grouping keys, so anything beyond them blocks the rewrite.
        None means analysis is impossible (whole-document reference)."""
        paths: set[str] = set()
        impossible = [False]

        def walk(node):
            if node is None or isinstance(node, (Literal, Parameter)):
                return
            if isinstance(node, Identifier):
                if node.name == alias:
                    impossible[0] = True
                else:
                    paths.add(node.name)
                return
            if isinstance(node, FieldAccess):
                path = path_of(node, strip_alias=alias)
                if path is not None:
                    paths.add(path)
                    return
                walk(node.base)
                return
            if isinstance(node, FunctionCall):
                if is_aggregate(node.name):
                    return  # argument is folded on the index nodes
                if node.name == "META":
                    paths.add("meta().id")
                    return
                for arg in node.args:
                    walk(arg)
                return
            for attr in getattr(node, "__dataclass_fields__", {}):
                value = getattr(node, attr)
                if isinstance(value, (list, tuple)):
                    for item in value:
                        if not isinstance(item, (str, bool, int, float)):
                            walk(item)
                elif not isinstance(value, (str, bool, int, float,
                                            type(None))):
                    walk(value)

        for projection in statement.projections:
            if projection.expr is None:
                return None  # '*' needs the whole document
            walk(projection.expr)
        walk(statement.having)
        for term in self._resolve_order_aliases(statement):
            walk(term.expr)
        if impossible[0]:
            return None
        return paths

    def _index_provides_order(self, statement, operators,
                              order_terms) -> bool:
        """Sort elimination: a single ascending ORDER BY on the scan's
        leading index key is already satisfied by the index scan (GSI
        scans return entries in key order, and the coordinator merges
        partitions ordered)."""
        if statement.group_by or statement.distinct or statement.joins:
            return False
        if len(order_terms) != 1 or order_terms[0].descending:
            return False
        scan = operators[0] if operators else None
        if not isinstance(scan, IndexScan) or scan.using != "gsi":
            return False
        meta = self.catalog.get(scan.index_name)
        if meta is None:
            return False
        leading = meta.definition.key_sources[0]
        alias = statement.from_term.alias
        order_path = path_of(order_terms[0].expr, strip_alias=alias)
        return order_path == leading

    def _resolve_order_aliases(self, statement: SelectStatement):
        """ORDER BY may name projection aliases; rewrite those to the
        projected expressions."""
        alias_map = {
            p.alias: p.expr
            for p in statement.projections
            if p.alias and p.expr is not None
        }
        terms = []
        from .syntax import OrderTerm
        for term in statement.order_by:
            expr = term.expr
            if isinstance(expr, Identifier) and expr.name in alias_map:
                expr = alias_map[expr.name]
            terms.append(OrderTerm(expr, term.descending))
        return terms

    # -- access paths ---------------------------------------------------------------------

    def _plan_access_path(self, statement: SelectStatement, term) -> list:
        if term.keyspace.startswith("system:"):
            from .plan import SystemScan
            what = term.keyspace.split(":", 1)[1]
            if what not in ("indexes", "keyspaces", "nodes"):
                raise N1qlSemanticError(
                    f"unknown system keyspace {term.keyspace!r}"
                )
            return [SystemScan(term.alias, what)]
        if term.use_keys is not None:
            return [KeyScan(term.alias, term.keyspace, term.use_keys),
                    Fetch(term.alias, term.keyspace)]

        bounds = extract_bounds(statement.where, term.alias)
        choice = self._choose_index(statement, term, bounds)
        if choice is not None:
            return choice

        # Fall back to a primary scan (section 5.1.1 warns about these).
        primary = next((meta for meta in self.catalog.ready_on(term.keyspace)
                        if meta.definition.is_primary), None)
        if primary is not None:
            # The primary index yields meta().id itself: queries that
            # reference nothing else (the YCSB-E scan shape) skip the
            # Fetch entirely, just like a covering secondary index.
            referenced = referenced_paths(statement, term.alias)
            covered = referenced is not None and referenced <= {"meta().id"}
            id_bounds = bounds.get("meta().id")
            span = _span_from_bounds([id_bounds] if id_bounds else [])
            if id_bounds is not None and id_bounds.restricted:
                scan = IndexScan(term.alias, term.keyspace,
                                 primary.definition.name, span, using="gsi",
                                 covered=covered, cover_paths=[])
                scan._filter_subsumed = _span_absorbs_where(
                    statement.where, [id_bounds])
                if covered:
                    return [scan]
                return [scan, Fetch(term.alias, term.keyspace)]
            scan = PrimaryScan(term.alias, term.keyspace,
                               primary.definition.name, "gsi",
                               covered=covered)
            scan._filter_subsumed = statement.where is None
            if covered:
                return [scan]
            return [scan, Fetch(term.alias, term.keyspace)]
        view_primary = next((info for info in self.catalog.view_indexes(
            term.keyspace) if info.is_primary), None)
        if view_primary is not None:
            return [
                PrimaryScan(term.alias, term.keyspace, view_primary.name,
                            "view"),
                Fetch(term.alias, term.keyspace),
            ]
        raise NoSuitableIndexError(term.keyspace)

    def _choose_index(self, statement, term, bounds) -> list | None:
        candidates = []
        for meta in self.catalog.ready_on(term.keyspace):
            definition = meta.definition
            if definition.is_primary:
                continue
            if definition.condition is not None:
                condition_expr = getattr(definition, "condition_expr", None)
                if condition_expr is None or not implies(
                    bounds, condition_expr, term.alias
                ):
                    continue
            sargable = self._sargable_prefix(definition, bounds)
            if sargable == 0:
                continue
            covered, cover_paths = self._coverage(statement, term, definition)
            candidates.append((sargable, covered, definition, cover_paths))
        for info in self.catalog.view_indexes(term.keyspace):
            if info.is_primary:
                continue
            b = bounds.get(info.attribute)
            if b is not None and b.restricted:
                candidates.append((1, False, info, []))
        if not candidates:
            return None
        candidates.sort(
            key=lambda c: (c[0], c[1], getattr(c[2], "name", "")), reverse=True
        )
        sargable, covered, chosen, cover_paths = candidates[0]
        if hasattr(chosen, "extractors"):  # a GSI IndexDefinition
            span, used = self._build_span(chosen, bounds)
            scan = IndexScan(term.alias, term.keyspace, chosen.name, span,
                             using="gsi", covered=covered,
                             cover_paths=cover_paths)
            # Array indexes can emit a doc per element, so an early stop
            # could under-count; plain indexes qualify for LIMIT pushdown
            # when the span subsumes the whole WHERE clause.
            scan._filter_subsumed = (
                chosen.array_component is None
                and _span_absorbs_where(statement.where, used)
            )
            if covered:
                return [scan]
            return [scan, Fetch(term.alias, term.keyspace)]
        # View-backed index.
        b = bounds[chosen.attribute]
        span = _span_from_bounds([b])
        scan = IndexScan(term.alias, term.keyspace, chosen.name, span,
                         using="view")
        scan.view_design = chosen.design
        scan.view_name = chosen.view
        return [scan, Fetch(term.alias, term.keyspace)]

    def _sargable_prefix(self, definition, bounds) -> int:
        """How many leading index keys the WHERE clause constrains
        (equalities extend the prefix; the first range ends it)."""
        count = 0
        for path in definition.key_sources:
            b = bounds.get(path)
            if definition.array_component is not None:
                # Array index: sargable when its leading key is bounded.
                return 1 if (b is not None and b.restricted) else 0
            if b is None or not b.restricted:
                break
            count += 1
            if b.eq is None:
                break  # range ends the usable prefix
        return count

    def _coverage(self, statement, term, definition) -> tuple[bool, list[str]]:
        if definition.array_component is not None:
            return False, []
        referenced = referenced_paths(statement, term.alias)
        if referenced is None:
            return False, []
        available = set(definition.key_sources) | {"meta().id"}
        if definition.condition_source:
            pass  # condition attrs need not be fetched; WHERE implied it
        covered = referenced <= available
        return covered, list(definition.key_sources)

    def _build_span(self, definition, bounds) -> tuple[ScanSpan, list[Bounds]]:
        lows: list[Expr] = []
        highs: list[Expr] = []
        inclusive_low = inclusive_high = True
        used: list[Bounds] = []
        for path in definition.key_sources:
            b = bounds.get(path)
            if b is None or not b.restricted:
                break
            used.append(b)
            if b.eq is not None:
                lows.append(b.eq)
                highs.append(b.eq)
                continue
            if b.low is not None:
                lows.append(b.low)
                inclusive_low = b.low_inclusive
            if b.high is not None:
                highs.append(b.high)
                inclusive_high = b.high_inclusive
            break
        span = ScanSpan(
            low=lows or None,
            high=highs or None,
            inclusive_low=inclusive_low,
            inclusive_high=inclusive_high,
        )
        return span, used


def _span_from_bounds(bound_list) -> ScanSpan:
    if not bound_list or bound_list[0] is None:
        return ScanSpan(low=None, high=None)
    b = bound_list[0]
    if b.eq is not None:
        return ScanSpan(low=[b.eq], high=[b.eq])
    return ScanSpan(
        low=[b.low] if b.low is not None else None,
        high=[b.high] if b.high is not None else None,
        inclusive_low=b.low_inclusive,
        inclusive_high=b.high_inclusive,
    )
