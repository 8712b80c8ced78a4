"""The query service.

Section 4.3.5: "the Query Service takes an application query and
performs the necessary functions to retrieve, filter, and/or project the
data ... To process a given user query, the query engine will issue
requests to the index service, the data service, or both, depending on
the chosen query plan."

One :class:`QueryService` attaches to each query-service node.  It
parses, plans, and executes N1QL statements; compiles CREATE INDEX
expressions down to the GSI layer's extractors (or to views for USING
VIEW); and honors the per-query ``scan_consistency`` parameter
(section 3.2.3).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..common.errors import (
    IndexNotFoundError,
    N1qlSemanticError,
    declared_raises,
)
from ..gsi.indexdef import IndexDefinition, primary_index
from .catalog import Catalog, ViewIndexInfo
from .compile import compile_expr
from .dml import execute_delete, execute_insert, execute_update
from .expressions import Env, Evaluator
from .operators import ExecutionContext
from .parser import parse
from .pipeline import execute_plan
from .plan import QueryPlan
from .planner import Planner
from .printer import path_of, print_expr
from .syntax import (
    ArrayComprehension,
    BuildIndexStatement,
    CreateIndexStatement,
    CreatePrimaryIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ExplainStatement,
    Expr,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)

if TYPE_CHECKING:
    from ..server import Cluster


@dataclass
class QueryResult:
    """What a N1QL request returns."""

    rows: list = field(default_factory=list)
    status: str = "success"
    metrics: dict = field(default_factory=dict)
    plan: dict | None = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def mutation_count(self) -> int:
        return self.metrics.get("mutationCount", 0)


def _normalize_params(params) -> dict[str, Any]:
    if params is None:
        return {}
    if isinstance(params, dict):
        return dict(params)
    if isinstance(params, (list, tuple)):
        out: dict[str, Any] = {}
        for index, value in enumerate(params, start=1):
            out[str(index)] = value
            out[f"?{index}"] = value
        return out
    raise TypeError("params must be a dict or a positional sequence")


def _strip_keyspace_prefix(expr: Expr, keyspace: str) -> Expr:
    """Rewrite keyspace-qualified field paths in index DDL expressions to
    their document-relative form: ``FieldAccess(Identifier(ks), f)`` ->
    ``Identifier(f)``.  Everything else is rebuilt structurally."""
    from dataclasses import fields as dataclass_fields, is_dataclass
    from .syntax import FieldAccess, Identifier

    def rewrite(node):
        if isinstance(node, FieldAccess) and isinstance(node.base, Identifier) \
                and node.base.name == keyspace:
            return Identifier(node.field)
        if is_dataclass(node) and not isinstance(node, type):
            changed = False
            values = {}
            for f in dataclass_fields(node):
                value = getattr(node, f.name)
                new_value = rewrite_value(value)
                values[f.name] = new_value
                if new_value is not value:
                    changed = True
            if changed:
                return type(node)(**values)
            return node
        return node

    def rewrite_value(value):
        if is_dataclass(value) and not isinstance(value, type):
            return rewrite(value)
        if isinstance(value, list):
            new_list = [rewrite_value(item) for item in value]
            if any(a is not b for a, b in zip(new_list, value)):
                return new_list
            return value
        if isinstance(value, tuple):
            new_tuple = tuple(rewrite_value(item) for item in value)
            if any(a is not b for a, b in zip(new_tuple, value)):
                return new_tuple
            return value
        return value

    return rewrite(expr)


@dataclass
class CachedPlan:
    """One plan-cache / prepared-statement entry: the parsed statement
    (kept for re-planning), its plan, and the catalog epoch the plan was
    built under."""

    statement: SelectStatement
    plan: QueryPlan
    epoch: tuple


class PlanCache:
    """LRU of compiled plans for *ad-hoc* statements, keyed by statement
    text.  Repeated ad-hoc SELECTs get the prepared-statement treatment
    (skip parse + plan) automatically; entries built under an older
    catalog epoch are discarded on lookup, so index/keyspace DDL can
    never leave a stale plan running."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    def get(self, text: str, epoch: tuple) -> CachedPlan | None:
        entry = self._entries.get(text)
        if entry is None:
            return None
        if entry.epoch != epoch:
            del self._entries[text]
            return None
        self._entries.move_to_end(text)
        return entry

    def put(self, text: str, entry: CachedPlan) -> None:
        self._entries[text] = entry
        self._entries.move_to_end(text)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class QueryService:
    """N1QL front end on one query node."""

    def __init__(self, cluster: "Cluster", node):
        self.cluster = cluster
        self.node = node
        if not hasattr(cluster, "query_catalog"):
            cluster.query_catalog = Catalog(cluster)
        self.catalog: Catalog = cluster.query_catalog
        self.planner = Planner(self.catalog)
        #: name -> CachedPlan; populated by PREPARE.  Query parsing and
        #: planning "are done serially" (section 4.5.3), so skipping
        #: them per request is a real win for hot statements.  Entries
        #: are re-planned when the catalog epoch moves (index/keyspace
        #: DDL), never silently executed against dropped indexes.
        self.prepared: dict[str, CachedPlan] = {}
        #: Ad-hoc plan cache, keyed by statement text.
        self.plan_cache = PlanCache()
        #: One long-lived data-service client shared by every query this
        #: service runs, so the cluster-map cache and the node-grouped
        #: batch path survive across queries (previously each
        #: ExecutionContext called ``cluster.connect()`` afresh).
        #: Tagged "n1ql" so a scan storm's data traffic draws on the
        #: query compartment, not the application KV compartment.
        self.client = cluster.connect(service="n1ql")

    # -- entry point --------------------------------------------------------------------

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DiskFullError',
                     'DocumentLockedError', 'DurabilityError',
                     'DurabilityImpossibleError', 'IndexExistsError',
                     'IndexNotFoundError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'N1qlRuntimeError',
                     'N1qlSemanticError', 'NoSuitableIndexError',
                     'NodeDownError', 'NotMyVBucketError',
                     'ServiceUnavailableError', 'TemporaryFailureError',
                     'ValueTooLargeError', 'ViewExistsError',
                     'ViewNotFoundError')
    def query(self, text: str, params=None,
              scan_consistency: str = "not_bounded",
              consistent_with=None) -> QueryResult:
        if scan_consistency not in ("not_bounded", "request_plus",
                                    "at_plus"):
            raise N1qlSemanticError(
                f"unknown scan_consistency {scan_consistency!r}"
            )
        if scan_consistency == "at_plus" and not consistent_with:
            raise N1qlSemanticError(
                "at_plus requires mutation tokens (consistent_with=...)"
            )
        # Degradation order under overload: N1QL is shed at this front
        # door (before parse/plan/execute cost anything) while KV point
        # ops keep flowing.  The admission slot is held for the whole
        # request so the n1ql bulkhead counts running queries.
        release = self.cluster.admission.admit_query()
        try:
            metrics = self.node.metrics
            metrics.inc("n1ql.requests")
            tokens = consistent_with or []
            cached = self.plan_cache.get(text, self.catalog.current_epoch())
            if cached is not None:
                metrics.inc("n1ql.plan_cache.hit")
                self._scan_tokens = tokens
                return self._run_select(cached.plan,
                                        _normalize_params(params),
                                        scan_consistency)
            with metrics.timer("n1ql.parse_seconds"):
                statement = parse(text)
            return self._dispatch(statement, _normalize_params(params),
                                  scan_consistency, tokens, text=text)
        finally:
            release()

    def _dispatch(self, statement, params: dict,
                  scan_consistency: str,
                  scan_tokens: list | None = None,
                  text: str | None = None) -> QueryResult:
        self._scan_tokens = scan_tokens or []
        from .syntax import ExecuteStatement, PrepareStatement
        if isinstance(statement, PrepareStatement):
            return self._prepare(statement)
        if isinstance(statement, ExecuteStatement):
            return self._execute_prepared(statement.name, params,
                                          scan_consistency)
        if isinstance(statement, ExplainStatement):
            return self._explain(statement.statement, params)
        if isinstance(statement, SelectStatement):
            return self._select(statement, params, scan_consistency,
                                text=text)
        if isinstance(statement, InsertStatement):
            self.catalog.require_keyspace(statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.keyspace)
            outcome = execute_insert(statement, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, UpdateStatement):
            self.catalog.require_keyspace(statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.alias)
            outcome = execute_update(statement, self.planner, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, DeleteStatement):
            self.catalog.require_keyspace(statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.alias)
            outcome = execute_delete(statement, self.planner, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, CreateIndexStatement):
            return self._create_index(statement)
        if isinstance(statement, CreatePrimaryIndexStatement):
            return self._create_primary_index(statement)
        if isinstance(statement, DropIndexStatement):
            return self._drop_index(statement)
        if isinstance(statement, BuildIndexStatement):
            for name in statement.names:
                self.cluster.gsi.build_index(name)
            return QueryResult()
        raise N1qlSemanticError(
            f"unsupported statement {type(statement).__name__}"
        )

    # -- SELECT ----------------------------------------------------------------------------

    def _context(self, params: dict, scan_consistency: str,
                 default_alias: str | None) -> ExecutionContext:
        evaluator = Evaluator(params, default_alias)
        return ExecutionContext(self.cluster, evaluator, scan_consistency,
                                metrics=self.node.metrics,
                                scan_tokens=getattr(self, "_scan_tokens", []),
                                client=self.client)

    def _plan(self, statement: SelectStatement) -> QueryPlan:
        with self.node.metrics.timer("n1ql.plan_seconds"):
            plan = self.planner.plan_select(statement)
        return plan

    def _run_select(self, plan: QueryPlan, params: dict,
                    scan_consistency: str) -> QueryResult:
        """Single exit for every SELECT execution path (ad-hoc, cached,
        prepared), so request accounting cannot drift between them."""
        ctx = self._context(params, scan_consistency, plan.default_alias)
        metrics = self.node.metrics
        with metrics.timer("n1ql.exec_seconds"):
            rows = list(execute_plan(plan, ctx))
        metrics.inc("n1ql.selects")
        metrics.inc("n1ql.result_rows", len(rows))
        return QueryResult(rows=rows, metrics={"resultCount": len(rows)})

    def _select(self, statement: SelectStatement, params: dict,
                scan_consistency: str, text: str | None = None) -> QueryResult:
        epoch = self.catalog.current_epoch()
        plan = self._plan(statement)
        if text is not None:
            self.node.metrics.inc("n1ql.plan_cache.miss")
            self.plan_cache.put(text, CachedPlan(statement, plan, epoch))
        return self._run_select(plan, params, scan_consistency)

    def _prepare(self, statement) -> QueryResult:
        """PREPARE [name FROM] <select>: parse and plan once, cache."""
        inner = statement.statement
        if not isinstance(inner, SelectStatement):
            raise N1qlSemanticError("only SELECT statements can be prepared")
        epoch = self.catalog.current_epoch()
        plan = self._plan(inner)
        name = statement.name or f"p{len(self.prepared) + 1}"
        self.prepared[name] = CachedPlan(inner, plan, epoch)
        return QueryResult(rows=[{"name": name,
                                  "operator": plan.describe()}])

    def _execute_prepared(self, name: str, params: dict,
                          scan_consistency: str) -> QueryResult:
        entry = self.prepared.get(name)
        if entry is None:
            raise N1qlSemanticError(f"no prepared statement named {name!r}")
        current = self.catalog.current_epoch()
        if entry.epoch != current:
            # Index or keyspace DDL happened since this statement was
            # planned; re-plan from the stored AST instead of executing
            # a plan that may reference a dropped index.
            entry = CachedPlan(entry.statement,
                               self._plan(entry.statement), current)
            self.prepared[name] = entry
            self.node.metrics.inc("n1ql.prepared.replan")
        return self._run_select(entry.plan, params, scan_consistency)

    def _explain(self, statement, params: dict) -> QueryResult:
        if isinstance(statement, SelectStatement):
            plan = self.planner.plan_select(statement)
            return QueryResult(rows=[plan.describe()], plan=plan.describe())
        return QueryResult(rows=[{
            "#operator": type(statement).__name__,
        }])

    # -- index DDL ----------------------------------------------------------------------------

    def _compile_extractor(self, expr: Expr, keyspace: str):
        """Compile an index key expression into (doc, doc_id) -> value.

        Index expressions are document-relative: a bare identifier names
        a *field*, never the keyspace itself (so ``CREATE INDEX ON b(b)``
        indexes field b).  Keyspace-qualified paths (``b.age``) are
        stripped to their document-relative form first."""
        expr = _strip_keyspace_prefix(expr, keyspace)
        evaluator = Evaluator({}, default_alias="$doc")
        compiled = compile_expr(expr, "$doc")
        self.node.metrics.inc("n1ql.compile.count")

        def extract(doc, doc_id):
            env = Env()
            env.bind("$doc", doc, {"id": doc_id})
            return compiled(env, evaluator)

        return extract

    def _compile_condition(self, expr: Expr, keyspace: str):
        expr = _strip_keyspace_prefix(expr, keyspace)
        evaluator = Evaluator({}, default_alias="$doc")
        compiled = compile_expr(expr, "$doc")
        self.node.metrics.inc("n1ql.compile.count")

        def condition(doc, doc_id):
            env = Env()
            env.bind("$doc", doc, {"id": doc_id})
            return compiled(env, evaluator) is True

        return condition

    def _create_index(self, statement: CreateIndexStatement) -> QueryResult:
        self.catalog.require_keyspace(statement.keyspace)
        if statement.using == "view":
            return self._create_view_index(statement)
        options = statement.with_options
        array_component = None
        extractors = []
        key_sources = []
        for position, key_expr in enumerate(statement.keys):
            if isinstance(key_expr, ArrayComprehension):
                if array_component is not None:
                    raise N1qlSemanticError(
                        "an index may have only one array component"
                    )
                array_component = position
                extractors.append(
                    self._compile_extractor(key_expr.collection,
                                            statement.keyspace)
                )
                key_sources.append(
                    "distinct array "
                    + (path_of(key_expr.collection,
                               strip_alias=statement.keyspace)
                       or print_expr(key_expr.collection))
                )
                continue
            extractors.append(
                self._compile_extractor(key_expr, statement.keyspace)
            )
            key_sources.append(
                path_of(key_expr, strip_alias=statement.keyspace)
                or print_expr(key_expr)
            )
        condition = None
        if statement.where is not None:
            condition = self._compile_condition(statement.where,
                                                statement.keyspace)
        definition = IndexDefinition(
            name=statement.name,
            bucket=statement.keyspace,
            key_sources=key_sources,
            extractors=extractors,
            condition=condition,
            condition_source=statement.where_source,
            array_component=array_component,
            storage="memopt" if options.get("memory_optimized") else "standard",
            deferred=bool(options.get("defer_build")),
            num_partitions=int(options.get("num_partitions", 1)),
        )
        # Stash the condition AST for the planner's implication check.
        definition.condition_expr = statement.where  # type: ignore[attr-defined]
        nodes = options.get("nodes")
        self.cluster.gsi.create_index(definition, nodes)
        return QueryResult()

    def _create_view_index(self, statement: CreateIndexStatement) -> QueryResult:
        if len(statement.keys) != 1:
            raise N1qlSemanticError(
                "USING VIEW indexes support a single attribute key"
            )
        attribute = path_of(statement.keys[0],
                            strip_alias=statement.keyspace)
        if attribute is None:
            raise N1qlSemanticError(
                "USING VIEW indexes require a plain attribute path"
            )
        if statement.where is not None:
            raise N1qlSemanticError("USING VIEW indexes cannot be partial")
        from ..views.mapreduce import attribute_view
        definition = attribute_view(Catalog.N1QL_DESIGN, statement.name,
                                    attribute)
        self.cluster.define_view(statement.keyspace, definition)
        self.catalog.add_view_index(ViewIndexInfo(
            name=statement.name,
            bucket=statement.keyspace,
            attribute=attribute,
            design=Catalog.N1QL_DESIGN,
            view=statement.name,
        ))
        return QueryResult()

    def _create_primary_index(self,
                              statement: CreatePrimaryIndexStatement) -> QueryResult:
        self.catalog.require_keyspace(statement.keyspace)
        # Index names are global in this registry, so the default primary
        # name is scoped by keyspace.
        name = statement.name or f"#primary_{statement.keyspace}"
        if statement.using == "view":
            from ..views.mapreduce import primary_view
            definition = primary_view(Catalog.N1QL_DESIGN, name)
            self.cluster.define_view(statement.keyspace, definition)
            self.catalog.add_view_index(ViewIndexInfo(
                name=name,
                bucket=statement.keyspace,
                attribute="meta().id",
                design=Catalog.N1QL_DESIGN,
                view=name,
                is_primary=True,
            ))
            return QueryResult()
        definition = primary_index(
            name, statement.keyspace,
            storage="memopt" if statement.with_options.get(
                "memory_optimized") else "standard",
            deferred=bool(statement.with_options.get("defer_build")),
        )
        self.cluster.gsi.create_index(
            definition, statement.with_options.get("nodes")
        )
        return QueryResult()

    def _drop_index(self, statement: DropIndexStatement) -> QueryResult:
        try:
            self.cluster.gsi.drop_index(statement.name)
        except IndexNotFoundError:
            # Not a GSI index: fall back to the view-backed catalog.  If
            # the name is unknown there too, drop_view_index raises its
            # own IndexNotFoundError to the caller.
            info = self.catalog.drop_view_index(statement.name)
            self.cluster.drop_view(info.bucket, info.design, info.view)
        return QueryResult()
