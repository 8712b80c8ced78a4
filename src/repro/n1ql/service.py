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

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..common.contracts import declared_raises
from ..common.errors import N1qlSemanticError
from ..gsi.indexdef import IndexDefinition, primary_index
from .catalog import N1QL_DESIGN, ViewIndexInfo, require_keyspace
from .compile import compile_expr
from .dml import execute_delete, execute_insert, execute_update
from .expressions import Env, Evaluator
from .operators import ExecutionContext
from .lexer import tokenize
from .parser import parse, parse_lifted, slot_parameter, statement_shape
from .pipeline import execute_plan
from .plan import QueryPlan
from .planner import Planner, SlotValueRead
from .printer import path_of, print_expr
from .syntax import (
    ArrayComprehension,
    BuildIndexStatement,
    CreateIndexStatement,
    CreatePrimaryIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ExecuteStatement,
    ExplainStatement,
    Expr,
    InsertStatement,
    PrepareStatement,
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


def _bind_slots(params: dict[str, Any], literals: list) -> dict[str, Any]:
    """``params`` with each lifted literal bound to its slot's hidden
    parameter (``parser.slot_parameter``)."""
    params.update((slot_parameter(slot), value)
                  for slot, value in enumerate(literals))
    return params


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
    """LRU of compiled plans for *ad-hoc* statements.  Repeated ad-hoc
    SELECTs get the prepared-statement treatment (skip parse + plan)
    automatically; entries built under an older catalog epoch are
    discarded on lookup, so index/keyspace DDL can never leave a stale
    plan running.

    A plan's key is its statement's shape (``parser.statement_shape``:
    the tokens with the literals lifted to slots) when the lifted plan
    serves every statement of the shape, else the statement's text.
    ``capacity`` counts plans.  Beside them, an LRU of the same capacity
    remembers which shape (and which literal values) a text had, so the
    same text again is not even lexed; it holds no plan, so texts never
    take a plan's place.  A third one remembers the name each ``EXECUTE``
    text names, so that a repeated EXECUTE is not lexed either."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: OrderedDict[tuple | str, CachedPlan] = OrderedDict()
        self._shapes: OrderedDict[str, tuple[tuple, list]] = OrderedDict()
        self._executes: OrderedDict[str, str] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple | str) -> bool:
        return key in self._entries

    def get(self, key: tuple | str, epoch: tuple) -> CachedPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.epoch != epoch:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple | str, entry: CachedPlan) -> None:
        self._put(self._entries, key, entry)

    def _put(self, lru: OrderedDict, key, value) -> None:
        lru[key] = value
        lru.move_to_end(key)
        while len(lru) > self.capacity:
            lru.popitem(last=False)

    def lookup(self, text: str,
               epoch: tuple) -> tuple[CachedPlan | None, list]:
        """The plan for ``text`` found without lexing it -- its own, or
        its remembered shape's -- and the literal values to bind."""
        entry = self.get(text, epoch)
        if entry is not None:
            return entry, []
        known = self._shapes.get(text)
        if known is None:
            return None, []
        self._shapes.move_to_end(text)
        shape, literals = known
        return self.get(shape, epoch), literals

    def remember(self, text: str, shape: tuple, literals: list) -> None:
        """Note that ``text`` is served by the plan keyed ``shape``."""
        self._put(self._shapes, text, (shape, literals))

    def prepared_name(self, text: str) -> str | None:
        """The prepared-statement name of a known ``EXECUTE`` text."""
        name = self._executes.get(text)
        if name is not None:
            self._executes.move_to_end(text)
        return name

    def remember_execute(self, text: str, name: str) -> None:
        """Note that ``text`` is ``EXECUTE name``."""
        self._put(self._executes, text, name)

    def clear(self) -> None:
        self._entries.clear()
        self._shapes.clear()
        self._executes.clear()


class QueryService:
    """N1QL front end on one query node."""

    def __init__(self, cluster: "Cluster", node):
        self.cluster = cluster
        self.node = node
        #: The cluster catalog; its epoch is the plan-cache epoch.
        self.catalog = cluster.manager.catalog
        self.planner = Planner(self.catalog)
        #: name -> CachedPlan; populated by PREPARE.  Query parsing and
        #: planning "are done serially" (section 4.5.3), so skipping
        #: them per request is a real win for hot statements.  Entries
        #: are re-planned when the catalog epoch moves (index/keyspace
        #: DDL), never silently executed against dropped indexes.
        self.prepared: dict[str, CachedPlan] = {}
        #: Ad-hoc plan cache, keyed by statement shape or text.
        self.plan_cache = PlanCache()
        #: One long-lived data-service client shared by every query this
        #: service runs, so the cluster-map cache and the node-grouped
        #: batch path survive across queries (previously each
        #: ExecutionContext called ``cluster.connect()`` afresh).
        #: It draws on no admission budget: each query is charged once,
        #: at ``admit_query``, not again per fetched key.
        self.client = cluster.connect(service=None)

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
                     'TimeoutError_', 'ValueTooLargeError',
                     'ViewExistsError', 'ViewNotFoundError')
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
        # ops keep flowing.
        self.cluster.admission.admit_query()
        metrics = self.node.metrics
        metrics.inc("n1ql.requests")
        scan_tokens = consistent_with or []
        params = _normalize_params(params)
        # An EXECUTE text seen before is not lexed either; its name
        # is looked up in ``self.prepared`` on every call.
        name = self.plan_cache.prepared_name(text)
        if name is not None:
            self._scan_tokens = scan_tokens
            return self._execute_prepared(name, params, scan_consistency)
        epoch = self.catalog.epoch
        # A text seen before is not lexed; otherwise the key and the
        # parser share one token list.
        cached, literals = self.plan_cache.lookup(text, epoch)
        if cached is None:
            tokens = tokenize(text)
            shape, literals = statement_shape(tokens)
            cached = self.plan_cache.get(shape, epoch)
            if cached is not None:
                self.plan_cache.remember(text, shape, literals)
        if cached is not None:
            metrics.inc("n1ql.plan_cache.hit")
            self._scan_tokens = scan_tokens
            return self._run_select(cached.plan,
                                    _bind_slots(params, literals),
                                    scan_consistency)
        # A SELECT with literals is parsed in its lifted form, the
        # form its shape's plan is built from.
        statement = None
        with metrics.timer("n1ql.parse_seconds"):
            if literals and shape[0] == ("keyword", "SELECT"):
                statement = parse_lifted(tokens, shape)
            if statement is None:
                literals = None
                statement = parse(tokens)
        return self._dispatch(statement, params, scan_consistency,
                              scan_tokens, (text, tokens, shape, literals))

    def _dispatch(self, statement, params: dict,
                  scan_consistency: str, scan_tokens: list,
                  request: tuple) -> QueryResult:
        """Run a parsed statement; ``request`` is ``(text, tokens, shape,
        literals)`` for :meth:`_select`."""
        self._scan_tokens = scan_tokens
        if isinstance(statement, PrepareStatement):
            return self._prepare(statement)
        if isinstance(statement, ExecuteStatement):
            self.plan_cache.remember_execute(request[0], statement.name)
            return self._execute_prepared(statement.name, params,
                                          scan_consistency)
        if isinstance(statement, ExplainStatement):
            return self._explain(statement.statement, params)
        if isinstance(statement, SelectStatement):
            return self._select(statement, params, scan_consistency,
                                *request)
        if isinstance(statement, InsertStatement):
            require_keyspace(self.catalog, statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.keyspace)
            outcome = execute_insert(statement, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, UpdateStatement):
            require_keyspace(self.catalog, statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.alias)
            outcome = execute_update(statement, self.planner, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, DeleteStatement):
            require_keyspace(self.catalog, statement.keyspace)
            ctx = self._context(params, scan_consistency, statement.alias)
            outcome = execute_delete(statement, self.planner, ctx)
            return QueryResult(rows=outcome["returning"],
                               metrics={"mutationCount": outcome["mutationCount"]})
        if isinstance(statement, CreateIndexStatement):
            return self._create_index(statement)
        if isinstance(statement, CreatePrimaryIndexStatement):
            return self._create_primary_index(statement)
        if isinstance(statement, DropIndexStatement):
            self.cluster.drop_index(statement.name)
            return QueryResult()
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
                scan_consistency: str, text: str, tokens: list,
                shape: tuple, literals: list | None) -> QueryResult:
        """Plan, cache and run an ad-hoc SELECT that missed the plan
        cache.  With ``literals``, ``statement`` is the lifted form and
        its plan is cached under ``shape``, to serve every statement of
        the shape -- unless planning needed a lifted literal's value
        (:class:`SlotValueRead`): that plan would be right for one value
        only, so the statement is parsed and planned as written and,
        like every statement without ``literals``, cached under its
        text."""
        self.node.metrics.inc("n1ql.plan_cache.miss")
        epoch = self.catalog.epoch
        if literals is not None:
            try:
                plan = self._plan(statement)
            except SlotValueRead:
                literals = None
                with self.node.metrics.timer("n1ql.parse_seconds"):
                    statement = parse(tokens)
        if literals is None:
            plan = self._plan(statement)
            self.plan_cache.put(text, CachedPlan(statement, plan, epoch))
        else:
            self.plan_cache.put(shape, CachedPlan(statement, plan, epoch))
            self.plan_cache.remember(text, shape, literals)
            params = _bind_slots(params, literals)
        return self._run_select(plan, params, scan_consistency)

    def _prepare(self, statement) -> QueryResult:
        """PREPARE [name FROM] <select>: parse and plan once, cache."""
        inner = statement.statement
        if not isinstance(inner, SelectStatement):
            raise N1qlSemanticError("only SELECT statements can be prepared")
        epoch = self.catalog.epoch
        plan = self._plan(inner)
        # An anonymous statement takes the first free p<n>: counting the
        # entries could land on a name PREPARE <name> FROM already took.
        name = statement.name or next(
            f"p{n}" for n in itertools.count(1)
            if f"p{n}" not in self.prepared)
        self.prepared[name] = CachedPlan(inner, plan, epoch)
        return QueryResult(rows=[{"name": name,
                                  "operator": plan.describe()}])

    def _execute_prepared(self, name: str, params: dict,
                          scan_consistency: str) -> QueryResult:
        entry = self.prepared.get(name)
        if entry is None:
            raise N1qlSemanticError(f"no prepared statement named {name!r}")
        current = self.catalog.epoch
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
        require_keyspace(self.catalog, statement.keyspace)
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
        self._add_view_index(statement.keyspace, attribute_view(
            N1QL_DESIGN, statement.name, attribute), attribute)
        return QueryResult()

    def _add_view_index(self, bucket: str, definition, attribute: str,
                        is_primary: bool = False) -> None:
        """Register a USING VIEW index with the view it reads -- one
        catalog change, refused whole if either name is taken."""
        manager = self.cluster.manager
        manager.catalog.define_view(bucket, definition, ViewIndexInfo(
            definition.name, bucket, attribute, definition.design,
            definition.name, is_primary))
        manager.push_catalog()
        self.cluster.run_until_idle()

    def _create_primary_index(self,
                              statement: CreatePrimaryIndexStatement) -> QueryResult:
        require_keyspace(self.catalog, statement.keyspace)
        # Index names are global in this registry, so the default primary
        # name is scoped by keyspace.
        name = statement.name or f"#primary_{statement.keyspace}"
        if statement.using == "view":
            from ..views.mapreduce import primary_view
            self._add_view_index(statement.keyspace, primary_view(
                N1QL_DESIGN, name), "meta().id", is_primary=True)
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
