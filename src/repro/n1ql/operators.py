"""Query execution operators.

Each plan node has an executor that transforms a stream of row
environments (section 4.5.3's pipeline).  Scans produce rows; Fetch
reaches into the data service by key ("an index only contains document
IDs, so the fetch operator is needed whenever a query includes
additional projections that cannot be answered from the index alone",
section 4.5.3); the join family performs nested-loop key lookups; and
InitialProject shapes each row's result value.

The pipeline runs at batch granularity: every executor consumes and
produces lists of up to :data:`BATCH_SIZE` row environments -- result
values from InitialProject on -- so the generator machinery runs once
per batch and the compiled expression closures (see
:mod:`repro.n1ql.compile`) run in tight per-batch loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..common.contracts import bounded, hot_path
from ..common.errors import N1qlRuntimeError
from ..common.jsonval import deep_copy
from .catalog import N1QL_DESIGN
from .collation import MISSING, value_key
from .compile import compile_expr, compile_sort_key
from .expressions import Env, Evaluator, FetchedRow, ScanRow, meta_dict
from .functions import _COUNT_STAR, Accumulator
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
    UnnestOp,
)
from .printer import print_expr
from .syntax import (
    Between,
    Binary,
    CollectionPredicate,
    FieldAccess,
    FunctionCall,
    Identifier,
    InList,
    IsPredicate,
    Literal,
    MissingLiteral,
    Unary,
)

if TYPE_CHECKING:
    from ..client.smart_client import SmartClient
    from ..server import Cluster

#: Rows per batch.  Small enough that LIMIT overshoots by at most one
#: batch and memory stays bounded, large enough to amortize the
#: per-batch dispatch to noise (and that a Fetch batch spanning the whole
#: cluster amortizes to ~1 RPC per node).
BATCH_SIZE = 64

_CONTAINERS = frozenset((dict, list))

Batches = Iterator[list[Env]]


class ExecutionContext:
    """Everything operators need: the cluster, parameters, consistency."""

    def __init__(self, cluster: "Cluster", evaluator: Evaluator,
                 scan_consistency: str = "not_bounded",
                 metrics=None, scan_tokens=None,
                 client: "SmartClient | None" = None):
        self.cluster = cluster
        self.evaluator = evaluator
        self.scan_consistency = scan_consistency
        #: MutationResult tokens for at_plus consistency.
        self.scan_tokens = scan_tokens or []
        self.metrics = metrics
        #: The data-service client.  The QueryService passes its own
        #: long-lived SmartClient here so the cluster-map cache and the
        #: node-grouped batch path survive across queries; a fresh
        #: connection per query threw both away (section 4.5.1's SDK is
        #: likewise one long-lived handle).
        self._client = client

    @property
    def client(self) -> "SmartClient":
        if self._client is None:
            self._client = self.cluster.connect()
        return self._client

    def fetch_docs(self, bucket: str, keys: list[str]) -> dict:
        """Bulk lookup through the smart client's node-grouped batch
        path: one ``kv_multi_get`` RPC per involved node instead of one
        round trip per key.  Absent keys are omitted.  The documents are
        the data service's own, read in place: the query service never
        changes a value it did not build, and a result value is copied
        where it leaves (:func:`_project_compiled`)."""
        if not keys:
            return {}
        return self.client._fetch(bucket, keys)

    def count(self, name: str, amount: int = 1) -> None:
        """Forwarding shim over the registry; every caller passes a
        literal metric name, which the linter checks at the call sites."""
        if self.metrics is not None:
            self.metrics.inc(name, amount)  # repro: disable=metrics-naming


def _compiled(op, slot: str, expr, ctx: "ExecutionContext"):
    """Per-plan memoized compile: the first execution lowers ``expr`` to
    a closure and caches it on the plan operator, so cached/prepared
    plans never re-walk the AST (see :mod:`repro.n1ql.compile`)."""
    fn = getattr(op, slot, None)
    if fn is None:
        fn = compile_expr(expr, ctx.evaluator.default_alias)
        setattr(op, slot, fn)
        ctx.count("n1ql.compile.count")
    return fn


def _cover_doc(cover_parts: list[list[str]], key_values: list) -> dict:
    """Reconstruct a partial document from covered index key values so
    downstream expressions evaluate without a fetch."""
    doc: dict = {}
    for parts, value in zip(cover_parts, key_values):
        if value is MISSING:
            continue
        current = doc
        for part in parts[:-1]:
            current = current.setdefault(part, {})
        current[parts[-1]] = value
    return doc


def _chunks(rows: list) -> Batches:
    for start in range(0, len(rows), BATCH_SIZE):
        yield rows[start:start + BATCH_SIZE]


def _id_batches(rows: list) -> Batches:
    """Index rows ``(key_values, doc_id)`` as the batches of document
    ids a scan hands its Fetch (which always follows a scan that does
    not cover the query)."""
    return _chunks([doc_id for _key_values, doc_id in rows])


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


@hot_path
def run_key_scan(op: KeyScan, ctx: ExecutionContext) -> Batches:
    keys = _compiled(op, "_compiled_keys", op.keys, ctx)(Env(), ctx.evaluator)
    if isinstance(keys, str):
        keys = [keys]
    if not isinstance(keys, list):
        return
    ctx.count("n1ql.keyscan")
    yield from _chunks([key for key in keys if isinstance(key, str)])


def _evaluate_span(span, ctx: ExecutionContext):
    """The span's bound values as ``(low, high, inclusive_low,
    inclusive_high)``, or None when the span admits no row."""
    compiled = getattr(span, "_compiled_bounds", None)
    if compiled is None:
        alias = ctx.evaluator.default_alias
        compiled = (
            [compile_expr(e, alias) for e in span.low] if span.low else None,
            [compile_expr(e, alias) for e in span.high] if span.high else None,
        )
        span._compiled_bounds = compiled
        ctx.count("n1ql.compile.count")
    low_fns, high_fns = compiled
    empty = Env()
    ev = ctx.evaluator
    low = [fn(empty, ev) for fn in low_fns] if low_fns else None
    high = [fn(empty, ev) for fn in high_fns] if high_fns else None
    inclusive_low = span.inclusive_low
    if any(v is None or v is MISSING for v in (low or []) + (high or [])):
        return None  # no comparison with NULL or MISSING is TRUE
    if high is not None and len(high) > len(low or ()):
        # The range key has only an upper bound: start just past NULL,
        # which (with MISSING) sorts before every value a comparison
        # can admit.
        low, inclusive_low = (low or []) + [None], False
    return low, high, inclusive_low, span.inclusive_high


def _pushed_limit(op, ctx: ExecutionContext) -> int | None:
    """Evaluate a planner-pushed LIMIT; None (no early stop) unless it
    comes out a usable non-negative integer."""
    if getattr(op, "limit", None) is None:
        return None
    value = _compiled(op, "_compiled_scan_limit", op.limit, ctx)(
        Env(), ctx.evaluator)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return None
    return value


@hot_path
def run_index_scan(op: IndexScan, ctx: ExecutionContext) -> Batches:
    if op.using == "view":
        yield from _chunks(list(_run_view_index_scan(op, ctx)))
        return
    ctx.count("n1ql.indexscan")
    span = _evaluate_span(op.span, ctx)
    if span is None:
        return
    low, high, inclusive_low, inclusive_high = span
    rows = ctx.cluster.gsi.scan(
        op.index_name, low, high,
        inclusive_low=inclusive_low, inclusive_high=inclusive_high,
        limit=_pushed_limit(op, ctx),
        scan_consistency=ctx.scan_consistency,
        mutation_tokens=ctx.scan_tokens,
    )
    if not op.covered:
        yield from _id_batches(rows)
        return
    alias = op.alias
    cover_parts = getattr(op, "_cover_parts", None)
    if cover_parts is None:
        cover_parts = [path.split(".") for path in op.cover_paths]
        op._cover_parts = cover_parts
    if not cover_parts:
        # A primary index covers meta().id alone: its rows bind no field.
        for batch in _chunks(rows):
            yield [ScanRow(alias, {}, doc_id) for _key_values, doc_id in batch]
        return
    for batch in _chunks(rows):
        yield [ScanRow(alias, _cover_doc(cover_parts, key_values), doc_id)
               for key_values, doc_id in batch]


def _run_view_index_scan(op: IndexScan, ctx: ExecutionContext) -> Iterator[str]:
    from ..views.viewindex import ViewQueryParams
    span = _evaluate_span(op.span, ctx)
    if span is None:
        return
    low, high, inclusive_low, inclusive_high = span
    # at_plus has no token-level mapping onto a view index, so it takes
    # the conservative stale="false" path -- at least as fresh as the
    # mutation tokens demand.  Degrading it to "ok" would silently serve
    # stale rows under the strongest consistency mode.
    stale = ("false"
             if ctx.scan_consistency in ("request_plus", "at_plus")
             else "ok")
    params = ViewQueryParams(
        startkey=low[0] if low else None,
        endkey=high[0] if high else None,
        inclusive_end=inclusive_high,
        stale=stale,
        reduce=False,
    )
    result = ctx.cluster.views.query(
        op.keyspace, op.view_design, op.view_name, params
    )
    ctx.count("n1ql.viewscan")
    for row in result.rows:
        if low and not inclusive_low and row["key"] == low[0]:
            continue
        yield row["id"]


@hot_path
def run_primary_scan(op: PrimaryScan, ctx: ExecutionContext) -> Batches:
    ctx.count("n1ql.primaryscan")
    if op.using != "gsi":
        yield from _chunks(list(_run_view_primary_scan(op, ctx)))
        return
    rows = ctx.cluster.gsi.scan(op.index_name,
                                limit=_pushed_limit(op, ctx),
                                scan_consistency=ctx.scan_consistency,
                                mutation_tokens=ctx.scan_tokens)
    if not op.covered:
        yield from _id_batches(rows)
        return
    alias = op.alias
    for batch in _chunks(rows):
        yield [ScanRow(alias, {}, doc_id) for _key_values, doc_id in batch]


def _run_view_primary_scan(op: PrimaryScan,
                           ctx: ExecutionContext) -> Iterator[str]:
    from ..views.viewindex import ViewQueryParams
    # Same as _run_view_index_scan: at_plus on a view-backed path must
    # not degrade below stale="false".
    stale = ("false"
             if ctx.scan_consistency in ("request_plus", "at_plus")
             else "ok")
    result = ctx.cluster.views.query(
        op.keyspace, N1QL_DESIGN, op.index_name,
        ViewQueryParams(stale=stale, reduce=False),
    )
    for row in result.rows:
        yield row["id"]


def _finalize_partial(name: str, partial: list) -> Any:
    """Turn a merged ``[count, total, best]`` partial state into the
    aggregate's result, mirroring ``Accumulator.result()``."""
    count, total, best = partial
    if name == "COUNT":
        return count
    if name == "SUM":
        return total if count else None
    if name == "AVG":
        return total / count if count else None
    return None if best is MISSING else best  # MIN / MAX


@hot_path
def run_index_aggregate(op: IndexAggregateScan,
                        ctx: ExecutionContext) -> Batches:
    """Covered GROUP BY served by the index nodes (section 5.1): each
    partition pre-aggregates its rows, the GSI coordinator merges the
    partial states, and this operator shapes each merged group into the
    same env :func:`run_group` emits -- the alias bound to a document
    reconstructed from the group keys plus the ``$agg:`` bindings."""
    span = _evaluate_span(op.span, ctx)
    groups = [] if span is None else ctx.cluster.gsi.scan_aggregate(
        op.index_name, span[0], span[1],
        inclusive_low=span[2], inclusive_high=span[3],
        group_positions=op.group_positions,
        agg_specs=[(name, position)
                   for _key, name, position in op.agg_entries],
        scan_consistency=ctx.scan_consistency,
        mutation_tokens=ctx.scan_tokens,
    )
    ctx.count("n1ql.aggscan")
    cover_parts = getattr(op, "_group_cover_parts", None)
    if cover_parts is None:
        cover_parts = [path.split(".") for path in op.group_paths]
        op._group_cover_parts = cover_parts
    if not groups and not op.group_positions and op.agg_entries:
        # Aggregates over an empty input still produce one row
        # (COUNT(*) = 0, SUM = NULL, ...), exactly like run_group.
        env = Env()
        for key, name, _position in op.agg_entries:
            env.bind(key, _finalize_partial(name, [0, 0, MISSING]))
        yield [env]
        return
    envs = []
    for group_values, partials in groups:
        env = Env({op.alias: _cover_doc(cover_parts, group_values)},
                  {op.alias: {"id": None}})
        for (key, name, _position), partial in zip(op.agg_entries, partials):
            env.bind(key, _finalize_partial(name, partial))
        envs.append(env)
    yield from _chunks(envs)


@hot_path
def run_system_scan(op, ctx: ExecutionContext) -> Batches:
    """Rows of a system catalog keyspace."""
    cluster = ctx.cluster
    rows: list[dict] = []
    if op.what == "indexes":
        catalog = cluster.manager.catalog
        for name in catalog.names():
            rows.append(catalog.require(name).describe())
        for info in catalog.view_indexes():
            rows.append({
                "name": info.name, "bucket": info.bucket,
                "keys": [info.attribute], "condition": None,
                "storage": "view", "is_primary": info.is_primary,
                "partitions": 1, "nodes": [], "state": "ready",
            })
    elif op.what == "keyspaces":
        for name, config in sorted(cluster.manager.bucket_configs.items()):
            rows.append({
                "name": name,
                "replicas": config.num_replicas,
                "eviction_policy": config.eviction_policy,
            })
    elif op.what == "nodes":
        for name in sorted(cluster.manager.nodes):
            node = cluster.manager.nodes[name]
            rows.append({
                "name": name,
                "services": sorted(s.value for s in node.services),
                "ejected": name in cluster.manager.ejected,
                "down": cluster.network.is_down(name),
            })
    yield from _chunks([Env({op.alias: row},
                            {op.alias: {"id": f"{op.what}:{index}"}})
                        for index, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# Fetch / Filter / Let
# ---------------------------------------------------------------------------


@hot_path
@bounded("maxlen", "docs holds at most one entry per distinct key of one "
                   "query's rows; it dies with the operator")
def run_fetch(op: Fetch, ctx: ExecutionContext,
              batches: Iterator[list[str]]) -> Batches:
    """Turn each incoming batch of document ids into rows with one bulk
    lookup (one RPC per node holding any of its keys), in order.  A key
    seen before -- in this batch or an earlier one -- reuses the first
    fetch's document instead of fetching again (a re-fetch could observe
    a concurrent mutation, making two rows for one key disagree
    mid-query); the rows share it, since nothing changes a fetched
    document.  Rows whose document vanished between scan and fetch are
    dropped."""
    alias = op.alias
    #: key -> Document, or None once known absent.
    docs: dict[str, Any] = {}
    for ids in batches:
        fresh = []
        for key in ids:
            if key not in docs:
                docs[key] = None
                fresh.append(key)
        if fresh:
            docs.update(ctx.fetch_docs(op.keyspace, fresh))
        out = [FetchedRow(alias, doc)
               for doc in [docs[key] for key in ids] if doc is not None]
        if out:
            ctx.count("n1ql.fetch", len(out))
            yield out


@hot_path
def run_filter(op: Filter, ctx: ExecutionContext,
               batches: Batches) -> Batches:
    condition = _compiled(op, "_compiled_condition", op.condition, ctx)
    ev = ctx.evaluator
    for batch in batches:
        kept = [env for env in batch if condition(env, ev) is True]
        if kept:
            yield kept


@hot_path
def run_let(op: LetOp, ctx: ExecutionContext,
            batches: Batches) -> Batches:
    compiled = getattr(op, "_compiled_bindings", None)
    if compiled is None:
        alias = ctx.evaluator.default_alias
        compiled = [(name, compile_expr(expr, alias))
                    for name, expr in op.bindings]
        op._compiled_bindings = compiled
        ctx.count("n1ql.compile.count", len(compiled))
    ev = ctx.evaluator
    for batch in batches:
        out = []
        for env in batch:
            child = env.child()
            for name, fn in compiled:
                child.bind(name, fn(child, ev))
            out.append(child)
        yield out


# ---------------------------------------------------------------------------
# Join family (nested-loop, key-based -- section 4.5.3).  Joins and
# UNNEST multiply rows, so their output is re-chunked to BATCH_SIZE.
# ---------------------------------------------------------------------------


def _on_keys_list(fn, ctx: ExecutionContext, env: Env) -> list[str]:
    value = fn(env, ctx.evaluator)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [k for k in value if isinstance(k, str)]
    return []


def _fetch_on_keys(op, ctx: ExecutionContext, on_keys,
                   batch: list[Env]) -> list[list]:
    """Resolve one incoming batch's ON KEYS with a single bulk lookup
    (one RPC per data node holding any of them, however many left rows
    there are).  Returns, per row, the documents its keys found, in key
    order; rows that join one document share it."""
    key_lists = [_on_keys_list(on_keys, ctx, env) for env in batch]
    wanted = dict.fromkeys(key for keys in key_lists for key in keys)
    found = ctx.fetch_docs(op.keyspace, list(wanted))
    return [[found[key] for key in keys if key in found]
            for keys in key_lists]


@hot_path
def run_join(op: JoinOp, ctx: ExecutionContext,
             batches: Batches) -> Batches:
    on_keys = _compiled(op, "_compiled_on_keys", op.on_keys, ctx)
    out: list[Env] = []
    for batch in batches:
        for env, docs in zip(batch, _fetch_on_keys(op, ctx, on_keys, batch)):
            for doc in docs:
                out.append(Env({op.alias: doc.value},
                               {op.alias: meta_dict(doc)}, env))
                if len(out) >= BATCH_SIZE:
                    yield out
                    out = []
            if not docs and op.outer:
                child = env.child()
                child.bind(op.alias, MISSING)
                out.append(child)
                if len(out) >= BATCH_SIZE:
                    yield out
                    out = []
    if out:
        yield out


@hot_path
def run_nest(op: NestOp, ctx: ExecutionContext,
             batches: Batches) -> Batches:
    """NEST: one output row per left row, with the fetched inner
    documents collected into an array (section 3.2.3)."""
    on_keys = _compiled(op, "_compiled_on_keys", op.on_keys, ctx)
    for batch in batches:
        out = []
        for env, docs in zip(batch, _fetch_on_keys(op, ctx, on_keys, batch)):
            if docs:
                child = env.child()
                child.bind(op.alias, [doc.value for doc in docs])
                out.append(child)
            elif op.outer:
                child = env.child()
                child.bind(op.alias, MISSING)
                out.append(child)
        if out:
            yield out


@hot_path
def run_unnest(op: UnnestOp, ctx: ExecutionContext,
               batches: Batches) -> Batches:
    """UNNEST: the parent is repeated for each element of the nested
    array (section 4.5.3)."""
    unnest_fn = _compiled(op, "_compiled_expr", op.expr, ctx)
    ev = ctx.evaluator
    alias = op.alias
    out: list[Env] = []
    for batch in batches:
        for env in batch:
            value = unnest_fn(env, ev)
            if isinstance(value, list) and value:
                for item in value:
                    out.append(Env({alias: item}, None, env))
                    if len(out) >= BATCH_SIZE:
                        yield out
                        out = []
            elif op.outer:
                child = env.child()
                child.bind(op.alias, MISSING)
                out.append(child)
                if len(out) >= BATCH_SIZE:
                    yield out
                    out = []
    if out:
        yield out


# ---------------------------------------------------------------------------
# Grouping and aggregation
# ---------------------------------------------------------------------------


def _group_compiled(op: GroupOp, ctx: ExecutionContext):
    """Compiled grouping machinery: group-key closures plus, per
    aggregate, its pre-printed ``$agg:`` binding key and argument
    closure."""
    compiled = getattr(op, "_compiled_group", None)
    if compiled is None:
        alias = ctx.evaluator.default_alias
        group_fns = [compile_expr(e, alias) for e in op.group_exprs]
        agg_entries = []
        for aggregate in op.aggregates:
            agg_entries.append((
                "$agg:" + print_expr(aggregate),
                aggregate.name,
                aggregate.distinct,
                aggregate.star,
                None if aggregate.star else compile_expr(aggregate.args[0],
                                                         alias),
            ))
        compiled = (group_fns, agg_entries)
        op._compiled_group = compiled
        ctx.count("n1ql.compile.count", len(group_fns) + len(agg_entries))
    return compiled


@hot_path
def run_group(op: GroupOp, ctx: ExecutionContext,
              batches: Batches) -> Batches:
    """A row's group is the tuple of its group values' :func:`value_key`;
    groups come out in the order their first rows came in."""
    group_fns, agg_entries = _group_compiled(op, ctx)
    ev = ctx.evaluator
    arg_fns = [arg_fn for _key, _name, _distinct, _star, arg_fn
               in agg_entries]
    groups: dict[Any, tuple[Env, list[Accumulator]]] = {}
    for batch in batches:
        for env in batch:
            key = tuple([value_key(fn(env, ev)) for fn in group_fns])
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (env, [
                    Accumulator(name, distinct)
                    for _key, name, distinct, _star, _fn in agg_entries
                ])
            for arg_fn, accumulator in zip(arg_fns, entry[1]):
                accumulator.add(_COUNT_STAR if arg_fn is None
                                else arg_fn(env, ev))

    if not groups and not group_fns and agg_entries:
        # Aggregates over an empty input still produce one row
        # (COUNT(*) = 0, SUM = NULL, ...).
        env = Env()
        for key, name, distinct, _star, _fn in agg_entries:
            env.bind(key, Accumulator(name, distinct).result())
        yield [env]
        return

    batch = []
    for representative, accumulators in groups.values():
        out = representative.child()
        for spec, accumulator in zip(agg_entries, accumulators):
            out.bind(spec[0], accumulator.result())
        batch.append(out)
        if len(batch) >= BATCH_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch


# ---------------------------------------------------------------------------
# Order / pagination
# ---------------------------------------------------------------------------


@hot_path
def run_order(op: OrderOp, ctx: ExecutionContext,
              batches: Batches) -> Batches:
    key_of = getattr(op, "_compiled_key", None)
    if key_of is None:
        key_of = compile_sort_key(op.terms, ctx.evaluator.default_alias)
        op._compiled_key = key_of
        ctx.count("n1ql.compile.count", len(op.terms))
    ev = ctx.evaluator
    materialized = [env for batch in batches for env in batch]
    materialized.sort(key=lambda env: key_of(env, ev))
    ctx.count("n1ql.sorted_rows", len(materialized))
    yield from _chunks(materialized)


@hot_path
def run_offset(op: OffsetOp, ctx: ExecutionContext,
               batches: Batches) -> Batches:
    count = _compiled(op, "_compiled_count", op.count, ctx)(Env(),
                                                            ctx.evaluator)
    if not isinstance(count, (int, float)):
        raise N1qlRuntimeError("OFFSET requires a number")
    skip = int(count)
    for batch in batches:
        if skip:
            if skip >= len(batch):
                skip -= len(batch)
                continue
            batch = batch[skip:]
            skip = 0
        yield batch


@hot_path
def run_limit(op: LimitOp, ctx: ExecutionContext,
              batches: Batches) -> Batches:
    count = _compiled(op, "_compiled_count", op.count, ctx)(Env(),
                                                            ctx.evaluator)
    if not isinstance(count, (int, float)):
        raise N1qlRuntimeError("LIMIT requires a number")
    remaining = int(count)
    if remaining <= 0:
        return
    for batch in batches:
        if len(batch) >= remaining:
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _project_compiled(op: InitialProject, ctx: ExecutionContext):
    """The projection list lowered once per plan, the way
    :func:`compile_expr` lowers an expression, into one closure
    ``project(batch, ev) -> result values``: output names (explicit
    alias or implicit field name) are resolved at compile time.

    Result values leave for the application, and the rows they come
    from read stored documents in place, so a container result is
    copied here, once.  Whether an expression can yield one is decided
    here too: one that cannot (:func:`_yields_own_value` -- Fig 16's
    ``META().id`` among them) is projected as it is, with no per-row
    check."""
    project = getattr(op, "_compiled_projection", None)
    if project is None:
        alias = ctx.evaluator.default_alias
        entries = []
        for projection in op.projections:
            if projection.expr is None:
                entries.append((None, None, projection.star_of))
                continue
            fn = compile_expr(projection.expr, alias)
            if not _yields_own_value(projection.expr):
                fn = _copying(fn)
            entries.append((fn, projection.alias
                            or _implicit_name(projection.expr), None))
        project = op._compiled_projection = _lower_projection(op.raw, entries)
        ctx.count("n1ql.compile.count",
                  sum(1 for fn, _name, _star_of in entries if fn is not None))
    return project


def _yields_own_value(expr) -> bool:
    """Whether ``expr``'s value is always a scalar -- an operator's, a
    predicate's, a scalar literal's, ``META()``'s fields, a count or a
    sum -- and so never a stored document's own container."""
    if isinstance(expr, (Binary, Unary, Between, InList, IsPredicate,
                         CollectionPredicate, MissingLiteral)):
        return True
    if isinstance(expr, Literal):
        return type(expr.value) not in _CONTAINERS
    if isinstance(expr, FieldAccess):
        while isinstance(expr, FieldAccess):
            expr = expr.base
        return isinstance(expr, FunctionCall) and expr.name == "META"
    return isinstance(expr, FunctionCall) and expr.name in ("COUNT", "SUM",
                                                            "AVG")


def _copying(fn):
    """``fn`` with a container result copied (a scalar is immutable)."""

    def copied(env, ev):
        value = fn(env, ev)
        return deep_copy(value) if type(value) in _CONTAINERS else value

    return copied


def _lower_projection(raw: bool, entries: list):
    """One batch closure for ``(fn, name, star_of)`` projection entries
    (``fn`` None for a star, ``name`` None for an unnamed value)."""
    if raw:
        raw_fn = entries[0][0]

        @hot_path
        def project_raw(batch, ev):
            return [None if value is MISSING else value
                    for value in [raw_fn(env, ev) for env in batch]]

        return project_raw

    def project_row(env, ev):
        result = {}
        unnamed = 0
        for fn, name, star_of in entries:
            if fn is None:
                # '*' or alias.*: splice document(s) in.
                if star_of is not None:
                    found, value = env.lookup(star_of)
                    if found and isinstance(value, dict):
                        result.update(deep_copy(value))
                    continue
                # Bare '*': N1QL wraps each keyspace's document
                # under its alias (SELECT * FROM b -> [{"b": {...}}]).
                for alias in reversed(env.aliases()):
                    found, value = env.lookup(alias)
                    if found and value is not MISSING:
                        result[alias] = deep_copy(value)
                continue
            value = fn(env, ev)
            if value is MISSING:
                continue
            if name is None:
                unnamed += 1
                result[f"${unnamed}"] = value
            else:
                result[name] = value
        return result

    @hot_path
    def project(batch, ev):
        return [project_row(env, ev) for env in batch]

    return project


@hot_path
def run_initial_project(op: InitialProject, ctx: ExecutionContext,
                        batches: Batches) -> Iterator[list[Any]]:
    """Evaluate the projection list; emits batches of result values,
    which every operator after this one handles as they are."""
    project = _project_compiled(op, ctx)
    ev = ctx.evaluator
    for batch in batches:
        yield project(batch, ev)


def _implicit_name(expr) -> str | None:
    if isinstance(expr, FieldAccess):
        return expr.field
    if isinstance(expr, Identifier):
        return expr.name
    return None


@hot_path
def run_distinct(op: DistinctOp, ctx: ExecutionContext,
                 batches: Iterator[list[Any]]) -> Iterator[list[Any]]:
    seen: set = set()
    for batch in batches:
        kept = []
        for result in batch:
            key = value_key(result)
            if key in seen:
                continue
            seen.add(key)
            kept.append(result)
        if kept:
            yield kept


def run_final_project(op: FinalProject, ctx: ExecutionContext,
                      batches: Iterator[list[Any]]) -> Iterator[list[Any]]:
    """The result values are final already (:func:`run_initial_project`
    emits them), so the batches pass through."""
    return batches
