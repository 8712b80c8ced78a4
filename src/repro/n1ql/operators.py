"""Query execution operators.

Each plan node has an executor that transforms a stream of row
environments (section 4.5.3's pipeline).  Scans produce rows; Fetch
reaches into the data service by key ("an index only contains document
IDs, so the fetch operator is needed whenever a query includes
additional projections that cannot be answered from the index alone",
section 4.5.3); the join family performs nested-loop key lookups; and
the two projection phases shape the final JSON.

The pipeline runs at batch granularity: every executor consumes and
produces lists of up to :data:`BATCH_SIZE` row environments, so the
generator machinery runs once per batch and the compiled expression
closures (see :mod:`repro.n1ql.compile`) run in tight per-batch loops.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterator

from ..common.contracts import bounded
from ..common.contracts import cost, hot_path
from ..common.errors import N1qlRuntimeError
from .collation import MISSING
from .compile import compile_expr, compile_sort_key
from .expressions import Env, Evaluator
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

if TYPE_CHECKING:
    from ..client.smart_client import SmartClient
    from ..server import Cluster

#: Rows per batch.  Small enough that LIMIT overshoots by at most one
#: batch and memory stays bounded, large enough to amortize the
#: per-batch dispatch to noise (and that a Fetch batch spanning the whole
#: cluster amortizes to ~1 RPC per node).
BATCH_SIZE = 64

Rows = Iterator[Env]
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
        round trip per key.  Absent keys are omitted."""
        if not keys:
            return {}
        return self.client.multi_get(bucket, keys)

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


def meta_dict(doc) -> dict:
    return {
        "id": doc.meta.key,
        "cas": doc.meta.cas,
        "seqno": doc.meta.seqno,
        "rev": doc.meta.rev,
        "expiration": doc.meta.expiry,
        "flags": doc.meta.flags,
    }


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


def _batched(rows: Iterator[Env]) -> Batches:
    """Chunk a row stream into batches (adapter for the view-backed
    scans, which stay row-at-a-time underneath)."""
    batch: list[Env] = []
    for env in rows:
        batch.append(env)
        if len(batch) >= BATCH_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch


def _chunks(rows: list) -> Batches:
    for start in range(0, len(rows), BATCH_SIZE):
        yield rows[start:start + BATCH_SIZE]


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


@hot_path
@cost("O(n)")
def run_key_scan(op: KeyScan, ctx: ExecutionContext) -> Batches:
    keys = _compiled(op, "_compiled_keys", op.keys, ctx)(Env(), ctx.evaluator)
    if isinstance(keys, str):
        keys = [keys]
    if not isinstance(keys, list):
        return
    ctx.count("n1ql.keyscan")
    batch: list[Env] = []
    for key in keys:
        if not isinstance(key, str):
            continue
        env = Env()
        env.bind(op.alias, {"__pending_fetch__": key}, {"id": key})
        batch.append(env)
        if len(batch) >= BATCH_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch


def _evaluate_span(span, ctx: ExecutionContext):
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

    def bound(fns):
        if fns is None:
            return None
        return [fn(empty, ev) for fn in fns]

    return (bound(low_fns), bound(high_fns),
            span.inclusive_low, span.inclusive_high)


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
@cost("O(n)")
def run_index_scan(op: IndexScan, ctx: ExecutionContext) -> Batches:
    if op.using == "view":
        yield from _batched(_run_view_index_scan(op, ctx))
        return
    low, high, inclusive_low, inclusive_high = _evaluate_span(op.span, ctx)
    rows = ctx.cluster.gsi.scan(
        op.index_name, low, high,
        inclusive_low=inclusive_low, inclusive_high=inclusive_high,
        limit=_pushed_limit(op, ctx),
        scan_consistency=ctx.scan_consistency,
        mutation_tokens=ctx.scan_tokens,
    )
    ctx.count("n1ql.indexscan")
    cover_parts = getattr(op, "_cover_parts", None)
    if cover_parts is None and op.covered:
        cover_parts = [path.split(".") for path in op.cover_paths]
        op._cover_parts = cover_parts
    covered, alias = op.covered, op.alias
    for start in range(0, len(rows), BATCH_SIZE):
        batch = []
        for key_values, doc_id in rows[start:start + BATCH_SIZE]:
            env = Env()
            if covered:
                env.bind(alias, _cover_doc(cover_parts, key_values),
                         {"id": doc_id})
            else:
                env.bind(alias, {"__pending_fetch__": doc_id},
                         {"id": doc_id})
            batch.append(env)
        yield batch


def _run_view_index_scan(op: IndexScan, ctx: ExecutionContext) -> Rows:
    from ..views.viewindex import ViewQueryParams
    low, high, inclusive_low, inclusive_high = _evaluate_span(op.span, ctx)
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
        env = Env()
        env.bind(op.alias, {"__pending_fetch__": row["id"]}, {"id": row["id"]})
        yield env


@hot_path
@cost("O(n)")
def run_primary_scan(op: PrimaryScan, ctx: ExecutionContext) -> Batches:
    ctx.count("n1ql.primaryscan")
    if op.using != "gsi":
        yield from _batched(_run_view_primary_scan(op, ctx))
        return
    rows = ctx.cluster.gsi.scan(op.index_name,
                                limit=_pushed_limit(op, ctx),
                                scan_consistency=ctx.scan_consistency,
                                mutation_tokens=ctx.scan_tokens)
    covered, alias = getattr(op, "covered", False), op.alias
    for start in range(0, len(rows), BATCH_SIZE):
        batch = []
        for _key_values, doc_id in rows[start:start + BATCH_SIZE]:
            env = Env()
            if covered:
                env.bind(alias, {}, {"id": doc_id})
            else:
                env.bind(alias, {"__pending_fetch__": doc_id},
                         {"id": doc_id})
            batch.append(env)
        yield batch


def _run_view_primary_scan(op: PrimaryScan, ctx: ExecutionContext) -> Rows:
    from ..views.viewindex import ViewQueryParams
    # Same as _run_view_index_scan: at_plus on a view-backed path must
    # not degrade below stale="false".
    stale = ("false"
             if ctx.scan_consistency in ("request_plus", "at_plus")
             else "ok")
    result = ctx.cluster.views.query(
        op.keyspace, "_n1ql", op.index_name,
        ViewQueryParams(stale=stale, reduce=False),
    )
    for row in result.rows:
        env = Env()
        env.bind(op.alias, {"__pending_fetch__": row["id"]}, {"id": row["id"]})
        yield env


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
@cost("O(n)")
def run_index_aggregate(op: IndexAggregateScan,
                        ctx: ExecutionContext) -> Batches:
    """Covered GROUP BY served by the index nodes (section 5.1): each
    partition pre-aggregates its rows, the GSI coordinator merges the
    partial states, and this operator shapes each merged group into the
    same env :func:`run_group` emits -- the alias bound to a document
    reconstructed from the group keys plus the ``$agg:`` bindings."""
    low, high, inclusive_low, inclusive_high = _evaluate_span(op.span, ctx)
    groups = ctx.cluster.gsi.scan_aggregate(
        op.index_name, low, high,
        inclusive_low=inclusive_low, inclusive_high=inclusive_high,
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
        env = Env()
        env.bind(op.alias, _cover_doc(cover_parts, group_values),
                 {"id": None})
        for (key, name, _position), partial in zip(op.agg_entries, partials):
            env.bind(key, _finalize_partial(name, partial))
        envs.append(env)
    yield from _chunks(envs)


@hot_path
@cost("O(n)")
def run_system_scan(op, ctx: ExecutionContext) -> Batches:
    """Rows of a system catalog keyspace."""
    cluster = ctx.cluster
    rows: list[dict] = []
    if op.what == "indexes":
        registry = cluster.manager.index_registry
        for name in registry.names():
            rows.append(registry.require(name).describe())
        catalog = getattr(cluster, "query_catalog", None)
        if catalog is not None:
            for info in catalog.view_indexes.values():
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
    envs = []
    for index, row in enumerate(rows):
        env = Env()
        env.bind(op.alias, row, {"id": f"{op.what}:{index}"})
        envs.append(env)
    yield from _chunks(envs)


# ---------------------------------------------------------------------------
# Fetch / Filter / Let
# ---------------------------------------------------------------------------


class FetchState:
    """Whole-operator fetch state.

    Fetched documents are cached for the life of the operator, so a key
    appearing again -- in the same chunk or a later one -- reuses the
    first fetch's snapshot instead of re-fetching (a re-fetch could
    observe a concurrent mutation, making two rows for the same key
    disagree mid-query), and every occurrence after the first gets a
    fresh copy so duplicate rows never share mutable state."""

    __slots__ = ("op", "ctx", "docs", "bound")

    def __init__(self, op: Fetch, ctx: ExecutionContext):
        self.op = op
        self.ctx = ctx
        #: key -> Document, or None once known absent.
        self.docs: dict[str, Any] = {}
        #: Keys already bound to at least one emitted row.
        self.bound: set[str] = set()

    @bounded("maxlen", "docs/bound hold at most one entry per distinct "
                       "key of one query's rows; the state dies with "
                       "the operator")
    def drain(self, buffered: list[Env]) -> list[Env]:
        op, ctx, docs = self.op, self.ctx, self.docs
        fresh: list[str] = []
        for env in buffered:
            _found, value = env.lookup(op.alias)
            if isinstance(value, dict) and "__pending_fetch__" in value:
                key = value["__pending_fetch__"]
                if key not in docs:
                    docs[key] = None
                    fresh.append(key)
        if fresh:
            found = ctx.fetch_docs(op.keyspace, fresh)
            for key in fresh:
                docs[key] = found.get(key)
        out: list[Env] = []
        for env in buffered:
            _found, value = env.lookup(op.alias)
            if isinstance(value, dict) and "__pending_fetch__" in value:
                key = value["__pending_fetch__"]
                doc = docs.get(key)
                if doc is None:
                    continue  # deleted between scan and fetch
                if key in self.bound:
                    doc = doc.copy()  # duplicate keys must not share state
                self.bound.add(key)
                env.bind(op.alias, doc.value, meta_dict(doc))
                ctx.count("n1ql.fetch")
            out.append(env)
        return out


@hot_path
@cost("O(n)")
def run_fetch(op: Fetch, ctx: ExecutionContext,
              batches: Batches) -> Batches:
    """Resolve pending document fetches in node-grouped batches: one
    bulk lookup per incoming batch (one RPC per node holding any of its
    keys), rows re-emitted in order.  Rows whose document vanished
    between scan and fetch are dropped."""
    state = FetchState(op, ctx)
    for batch in batches:
        buffered = []
        for env in batch:
            found, _value = env.lookup(op.alias)
            if found:
                buffered.append(env)
        if not buffered:
            continue
        out = state.drain(buffered)
        if out:
            yield out


@hot_path
@cost("O(n)")
def run_filter(op: Filter, ctx: ExecutionContext,
               batches: Batches) -> Batches:
    condition = _compiled(op, "_compiled_condition", op.condition, ctx)
    ev = ctx.evaluator
    for batch in batches:
        kept = [env for env in batch if condition(env, ev) is True]
        if kept:
            yield kept


@hot_path
@cost("O(n)")
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
    order; a document the batch joins more than once is copied, so rows
    never share mutable state."""
    key_lists = [_on_keys_list(on_keys, ctx, env) for env in batch]
    wanted = dict.fromkeys(key for keys in key_lists for key in keys)
    found = ctx.fetch_docs(op.keyspace, list(wanted))
    bound: set[str] = set()
    joined = []
    for keys in key_lists:
        docs = []
        for key in keys:
            doc = found.get(key)
            if doc is None:
                continue
            if key in bound:
                doc = doc.copy()
            bound.add(key)
            docs.append(doc)
        joined.append(docs)
    return joined


@hot_path
@cost("O(n)")
def run_join(op: JoinOp, ctx: ExecutionContext,
             batches: Batches) -> Batches:
    on_keys = _compiled(op, "_compiled_on_keys", op.on_keys, ctx)
    out: list[Env] = []
    for batch in batches:
        for env, docs in zip(batch, _fetch_on_keys(op, ctx, on_keys, batch)):
            for doc in docs:
                child = env.child()
                child.bind(op.alias, doc.value, meta_dict(doc))
                out.append(child)
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
@cost("O(n)")
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
@cost("O(n)")
def run_unnest(op: UnnestOp, ctx: ExecutionContext,
               batches: Batches) -> Batches:
    """UNNEST: the parent is repeated for each element of the nested
    array (section 4.5.3)."""
    unnest_fn = _compiled(op, "_compiled_expr", op.expr, ctx)
    ev = ctx.evaluator
    out: list[Env] = []
    for batch in batches:
        for env in batch:
            value = unnest_fn(env, ev)
            if isinstance(value, list) and value:
                for item in value:
                    child = env.child()
                    child.bind(op.alias, item)
                    out.append(child)
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
@cost("O(n)")
def run_group(op: GroupOp, ctx: ExecutionContext,
              batches: Batches) -> Batches:
    group_fns, agg_entries = _group_compiled(op, ctx)
    ev = ctx.evaluator
    groups: dict[str, tuple[Env, list[Accumulator]]] = {}
    order: list[str] = []
    for batch in batches:
        for env in batch:
            values = [fn(env, ev) for fn in group_fns]
            token = json.dumps(
                [None if v is MISSING else ["$", _jsonable(v)]
                 for v in values],
                sort_keys=True,
            )
            entry = groups.get(token)
            if entry is None:
                entry = (env, [
                    Accumulator(name, distinct)
                    for _key, name, distinct, _star, _fn in agg_entries
                ])
                groups[token] = entry
                order.append(token)
            for spec, accumulator in zip(agg_entries, entry[1]):
                _key, _name, _distinct, star, arg_fn = spec
                accumulator.add(_COUNT_STAR if star else arg_fn(env, ev))

    if not groups and not group_fns and agg_entries:
        # Aggregates over an empty input still produce one row
        # (COUNT(*) = 0, SUM = NULL, ...).
        env = Env()
        for key, name, distinct, _star, _fn in agg_entries:
            env.bind(key, Accumulator(name, distinct).result())
        yield [env]
        return

    batch = []
    for token in order:
        representative, accumulators = groups[token]
        out = representative.child()
        for spec, accumulator in zip(agg_entries, accumulators):
            out.bind(spec[0], accumulator.result())
        batch.append(out)
        if len(batch) >= BATCH_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch


def _jsonable(value):
    if value is MISSING:
        return None
    return value


# ---------------------------------------------------------------------------
# Order / pagination
# ---------------------------------------------------------------------------


@hot_path
@cost("O(n)")
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
@cost("O(n)")
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
@cost("O(n)")
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
    """Compiled projection list: each entry is ``(fn, name, star_of)``
    with the output name (explicit alias or implicit field name)
    resolved once instead of per row.  ``fn`` is None for star
    projections."""
    entries = getattr(op, "_compiled_projections", None)
    if entries is None:
        alias = ctx.evaluator.default_alias
        entries = []
        count = 0
        for projection in op.projections:
            if projection.expr is None:
                entries.append((None, None, projection.star_of))
            else:
                entries.append((compile_expr(projection.expr, alias),
                                projection.alias
                                or _implicit_name(projection.expr),
                                None))
                count += 1
        op._compiled_projections = entries
        ctx.count("n1ql.compile.count", count)
    return entries


@hot_path
@cost("O(n)")
def run_initial_project(op: InitialProject, ctx: ExecutionContext,
                        batches: Batches) -> Batches:
    """Evaluate the projection list; emits envs carrying '$result'."""
    entries = _project_compiled(op, ctx)
    ev = ctx.evaluator
    raw_fn = entries[0][0] if op.raw else None
    for batch in batches:
        out_batch = []
        for env in batch:
            if op.raw:
                value = raw_fn(env, ev)
                result: Any = None if value is MISSING else value
            else:
                result = {}
                unnamed = 0
                for fn, name, star_of in entries:
                    if fn is None:
                        # '*' or alias.*: splice document(s) in.
                        if star_of is not None:
                            found, value = env.lookup(star_of)
                            if found and isinstance(value, dict):
                                result.update(value)
                            continue
                        # Bare '*': N1QL wraps each keyspace's document
                        # under its alias (SELECT * FROM b -> [{"b": {...}}]).
                        for alias in reversed(env.aliases()):
                            found, value = env.lookup(alias)
                            if found and value is not MISSING:
                                result[alias] = value
                        continue
                    value = fn(env, ev)
                    if value is MISSING:
                        continue
                    if name is None:
                        unnamed += 1
                        key = f"${unnamed}"
                    else:
                        key = name
                    result[key] = value
            out = env.child()
            out.bind("$result", result)
            out_batch.append(out)
        yield out_batch


def _implicit_name(expr) -> str | None:
    from .syntax import FieldAccess, Identifier, FunctionCall
    if isinstance(expr, FieldAccess):
        return expr.field
    if isinstance(expr, Identifier):
        return expr.name
    if isinstance(expr, FunctionCall) and expr.name == "META":
        return None
    return None


@hot_path
@cost("O(n)")
def run_distinct(op: DistinctOp, ctx: ExecutionContext,
                 batches: Batches) -> Batches:
    seen: set[str] = set()
    for batch in batches:
        kept = []
        for env in batch:
            _found, result = env.lookup("$result")
            token = json.dumps(result, sort_keys=True, default=str)
            if token in seen:
                continue
            seen.add(token)
            kept.append(env)
        if kept:
            yield kept


@hot_path
@cost("O(n)")
def run_final_project(op: FinalProject, ctx: ExecutionContext,
                      batches: Batches) -> Iterator[list[Any]]:
    for batch in batches:
        yield [env.lookup("$result")[1] for env in batch]
