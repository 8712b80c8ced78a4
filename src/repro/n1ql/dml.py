"""N1QL DML execution: INSERT, UPSERT, UPDATE, DELETE.

Section 3.2.2: "N1QL provides support for INSERT, DELETE, UPDATE, and
UPSERT statements to create, delete, and modify data stored as JSON
documents.  These statements also support sub-document level lookups
and updates."

UPDATE/DELETE reuse the SELECT access-path machinery to locate target
documents (USE KEYS, an index scan, or a primary scan), then apply the
mutation through the key-value API with a CAS retry loop so concurrent
writers are handled the way section 3.1.1 prescribes.

Expression work is compiled **once per statement** and memoized on the
statement object (the DML mirror of the operators' per-plan
``_compiled`` slots): RETURNING projections, the WHERE re-check,
SET/UNSET paths and SET values all lower to closures on first use, so
the per-row cost is direct calls -- the ``n1ql.compile.count`` metric
stays flat as the row count grows.  INSERT values and DELETE targets
ship as one batched ``multi_*`` RPC per statement instead of one RPC
per row.
"""

from __future__ import annotations

from typing import Any

from ..common.contracts import cost, hot_path
from ..common.errors import (
    CasMismatchError,
    KeyExistsError,
    KeyNotFoundError,
    N1qlRuntimeError,
)
from ..common.jsonval import deep_copy
from .collation import MISSING
from .compile import compile_expr
from .expressions import Env
from .operators import ExecutionContext, meta_dict
from .plan import Filter, LimitOp, QueryPlan
from .pipeline import execute_plan
from .planner import Planner
from .syntax import (
    DeleteStatement,
    ElementAccess,
    FieldAccess,
    Identifier,
    InsertStatement,
    Projection,
    SelectStatement,
    UpdateStatement,
)

_CAS_RETRIES = 8


def _stmt_compiled(statement, slot: str, expr, ctx: ExecutionContext):
    """Per-statement memoized compile: the first execution lowers
    ``expr`` to a closure cached on the statement, so every row of this
    execution -- and every re-execution of a prepared statement --
    shares one lowering."""
    fn = getattr(statement, slot, None)
    if fn is None:
        fn = compile_expr(expr, ctx.evaluator.default_alias)
        setattr(statement, slot, fn)
        ctx.count("n1ql.compile.count")
    return fn


def _returning_compiled(statement, ctx: ExecutionContext) -> list:
    """Compile the RETURNING clause once per statement: a list of
    ``(name, fn)`` pairs; a bare ``*`` projection compiles to
    ``(None, None)`` and is expanded per row."""
    compiled = getattr(statement, "_compiled_returning", None)
    if compiled is None:
        compiled = []
        fresh = 0
        unnamed = 0
        for projection in statement.returning:
            if projection.expr is None:
                compiled.append((None, None))
                continue
            name = projection.alias
            if name is None:
                from .operators import _implicit_name
                name = _implicit_name(projection.expr)
            if name is None:
                unnamed += 1
                name = f"${unnamed}"
            compiled.append((name, compile_expr(
                projection.expr, ctx.evaluator.default_alias)))
            fresh += 1
        statement._compiled_returning = compiled
        if fresh:
            ctx.count("n1ql.compile.count", fresh)
    return compiled


def _returning(statement, ctx: ExecutionContext, env: Env) -> Any:
    out = {}
    ev = ctx.evaluator
    for name, fn in _returning_compiled(statement, ctx):
        if fn is None:
            for alias in reversed(env.aliases()):
                found, value = env.lookup(alias)
                if found:
                    out[alias] = value
            continue
        value = fn(env, ev)
        if value is MISSING:
            continue
        out[name] = value
    return out


@hot_path
@cost("O(n)")
def execute_insert(statement: InsertStatement, ctx: ExecutionContext) -> dict:
    client = ctx.client
    empty = Env()
    compiled = getattr(statement, "_compiled_values", None)
    if compiled is None:
        alias = ctx.evaluator.default_alias
        compiled = [
            (compile_expr(key_expr, alias), compile_expr(value_expr, alias))
            for key_expr, value_expr in statement.values
        ]
        statement._compiled_values = compiled
        if compiled:
            ctx.count("n1ql.compile.count", 2 * len(compiled))
    ev = ctx.evaluator
    entries: list[tuple[str, Any]] = []
    seen: set[str] = set()
    for key_fn, value_fn in compiled:
        key = key_fn(empty, ev)
        value = value_fn(empty, ev)
        if not isinstance(key, str):
            raise N1qlRuntimeError("INSERT key must evaluate to a string")
        if value is MISSING:
            raise N1qlRuntimeError("INSERT value must not be MISSING")
        if not statement.upsert and key in seen:
            raise N1qlRuntimeError(
                f"duplicate key {key!r} in INSERT (use UPSERT to overwrite)"
            )
        seen.add(key)
        entries.append((key, value))
    if not entries:
        return {"mutationCount": 0, "returning": []}
    payload = dict(entries)
    if statement.upsert:
        batch = client.multi_upsert(statement.keyspace, payload)
    else:
        batch = client.multi_insert(statement.keyspace, payload)
    for key, _value in entries:
        error = batch.errors.get(key)
        if error is None:
            continue
        if isinstance(error, KeyExistsError):
            raise N1qlRuntimeError(
                f"duplicate key {key!r} in INSERT (use UPSERT to overwrite)"
            ) from None
        raise error
    count = 0
    returned = []
    for key, value in entries:
        if key not in batch.results:
            continue
        count += 1
        if statement.returning:
            env = Env()
            env.bind(statement.keyspace, value, {"id": key})
            returned.append(_returning(statement, ctx, env))
    return {"mutationCount": count, "returning": returned}


def _target_rows(keyspace: str, alias: str, use_keys, where, limit,
                 planner: Planner, ctx: ExecutionContext):
    """Locate target documents by piggybacking on SELECT planning."""
    pseudo = SelectStatement(
        projections=[Projection(expr=None, alias=None)],
        from_term=None,
    )
    from .syntax import KeyspaceTerm
    pseudo.from_term = KeyspaceTerm(keyspace, alias, use_keys)
    pseudo.where = where
    pseudo.limit = limit
    operators = planner._plan_access_path(pseudo, pseudo.from_term)
    if where is not None:
        operators.append(Filter(where))
    if limit is not None:
        operators.append(LimitOp(limit))
    plan = QueryPlan(operators, alias, "DML-TARGET")
    return execute_plan(plan, ctx)


def _compile_path(expr, alias: str, default_alias: str | None) -> list:
    """Lower a SET/UNSET path AST into steps relative to the document
    (stripping the keyspace alias).  Static segments become plain
    str/int steps; dynamic array indexes compile to closures resolved
    per row by :func:`_resolve_path`."""
    steps: list = []
    node = expr
    while True:
        if isinstance(node, Identifier):
            if node.name != alias:
                steps.append(node.name)
            break
        if isinstance(node, FieldAccess):
            steps.append(node.field)
            node = node.base
            continue
        if isinstance(node, ElementAccess):
            steps.append(compile_expr(node.index, default_alias))
            node = node.base
            continue
        raise N1qlRuntimeError("unsupported path expression in SET/UNSET")
    steps.reverse()
    return steps


def _resolve_path(steps: list, env: Env, ev) -> list:
    """Materialize one row's concrete path: pass static steps through,
    evaluate compiled index closures."""
    resolved: list = []
    for step in steps:
        if callable(step):
            index = step(env, ev)
            if not isinstance(index, (int, float)) or isinstance(index, bool):
                raise N1qlRuntimeError("array index in path must be a number")
            resolved.append(int(index))
        else:
            resolved.append(step)
    return resolved


def _update_mutations_compiled(statement: UpdateStatement,
                               ctx: ExecutionContext) -> tuple[list, list]:
    """Compile SET paths/values and UNSET paths once per statement."""
    compiled = getattr(statement, "_compiled_mutations", None)
    if compiled is None:
        default_alias = ctx.evaluator.default_alias
        sets = []
        fresh = 0
        for update_set in statement.sets:
            steps = _compile_path(update_set.path, statement.alias,
                                  default_alias)
            value_fn = compile_expr(update_set.value, default_alias)
            fresh += 1 + sum(1 for step in steps if callable(step))
            sets.append((steps, value_fn))
        unsets = []
        for unset_expr in statement.unsets:
            steps = _compile_path(unset_expr, statement.alias, default_alias)
            fresh += sum(1 for step in steps if callable(step))
            unsets.append(steps)
        compiled = (sets, unsets)
        statement._compiled_mutations = compiled
        if fresh:
            ctx.count("n1ql.compile.count", fresh)
    return compiled


def _apply_path_set(doc, steps: list, value) -> None:
    current = doc
    for step in steps[:-1]:
        if isinstance(step, int):
            current = current[step]
        else:
            if not isinstance(current, dict):
                raise N1qlRuntimeError("cannot traverse non-object in SET")
            current = current.setdefault(step, {})
    last = steps[-1]
    if isinstance(last, int):
        current[last] = value
    else:
        if not isinstance(current, dict):
            raise N1qlRuntimeError("cannot set field on non-object")
        current[last] = value


def _apply_path_unset(doc, steps: list) -> None:
    current = doc
    for step in steps[:-1]:
        try:
            current = current[step]
        except (KeyError, IndexError, TypeError):
            return
    last = steps[-1]
    try:
        del current[last]
    except (KeyError, IndexError, TypeError):
        return


@hot_path
@cost("O(n)")
def execute_update(statement: UpdateStatement, planner: Planner,
                   ctx: ExecutionContext) -> dict:
    client = ctx.client
    ev = ctx.evaluator
    count = 0
    returned = []
    rows = _target_rows(
        statement.keyspace, statement.alias, statement.use_keys,
        statement.where, statement.limit, planner, ctx,
    )
    where_fn = (None if statement.where is None else
                _stmt_compiled(statement, "_compiled_where",
                               statement.where, ctx))
    compiled_sets, compiled_unsets = _update_mutations_compiled(statement, ctx)
    for env in rows:
        meta = env.lookup_meta(statement.alias)
        if meta is None:
            continue
        key = meta["id"]
        for _attempt in range(_CAS_RETRIES):
            try:
                # Read-modify-write with CAS is inherently per-document:
                # the re-read, the WHERE re-check and the conditional
                # replace form one atomicity unit per key.
                # repro: disable-next=n-plus-one-rpc
                current = client.get(statement.keyspace, key)
            except KeyNotFoundError:
                break
            # Re-check WHERE against the current version (the row may
            # have changed since the scan).
            check_env = Env()
            check_env.bind(statement.alias, current.value, meta_dict(current))
            if where_fn is not None and where_fn(check_env, ev) is not True:
                break
            updated = deep_copy(current.value)
            mutate_env = Env()
            mutate_env.bind(statement.alias, updated, meta_dict(current))
            for steps, value_fn in compiled_sets:
                resolved = _resolve_path(steps, mutate_env, ev)
                value = value_fn(mutate_env, ev)
                if value is MISSING:
                    continue
                _apply_path_set(updated, resolved, value)
            for steps in compiled_unsets:
                _apply_path_unset(
                    updated, _resolve_path(steps, mutate_env, ev))
            try:
                # Same CAS unit as the get above.
                # repro: disable-next=n-plus-one-rpc
                client.replace(statement.keyspace, key, updated,
                               cas=current.meta.cas)
            # CAS retry loop: re-read and re-apply on concurrent write.
            # repro: disable-next=swallowed-exception
            except CasMismatchError:
                continue  # concurrent writer -- re-read and retry
            count += 1
            if statement.returning:
                result_env = Env()
                result_env.bind(statement.alias, updated, meta_dict(current))
                returned.append(_returning(statement, ctx, result_env))
            break
    return {"mutationCount": count, "returning": returned}


@hot_path
@cost("O(n)")
def execute_delete(statement: DeleteStatement, planner: Planner,
                   ctx: ExecutionContext) -> dict:
    client = ctx.client
    rows = _target_rows(
        statement.keyspace, statement.alias, statement.use_keys,
        statement.where, statement.limit, planner, ctx,
    )
    targets: list[tuple[str, Any]] = []
    for env in rows:
        meta = env.lookup_meta(statement.alias)
        if meta is None:
            continue
        _found, value = env.lookup(statement.alias)
        targets.append((meta["id"], value))
    if not targets:
        return {"mutationCount": 0, "returning": []}
    batch = client.multi_remove(statement.keyspace,
                                [key for key, _value in targets])
    for key, _value in targets:
        error = batch.errors.get(key)
        # DELETE of an already-deleted doc is a no-op, not an error.
        if error is not None and not isinstance(error, KeyNotFoundError):
            raise error
    count = 0
    returned = []
    for key, value in targets:
        if key not in batch.results:
            continue
        count += 1
        if statement.returning:
            result_env = Env()
            result_env.bind(statement.alias, value, {"id": key})
            returned.append(_returning(statement, ctx, result_env))
    return {"mutationCount": count, "returning": returned}
