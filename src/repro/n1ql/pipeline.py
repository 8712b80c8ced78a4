"""Plan execution: wires operators into a generator pipeline.

Section 4.5.2: "Once a query plan has been constructed ... the query
service coordinates first with the index service and then with the data
service.  The query results are streamed to the client as they become
available."  The generator chain here is exactly that streaming shape.

Operators exchange batches of up to
:data:`~repro.n1ql.operators.BATCH_SIZE` rows (one generator hop per
batch, not per row); :func:`execute_plan` flattens the last operator's
batches back into a stream of result values.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from ..common.errors import N1qlRuntimeError
from .expressions import Env
from .operators import (
    ExecutionContext,
    run_distinct,
    run_fetch,
    run_filter,
    run_final_project,
    run_group,
    run_index_aggregate,
    run_index_scan,
    run_initial_project,
    run_join,
    run_key_scan,
    run_let,
    run_limit,
    run_nest,
    run_offset,
    run_order,
    run_primary_scan,
    run_system_scan,
    run_unnest,
)
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
    SystemScan,
    UnnestOp,
)

_SOURCES = {
    KeyScan: run_key_scan,
    IndexScan: run_index_scan,
    PrimaryScan: run_primary_scan,
    SystemScan: run_system_scan,
    IndexAggregateScan: run_index_aggregate,
}

_TRANSFORMS = {
    Fetch: run_fetch,
    Filter: run_filter,
    LetOp: run_let,
    JoinOp: run_join,
    NestOp: run_nest,
    UnnestOp: run_unnest,
    GroupOp: run_group,
    OrderOp: run_order,
    OffsetOp: run_offset,
    LimitOp: run_limit,
    InitialProject: run_initial_project,
    DistinctOp: run_distinct,
    FinalProject: run_final_project,
}


def execute_plan(plan: QueryPlan, ctx: ExecutionContext) -> Iterator[Any]:
    """Run the pipeline; yields final result values."""
    operators = plan.operators
    if not operators:
        return iter(())
    source = _SOURCES.get(type(operators[0]))
    if source is not None:
        batches = source(operators[0], ctx)
        operators = operators[1:]
    else:
        # No FROM clause: a single empty row flows through the pipeline
        # (SELECT 1+1 style).
        batches = iter([[Env()]])
    for op in operators:
        transform = _TRANSFORMS.get(type(op))
        if transform is None:
            raise N1qlRuntimeError(
                f"no executor for plan operator {type(op).__name__}"
            )
        batches = transform(op, ctx, batches)
    return itertools.chain.from_iterable(batches)
