from ..common.contracts import hot_path
from .context import ExecutionContext


@hot_path
def join_per_row(ctx: ExecutionContext, batches):
    for batch in batches:
        out = []
        for row in batch:
            out.append((row, ctx.fetch_doc("b", row["key"])))
        yield out
