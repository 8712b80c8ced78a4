from ..common.contracts import cost, hot_path
from .context import ExecutionContext


@hot_path
@cost("O(n)")
def join_per_batch(ctx: ExecutionContext, batches):
    for batch in batches:
        docs = ctx.fetch_docs("b", [row["key"] for row in batch])
        yield [(row, docs.get(row["key"])) for row in batch]
