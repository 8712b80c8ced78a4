from ..common.contracts import cost, hot_path


@cost("O(n)")
def flush_batch(batch):
    return len(batch)


@hot_path
@cost("O(n)")
def flush_all(batches):
    total = 0
    for batch in batches:
        total += flush_batch(batch)
    return total
