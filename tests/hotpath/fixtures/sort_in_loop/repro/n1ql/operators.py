from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def merge_batches(batches, ranking):
    merged = []
    for batch in batches:
        order = sorted(ranking)
        merged.append((order, batch))
    return merged
