from ..common.contracts import hot_path


@hot_path
def merge_batches(batches, ranking):
    merged = []
    for batch in batches:
        order = sorted(ranking)
        merged.append((order, batch))
    return merged
