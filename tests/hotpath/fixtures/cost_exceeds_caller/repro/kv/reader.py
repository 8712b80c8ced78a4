from ..common.contracts import cost, hot_path


@cost("O(n)")
def scan_all(store):
    return [doc for doc in store]


@hot_path
@cost("O(1)")
def first(store):
    return scan_all(store)[0]
