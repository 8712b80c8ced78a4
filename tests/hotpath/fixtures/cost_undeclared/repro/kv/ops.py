from ..common.contracts import hot_path


@hot_path
def lookup(store, key):
    return store.fetch(key)
