from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def read_profiles(client, keys):
    docs = []
    for key in keys:
        docs.append(client.get("b", key))
    return docs
