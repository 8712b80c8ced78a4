from ..common.contracts import hot_path


@hot_path
def read_profiles(client, keys):
    docs = []
    for key in keys:
        docs.append(client.get("b", key))
    return docs
