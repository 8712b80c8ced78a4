from ..common.contracts import hot_path


@hot_path
def expand(template, keys):
    entries = []
    for key in keys:
        entry = dict(template)
        entry["key"] = key
        entries.append(entry)
    return entries
