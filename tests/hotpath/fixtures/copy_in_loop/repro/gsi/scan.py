from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def expand(template, keys):
    entries = []
    for key in keys:
        entry = dict(template)
        entry["key"] = key
        entries.append(entry)
    return entries
