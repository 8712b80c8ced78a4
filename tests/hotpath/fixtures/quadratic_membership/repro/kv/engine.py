from ..common.contracts import cost, hot_path


@hot_path
@cost("O(n)")
def dedupe_events(events):
    seen = []
    unique = []
    for event in events:
        if event in seen:
            continue
        seen.append(event)
        unique.append(event)
    return unique
