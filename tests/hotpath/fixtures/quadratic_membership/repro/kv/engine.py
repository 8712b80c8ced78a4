from ..common.contracts import hot_path


@hot_path
def dedupe_events(events):
    seen = []
    unique = []
    for event in events:
        if event in seen:
            continue
        seen.append(event)
        unique.append(event)
    return unique
