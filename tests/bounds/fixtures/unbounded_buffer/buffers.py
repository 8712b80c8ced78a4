"""Known-bad fixture: a pump-reachable buffer nothing ever drains."""


def hot_path(fn):
    return fn


class EventCollector:
    """Collects every event a hot path ever sees, forever."""

    def __init__(self):
        self.backlog = []

    @hot_path
    def on_event(self, event):
        # Grows on every call; no maxlen, no drain, no cap, no
        # declaration -- the unbounded-buffer rule must flag it.
        self.backlog.append(event)
