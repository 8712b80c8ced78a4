"""Shared helpers for tests that drive a bare :class:`KVEngine`."""


def drain_flusher(engine) -> None:
    """Persist everything queued, the way a drain does: call the flusher
    until it returns False.  One ``flush()`` commits only the vBuckets
    that are due (``KVEngine.flush``), so it is no "persist now"."""
    while engine.flush():
        pass
