"""Shared helpers for tests that drive an :class:`Indexer` directly."""


def drain_indexer(indexer) -> None:
    """Commit every held key version, the way a drain does: call the
    indexer pump until it returns False.  An applied batch is held until
    it is due (``Indexer.pump``), so ``apply`` is no "visible now"."""
    while indexer.pump():
        pass
