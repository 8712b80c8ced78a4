"""Compaction.

Section 4.3.3: *"Compaction is periodically run, based on a fragmentation
threshold, and while the system is online, to clean up stale data from
the append-only storage."*

The compactor copies every live document record (in seqno order,
preserving the by-seqno tree DCP backfills from) from the old file into
a fresh file -- the record's bytes, checksum-verified on read, not a
decoded document -- writes a header, and atomically renames the new
file over the old name.
Because the source is read through its last header -- an immutable
snapshot -- the vBucket can keep taking writes during the copy; the
writes that land mid-compaction are replayed onto the new file in a
catch-up pass before the swap.

Optionally, tombstones whose seqno is below a purge horizon are dropped
(``purge_before_seq``), mirroring the metadata purge interval.
"""

from __future__ import annotations

from ..common.disk import SimulatedDisk
from .couchstore import VBucketStore


class Compactor:
    """Compacts :class:`VBucketStore` files past a fragmentation threshold."""

    def __init__(self, disk: SimulatedDisk, threshold: float = 0.3):
        self.disk = disk
        self.threshold = threshold
        #: Number of compactions performed.
        self.runs = 0
        #: filename -> (store, file size, ``store.fragmentation()`` at that
        #: size), one entry per file name.  Every writer appends, so an
        #: unchanged size means unchanged counters; a truncation (crash,
        #: ``destroy()``) gives a new size and a compaction swap a new
        #: store object.
        self._ratios: dict[str, tuple[VBucketStore, int, float]] = {}

    def needs_compaction(self, store: VBucketStore,
                         threshold: float | None = None) -> bool:
        """True past ``threshold`` (default: the compactor's own)."""
        if threshold is None:
            threshold = self.threshold
        # Tiny files are never worth compacting, whatever their ratio.
        return store.file_size > 4096 and self.fragmentation(store) >= threshold

    def fragmentation(self, store: VBucketStore) -> float:
        """``store.fragmentation()``, recomputed only when the file's size
        or the store object changed since the last call.  Only the ratio
        is cached, never the yes/no answer: the threshold is the caller's,
        compared afresh on every call."""
        size = store.file_size
        cached = self._ratios.get(store.filename)
        if cached is None or cached[0] is not store or cached[1] != size:
            cached = (store, size, store.fragmentation())
            self._ratios[store.filename] = cached
        return cached[2]

    def forget(self, store: VBucketStore) -> None:
        """Drop the cached ratio of a store leaving the engine (its
        vBucket was dropped), which would otherwise keep the store -- its
        log, decoded nodes and fold memo -- alive until a file of the
        same name is checked again."""
        self._ratios.pop(store.filename, None)

    def compact(
        self,
        store: VBucketStore,
        purge_before_seq: int = 0,
    ) -> VBucketStore:
        """Rewrite ``store``'s file; returns the replacement store.

        The caller must swap the returned store into its vBucket map; the
        old object must not be used afterwards (its file was renamed
        away)."""
        old_name = store.filename
        temp_name = old_name + ".compact"
        if self.disk.exists(temp_name):
            self.disk.delete(temp_name)
        new_store = VBucketStore(self.disk, temp_name, store.vbucket_id)

        copied_through = self._copy_since(store, new_store, 0, purge_before_seq)
        # Catch-up pass: replay anything that landed while we copied.  With
        # the cooperative scheduler the source cannot advance mid-copy, but
        # the loop keeps the algorithm honest for any driver that
        # interleaves writes.
        while store.update_seq > copied_through:
            copied_through = self._copy_since(
                store, new_store, copied_through, purge_before_seq
            )

        new_store.write_header(sync=True)
        self.disk.delete(old_name)
        self.disk.rename(temp_name, old_name)
        new_store.filename = old_name
        self._ratios.pop(old_name, None)  # the old store is retired
        self.runs += 1
        return new_store

    def _copy_since(
        self,
        source: VBucketStore,
        target: VBucketStore,
        since_seq: int,
        purge_before_seq: int,
    ) -> int:
        # The scan below reads the by-key tree as it is now, so it
        # covers every mutation through the source's current update_seq
        # -- which can exceed the newest *record's* seqno once a purge
        # has dropped the newest tombstone.  Reporting the newest record
        # instead would leave the catch-up loop waiting for it forever.
        through = source.update_seq
        # A by-key entry is [pointer, seqno, size, deleted]: enough to
        # pick, purge and order the records without decoding one.
        copies = sorted(
            (seqno, key, pointer, deleted)
            for key, (pointer, seqno, _size, deleted) in source.by_key.items()
            if seqno > since_seq
            and not (deleted and seqno <= purge_before_seq))  # old tombstone
        read = source.log.read
        for start in range(0, len(copies), 512):
            target.save_records([
                (key, seqno, deleted, read(pointer)[1])
                for seqno, key, pointer, deleted
                in copies[start:start + 512]])
        target.update_seq = max(target.update_seq, through)
        return through
