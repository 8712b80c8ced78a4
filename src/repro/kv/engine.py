"""The per-node key-value engine: managed cache + asynchronous persistence.

This is the paper's **data service** core (section 4.3.3).  Writes land
in the per-vBucket hash tables and are acknowledged immediately
(memory-first, section 2.3.3); a flusher pump drains the disk write
queue to the append-only storage files, committing a vBucket once its
oldest write has aged ``FLUSH_ROUNDS`` flusher calls, a durability
waiter asks for it, or memory needs clean values (group commit in
time; see :meth:`KVEngine.flush`); an item pager ejects
not-recently-used clean values when the bucket's memory quota is
exceeded; and every mutation is recorded in an ordered per-vBucket
change buffer that DCP streams (replication, views, GSI, XDCR) consume.

vBuckets move through the states of section 4.3.1 -- *active* (serves
everything), *replica* (accepts only replication traffic), *pending*
(rebalance target being built), *dead* (no responsibility) -- and only
an active vBucket assigns sequence numbers and CAS values.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_right
from dataclasses import replace
from typing import Callable

from ..common import tracing
from ..common.contracts import bounded
from ..common.contracts import hot_path
from ..common.clock import Clock, VirtualClock
from ..common.disk import SimulatedDisk
from ..common.document import Document, DocumentMeta
from ..common.errors import (
    CasMismatchError,
    DocumentLockedError,
    InvalidArgumentError,
    KeyExistsError,
    KeyNotFoundError,
    NotMyVBucketError,
    ReproError,
    TemporaryFailureError,
    ValueTooLargeError,
)
from ..common.jsonval import JsonValue, deep_copy, sizeof, validate_json_value
from ..common.metrics import MetricsRegistry
from ..storage.compaction import Compactor
from ..storage.couchstore import VBucketStore
from .hashtable import HashTable
from .types import (
    FLUSH_ROUNDS,
    MutationResult,
    ObserveResult,
    ObserveWaiter,
    VBucketState,
)

#: Registered mutable module state (declared-shared-state lint rule):
#: monotonic vBucket-UUID source shared by every engine in the process.
__shared_state__ = ("_vb_uuid_counter",)

_vb_uuid_counter = itertools.count(1000)

_position = operator.attrgetter("position")
_seqno_of = operator.attrgetter("meta.seqno")


def _xdcr_wins(incoming: Document, existing: Document) -> bool:
    """Deterministic XDCR conflict resolution (section 4.6.1): highest
    revision (update count) wins; ties break on further metadata (CAS,
    expiry, flags) and finally on the canonical document encoding, so
    that two clusters always pick the same winner even when independent
    writers produced identical metadata.  A full tie means the versions
    are identical: not applied."""
    from ..common.jsonval import encode_canonical

    def sort_token(doc: Document) -> tuple:
        meta = doc.meta
        body = b"" if meta.deleted else encode_canonical(doc.value)
        return (meta.rev, meta.cas, meta.expiry, meta.flags,
                not meta.deleted, body)

    return sort_token(incoming) > sort_token(existing)


class VBucket:
    """All state for one vBucket on one node."""

    #: Change-buffer entries at or below the persisted seqno may be
    #: trimmed once the buffer grows past this, forcing late-joining DCP
    #: streams onto the disk backfill path.
    MAX_BUFFER = 4096

    def __init__(self, vbucket_id: int, state: VBucketState, disk: SimulatedDisk,
                 bucket_name: str):
        self.id = vbucket_id
        self.state = state
        self.uuid = next(_vb_uuid_counter)
        self.hashtable = HashTable(vbucket_id)
        self.store = VBucketStore(disk, f"{bucket_name}/vb{vbucket_id}.couch",
                                  vbucket_id)
        self.high_seqno = self.store.update_seq
        self.persisted_seqno = self.store.update_seq
        self.high_cas = 0
        #: Ordered mutations not yet trimmed; DCP's in-memory source.
        self.change_buffer: list[Document] = []
        #: Seqno of the last mutation *before* the buffer's first entry.
        self.buffer_start_seqno = self.store.update_seq
        #: Keys with un-persisted mutations, in arrival order.
        self.dirty_queue: list[str] = []
        #: The owning engine's flusher call count when ``dirty_queue``
        #: last went non-empty: the age of its oldest unpersisted write.
        self.dirty_since = 0
        #: Slot in the owning engine's ``vbuckets`` iteration order, which
        #: is the order the flusher visits dirty vBuckets in.
        self.position = 0
        #: History branches: (vb_uuid, seqno at which this branch began).
        self.failover_log: list[tuple[int, int]] = [(self.uuid, self.high_seqno)]
        #: For replicas: the producer's failover log adopted at stream
        #: open.  None means this copy never synced with an active, so a
        #: resuming stream must not trust its seqno (section 4.3.2's
        #: rollback handshake depends on this lineage record).
        self.source_failover_log: list[tuple[int, int]] | None = None

    def next_seqno(self) -> int:
        self.high_seqno += 1
        return self.high_seqno

    def record_change(self, doc: Document) -> None:
        self.change_buffer.append(doc)
        if len(self.change_buffer) > self.MAX_BUFFER:
            self.trim_change_buffer()

    def last_change_seqno(self) -> int:
        """Seqno of the newest mutation a DCP stream can deliver from this
        copy.  It trails ``high_seqno`` after a write that was assigned a
        seqno and then refused (a TMPFAIL raised past assignment)."""
        buffer = self.change_buffer
        return buffer[-1].meta.seqno if buffer else self.buffer_start_seqno

    def buffered(self, after: int, through: float) -> list[Document]:
        """The buffered mutations with ``after < seqno <= through``.
        Every write appends in seqno order and a trim drops a prefix, so
        the buffer is seqno-ascending and both ends are bisected."""
        buffer = self.change_buffer
        start = bisect_right(buffer, after, key=_seqno_of)
        return buffer[start:bisect_right(buffer, through, start,
                                         key=_seqno_of)]

    def trim_change_buffer(self) -> None:
        """Drop buffered mutations already persisted; DCP backfills those
        from the storage snapshot instead."""
        keep_from = bisect_right(self.change_buffer, self.persisted_seqno,
                                 key=_seqno_of)
        if keep_from:
            self.buffer_start_seqno = self.change_buffer[keep_from - 1].meta.seqno
            del self.change_buffer[:keep_from]

    def promote_to_active(self) -> None:
        """Replica -> active transition (failover or rebalance switchover):
        start a new history branch in the failover log (section 4.3.1).
        The inherited source log (the old active's lineage) becomes the
        base of this copy's history so downstream consumers can find
        their branch point."""
        self.state = VBucketState.ACTIVE
        self.uuid = next(_vb_uuid_counter)
        if self.source_failover_log is not None:
            self.failover_log = list(self.source_failover_log)
        self.failover_log.append((self.uuid, self.high_seqno))
        self.high_cas = max(
            self.high_cas,
            max((e.doc.meta.cas for _k, e in self.hashtable.items()), default=0),
        )


class KVEngine:
    """Data-service engine for one bucket on one node."""

    #: Flusher batch size: mutations persisted per pump invocation.
    FLUSH_BATCH = 256
    #: Group commit in time: a vBucket's queue is committed once its
    #: oldest write has waited this many flusher calls (sooner for a
    #: durability waiter or memory pressure; see :meth:`flush`).
    FLUSH_ROUNDS = FLUSH_ROUNDS
    #: Above this fraction of quota the pager starts ejecting...
    HIGH_WATERMARK = 0.85
    #: ...and it stops once usage falls below this fraction.
    LOW_WATERMARK = 0.75
    #: Largest accepted value footprint (bytes), like memcached's 20MB cap.
    MAX_VALUE_SIZE = 20 * 1024 * 1024
    #: Hard locks expire after this many seconds unless released (§3.1.1:
    #: "this lock will be released after a certain timeout").
    LOCK_TIMEOUT = 15.0
    #: Base unit (virtual seconds) of the TMPFAIL ``retry_after`` hint;
    #: scaled by the flusher backlog so a deeper queue asks clients to
    #: wait longer.
    TMPFAIL_RETRY_QUANTUM = 0.005

    def __init__(
        self,
        node_name: str,
        bucket_name: str,
        disk: SimulatedDisk | None = None,
        clock: Clock | None = None,
        quota_bytes: int | None = None,
        eviction_policy: str = "value",
        metrics: MetricsRegistry | None = None,
    ):
        if eviction_policy not in ("value", "full"):
            raise ValueError(f"unknown eviction policy {eviction_policy!r}")
        self.node_name = node_name
        self.bucket_name = bucket_name
        self.disk = disk if disk is not None else SimulatedDisk()
        self.clock = clock if clock is not None else VirtualClock()
        self.quota_bytes = quota_bytes
        self.eviction_policy = eviction_policy
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.vbuckets: dict[int, VBucket] = {}
        #: The vBuckets whose dirty queue is non-empty, in the order the
        #: queues went non-empty -- oldest ``dirty_since`` first, so the
        #: vBuckets due by age are a prefix.
        self._dirty: dict[int, VBucket] = {}
        #: Flusher calls so far: the clock ``dirty_since`` is read on.
        self._flush_calls = 0
        #: Entries across every dirty queue (``pending_writes``).
        self._pending = 0
        #: Source of ``VBucket.position``: a vBucket's slot in the
        #: iteration order of ``vbuckets`` (a new id goes last).
        self._positions = itertools.count()
        self.compactor = Compactor(self.disk)
        #: The vBuckets whose compaction answer may have changed since the
        #: compactor last compared them with ``_checked_threshold``: new
        #: ones, ones the flusher wrote to, one just compacted, and any
        #: it skipped as dirty.  Every other file is unchanged and was
        #: below that threshold.
        self._to_check: dict[int, VBucket] = {}
        self._checked_threshold: float | None = None
        #: Bucket-wide memory usage, maintained incrementally by hash
        #: table charge callbacks (insert/replace/eject/delete) so quota
        #: checks and the pager loop are O(1), not O(vbuckets x checks).
        self._memory_used = 0
        self._cas_counter = itertools.count(1)
        #: Callbacks invoked with each new mutation Document -- the DCP
        #: fan-out point (replication streams attach here).
        self.mutation_listeners: list[Callable[[Document], None]] = []
        #: Durability waits registered here, by vBucket; see
        #: :meth:`observe_wait`.
        self._waiters: dict[int, list[ObserveWaiter]] = {}
        #: Bumped by every event that can change what a DCP stream over
        #: this engine would yield or which vBuckets are active: a
        #: recorded change, a vBucket created, dropped or changing state,
        #: and warmup.  A consumer that found its streams idle at one
        #: value skips them until it moves.
        self.changes = 0

    # -- vBucket lifecycle ----------------------------------------------------

    def create_vbucket(self, vbucket_id: int,
                       state: VBucketState = VBucketState.ACTIVE) -> VBucket:
        self.changes += 1
        vb = VBucket(vbucket_id, state, self.disk, self.bucket_name)
        vb.hashtable.memory_listener = self._charge_memory
        replaced = self.vbuckets.get(vbucket_id)
        # Assigning to an existing key keeps its dict slot.
        vb.position = (replaced.position if replaced is not None
                       else next(self._positions))
        self._forget_queue(vbucket_id)  # the replaced copy's
        self.vbuckets[vbucket_id] = vb
        self._to_check[vbucket_id] = vb
        return vb

    def set_vbucket_state(self, vbucket_id: int, state: VBucketState) -> None:
        self.changes += 1
        vb = self.vbuckets.get(vbucket_id)
        if vb is None:
            if state is VBucketState.DEAD:
                return
            self.create_vbucket(vbucket_id, state)
            self.metrics.inc("kv.vbucket_state_changes")
            return
        if vb.state is VBucketState.DEAD:
            # DEAD is terminal for a vBucket *copy* (no declared DEAD->*
            # transition): reusing the id means a brand-new copy with a
            # fresh lineage, never a resurrection of the dead one's
            # documents -- so the dead copy's disk must go too.
            if state is VBucketState.DEAD:
                return
            self.drop_vbucket(vbucket_id)
            self.create_vbucket(vbucket_id, state)
            self.metrics.inc("kv.vbucket_state_changes")
            return
        if state is VBucketState.ACTIVE and vb.state is not VBucketState.ACTIVE:
            vb.promote_to_active()
        else:
            vb.state = state
        self.metrics.inc("kv.vbucket_state_changes")
        if self._waiters:
            self._settle(vbucket_id)

    def drop_vbucket(self, vbucket_id: int) -> None:
        self.changes += 1
        vb = self.vbuckets.pop(vbucket_id, None)
        self._forget_queue(vbucket_id)
        self._to_check.pop(vbucket_id, None)
        if self._waiters:
            self._settle(vbucket_id)  # each now carries NotMyVBucketError
        if vb is not None:
            self._memory_used -= vb.hashtable.memory_used
            vb.hashtable.memory_listener = None
            self.compactor.forget(vb.store)
            if vb.state is VBucketState.DEAD:
                # Dropping a DEAD copy discards it for good.  Its file
                # must go too: ``create_vbucket`` recovers whatever the
                # disk holds, so a later reuse of this id (rebalance
                # moving the vBucket back, failover rebuilding a
                # replica) would otherwise resurrect the dead copy's
                # documents under a stale lineage.
                vb.store.destroy()

    def _forget_queue(self, vbucket_id: int) -> None:
        vb = self._dirty.pop(vbucket_id, None)
        if vb is not None:
            self._pending -= len(vb.dirty_queue)

    def _active(self, vbucket_id: int) -> VBucket:
        vb = self.vbuckets.get(vbucket_id)
        if vb is None or vb.state is not VBucketState.ACTIVE:
            raise NotMyVBucketError(vbucket_id, self.node_name)
        return vb

    def owned_vbuckets(self, state: VBucketState | None = None) -> list[int]:
        if state is None:
            return sorted(self.vbuckets)
        return sorted(vid for vid, vb in self.vbuckets.items() if vb.state is state)

    # -- CAS ----------------------------------------------------------------------

    def _next_cas(self, vb: VBucket) -> int:
        cas = max(next(self._cas_counter), vb.high_cas + 1)
        vb.high_cas = cas
        return cas

    # -- internal mutation plumbing -----------------------------------------------

    def _check_lock_and_cas(self, vb: VBucket, key: str, cas: int) -> None:
        entry = vb.hashtable.peek(key)
        if entry is None:
            return
        now = self.clock.now()
        if entry.is_locked(now) and cas != entry.lock_cas:
            raise DocumentLockedError(key)
        if cas and entry.doc.meta.cas != cas and not (
            entry.is_locked(now) and cas == entry.lock_cas
        ):
            raise CasMismatchError(key, cas, entry.doc.meta.cas)

    @bounded("consumer-drained", "dirty_queue is trimmed by the flusher "
                                 "pump one batch per round")
    def _apply_mutation(self, vb: VBucket, doc: Document) -> None:
        """Common tail of every active-side write: cache it, queue it for
        disk, buffer it for DCP, notify listeners."""
        tracing.record_write(f"kv/{self.node_name}/{self.bucket_name}")
        self._ensure_quota_headroom(doc)
        entry = vb.hashtable.set(doc, dirty=True)
        entry.locked_until = 0.0  # any successful mutation releases the lock
        entry.lock_cas = 0
        if vb.id not in self._dirty:
            vb.dirty_since = self._flush_calls
            self._dirty[vb.id] = vb
        vb.dirty_queue.append(doc.key)
        self._pending += 1
        vb.record_change(doc)
        self.changes += 1
        self.metrics.inc("kv.mutations")
        for listener in self.mutation_listeners:
            listener(doc)

    def _build_doc(self, vb: VBucket, key: str, value: JsonValue | None,
                   *, expiry: float, flags: int, deleted: bool,
                   old: Document | None, size: int = 0) -> Document:
        """The next version of ``key``.  ``value`` is the engine's own
        (copied on the way in) and ``size`` its ``sizeof``; a tombstone's
        is None and 0."""
        meta = DocumentMeta(
            key=key,
            cas=self._next_cas(vb),
            seqno=vb.next_seqno(),
            rev=(old.meta.rev + 1) if old is not None else 1,
            expiry=expiry,
            flags=flags,
            deleted=deleted,
            vbucket_id=vb.id,
        )
        return Document(meta, value, size=size)

    def _live_entry(self, vb: VBucket, key: str):
        """Entry if the key logically exists (not deleted, not expired)."""
        entry = vb.hashtable.peek(key)
        if entry is None:
            if self.eviction_policy == "full" and vb.store.contains(key):
                # Full eviction dropped metadata; re-load from disk.
                doc = vb.store.get(key)
                entry = vb.hashtable.set(doc, dirty=False)
            else:
                return None
        if entry.doc.meta.deleted:
            return None
        if entry.doc.meta.is_expired(self.clock.now()):
            self._expire(vb, entry.doc)
            return None
        return entry

    def _expire(self, vb: VBucket, doc: Document) -> None:
        """Lazy expiry: an expired doc is turned into a real delete
        mutation so replicas and indexes hear about it via DCP."""
        tombstone = self._build_doc(
            vb, doc.key, None, expiry=0.0, flags=0, deleted=True, old=doc,
        )
        self._apply_mutation(vb, tombstone)
        self.metrics.inc("kv.expirations")

    # -- public KV API (section 3.1.1) -------------------------------------------

    @hot_path
    def get(self, vbucket_id: int, key: str) -> Document:
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            self.metrics.inc("kv.get_misses")
            raise KeyNotFoundError(key)
        doc = entry.doc
        if doc.ejected:
            doc = self._resident(vb, entry)
        entry.referenced = True
        self.metrics.inc("kv.gets")
        # The stored document itself: a service reads it in place, and
        # the smart client copies it for an application.
        return doc

    def _resident(self, vb: VBucket, entry) -> Document:
        """The entry's document with its value in memory: an ejected one
        is background-fetched from the storage engine into a new
        document, re-charged the size it had when it was ejected."""
        doc = entry.doc
        if doc.ejected:
            stored = vb.store.get(doc.key)
            doc = entry.doc = Document(doc.meta, stored.value, size=doc.size)
            vb.hashtable.charge(doc.size)
            self.metrics.inc("kv.bg_fetches")
        return doc

    @hot_path
    def upsert(self, vbucket_id: int, key: str, value: JsonValue, *,
               cas: int = 0, expiry: float = 0.0, flags: int = 0) -> MutationResult:
        """The memcached SET: create or replace."""
        validate_json_value(value)
        return self._store(vbucket_id, key, deep_copy(value), cas=cas,
                           expiry=expiry, flags=flags)

    def _store(self, vbucket_id: int, key: str, value: JsonValue, *,
               cas: int, expiry: float, flags: int) -> MutationResult:
        """The upsert of a value the engine owns -- the one copy made on
        the way in, or one built here -- sized by its only walk."""
        size = sizeof(value)
        if size > self.MAX_VALUE_SIZE:
            raise ValueTooLargeError(key)
        vb = self._active(vbucket_id)
        self._check_lock_and_cas(vb, key, cas)
        old_entry = vb.hashtable.peek(key)
        old = old_entry.doc if old_entry is not None else None
        doc = self._build_doc(vb, key, value, expiry=expiry, flags=flags,
                              deleted=False, old=old, size=size)
        self._apply_mutation(vb, doc)
        return MutationResult(doc.meta.cas, doc.meta.seqno, vb.id)

    @hot_path
    def insert(self, vbucket_id: int, key: str, value: JsonValue, *,
               expiry: float = 0.0, flags: int = 0) -> MutationResult:
        """The memcached ADD: fails if the key exists."""
        vb = self._active(vbucket_id)
        if self._live_entry(vb, key) is not None:
            raise KeyExistsError(key)
        return self.upsert(vbucket_id, key, value, expiry=expiry, flags=flags)

    @hot_path
    def replace(self, vbucket_id: int, key: str, value: JsonValue, *,
                cas: int = 0, expiry: float = 0.0, flags: int = 0) -> MutationResult:
        """The memcached REPLACE: fails unless the key exists."""
        vb = self._active(vbucket_id)
        if self._live_entry(vb, key) is None:
            raise KeyNotFoundError(key)
        return self.upsert(vbucket_id, key, value, cas=cas, expiry=expiry,
                           flags=flags)

    @hot_path
    def delete(self, vbucket_id: int, key: str, *, cas: int = 0) -> MutationResult:
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            raise KeyNotFoundError(key)
        self._check_lock_and_cas(vb, key, cas)
        doc = self._build_doc(vb, key, None, expiry=0.0, flags=0,
                              deleted=True, old=entry.doc)
        self._apply_mutation(vb, doc)
        self.metrics.inc("kv.deletes")
        return MutationResult(doc.meta.cas, doc.meta.seqno, vb.id)

    @hot_path
    def touch(self, vbucket_id: int, key: str, expiry: float) -> MutationResult:
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            raise KeyNotFoundError(key)
        doc = self._resident(vb, entry)
        # The stored value is immutable, so the new version shares it.
        return self._store(vbucket_id, key, doc.value, cas=0, expiry=expiry,
                           flags=doc.meta.flags)

    @hot_path
    def counter(self, vbucket_id: int, key: str, delta: int, *,
                initial: int | None = None) -> tuple[int, MutationResult]:
        """memcached-style atomic counter: add ``delta`` to an integer
        document, creating it at ``initial`` when absent (if given).
        Returns (new value, mutation result)."""
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            if initial is None:
                raise KeyNotFoundError(key)
            result = self.upsert(vbucket_id, key, initial)
            return initial, result
        current = self._resident(vb, entry).value
        if not isinstance(current, int) or isinstance(current, bool):
            raise TemporaryFailureError(
                f"counter target {key!r} is not an integer document"
            )
        new_value = current + delta
        result = self.upsert(vbucket_id, key, new_value)
        return new_value, result

    # -- batched operations (the smart client's node-grouped bulk path) -----------

    @hot_path
    def multi_get(self, items: list[tuple[int, str]]) -> list[tuple[str, object]]:
        """Serve a batch of point lookups in one call.  ``items`` is a
        list of ``(vbucket_id, key)`` pairs; the result carries one
        ``("ok", Document)`` or ``("err", ReproError)`` per item, in
        order, so a single misplaced vBucket (NOT_MY_VBUCKET) or missing
        key never fails the rest of the batch."""
        out: list[tuple[str, object]] = []
        for vbucket_id, key in items:
            try:
                out.append(("ok", self.get(vbucket_id, key)))
            except ReproError as error:
                out.append(("err", error))
        self.metrics.inc("kv.multi_gets")
        return out

    @hot_path
    def multi_mutate(
        self, ops: list[tuple[str, int, str, dict]]
    ) -> list[tuple[str, object]]:
        """Apply a batch of mutations in one call.  Each op is
        ``(kind, vbucket_id, key, kwargs)`` with kind in {"upsert",
        "insert", "replace", "delete"}; kwargs are that operation's
        keyword arguments (value, cas, expiry, flags).  Per-op outcomes
        mirror :meth:`multi_get`."""
        handlers = {
            "upsert": self.upsert,
            "insert": self.insert,
            "replace": self.replace,
            "delete": self.delete,
        }
        out: list[tuple[str, object]] = []
        for kind, vbucket_id, key, kwargs in ops:
            handler = handlers.get(kind)
            if handler is None:
                raise InvalidArgumentError(f"unknown batch mutation kind {kind!r}")
            try:
                out.append(("ok", handler(vbucket_id, key, **kwargs)))
            except ReproError as error:
                out.append(("err", error))
        self.metrics.inc("kv.multi_mutates")
        return out

    # -- sub-document operations (section 3.2.2 mentions sub-document
    # lookups and updates; the SDK exposes them as lookup_in/mutate_in) ----

    @hot_path
    def lookup_in(self, vbucket_id: int, key: str,
                  paths: list[str]) -> list:
        """Fetch selected sub-document paths without shipping the whole
        document.  Returns one ``{"found": bool, "value": ...}`` per path."""
        from ..common.jsonval import get_path
        doc = self.get(vbucket_id, key)
        results = []
        for path in paths:
            found, value = get_path(doc.value, path)
            results.append({"found": found, "value": value if found else None})
        self.metrics.inc("kv.subdoc_lookups")
        return results

    @hot_path
    def mutate_in(self, vbucket_id: int, key: str,
                  operations: list[tuple[str, str, JsonValue]],
                  *, cas: int = 0) -> MutationResult:
        """Apply sub-document mutations atomically.  Each operation is
        ``(op, path, value)`` with op in {"set", "unset", "array_append"}.
        The whole batch applies or none of it does (single CAS swap)."""
        from ..common.jsonval import get_path, set_path, unset_path
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            raise KeyNotFoundError(key)
        self._check_lock_and_cas(vb, key, cas)
        doc = self._resident(vb, entry)
        updated = deep_copy(doc.value)
        for op, path, value in operations:
            if op == "set":
                set_path(updated, path, deep_copy(value))
            elif op == "unset":
                unset_path(updated, path)
            elif op == "array_append":
                found, target = get_path(updated, path)
                if not found or not isinstance(target, list):
                    raise TemporaryFailureError(
                        f"array_append target {path!r} is not an array"
                    )
                target.append(deep_copy(value))
            else:
                raise InvalidArgumentError(f"unknown sub-document op {op!r}")
        validate_json_value(updated)
        self.metrics.inc("kv.subdoc_mutations")
        # ``updated`` is already the engine's own copy.
        return self._store(vbucket_id, key, updated, cas=cas,
                           expiry=doc.meta.expiry, flags=doc.meta.flags)

    @hot_path
    def get_and_lock(self, vbucket_id: int, key: str,
                     lock_time: float | None = None) -> Document:
        """Pessimistic locking (section 3.1.1).  The returned document's
        CAS is the lock token; mutations presenting it succeed and release
        the lock, anything else fails until the timeout."""
        vb = self._active(vbucket_id)
        entry = self._live_entry(vb, key)
        if entry is None:
            raise KeyNotFoundError(key)
        now = self.clock.now()
        if entry.is_locked(now):
            raise DocumentLockedError(key)
        # Locking changes the visible CAS so other writers' optimistic
        # updates fail fast: a new document with a new meta, since the
        # old one may be in the change buffer or a DCP message.
        doc = self._resident(vb, entry)
        lock_cas = self._next_cas(vb)
        doc = entry.doc = Document(replace(doc.meta, cas=lock_cas),
                                   doc.value, size=doc.size)
        entry.lock_cas = lock_cas
        entry.locked_until = now + (
            lock_time if lock_time is not None else self.LOCK_TIMEOUT
        )
        self.metrics.inc("kv.locks")
        return doc

    @hot_path
    def unlock(self, vbucket_id: int, key: str, cas: int) -> None:
        vb = self._active(vbucket_id)
        entry = vb.hashtable.peek(key)
        if entry is None or entry.doc.meta.deleted:
            raise KeyNotFoundError(key)
        if not entry.is_locked(self.clock.now()):
            raise TemporaryFailureError(f"not locked: {key!r}")
        if cas != entry.lock_cas:
            raise DocumentLockedError(key)
        entry.locked_until = 0.0
        entry.lock_cas = 0

    @hot_path
    def observe(self, vbucket_id: int, key: str) -> ObserveResult:
        """Durability probe: is the key in memory here, and has its latest
        mutation been persisted?  Works on active and replica vBuckets
        (a durability wait registers on replicas too)."""
        vb = self.vbuckets.get(vbucket_id)
        if vb is None or vb.state is VBucketState.DEAD:
            raise NotMyVBucketError(vbucket_id, self.node_name)
        entry = vb.hashtable.peek(key)
        if entry is None:
            # Nothing in memory: the only durable fact left is whether
            # the store holds a tombstone for the key.
            return ObserveResult(exists=False, cas=0,
                                 persisted=vb.store.has_tombstone(key))
        if entry.doc.meta.deleted:
            # The tombstone itself must have reached disk -- a stale
            # *live* version on disk does not make the delete durable.
            persisted = entry.doc.meta.seqno <= vb.persisted_seqno
            return ObserveResult(exists=False, cas=entry.doc.meta.cas,
                                 persisted=persisted)
        persisted = entry.doc.meta.seqno <= vb.persisted_seqno
        return ObserveResult(exists=True, cas=entry.doc.meta.cas,
                             persisted=persisted)

    @bounded("consumer-drained", "a waiter leaves when its wait ends "
                                 "(cancel) or once it is settled")
    def observe_wait(self, vbucket_id: int, key: str, cas: int,
                     active: bool) -> ObserveWaiter:
        """Register a durability wait on this copy of ``key``: the
        answer of :meth:`observe` for the mutation with ``cas``, now and
        again wherever it can turn true -- after the flusher syncs this
        vBucket's header, after a replica apply, and when the vBucket
        changes state or leaves (the waiter then carries
        :class:`NotMyVBucketError`).  A settled waiter is not kept.  The
        active registers in the durable write's own call, a replica in
        the replication batch that carries the registration; one that
        arrives before the mutation settles when the apply brings it."""
        waiter = ObserveWaiter(key, cas, active)
        self._note(vbucket_id, waiter)
        if not waiter.settled:
            self._waiters.setdefault(vbucket_id, []).append(waiter)
            waiter.hold(functools.partial(self._forget, vbucket_id, waiter))
        return waiter

    def _note(self, vbucket_id: int, waiter: ObserveWaiter) -> None:
        try:
            waiter.note(self.observe(vbucket_id, waiter.key))
        except NotMyVBucketError as error:
            waiter.error = error

    def _settle(self, vbucket_id: int) -> None:
        """Re-evaluate the waiters on one vBucket; settled ones leave."""
        waiters = self._waiters.get(vbucket_id)
        if waiters is None:
            return
        settled = []
        for waiter in waiters:
            self._note(vbucket_id, waiter)
            if waiter.settled:
                settled.append(waiter)
        for waiter in settled:
            waiter.cancel()

    def _forget(self, vbucket_id: int, waiter: ObserveWaiter) -> None:
        waiters = self._waiters[vbucket_id]
        waiters.remove(waiter)
        if not waiters:
            del self._waiters[vbucket_id]

    # -- XDCR inbound (section 4.6) --------------------------------------------------

    @hot_path
    def set_with_meta(self, vbucket_id: int, incoming: Document) -> bool:
        """Apply a remotely replicated mutation, preserving its metadata,
        after conflict resolution (section 4.6.1): the document with the
        most updates (highest rev) wins; ties break on further metadata.
        Returns True if the incoming version won and was applied."""
        vb = self._active(vbucket_id)
        entry = vb.hashtable.peek(incoming.key)
        if entry is None and self.eviction_policy == "full" \
                and vb.store.contains(incoming.key):
            entry = vb.hashtable.set(vb.store.get(incoming.key), dirty=False)
        if entry is not None and not _xdcr_wins(incoming, entry.doc):
            self.metrics.inc("xdcr.rejected")
            return False
        # The remote metadata under this copy's seqno and vBucket: a new
        # meta, the (immutable) value shared with the incoming document.
        meta = incoming.meta
        doc = Document(
            DocumentMeta(meta.key, meta.cas, vb.next_seqno(), meta.rev,
                         meta.expiry, meta.flags, meta.deleted, vb.id),
            incoming.value, size=incoming.size)
        vb.high_cas = max(vb.high_cas, doc.meta.cas)
        self._apply_mutation(vb, doc)
        self.metrics.inc("xdcr.applied")
        return True

    # -- replica side (DCP consumer) ----------------------------------------------

    @hot_path
    def apply_replicated(self, vbucket_id: int, doc: Document) -> None:
        """Apply a mutation received over DCP to a replica or pending
        vBucket.  Seqno/CAS arrive pre-assigned by the active side.
        Thin single-doc wrapper over the batch path (n = 1)."""
        self.apply_replicated_batch(vbucket_id, [doc])

    @hot_path
    def apply_replicated_batch(self, vbucket_id: int,
                               docs: list[Document]) -> None:
        """Apply one DCP stream batch to a replica or pending vBucket.
        The ownership check runs once for the whole batch -- the replica
        either hosts the vBucket (and takes every message, preserving
        stream order) or rejects the batch before touching anything,
        mirroring :meth:`multi_mutate`'s one-RPC-per-node contract on
        the active side."""
        vb = self.vbuckets.get(vbucket_id)
        if vb is None or vb.state is VBucketState.ACTIVE:
            raise NotMyVBucketError(vbucket_id, self.node_name)
        for doc in docs:
            # The active's document itself: stored documents are immutable.
            tracing.record_write(f"kv/{self.node_name}/{self.bucket_name}")
            vb.hashtable.set(doc, dirty=True)
            vb.dirty_queue.append(doc.key)
            vb.high_seqno = max(vb.high_seqno, doc.meta.seqno)
            vb.high_cas = max(vb.high_cas, doc.meta.cas)
            vb.record_change(doc)
        if docs:
            self.changes += 1
            self._pending += len(docs)
            if vb.id not in self._dirty:
                vb.dirty_since = self._flush_calls
                self._dirty[vb.id] = vb
            if self._waiters:
                self._settle(vbucket_id)
        self.metrics.inc("kv.replica_mutations", len(docs))

    # -- background pumps ------------------------------------------------------------

    @hot_path
    def flush(self, max_batch: int | None = None) -> bool:
        """Drain the disk write queue (the flusher), committing in time.

        A dirty vBucket is *due* when its oldest unpersisted write has
        waited ``FLUSH_ROUNDS`` calls, when a durability waiter is
        registered on it, or -- under a quota, with memory above the low
        watermark -- always, since the pager can eject only clean
        values.  Any other queue is held to grow, so one B-tree path
        rewrite, header and sync cover more documents and a key written
        twice meanwhile is written once.  The due vBuckets are committed
        in ``vbuckets`` order, up to ``max_batch`` mutations between
        them; one the budget cut short stays due.

        Returns True if anything was written or is still held, so a
        drain (``run_until_idle``) ends with every file synced, at most
        ``FLUSH_ROUNDS`` calls after the last write.  The crash contract
        is the paper's asynchronous persistence: a crash loses at most
        the writes of the last ``FLUSH_ROUNDS`` flusher calls that no
        ``persist_to`` waiter asked for."""
        budget = max_batch if max_batch is not None else self.FLUSH_BATCH
        self._flush_calls += 1
        self.metrics.observe("kv.queue_depth", self._pending)
        dirty = self._dirty
        if not dirty:
            return False
        if self.quota_bytes is not None and \
                self._memory_used > self.quota_bytes * self.LOW_WATERMARK:
            due = list(dirty.values())
        else:
            cutoff = self._flush_calls - self.FLUSH_ROUNDS
            due = []
            for vb in dirty.values():  # oldest first: stop at a young one
                if vb.dirty_since > cutoff:
                    break
                due.append(vb)
            for vbucket_id in self._waiters:
                vb = dirty.get(vbucket_id)
                if vb is not None and vb.dirty_since > cutoff:
                    due.append(vb)
        wrote = False
        for vb in sorted(due, key=_position):
            if budget <= 0:
                break
            keys, vb.dirty_queue = vb.dirty_queue[:budget], vb.dirty_queue[budget:]
            budget -= len(keys)
            self._pending -= len(keys)
            if not vb.dirty_queue:
                del dirty[vb.id]
            docs = []
            seen = set()
            for key in keys:
                if key in seen:
                    continue
                seen.add(key)
                entry = vb.hashtable.peek(key)
                if entry is None:
                    continue
                doc = entry.doc
                if doc.ejected:
                    continue  # already persisted (that's how it got ejected)
                docs.append(doc)  # save_docs only serializes it
            if docs:
                tracing.record_write(f"kv/{self.node_name}/{self.bucket_name}")
                vb.store.save_docs(docs)
                vb.store.write_header(sync=True)
                for doc in docs:
                    vb.hashtable.mark_clean(doc.key, doc.meta.seqno)
                vb.persisted_seqno = max(vb.persisted_seqno,
                                         max(d.meta.seqno for d in docs))
                if self._waiters:
                    self._settle(vb.id)
                self.metrics.inc("kv.flushed", len(docs))
                self._to_check[vb.id] = vb  # its file grew
                wrote = True
        return wrote or bool(dirty)

    def pending_writes(self) -> int:
        return self._pending

    @hot_path
    def run_compactor(self, threshold: float = 0.6) -> bool:
        """Online compaction pass (section 4.3.3: "Compaction is
        periodically run, based on a fragmentation threshold, and while
        the system is online").  Compacts at most one vBucket per call
        so the pump never hogs a scheduler round; returns True if a file
        was rewritten.

        A pass visits, in ``vbuckets`` order, only the vBuckets whose
        answer may have changed since the last one (see ``_to_check``);
        a threshold other than the last pass's re-compares every file,
        each against its cached ratio.  So the first vBucket past the
        threshold is the one a walk over every file would pick."""
        if threshold != self._checked_threshold:
            self._checked_threshold = threshold
            self._to_check = dict(self.vbuckets)
        for vb in sorted(self._to_check.values(), key=_position):
            if vb.dirty_queue:
                continue  # let the flusher drain first
            if not self.compactor.needs_compaction(vb.store, threshold):
                del self._to_check[vb.id]
                continue
            tracing.record_write(f"kv/{self.node_name}/{self.bucket_name}")
            vb.store = self.compactor.compact(vb.store)
            self.metrics.inc("kv.compactions")
            return True  # ``vb`` stays to be checked: its file is new
        return False

    @hot_path
    def run_expiry_pager(self) -> int:
        """Proactively convert expired documents into delete mutations so
        replicas and indexes learn about expiry without waiting for an
        access (the lazy path in :meth:`_live_entry` handles the rest)."""
        now = self.clock.now()
        expired = 0
        for vb in self.vbuckets.values():
            if vb.state is not VBucketState.ACTIVE:
                continue
            for _key, entry in vb.hashtable.items():
                doc = entry.doc
                if not doc.meta.deleted and doc.meta.is_expired(now):
                    self._expire(vb, doc)
                    expired += 1
        return expired

    def warmup(self) -> int:
        """Couchbase-style warmup after a restart: repopulate the hash
        tables from the storage files (keys, metadata, and values --
        under memory pressure the item pager will eject values again).
        Returns the number of items loaded."""
        loaded = 0
        self.changes += 1
        for vb in self.vbuckets.values():
            for doc in vb.store.all_docs(include_deleted=True):
                vb.hashtable.set(doc, dirty=False)
                vb.high_cas = max(vb.high_cas, doc.meta.cas)
                loaded += 1
            vb.high_seqno = max(vb.high_seqno, vb.store.update_seq)
            vb.persisted_seqno = vb.store.update_seq
            vb.buffer_start_seqno = vb.store.update_seq
        self.metrics.inc("kv.warmup_items", loaded)
        if self.quota_bytes is not None:
            self.run_item_pager()
        return loaded

    # -- memory management ---------------------------------------------------------

    def _charge_memory(self, delta: int) -> None:
        self._memory_used += delta

    def memory_used(self) -> int:
        """Bucket-wide usage from the incremental counter -- O(1)."""
        return self._memory_used

    def memory_used_full(self) -> int:
        """Ground truth: every resident entry's footprint summed afresh,
        not the charges that fed the incremental counter.  Tests and the
        sanitizer assert it always matches :meth:`memory_used`."""
        return sum(vb.hashtable.footprint() for vb in self.vbuckets.values())

    def _ensure_quota_headroom(self, incoming: Document) -> None:
        if self.quota_bytes is None:
            return
        needed = incoming.memory_footprint()
        if self._memory_used + needed <= self.quota_bytes * self.HIGH_WATERMARK:
            return
        self.run_item_pager()
        if self._memory_used + needed > self.quota_bytes:
            backlog = self.pending_writes()
            memory_ratio = self._memory_used / self.quota_bytes
            self.metrics.inc("kv.tmpfails")
            self.metrics.observe("kv.queue_depth", backlog)
            # Honest relief hint: flusher rounds needed to clear the
            # write backlog, stretched by how far past quota memory
            # already is -- a deep queue at 120% of quota asks clients
            # to stay away longer than a marginal overshoot.
            raise TemporaryFailureError(
                f"bucket {self.bucket_name!r} memory quota exhausted on "
                f"{self.node_name!r}; retry after the flusher catches up",
                retry_after=self.TMPFAIL_RETRY_QUANTUM
                * (1 + backlog // self.FLUSH_BATCH)
                * max(1.0, memory_ratio),
                pending_writes=backlog,
                memory_ratio=memory_ratio,
            )

    @hot_path
    def run_item_pager(self) -> int:
        """Eject NRU clean values until usage falls below the low
        watermark.  Two sweeps: the first skips recently referenced
        entries (clearing their bits), the second takes anything clean."""
        if self.quota_bytes is None:
            return 0
        target = self.quota_bytes * self.LOW_WATERMARK
        ejected = 0
        for skip_referenced in (True, False):
            if self._memory_used <= target:
                break
            for vb in self.vbuckets.values():
                if self._memory_used <= target:
                    break
                for key, entry in vb.hashtable.items():
                    if self._memory_used <= target:
                        break
                    if entry.dirty or entry.doc.meta.deleted or entry.doc.ejected:
                        continue
                    if skip_referenced and entry.referenced:
                        entry.referenced = False
                        continue
                    if self.eviction_policy == "value":
                        if vb.hashtable.eject_value(key):
                            ejected += 1
                    else:
                        if vb.hashtable.eject_entry(key):
                            ejected += 1
        if ejected:
            self.metrics.inc("kv.evictions", ejected)
        return ejected

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "node": self.node_name,
            "bucket": self.bucket_name,
            "vbuckets": {
                state.value: len(self.owned_vbuckets(state))
                for state in VBucketState
            },
            "items": sum(len(vb.hashtable) for vb in self.vbuckets.values()),
            "memory_used": self.memory_used(),
            "pending_writes": self.pending_writes(),
            "resident_ratio": (
                sum(vb.hashtable.resident_ratio() for vb in self.vbuckets.values())
                / max(1, len(self.vbuckets))
            ),
        }
