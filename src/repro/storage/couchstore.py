"""Per-vBucket storage files.

Each vBucket persists to its own append-only file (as couchstore does),
containing three kinds of records: document bodies, B-tree nodes, and
**headers**.  A header names the roots of the two indexes -- the by-key
tree (doc ID -> ``[pointer, seqno, size, deleted]``) and the by-seqno
tree (mutation seqno -> document pointer) -- plus the vBucket's high
seqno and counters.  Because trees are copy-on-write, a header is a
consistent snapshot: DCP backfill and compaction read from a header
while the writer keeps appending (section 4.3.3).

Leaf values and headers hold only fields some reader reads, by position:
a flush rewrites each leaf it touches, and compaction rewrites it again,
so every byte in an entry is paid for many times.

Recovery after a crash scans for the last intact header and truncates
everything after it; un-headered appends are exactly the writes whose
persistence the client never observed (section 2.3.2's durability
options are what let a client *choose* to observe it).
"""

from __future__ import annotations

import json

from ..common.disk import SimulatedDisk
from ..common.document import Document, DocumentMeta
from ..common.errors import CorruptFileError, KeyNotFoundError
from ..common.jsonval import JsonValue
from .appendlog import _HEADER, RT_DOC, RT_HEADER, AppendLog
from .btree import BTree, encode_record


class VBucketStore:
    """Storage engine instance for one vBucket."""

    def __init__(self, disk: SimulatedDisk, filename: str, vbucket_id: int):
        self.disk = disk
        self.filename = filename
        self.vbucket_id = vbucket_id
        self.log = AppendLog(disk.open(filename))
        self.by_key = BTree(self.log)
        self.by_seq = BTree(self.log)
        #: Highest seqno persisted (and headered) in this file.
        self.update_seq = 0
        self.doc_count = 0
        self.deleted_count = 0
        #: Bytes of live (reachable from the current header) doc bodies;
        #: the numerator of the fragmentation computation.
        self.live_size = 0
        self._recover()

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> None:
        found = self.log.find_last_header()
        if found is None:
            if self.log.size:
                # File exists but has no intact header: treat as empty.
                self.log.file.truncate(0)
            return
        offset, body = found
        header = json.loads(body.decode("utf-8"))
        if type(header) is not list or len(header) != 9:
            raise CorruptFileError(
                f"{self.filename!r}: header at offset {offset} is not "
                f"the 9-field list write_header writes"
            )
        # Truncate everything after the header record: those are appends
        # that never reached a commit point.
        self.log.file.truncate(offset + _HEADER.size + len(body))
        (key_root, seq_root, self.update_seq, self.doc_count,
         self.deleted_count, self.live_size, key_nodes, seq_nodes,
         _vbucket_id) = header
        self.by_key = BTree(self.log, key_root, node_bytes=key_nodes)
        self.by_seq = BTree(self.log, seq_root, node_bytes=seq_nodes)

    # -- write path -------------------------------------------------------------

    def save_docs(self, docs: list[Document]) -> None:
        """Persist a batch of mutations (the flusher's unit of work).

        Every doc must already carry its assigned seqno.  Repeated
        updates to one key within the batch are deduplicated to the
        newest -- the paper's point that asynchrony lets "repeated updates
        to an object be aggregated at the level of persistence"
        (section 2.3.2)."""
        if not docs:
            return
        newest: dict[str, Document] = {}
        for doc in docs:
            newest[doc.key] = doc
        records = []
        for doc in newest.values():
            meta = doc.meta
            body = encode_record([
                meta.key, doc.value, meta.cas, meta.seqno, meta.rev,
                meta.expiry, meta.flags, meta.deleted,
            ]).encode("utf-8")
            records.append((meta.key, meta.seqno, meta.deleted, body))
        self.save_records(records)

    def save_records(self, records: list[tuple[str, int, bool, bytes]]) -> None:
        """Append encoded document records, each ``(key, seqno,
        deleted, body)`` with a distinct key, and index them: the write
        path of :meth:`save_docs` and of compaction, which copies bodies
        without decoding them.  The by-key update's own descent finds
        the entries it replaces (``BTree.replaced``); their seqnos leave
        the by-seqno tree."""
        key_inserts: list[tuple[JsonValue, JsonValue]] = []
        seq_inserts: list[tuple[JsonValue, JsonValue]] = []
        for key, seqno, deleted, body in records:
            pointer = self.log.append(RT_DOC, body)
            key_inserts.append((key, [pointer, seqno, len(body), int(deleted)]))
            seq_inserts.append((seqno, pointer))
            self.live_size += len(body)
            if deleted:
                self.deleted_count += 1
            else:
                self.doc_count += 1
            self.update_seq = max(self.update_seq, seqno)
        self.by_key = self.by_key.batch_update(inserts=key_inserts)
        seq_deletes: list[JsonValue] = []
        for _key, (_pointer, old_seqno, old_size, old_deleted) in \
                self.by_key.replaced:
            seq_deletes.append(old_seqno)
            self.live_size -= old_size
            if old_deleted:
                self.deleted_count -= 1
            else:
                self.doc_count -= 1
        self.by_seq = self.by_seq.batch_update(
            inserts=seq_inserts, deletes=seq_deletes
        )

    def write_header(self, sync: bool = True) -> None:
        """Commit point: append a header naming the current tree roots."""
        header = [
            self.by_key.root, self.by_seq.root, self.update_seq,
            self.doc_count, self.deleted_count, self.live_size,
            self.by_key.node_bytes, self.by_seq.node_bytes, self.vbucket_id,
        ]
        self.log.append(RT_HEADER, encode_record(header).encode())
        if sync:
            self.log.sync()

    def destroy(self) -> None:
        """Delete the vBucket's on-disk state.

        ``_recover`` deliberately reopens whatever the file holds, so a
        drop that merely forgets the in-memory object resurrects the old
        documents (and their failover lineage) on the next
        ``create_vbucket`` for the same id.  A DEAD vBucket's disk must
        be gone before the id is reused."""
        self.log.truncate(0)
        self.log.sync()
        self.by_key = BTree(self.log)
        self.by_seq = BTree(self.log)
        self.update_seq = 0
        self.doc_count = 0
        self.deleted_count = 0
        self.live_size = 0

    # -- read path ---------------------------------------------------------------

    def _load_doc(self, pointer: int) -> Document:
        _rt, body = self.log.read(pointer)
        key, value, cas, seqno, rev, expiry, flags, deleted = json.loads(body)
        meta = DocumentMeta(
            key=key, cas=cas, seqno=seqno, rev=rev, expiry=expiry,
            flags=flags, deleted=deleted, vbucket_id=self.vbucket_id,
        )
        return Document(meta, value)

    def get(self, key: str, include_deleted: bool = False) -> Document:
        found, entry = self.by_key.lookup(key)
        if not found or (entry[3] and not include_deleted):
            raise KeyNotFoundError(key)
        return self._load_doc(entry[0])

    def contains(self, key: str) -> bool:
        found, entry = self.by_key.lookup(key)
        return found and not entry[3]

    def has_tombstone(self, key: str) -> bool:
        """True when the latest persisted version of ``key`` is a delete
        (the durability monitor's deletion-path observe needs this)."""
        found, entry = self.by_key.lookup(key)
        return found and bool(entry[3])

    def changes_since(self, seqno: int):
        """Yield persisted documents with seqno strictly greater than
        ``seqno``, in seqno order -- the DCP backfill scan.  The key and
        the tombstone flag come from the loaded document."""
        for _seq, pointer in self.by_seq.range(start=seqno, inclusive_start=False):
            yield self._load_doc(pointer)

    def all_docs(self, include_deleted: bool = False):
        """Scan every live document in key order (PrimaryScan substrate)."""
        for _key, (pointer, _seqno, _size, deleted) in self.by_key.items():
            if deleted and not include_deleted:
                continue
            yield self._load_doc(pointer)

    # -- sizing -----------------------------------------------------------------

    @property
    def file_size(self) -> int:
        return self.log.size

    def live_bytes(self) -> int:
        """On-disk bytes still reachable from the current tree roots:
        live document records (bodies plus framing) and live index
        nodes.  Superseded doc versions, dead nodes and stale headers
        are the garbage compaction reclaims."""
        doc_records = self.doc_count + self.deleted_count
        return (
            self.live_size
            + doc_records * _HEADER.size
            + self.by_key.node_bytes
            + self.by_seq.node_bytes
        )

    def fragmentation(self) -> float:
        """Fraction of the file that is garbage (old doc versions, dead
        tree nodes, stale headers).  The compactor triggers past a
        threshold on this.  Live B-tree nodes MUST count as live here:
        they are roughly two thirds of a freshly compacted file, and
        treating them as garbage pins fragmentation above any sane
        threshold -- the compactor then rewrites an already-clean file
        every pump round and the scheduler never goes idle."""
        if self.log.size == 0:
            return 0.0
        return max(0.0, 1.0 - self.live_bytes() / self.log.size)
