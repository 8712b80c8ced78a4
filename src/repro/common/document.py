"""Documents and their metadata.

A document (section 3) is a JSON value addressed by a user-supplied
string key inside a bucket.  The server attaches metadata:

* **cas** -- the compare-and-swap token, changed on every mutation
  (section 3.1.1).  Modeled as a strictly increasing 64-bit integer.
* **seqno** -- the per-vBucket mutation sequence number (section 4.2:
  "When a document is written, a sequence number is generated and
  associated with the mutation").  DCP, durability observation, and
  scan-consistency waits are all expressed in seqnos.
* **rev** -- the revision (update) counter used by XDCR conflict
  resolution: "the document with the most updates is considered the
  winner" (section 4.6.1).
* **expiry** -- absolute virtual-time expiration, 0 meaning none.
* **flags** -- opaque client flags, carried verbatim like memcached's.
* **deleted** -- tombstone marker; deletes are mutations too and must
  flow through DCP to replicas and indexes.

A stored document is immutable: the hash table, the change buffer, DCP
messages and a replica's copy all hold the same object, and a change of
any field (a lock's CAS, an ejected value) is a new ``Document``.  The
metadata is frozen to make that checked; the value is copied once on the
way in and once on the way out to a client.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jsonval import JsonValue, deep_copy, sizeof


@dataclass(frozen=True, slots=True)
class DocumentMeta:
    key: str
    cas: int = 0
    seqno: int = 0
    rev: int = 0
    expiry: float = 0.0
    flags: int = 0
    deleted: bool = False
    vbucket_id: int = 0

    def is_expired(self, now: float) -> bool:
        return self.expiry != 0.0 and not self.deleted and now >= self.expiry


class Document:
    """A stored document: metadata plus JSON body.

    ``value`` is None when ``meta.deleted`` is set (tombstone) or when the
    value has been ejected from the cache and only key+metadata remain
    resident (section 4.3.3, "value eviction").

    ``size`` is the value's :func:`~repro.common.jsonval.sizeof`, walked
    at most once per document: passed in by a caller that already walked
    it (an upsert's size check), or else on first use -- a document read
    from storage is sized when a hash table first charges it, and one
    that is only streamed or compacted is never sized.  It is kept across
    an ejection, so that the quota charge of a background fetch is the
    one the value had before."""

    __slots__ = ("meta", "value", "ejected", "_size")

    def __init__(self, meta: DocumentMeta, value: JsonValue | None = None,
                 ejected: bool = False, size: int | None = None):
        self.meta = meta
        self.value = value
        #: True when the value is not resident in memory (ejected); the
        #: body must be fetched from the storage engine.  Distinct from
        #: tombstones.
        self.ejected = ejected
        #: -1 until walked.
        self._size = (size if size is not None
                      else 0 if value is None else -1)

    @property
    def key(self) -> str:
        return self.meta.key

    @property
    def size(self) -> int:
        size = self._size
        if size < 0:
            size = self._size = sizeof(self.value)
        return size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Document:
            return NotImplemented
        return self.meta == other.meta and self.value == other.value

    __hash__ = None  # type: ignore[assignment]  # mutable value, like a dataclass

    def __repr__(self) -> str:
        return (f"Document(meta={self.meta!r}, value={self.value!r}, "
                f"ejected={self.ejected!r})")

    def copy(self) -> "Document":
        """A document whose value the caller may change: the frozen meta
        is shared, the value copied."""
        return Document(self.meta, deep_copy(self.value), self.ejected)

    def memory_footprint(self) -> int:
        """Bytes charged against the bucket quota for this cache entry."""
        base = 64 + len(self.meta.key.encode("utf-8"))
        if not self.ejected:
            base += self.size
        return base
