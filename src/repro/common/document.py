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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jsonval import JsonValue, deep_copy, sizeof


@dataclass
class DocumentMeta:
    key: str
    cas: int = 0
    seqno: int = 0
    rev: int = 0
    expiry: float = 0.0
    flags: int = 0
    deleted: bool = False
    vbucket_id: int = 0

    def copy(self) -> "DocumentMeta":
        # Spelled out: this sits inside every Document.copy (each KV get
        # and DCP message), where dataclasses.replace's field
        # introspection costs several times the copy itself.
        return DocumentMeta(
            self.key, self.cas, self.seqno, self.rev, self.expiry,
            self.flags, self.deleted, self.vbucket_id,
        )

    def is_expired(self, now: float) -> bool:
        return self.expiry != 0.0 and not self.deleted and now >= self.expiry


@dataclass
class Document:
    """A stored document: metadata plus JSON body.

    ``value`` is None when ``meta.deleted`` is set (tombstone) or when the
    value has been ejected from the cache and only key+metadata remain
    resident (section 4.3.3, "value eviction").
    """

    meta: DocumentMeta
    value: JsonValue | None = None
    #: True when the value is not resident in memory (ejected); the body
    #: must be fetched from the storage engine.  Distinct from tombstones.
    ejected: bool = field(default=False, compare=False)

    @property
    def key(self) -> str:
        return self.meta.key

    def copy(self) -> "Document":
        return Document(self.meta.copy(), deep_copy(self.value), self.ejected)

    def memory_footprint(self) -> int:
        """Bytes charged against the bucket quota for this cache entry."""
        base = 64 + len(self.meta.key.encode("utf-8"))
        if self.value is not None and not self.ejected:
            base += sizeof(self.value)
        return base
