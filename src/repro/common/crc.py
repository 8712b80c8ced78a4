"""CRC32 key hashing (section 4.1, Figure 5).

Smart clients map every document ID onto one of the bucket's 1024
vBuckets by hashing the key with CRC32 and taking the low bits.  The
digest is the standard reflected CRC-32 (polynomial 0xEDB88320, the same
one memcached/libcouchbase use), computed by :func:`zlib.crc32`; this
module is the one import point for it, so record checksums
(``storage/appendlog.py``), key placement, the projector's partition
hash and the admission seed all use the same C routine.  The test suite
keeps a table-driven pure-Python CRC-32 as the oracle.

Couchbase folds the 32-bit digest to the vBucket count with
``(crc >> 16) & 0x7fff % num_vbuckets`` in libcouchbase; we follow the
same fold so key placement matches the real client's behaviour.
"""

from __future__ import annotations

from zlib import crc32

__all__ = ["crc32", "vbucket_for_key"]


def vbucket_for_key(key: str | bytes, num_vbuckets: int) -> int:
    """Map a document ID to its vBucket (libcouchbase-compatible fold)."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = crc32(key)
    return ((digest >> 16) & 0x7FFF) % num_vbuckets
