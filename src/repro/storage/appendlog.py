"""Append-only record log.

Section 4.3.3: *"With Couchbase's append-only storage engine design,
document mutations always go to the end of a file."*  This module frames
records on a :class:`SimulatedFile`: a fixed header (magic byte, record
type, body length, CRC32 of the body) followed by the body.  Torn or
corrupt trailing records -- the product of a crash between append and
sync -- are detected by the CRC and skipped by recovery scans.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Iterator

from ..common.crc import crc32
from ..common.disk import SimulatedFile
from ..common.errors import CorruptFileError

_MAGIC = 0xC7
_HEADER = struct.Struct(">BBII")  # magic, record type, body length, body crc32

#: Record types.  HEADER records carry B-tree roots and sequence state and
#: are what recovery scans for; the others are payload.
RT_DOC = 1
RT_NODE = 2
RT_HEADER = 3


class AppendLog:
    """Record framing over an append-only file."""

    #: The backing file grows by design -- it *is* the persisted data.
    #: Compaction bounds it: the live set is rewritten into a fresh
    #: file and swapped in (see ``KVEngine.compact``), which is the
    #: eviction mechanism for dead records.
    __bounds__ = ("file",)

    def __init__(self, file: SimulatedFile):
        self.file = file
        #: B-tree node cache (offset -> ``(kind, items, size, parts)``):
        #: the decoded node, its record's on-disk size, and each entry's
        #: encoding, which a copy-on-write rewrite splices in for the
        #: entries it leaves alone (``None`` for a node read from disk
        #: until it is first modified; see ``BTree._write_node``).
        #: Offsets are never rewritten in an append-only file --
        #: compaction swaps in a whole new log -- so entries can never go
        #: stale, and they die with the log.
        self.node_cache: OrderedDict[int, tuple] = OrderedDict()
        #: Memoized folds of whole subtrees ((offset, fold spec) -> fold,
        #: see ``BTree.fold_range``).  A fold is a function of the node's
        #: immutable bytes and the spec, so it is valid exactly as long
        #: as the node cache's entries; one is kept only when it has
        #: fewer groups than its node has entries.
        self.fold_memo: OrderedDict[tuple, object] = OrderedDict()

    def append(self, record_type: int, body: bytes) -> int:
        """Append one record; return its offset (for later :meth:`read`)."""
        header = _HEADER.pack(_MAGIC, record_type, len(body), crc32(body))
        return self.file.append(header + body)

    def read(self, offset: int) -> tuple[int, bytes]:
        """Read the record at ``offset``; returns ``(record_type, body)``."""
        raw = self.file.read(offset, _HEADER.size)
        magic, record_type, length, checksum = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise CorruptFileError(
                f"{self.file.name!r}: bad magic {magic:#x} at offset {offset}"
            )
        body = self.file.read(offset + _HEADER.size, length)
        if crc32(body) != checksum:
            raise CorruptFileError(
                f"{self.file.name!r}: checksum mismatch at offset {offset}"
            )
        return record_type, body

    def sync(self) -> None:
        self.file.sync()

    def truncate(self, size: int) -> None:
        """Shorten the file.  Later appends reuse the offsets past
        ``size``, so everything cached by offset is forgotten."""
        self.file.truncate(size)
        self.node_cache.clear()
        self.fold_memo.clear()

    @property
    def size(self) -> int:
        return self.file.size

    def scan(self) -> Iterator[tuple[int, int, bytes]]:
        """Walk every intact record from the start of the file, yielding
        ``(offset, record_type, body)``.  Stops (without raising) at the
        first torn or corrupt record, which by the append-only discipline
        can only be a crash-truncated tail."""
        offset = 0
        size = self.file.size
        while offset + _HEADER.size <= size:
            raw = self.file.read(offset, _HEADER.size)
            magic, record_type, length, checksum = _HEADER.unpack(raw)
            if magic != _MAGIC or offset + _HEADER.size + length > size:
                return
            body = self.file.read(offset + _HEADER.size, length)
            if crc32(body) != checksum:
                return
            yield offset, record_type, body
            offset += _HEADER.size + length

    def find_last_header(self) -> tuple[int, bytes] | None:
        """Locate the most recent intact HEADER record, or None.

        Recovery after a crash: the last durable header names the roots of
        the by-key and by-seqno trees; everything after it is garbage to
        be ignored (and truncated by the caller)."""
        last: tuple[int, bytes] | None = None
        for offset, record_type, body in self.scan():
            if record_type == RT_HEADER:
                last = (offset, body)
        return last
