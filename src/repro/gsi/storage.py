"""Index storage backends.

The paper's "Indexer (Local Indexer) ... manages the on-disk index tree
data structure" (section 4.3.4); version 4.5 adds fully memory-resident
indexes with disk backups for recoverability (section 6.1.1).  Both
backends expose the same interface:

* ``update_docs([(doc_id, entries), ...])`` -- replace all entries of
  every document in the batch, the last pair per ``doc_id`` winning (the
  back-index lives inside the storage so a batch is one call, and
  replaying a batch leaves the index as it was); ``update_doc`` is the
  batch of one;
* ``scan(low, high, ...)``        -- ordered range scan over composite
  keys, yielding ``(key_tuple, doc_id)``;
* ``count()`` / stats.

Composite keys are lists of JSON values compared component-wise under
N1QL collation, with the doc_id as the final tiebreaker.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from ..common.disk import SimulatedDisk
from ..common.errors import InvalidArgumentError
from ..n1ql.collation import MISSING, compare
from ..storage.appendlog import AppendLog
from ..storage.btree import BTree

#: Encoded form of MISSING inside stored keys (MISSING is not JSON).
_MISSING_TOKEN = {"__missing__": True}


def encode_key(components: list) -> list:
    return [
        _MISSING_TOKEN if c is MISSING else c
        for c in components
    ]


def decode_key(components: list) -> list:
    return [
        MISSING if isinstance(c, dict) and c.get("__missing__") else c
        for c in components
    ]


def composite_compare(a, b) -> int:
    """Compare [key_components, doc_id] pairs."""
    order = _components_compare(a[0], b[0])
    if order != 0:
        return order
    return compare(a[1], b[1])


def _components_compare(a: list, b: list) -> int:
    for item_a, item_b in zip(a, b):
        order = compare(_decode_one(item_a), _decode_one(item_b))
        if order != 0:
            return order
    return (len(a) > len(b)) - (len(a) < len(b))


def _decode_one(value):
    if isinstance(value, dict) and value.get("__missing__"):
        return MISSING
    return value


#: Bounds used to turn a bare-key range into a composite range.
LOW_BOUND: Any = ""
HIGH_BOUND: Any = {"￿": "￿"}


class BTreeIndexStorage:
    """Standard (disk-resident) index: copy-on-write B-tree in an
    append-only file on the index node's disk."""

    kind = "standard"

    def __init__(self, disk: SimulatedDisk, filename: str):
        self._disk = disk
        self._filename = filename
        self.log = AppendLog(disk.open(filename))
        self.tree = BTree(self.log, compare=composite_compare)
        self.back_index: dict[str, list] = {}

    def update_docs(self, batch: list[tuple[str, list[list]]]) -> None:
        """One copy-on-write tree rewrite for the whole batch."""
        deletes: list = []
        inserts: list = []
        for doc_id, entries in dict(batch).items():
            deletes.extend(self.back_index.pop(doc_id, ()))
            composites = [[encode_key(key_components), doc_id]
                          for key_components in entries]
            if composites:
                self.back_index[doc_id] = composites
                inserts.extend((composite, None) for composite in composites)
        # A key both deleted and inserted is inserted: batch_update lets
        # the insert win.
        self.tree = self.tree.batch_update(inserts=inserts, deletes=deletes)

    def update_doc(self, doc_id: str, entries: list[list]) -> None:
        self.update_docs([(doc_id, entries)])

    def scan(self, low: list | None, high: list | None,
             inclusive_low: bool = True, inclusive_high: bool = True,
             descending: bool = False) -> Iterator[tuple[list, str]]:
        start = end = None
        if low is not None:
            start = [encode_key(low),
                     LOW_BOUND if inclusive_low else HIGH_BOUND]
        if high is not None:
            end = [encode_key(high),
                   HIGH_BOUND if inclusive_high else LOW_BOUND]
        for composite, _value in self.tree.range(
            start=start, end=end, descending=descending,
        ):
            yield decode_key(composite[0]), composite[1]

    def count(self) -> int:
        return self.tree.count()

    def memory_bytes(self) -> int:
        return 0  # resident data lives on "disk"

    def disk_bytes(self) -> int:
        return self.log.size

    def destroy(self) -> None:
        """Delete the index file.  The tree's root lives only in memory,
        so a later instance of the same name could never read these
        bytes -- it would only append behind them."""
        self._disk.delete(self._filename)


class _SkipNode:
    __slots__ = ("key", "doc_id", "forward")

    def __init__(self, key, doc_id, level):
        self.key = key
        self.doc_id = doc_id
        self.forward: list = [None] * level


class SkipListIndexStorage:
    """Memory-optimized index (section 6.1.1): a skiplist kept entirely
    in memory, with :meth:`snapshot_to_disk` providing the paper's
    "recoverability via disk-backups"."""

    kind = "memopt"
    MAX_LEVEL = 16
    P = 0.5

    def __init__(self, disk: SimulatedDisk | None = None,
                 filename: str | None = None, seed: int = 7):
        self._rng = random.Random(seed)
        self._head = _SkipNode(None, None, self.MAX_LEVEL)
        self._level = 1
        self._size = 0
        self.back_index: dict[str, list] = {}
        self._disk = disk
        self._filename = filename

    # -- skiplist internals -----------------------------------------------------

    def _random_level(self) -> int:
        level = 1
        while self._rng.random() < self.P and level < self.MAX_LEVEL:
            level += 1
        return level

    def _less(self, node: _SkipNode, key, doc_id) -> bool:
        order = composite_compare([node.key, node.doc_id], [key, doc_id])
        return order < 0

    def _insert(self, key, doc_id) -> None:
        update = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (node.forward[level] is not None
                   and self._less(node.forward[level], key, doc_id)):
                node = node.forward[level]
            update[level] = node
        candidate = node.forward[0]
        if (candidate is not None
                and composite_compare([candidate.key, candidate.doc_id],
                                      [key, doc_id]) == 0):
            return  # already present
        new_level = self._random_level()
        if new_level > self._level:
            self._level = new_level
        new_node = _SkipNode(key, doc_id, new_level)
        for level in range(new_level):
            new_node.forward[level] = update[level].forward[level]
            update[level].forward[level] = new_node
        self._size += 1

    def _delete(self, key, doc_id) -> None:
        update = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (node.forward[level] is not None
                   and self._less(node.forward[level], key, doc_id)):
                node = node.forward[level]
            update[level] = node
        target = node.forward[0]
        if (target is None
                or composite_compare([target.key, target.doc_id],
                                     [key, doc_id]) != 0):
            return
        for level in range(self._level):
            if update[level].forward[level] is target:
                update[level].forward[level] = target.forward[level]
        self._size -= 1

    # -- storage interface ---------------------------------------------------------

    def update_docs(self, batch: list[tuple[str, list[list]]]) -> None:
        for doc_id, entries in dict(batch).items():
            for old_key in self.back_index.pop(doc_id, []):
                self._delete(old_key, doc_id)
            stored = []
            for key_components in entries:
                encoded = encode_key(key_components)
                self._insert(encoded, doc_id)
                stored.append(encoded)
            if stored:
                self.back_index[doc_id] = stored

    def update_doc(self, doc_id: str, entries: list[list]) -> None:
        self.update_docs([(doc_id, entries)])

    def scan(self, low: list | None, high: list | None,
             inclusive_low: bool = True, inclusive_high: bool = True,
             descending: bool = False) -> Iterator[tuple[list, str]]:
        rows = self._scan_ascending(low, high, inclusive_low, inclusive_high)
        if descending:
            rows = reversed(list(rows))
        yield from rows

    def _scan_ascending(self, low, high, inclusive_low, inclusive_high):
        start_key = None
        if low is not None:
            start_key = [encode_key(low),
                         LOW_BOUND if inclusive_low else HIGH_BOUND]
        node = self._head
        if start_key is not None:
            for level in range(self._level - 1, -1, -1):
                while (node.forward[level] is not None
                       and composite_compare(
                           [node.forward[level].key,
                            node.forward[level].doc_id],
                           start_key) < 0):
                    node = node.forward[level]
        node = node.forward[0]
        end_key = None
        if high is not None:
            end_key = [encode_key(high),
                       HIGH_BOUND if inclusive_high else LOW_BOUND]
        while node is not None:
            if end_key is not None and composite_compare(
                    [node.key, node.doc_id], end_key) > 0:
                return
            yield decode_key(node.key), node.doc_id
            node = node.forward[0]

    def count(self) -> int:
        return self._size

    def memory_bytes(self) -> int:
        # Rough accounting: node overhead plus key contents.
        return self._size * 96

    def disk_bytes(self) -> int:
        return 0

    def destroy(self) -> None:
        """Delete the disk backup, if one was ever written."""
        if self._disk is not None and self._filename is not None:
            self._disk.delete(self._filename + ".snapshot")

    # -- recoverability (disk backup) ---------------------------------------------------

    def snapshot_to_disk(self) -> int:
        """Write a full backup of the in-memory index; returns bytes
        written.  Recovery is :meth:`load_snapshot` on a fresh instance."""
        if self._disk is None or self._filename is None:
            raise InvalidArgumentError("no backing disk configured for snapshots")
        import json
        payload = json.dumps(
            [[node_key, doc_id] for node_key, doc_id in self._raw_items()],
            separators=(",", ":"),
        ).encode("utf-8")
        file = self._disk.open(self._filename + ".snapshot")
        file.truncate(0)
        offset = file.append(payload)
        file.sync()
        return len(payload)

    def load_snapshot(self) -> int:
        import json
        file = self._disk.open(self._filename + ".snapshot")
        if file.size == 0:
            return 0
        payload = file.read(0, file.size)
        rows = json.loads(payload.decode("utf-8"))
        for node_key, doc_id in rows:
            self._insert(node_key, doc_id)
            self.back_index.setdefault(doc_id, []).append(node_key)
        return len(rows)

    def _raw_items(self):
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.doc_id
            node = node.forward[0]


def make_storage(kind: str, disk: SimulatedDisk, filename: str):
    """Factory for the two index storage backends ("standard" disk
    B-tree or "memopt" in-memory skiplist, section 6.1.1)."""
    if kind == "standard":
        return BTreeIndexStorage(disk, filename)
    if kind == "memopt":
        return SkipListIndexStorage(disk, filename)
    raise InvalidArgumentError(f"unknown index storage kind {kind!r}")
