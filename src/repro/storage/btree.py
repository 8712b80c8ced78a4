"""Append-only copy-on-write B+tree.

This is the index structure inside each storage file, modeled on
couchstore's: nodes are immutable records appended to the log, interior
("key-pointer") entries carry a **pre-computed reduce value** for the
subtree, and a batch update rewrites only the root-to-leaf paths it
touches, yielding a new root pointer.  The view engine's headline feature
-- *"a view index stores the pre-computed aggregates defined in the
Reduce function as a part of the index tree; this allows for very fast
aggregation at query time"* (section 4.3.3) -- falls directly out of the
reduce annotations here.

Keys and values are arbitrary JSON values; ordering is injected as a
comparator so the same structure serves the by-key index (string doc
IDs), the by-seqno index (integers), view indexes (view collation on
[emitted_key, doc_id] pairs), and GSI indexes (N1QL collation).
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterator

from ..common.errors import InvalidArgumentError
from ..common.jsonval import JsonValue
from .appendlog import _HEADER, RT_NODE, AppendLog

Comparator = Callable[[JsonValue, JsonValue], int]
ReduceFn = Callable[[list[JsonValue]], JsonValue]
RereduceFn = Callable[[list[JsonValue]], JsonValue]


def default_compare(a: JsonValue, b: JsonValue) -> int:
    """Comparator for homogeneous keys (strings or numbers)."""
    if a < b:  # type: ignore[operator]
        return -1
    if a > b:  # type: ignore[operator]
        return 1
    return 0


class BTree:
    """Handle to a tree rooted at ``root``; all mutation is functional --
    :meth:`batch_update` returns a *new* :class:`BTree` sharing unchanged
    nodes with the old one, which is what makes header-granularity
    snapshots (MVCC reads during compaction and DCP backfill) free."""

    #: Fan-out: maximum entries per node before it splits.  Couchstore
    #: splits on a byte threshold; an item count keeps tests predictable.
    MAX_NODE_ITEMS = 32

    def __init__(
        self,
        log: AppendLog,
        root: int | None = None,
        compare: Comparator = default_compare,
        reduce_fn: ReduceFn | None = None,
        rereduce_fn: RereduceFn | None = None,
        max_node_items: int | None = None,
        node_bytes: int = 0,
    ):
        self.log = log
        self.root = root
        self.compare = compare
        self.reduce_fn = reduce_fn
        self.rereduce_fn = rereduce_fn
        #: On-disk bytes (framing included) of every node reachable from
        #: ``root``.  Maintained incrementally by :meth:`batch_update`
        #: (written nodes add, replaced nodes subtract) so the storage
        #: layer's fragmentation accounting can treat live index nodes as
        #: live data instead of garbage -- miscounting them keeps a
        #: freshly compacted file above the compaction threshold forever.
        self.node_bytes = node_bytes
        #: Per-batch deltas, reset at the top of :meth:`batch_update`.
        self._update_written = 0
        self._update_freed = 0
        if max_node_items is not None:
            self.max_node_items = max_node_items
        else:
            self.max_node_items = self.MAX_NODE_ITEMS

    # -- node I/O -------------------------------------------------------------

    #: Bound on the per-log decoded-node cache.  Nodes are immutable at
    #: their offsets (append-only copy-on-write), so cached entries are
    #: valid for the life of their :class:`AppendLog`; the bound only
    #: caps memory.
    NODE_CACHE_CAPACITY = 4096

    def _cache_node(self, pointer: int, node: tuple[str, list, int]) -> None:
        cache = self.log.node_cache
        if len(cache) >= self.NODE_CACHE_CAPACITY:
            cache.pop(next(iter(cache)))
        cache[pointer] = node

    def _write_node(self, kind: str, items: list) -> int:
        """Append a node and write it through to the log's node cache:
        the next batch's read-modify-write of this leaf or root is then
        a dict hit, not two file reads, a checksum and a JSON parse.
        The cached node is the ``items`` just serialized, not a parsed
        copy, so it equals what a cold read decodes only for JSON-native
        keys, values and reductions (lists, never tuples; string object
        keys) -- which is what every caller stores."""
        body = json.dumps([kind, items], separators=(",", ":")).encode("utf-8")
        size = _HEADER.size + len(body)
        self._update_written += size
        pointer = self.log.append(RT_NODE, body)
        self._cache_node(pointer, (kind, items, size))
        return pointer

    def _read_node(self, pointer: int) -> tuple[str, list]:
        kind, items, _size = self._read_node_sized(pointer)
        return kind, items

    def _read_node_sized(self, pointer: int) -> tuple[str, list, int]:
        """Like :meth:`_read_node` but also returns the record's on-disk
        size (framing + body), which the copy-on-write update path needs
        to account freed bytes when it replaces a node."""
        node = self.log.node_cache.get(pointer)
        if node is None:
            _rt, body = self.log.read(pointer)
            kind, items = json.loads(body.decode("utf-8"))
            node = (kind, items, _HEADER.size + len(body))
            self._cache_node(pointer, node)
        return node

    # -- reduce ---------------------------------------------------------------

    def _reduce_leaf(self, items: list) -> JsonValue:
        if self.reduce_fn is None:
            return None
        return self.reduce_fn([value for _key, value in items])

    def _rereduce(self, reductions: list) -> JsonValue:
        if self.reduce_fn is None:
            return None
        rereduce = self.rereduce_fn if self.rereduce_fn is not None else self.reduce_fn
        return rereduce(reductions)

    # -- queries ---------------------------------------------------------------

    def lookup(self, key: JsonValue) -> tuple[bool, JsonValue]:
        """Point lookup; returns ``(found, value)``."""
        pointer = self.root
        while pointer is not None:
            kind, items = self._read_node(pointer)
            if kind == "kv":
                for item_key, value in items:
                    order = self.compare(item_key, key)
                    if order == 0:
                        return True, value
                    if order > 0:
                        break
                return False, None
            pointer = None
            for last_key, child, _reduction in items:
                if self.compare(key, last_key) <= 0:
                    pointer = child
                    break
        return False, None

    def range(
        self,
        start: JsonValue = None,
        end: JsonValue = None,
        *,
        inclusive_start: bool = True,
        inclusive_end: bool = True,
        descending: bool = False,
    ) -> Iterator[tuple[JsonValue, JsonValue]]:
        """Yield ``(key, value)`` pairs with keys in [start, end].

        ``None`` bounds mean unbounded on that side.  ``descending``
        reverses the iteration order (section 3.1.2 allows descending
        view scans).

        Bounds are compared only along the range's two boundary paths.
        A kp entry's ``last_key`` is its subtree's greatest key and the
        previous entry's is an exclusive lower bound, so in any node
        only the first candidate child can hold keys before ``start``
        and only the last can hold keys past ``end``: those two inherit
        the check, found by bisection, and everything between them --
        whole subtrees, down to their leaves -- is yielded without a
        comparison."""
        compare = self.compare

        def below(key: JsonValue) -> bool:
            order = compare(key, start)
            return order < 0 or (order == 0 and not inclusive_start)

        def within(key: JsonValue) -> bool:
            order = compare(key, end)
            return order < 0 or (order == 0 and inclusive_end)

        def ends_before(last_key: JsonValue) -> bool:
            """The subtree's greatest key is strictly before ``end``, so
            the next sibling may still hold in-range keys."""
            return compare(last_key, end) < 0

        def first_not(holds, items: list, low: int) -> int:
            """Bisect ``items[low:]`` -- ``holds(item[0])`` true for a
            prefix, false after it -- for the first index where it is
            false."""
            high = len(items)
            while low < high:
                middle = (low + high) // 2
                if holds(items[middle][0]):
                    low = middle + 1
                else:
                    high = middle
            return low

        def walk(pointer: int, check_start: bool,
                 check_end: bool) -> Iterator[tuple[JsonValue, JsonValue]]:
            kind, items = self._read_node(pointer)
            first = first_not(below, items, 0) if check_start else 0
            if kind == "kv":
                stop = first_not(within, items, first) if check_end \
                    else len(items)
                span = items[first:stop]
                if descending:
                    span.reverse()
                for key, value in span:
                    yield key, value
                return
            # Children are ordered; the first whose last key reaches the
            # end bound is the last candidate, later ones are past it.
            last = len(items) - 1
            if check_end:
                last = min(first_not(ends_before, items, first), last)
            children = range(first, last + 1)
            for index in reversed(children) if descending else children:
                yield from walk(items[index][1],
                                check_start and index == first,
                                check_end and index == last)

        if self.root is not None:
            yield from walk(self.root, start is not None, end is not None)

    def items(self) -> Iterator[tuple[JsonValue, JsonValue]]:
        return self.range()

    def count(self) -> int:
        return sum(1 for _ in self.items())

    def measure_node_bytes(self) -> int:
        """Walk the tree and total its nodes' on-disk bytes, setting
        :attr:`node_bytes`.  One full traversal -- recovery fallback for
        files whose header predates the persisted counter; steady-state
        callers rely on the incremental accounting instead."""
        total = 0
        stack = [] if self.root is None else [self.root]
        while stack:
            kind, items, size = self._read_node_sized(stack.pop())
            total += size
            if kind == "kp":
                stack.extend(child for _key, child, _reduction in items)
        self.node_bytes = total
        return total

    def full_reduce(self) -> JsonValue:
        """Reduce value of the whole tree, O(1) from the root."""
        if self.root is None:
            return self._rereduce([]) if self.reduce_fn else None
        kind, items = self._read_node(self.root)
        if kind == "kv":
            return self._reduce_leaf(items)
        return self._rereduce([reduction for _k, _p, reduction in items])

    def reduce_range(
        self,
        start: JsonValue = None,
        end: JsonValue = None,
        *,
        inclusive_start: bool = True,
        inclusive_end: bool = True,
    ) -> JsonValue:
        """Reduce over a key range, reusing subtree reductions whenever a
        subtree lies entirely inside the range.  This is the "very fast
        aggregation at query time" path: interior reductions are consumed
        whole and only the boundary leaves are re-reduced."""
        if self.reduce_fn is None:
            raise InvalidArgumentError("tree has no reduce function")

        def key_in(key: JsonValue) -> bool:
            if start is not None:
                order = self.compare(key, start)
                if order < 0 or (order == 0 and not inclusive_start):
                    return False
            if end is not None:
                order = self.compare(key, end)
                if order > 0 or (order == 0 and not inclusive_end):
                    return False
            return True

        def walk(pointer: int, lower: JsonValue | None) -> JsonValue | None:
            """Reduce the in-range part of the subtree at ``pointer``.
            ``lower`` is the greatest last_key of any preceding sibling,
            i.e. an exclusive lower bound on keys in this subtree."""
            kind, items = self._read_node(pointer)
            if kind == "kv":
                values = [value for key, value in items if key_in(key)]
                if not values:
                    return None
                return self.reduce_fn(values)
            parts: list[JsonValue] = []
            previous_last = lower
            for last_key, child, reduction in items:
                # Subtree covers keys in (previous_last, last_key].
                subtree_entirely_inside = (
                    (
                        start is None
                        or (
                            previous_last is not None
                            and (
                                self.compare(previous_last, start) > 0
                                or (
                                    self.compare(previous_last, start) >= 0
                                    and inclusive_start
                                )
                            )
                        )
                    )
                    and (
                        end is None
                        or self.compare(last_key, end) < 0
                        or (self.compare(last_key, end) == 0 and inclusive_end)
                    )
                )
                subtree_before = start is not None and (
                    self.compare(last_key, start) < 0
                    or (self.compare(last_key, start) == 0 and not inclusive_start)
                )
                subtree_after = (
                    end is not None
                    and previous_last is not None
                    and (
                        self.compare(previous_last, end) > 0
                        or (self.compare(previous_last, end) == 0 and not inclusive_end)
                    )
                )
                if subtree_before or subtree_after:
                    previous_last = last_key
                    continue
                if subtree_entirely_inside:
                    parts.append(reduction)
                else:
                    partial = walk(child, previous_last)
                    if partial is not None:
                        parts.append(partial)
                previous_last = last_key
            if not parts:
                return None
            return self._rereduce(parts)

        if self.root is None:
            return self._rereduce([])
        result = walk(self.root, None)
        return result if result is not None else self._rereduce([])

    # -- batch update ---------------------------------------------------------

    def batch_update(
        self,
        inserts: list[tuple[JsonValue, JsonValue]] | None = None,
        deletes: list[JsonValue] | None = None,
    ) -> "BTree":
        """Apply upserts and deletes in one pass; returns the new tree.

        An insert with an existing key replaces its value.  Deletes of
        absent keys are ignored.  Only the touched root-to-leaf paths are
        rewritten (append-only copy-on-write)."""
        #: token -> [key as first given, latest action, its value]
        actions: dict = {}

        def note(key: JsonValue, action: str, value: JsonValue) -> None:
            # Doc IDs and seqnos are their own dict key.  Everything
            # else is tokenized by its JSON text, because Python's
            # ``1 == 1.0 == True`` (and unhashable lists/dicts) are not
            # JSON's; the 1-tuple keeps a token apart from a str key.
            if type(key) is str or type(key) is int:
                token = key
            else:
                token = (json.dumps(key, sort_keys=True, separators=(",", ":")),)
            entry = actions.get(token)
            if entry is None:
                actions[token] = [key, action, value]
            else:
                entry[1:] = action, value

        for key in deletes or []:
            note(key, "delete", None)
        for key, value in inserts or []:
            note(key, "insert", value)
        if not actions:
            return self

        collate = functools.cmp_to_key(self.compare)
        work = sorted(actions.values(), key=lambda entry: collate(entry[0]))

        self._update_written = 0
        self._update_freed = 0
        new_root = self._modify_root(work)
        return BTree(
            self.log,
            new_root,
            self.compare,
            self.reduce_fn,
            self.rereduce_fn,
            self.max_node_items,
            node_bytes=self.node_bytes + self._update_written
            - self._update_freed,
        )

    # Internal: each _modify_* returns a list of kp entries
    # [last_key, pointer, reduction] describing the replacement nodes.

    def _write_leaves(self, items: list) -> list:
        entries = []
        for chunk in _chunks(items, self.max_node_items):
            pointer = self._write_node("kv", chunk)
            entries.append([chunk[-1][0], pointer, self._reduce_leaf(chunk)])
        return entries

    def _write_interiors(self, kp_entries: list) -> list:
        entries = []
        for chunk in _chunks(kp_entries, self.max_node_items):
            pointer = self._write_node("kp", chunk)
            reduction = self._rereduce([r for _k, _p, r in chunk])
            entries.append([chunk[-1][0], pointer, reduction])
        return entries

    def _modify_leaf(self, items: list, work: list) -> list:
        merged: list = []
        index = 0
        for action_key, action, value in work:
            while index < len(items) and self.compare(items[index][0], action_key) < 0:
                merged.append(items[index])
                index += 1
            if index < len(items) and self.compare(items[index][0], action_key) == 0:
                index += 1  # replaced or deleted
            if action == "insert":
                merged.append([action_key, value])
        merged.extend(items[index:])
        if not merged:
            return []
        return self._write_leaves(merged)

    def _modify_node(self, pointer: int, work: list) -> list:
        """Rewrite the node at ``pointer`` with ``work`` applied; returns
        the kp entries of its replacement node(s) *at the same level* --
        one entry normally, several after a split, none when emptied.
        Keeping levels uniform is what stops repeated batches from
        skewing the tree's depth."""
        kind, items, size = self._read_node_sized(pointer)
        self._update_freed += size  # this node is replaced (or emptied)
        if kind == "kv":
            return self._modify_leaf(items, work)
        child_entries: list = []
        work_index = 0
        for child_index, (last_key, child, reduction) in enumerate(items):
            is_last_child = child_index == len(items) - 1
            child_work = []
            while work_index < len(work) and (
                is_last_child or self.compare(work[work_index][0], last_key) <= 0
            ):
                child_work.append(work[work_index])
                work_index += 1
            if child_work:
                child_entries.extend(self._modify_node(child, child_work))
            else:
                child_entries.append([last_key, child, reduction])
        if not child_entries:
            return []
        return self._write_interiors(child_entries)

    def _modify_root(self, work: list) -> int | None:
        if self.root is None:
            inserts = [[k, v] for k, action, v in work if action == "insert"]
            entries = self._write_leaves(inserts) if inserts else []
        else:
            entries = self._modify_node(self.root, work)
        if not entries:
            return None
        while len(entries) > 1:
            entries = self._write_interiors(entries)
        last_key, pointer, _reduction = entries[0]
        # A single kp entry may still point at a leaf or interior node;
        # either is a valid root.
        return pointer


def _chunks(items: list, size: int) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start:start + size]
