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
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Collection, Hashable, Iterator, NoReturn

from ..common.errors import InvalidArgumentError
from ..common.jsonval import JsonValue
from .appendlog import _HEADER, RT_NODE, AppendLog

Comparator = Callable[[JsonValue, JsonValue], int]
ReduceFn = Callable[[list[JsonValue]], JsonValue]
RereduceFn = Callable[[list[JsonValue]], JsonValue]


def _unencodable(value: object) -> NoReturn:
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


#: ``JSONEncoder(separators=(",", ":")).encode``'s C encoder, built once:
#: the method builds a new one (and a circular-reference marker dict) on
#: every call.  No markers -- a shared dict can keep stale entries after
#: an error -- so a cyclic value raises RecursionError, not ValueError.
_iterencode = c_make_encoder(None, _unencodable, encode_basestring_ascii,
                             None, ":", ",", False, False, True)


def encode_record(value: JsonValue) -> str:
    """The one encoder of every storage record (document, node, header):
    compact JSON, byte for byte ``JSONEncoder(separators=(",", ":"))``'s."""
    return "".join(_iterencode(value, 0))


#: The probe of a batch's work tuple ``(key, action, value, probe)``.
_work_probe = itemgetter(3)


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
        #: The entries (``[key, value]``, in key order) that the
        #: :meth:`batch_update` which returned this tree overwrote or
        #: deleted (none for an empty batch, which returns the tree it
        #: was called on): a caller learns what it replaced from the
        #: update's own descent.
        #: They are the node cache's own objects, to be read, not changed.
        self.replaced: list = []
        if max_node_items is not None:
            self.max_node_items = max_node_items
        else:
            self.max_node_items = self.MAX_NODE_ITEMS
        #: A batch bisects node entries by key: raw keys under
        #: :func:`default_compare` (whose order is Python's ``<``),
        #: ``functools.cmp_to_key`` sort keys under any other comparator.
        #: ``_probe`` maps a key to what ``_entry_key`` maps an entry to.
        if compare is default_compare:
            self._probe = lambda key: key
            self._entry_key = itemgetter(0)
        else:
            probe = self._probe = functools.cmp_to_key(compare)
            self._entry_key = lambda entry: probe(entry[0])

    # -- node I/O -------------------------------------------------------------

    #: Bound on each per-log cache keyed by node offset (decoded nodes,
    #: memoized folds).  Nodes are immutable at their offsets
    #: (append-only copy-on-write), so cached entries are valid for the
    #: life of their :class:`AppendLog`; the bound only caps memory.
    NODE_CACHE_CAPACITY = 4096

    def _remember(self, cache: OrderedDict, key, entry) -> None:
        """Put one entry in a per-log cache, oldest out first.  An
        ``OrderedDict`` pops its oldest entry in O(1); a plain dict's
        ``next(iter(...))`` scans the deleted slots at its front."""
        if len(cache) >= self.NODE_CACHE_CAPACITY:
            cache.popitem(last=False)
        cache[key] = entry

    def _write_node(self, kind: str, items: list, parts: list) -> int:
        """Append a node and write it through to the log's node cache:
        the next batch's read-modify-write of this leaf or root is then
        a dict hit, not two file reads, a checksum and a JSON parse.

        ``parts`` holds each entry's ``encode_record`` text, so the body
        is ``encode_record([kind, items])`` -- the encoder writes a list
        as its elements' encodings joined by ``","`` -- without encoding
        again the entries an update did not change.  The cache keeps the
        parts beside the ``items`` just serialized (not a parsed copy),
        so a cached node equals what a cold read decodes only for
        JSON-native keys, values and reductions (lists, never tuples;
        string object keys) -- which is what every caller stores."""
        body = f'["{kind}",[{",".join(parts)}]]'.encode("utf-8")
        size = _HEADER.size + len(body)
        self._update_written += size
        pointer = self.log.append(RT_NODE, body)
        self._remember(self.log.node_cache, pointer, (kind, items, size, parts))
        return pointer

    def _read_node(self, pointer: int) -> tuple[str, list]:
        node = self._read_node_sized(pointer)
        return node[0], node[1]

    def _read_node_sized(self, pointer: int) -> tuple[str, list, int, list | None]:
        """The node at ``pointer`` as ``(kind, items, size, parts)``:
        also the record's on-disk size (framing + body), which the
        copy-on-write update path needs to account freed bytes when it
        replaces a node, and its entries' encodings -- ``None`` for a
        node read from disk, whose parts are encoded when first
        modified."""
        node = self.log.node_cache.get(pointer)
        if node is None:
            _rt, body = self.log.read(pointer)
            kind, items = json.loads(body.decode("utf-8"))
            node = (kind, items, _HEADER.size + len(body), None)
            self._remember(self.log.node_cache, pointer, node)
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
        """Point lookup; returns ``(found, value)``.  Each node is
        bisected, as :meth:`batch_update` does: a leaf for the first
        entry not before ``key``, an interior node for the first child
        whose greatest key is not before it."""
        probe = self._probe(key)
        entry_key = self._entry_key
        pointer = self.root
        while pointer is not None:
            kind, items = self._read_node(pointer)
            index = bisect_left(items, probe, key=entry_key)
            if index == len(items):
                return False, None  # past every key in this subtree
            if kind == "kv":
                if self.compare(items[index][0], key) == 0:
                    return True, items[index][1]
                return False, None
            pointer = items[index][1]
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
        view scans).  The walk is :meth:`_pieces`'s, so bounds are
        compared only along the range's two boundary paths."""
        for piece in self._pieces(start, end, inclusive_start,
                                  inclusive_end, descending):
            if type(piece) is int:
                yield from self._subtree(piece, descending)
                continue
            if descending:
                piece.reverse()
            for key, value in piece:
                yield key, value

    def _subtree(self, pointer: int,
                 descending: bool) -> Iterator[tuple[JsonValue, JsonValue]]:
        """Every pair under ``pointer``, without a comparison."""
        kind, items = self._read_node(pointer)
        if kind == "kv":
            for key, value in reversed(items) if descending else items:
                yield key, value
            return
        for _last_key, child, _reduction in (reversed(items) if descending
                                             else items):
            yield from self._subtree(child, descending)

    def _pieces(self, start: JsonValue, end: JsonValue,
                inclusive_start: bool, inclusive_end: bool,
                descending: bool) -> Iterator[int | list]:
        """The range [start, end] in key order, as pieces: an ``int`` is
        the offset of a node whose whole subtree lies inside the range,
        a ``list`` the in-range slice (a fresh list) of a boundary leaf.

        A kp entry's ``last_key`` is its subtree's greatest key and the
        previous entry's is an exclusive lower bound, so in any node
        only the first candidate child can hold keys before ``start``
        and only the last can hold keys past ``end``: those two inherit
        the check, found by bisection, and every child between them is
        a whole subtree, handed out without a comparison."""
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
                 check_end: bool) -> Iterator[int | list]:
            kind, items = self._read_node(pointer)
            first = first_not(below, items, 0) if check_start else 0
            if kind == "kv":
                stop = first_not(within, items, first) if check_end \
                    else len(items)
                if first == 0 and stop == len(items):
                    yield pointer
                elif first < stop:
                    yield items[first:stop]
                return
            # Children are ordered; the first whose last key reaches the
            # end bound is the last candidate, later ones are past it.
            last = len(items) - 1
            if check_end:
                last = min(first_not(ends_before, items, first), last)
            children = range(first, last + 1)
            for index in reversed(children) if descending else children:
                child_start = check_start and index == first
                child_end = check_end and index == last
                if child_start or child_end:
                    yield from walk(items[index][1], child_start, child_end)
                else:
                    yield items[index][1]

        if self.root is None:
            return
        if start is None and end is None:
            yield self.root
        else:
            yield from walk(self.root, start is not None, end is not None)

    def fold_range(
        self,
        start: JsonValue = None,
        end: JsonValue = None,
        *,
        fold_items: Callable[[list], Collection],
        merge: Callable[[list], Collection],
        spec: Hashable,
    ) -> Collection:
        """Fold the pairs in [start, end], ascending, into one value: a
        collection of groups (a dict keyed by group, say).  ``fold_items``
        folds a list of ``[key, value]`` pairs, and ``merge`` folds a
        list of folds of consecutive runs, in key order, into the fold
        of their concatenation.

        The walk is :meth:`_pieces`'s.  A boundary leaf folds its
        in-range slice; a subtree wholly inside the range contributes
        its node's fold (:meth:`_fold_node`), memoized in
        ``log.fold_memo`` under ``(offset, spec)``.  A node's bytes never
        change at its offset, so neither does its fold: a batch update
        gives every rewritten node a new offset, and nothing is ever
        invalidated.  ``spec`` names the fold (the memo holds folds of
        different specs side by side), and folds must not be mutated:
        the memo hands out its own objects."""
        parts: list = []
        for piece in self._pieces(start, end, True, True, False):
            if type(piece) is list:
                parts.append(fold_items(piece))
            else:
                parts.extend(self._fold_node(piece, fold_items, merge, spec))
        return merge(parts)

    def _fold_node(self, pointer: int,
                   fold_items: Callable[[list], Collection],
                   merge: Callable[[list], Collection],
                   spec: Hashable) -> list:
        """The fold of the subtree at ``pointer`` as folds of consecutive
        runs, in key order.  A node's fold is memoized only when it has
        fewer groups than the node has entries (pairs in a leaf, children
        in an interior node): then it is one fold, smaller than the node
        it stands for, so the memo holds no more than the node cache.  A
        fold that would not shrink -- a GROUP BY with about a group per
        row -- is not merged or kept: the children's runs go up as they
        are and the caller merges them once, so such a fold costs a pass
        over the rows and one merge of the leaves' folds, not a merge
        per level."""
        memo = self.log.fold_memo
        fold = memo.get((pointer, spec))
        if fold is not None:
            return [fold]
        kind, items = self._read_node(pointer)
        if kind == "kv":
            parts = [fold_items(items)]
        else:
            parts = [part for _last_key, child, _reduction in items
                     for part in self._fold_node(child, fold_items, merge,
                                                 spec)]
        if len(parts) > 1:
            if len(set().union(*parts)) >= len(items):
                return parts
            parts = [merge(parts)]
        elif len(parts[0]) >= len(items):
            return parts
        self._remember(memo, (pointer, spec), parts[0])
        return parts

    def items(self) -> Iterator[tuple[JsonValue, JsonValue]]:
        return self.range()

    def count(self) -> int:
        return sum(1 for _ in self.items())

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
            self.replaced = []
            return self

        probe = self._probe
        work = sorted(((key, action, value, probe(key))
                       for key, action, value in actions.values()),
                      key=_work_probe)

        self._update_written = 0
        self._update_freed = 0
        replaced: list = []
        new_root = self._modify_root(work, replaced)
        tree = BTree(
            self.log,
            new_root,
            self.compare,
            self.reduce_fn,
            self.rereduce_fn,
            self.max_node_items,
            node_bytes=self.node_bytes + self._update_written
            - self._update_freed,
        )
        tree.replaced = replaced
        return tree

    # Internal: ``work`` is the batch's ``(key, action, value, probe)``
    # tuples in key order, ``probe`` being the key as ``_entry_key``
    # sees an entry's.  Each _modify_* finds a work key with bisect,
    # copies the untouched runs around it as slices (entries and their
    # encodings alike), and returns a list of kp entries
    # [last_key, pointer, reduction] describing the replacement nodes.

    def _write_nodes(self, kind: str, items: list, parts: list) -> list:
        """Write ``items`` and their ``parts`` as ``kind`` nodes of at
        most ``max_node_items`` entries each; returns their kp entries."""
        entries = []
        size = self.max_node_items
        for start in range(0, len(items), size):
            chunk = items[start:start + size]
            pointer = self._write_node(kind, chunk, parts[start:start + size])
            if self.reduce_fn is None:
                reduction = None
            elif kind == "kv":
                reduction = self._reduce_leaf(chunk)
            else:
                reduction = self._rereduce([r for _k, _p, r in chunk])
            entries.append([chunk[-1][0], pointer, reduction])
        return entries

    def _modify_leaf(self, items: list, parts: list, work: list,
                     replaced: list) -> list:
        compare = self.compare
        entry_key = self._entry_key
        merged: list = []
        merged_parts: list = []
        done = 0  # items[:done] are placed
        for action_key, action, value, probe in work:
            index = bisect_left(items, probe, done, key=entry_key)
            merged += items[done:index]
            merged_parts += parts[done:index]
            if index < len(items) and compare(items[index][0], action_key) == 0:
                replaced.append(items[index])  # overwritten or deleted
                index += 1
            if action == "insert":
                entry = [action_key, value]
                merged.append(entry)
                merged_parts.append(encode_record(entry))
            done = index
        merged += items[done:]
        merged_parts += parts[done:]
        if not merged:
            return []
        return self._write_nodes("kv", merged, merged_parts)

    def _modify_node(self, pointer: int, work: list, replaced: list) -> list:
        """Rewrite the node at ``pointer`` with ``work`` applied; returns
        the kp entries of its replacement node(s) *at the same level* --
        one entry normally, several after a split, none when emptied.
        Keeping levels uniform is what stops repeated batches from
        skewing the tree's depth."""
        kind, items, size, parts = self._read_node_sized(pointer)
        self._update_freed += size  # this node is replaced (or emptied)
        if parts is None:
            parts = [encode_record(item) for item in items]
        if kind == "kv":
            return self._modify_leaf(items, parts, work, replaced)
        entry_key = self._entry_key
        last = len(items) - 1
        child_entries: list = []
        child_parts: list = []
        done = 0  # items[:done] are placed
        begin = 0  # work[:begin] is applied
        while begin < len(work):
            # A child takes the work keys up to its last key; the last
            # child takes every key past it too.
            index = bisect_left(items, work[begin][3], done, last,
                                key=entry_key)
            end = len(work) if index == last else bisect_right(
                work, entry_key(items[index]), begin, key=_work_probe)
            child_entries += items[done:index]
            child_parts += parts[done:index]
            for entry in self._modify_node(items[index][1], work[begin:end],
                                           replaced):
                child_entries.append(entry)
                child_parts.append(encode_record(entry))
            done = index + 1
            begin = end
        child_entries += items[done:]
        child_parts += parts[done:]
        if not child_entries:
            return []
        return self._write_nodes("kp", child_entries, child_parts)

    def _modify_root(self, work: list, replaced: list) -> int | None:
        if self.root is None:
            inserts = [[k, v] for k, action, v, _probe in work
                       if action == "insert"]
            entries = self._write_nodes(
                "kv", inserts, [encode_record(entry) for entry in inserts])
        else:
            entries = self._modify_node(self.root, work, replaced)
        while len(entries) > 1:
            entries = self._write_nodes(
                "kp", entries, [encode_record(entry) for entry in entries])
        if not entries:
            return None
        # A single kp entry may point at a leaf or an interior node;
        # either is a valid root.
        return entries[0][1]

