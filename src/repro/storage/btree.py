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

Keys and values are arbitrary JSON values.  Keys order as they are
(the by-key index's string doc IDs, the by-seqno index's integers) or
by a sort key function that maps each to one native key Python's ``<``
orders (view collation on [emitted_key, doc_id] pairs, N1QL collation
for GSI indexes); a cached node keeps its entries' sort keys, so every
search in it is a C ``bisect``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Collection, Hashable, Iterator, NoReturn

from ..common.errors import InvalidArgumentError
from ..common.jsonval import JsonValue
from .appendlog import _HEADER, RT_NODE, AppendLog

#: Maps a stored key to the native key it orders by.
SortKey = Callable[[JsonValue], object]
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

#: An entry's key, for bisecting the entries of a tree without a sort key.
_entry_key = itemgetter(0)


def _search(items: list, keys: list | None) -> tuple[list, Callable | None]:
    """What ``bisect`` searches in a node: its sort keys as they are,
    or, in a tree whose keys order themselves, its entries by key."""
    return (items, _entry_key) if keys is None else (keys, None)


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
        sort_key: SortKey | None = None,
        reduce_fn: ReduceFn | None = None,
        rereduce_fn: RereduceFn | None = None,
        max_node_items: int | None = None,
        node_bytes: int = 0,
    ):
        self.log = log
        self.root = root
        #: None (the identity) when keys order as they are.
        self.sort_key = sort_key
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

    def _probe(self, key: JsonValue) -> object:
        """``key`` as a node's sort keys (or, without a sort key, its
        entries' keys) are searched for."""
        return key if self.sort_key is None else self.sort_key(key)

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

    def _write_node(self, kind: str, items: list, parts: list,
                    keys: list | None) -> int:
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
        string object keys) -- which is what every caller stores.
        ``keys`` are the entries' sort keys (None without a sort key);
        they live only in the cache, never on disk."""
        body = f'["{kind}",[{",".join(parts)}]]'.encode("utf-8")
        size = _HEADER.size + len(body)
        self._update_written += size
        pointer = self.log.append(RT_NODE, body)
        self._remember(self.log.node_cache, pointer,
                       (kind, items, size, parts, keys))
        return pointer

    def _read_node(self, pointer: int) -> tuple[str, list]:
        node = self._read_node_sized(pointer)
        return node[0], node[1]

    def _read_node_sized(self, pointer: int
                         ) -> tuple[str, list, int, list | None, list | None]:
        """The node at ``pointer`` as ``(kind, items, size, parts,
        keys)``: also the record's on-disk size (framing + body), which
        the copy-on-write update path needs to account freed bytes when
        it replaces a node, its entries' encodings -- ``None`` for a
        node read from disk, whose parts are encoded when first
        modified -- and its entries' sort keys, made when the node is
        read (None in a tree without a sort key)."""
        node = self.log.node_cache.get(pointer)
        if node is None:
            _rt, body = self.log.read(pointer)
            kind, items = json.loads(body.decode("utf-8"))
            sort_key = self.sort_key
            keys = None if sort_key is None else [
                sort_key(item[0]) for item in items]
            node = (kind, items, _HEADER.size + len(body), None, keys)
            self._remember(self.log.node_cache, pointer, node)
        return node

    def _node_keys(self, pointer: int) -> tuple[str, list, list]:
        """The node at ``pointer`` as ``(kind, items, keys)``, with the
        entries' own keys standing in for sort keys in a tree without
        one."""
        kind, items, _size, _parts, keys = self._read_node_sized(pointer)
        return kind, items, [item[0] for item in items] if keys is None else keys

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
        pointer = self.root
        while pointer is not None:
            kind, items, _size, _parts, keys = self._read_node_sized(pointer)
            seq, entry_key = _search(items, keys)
            index = bisect_left(seq, probe, key=entry_key)
            if index == len(items):
                return False, None  # past every key in this subtree
            if kind == "kv":
                found = items[index][0] if keys is None else keys[index]
                if found == probe:
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
        for piece, _keys in self.slices(
                start, end, inclusive_start=inclusive_start,
                inclusive_end=inclusive_end, descending=descending):
            for key, value in piece:
                yield key, value

    def slices(
        self,
        start: JsonValue = None,
        end: JsonValue = None,
        *,
        inclusive_start: bool = True,
        inclusive_end: bool = True,
        descending: bool = False,
    ) -> Iterator[list]:
        """The ``[key, value]`` entries of :meth:`range`, in its order,
        as runs: a boundary leaf's in-range slice or a whole leaf's
        entries, each with its entries' sort keys (None in a tree without
        a sort key), ``(entries, keys)``.  A run may be the node cache's
        own lists, to be read, never changed, so a caller can turn each
        leaf into rows in one comprehension."""
        return self._pieces(start, end, inclusive_start, inclusive_end,
                            descending, leaves=True)

    def _pieces(self, start: JsonValue, end: JsonValue,
                inclusive_start: bool, inclusive_end: bool,
                descending: bool, leaves: bool = False) -> Iterator[int | list]:
        """The range [start, end] in key order, as pieces: an ``int`` is
        the offset of a node whose whole subtree lies inside the range,
        a ``list`` the in-range slice (a fresh list) of a boundary leaf.
        With ``leaves``, a whole subtree comes as its leaves' entries
        instead (a whole leaf's own list, or a reversed copy), and every
        leaf piece comes with its entries' sort keys: ``(entries,
        keys)``.

        A kp entry's ``last_key`` is its subtree's greatest key and the
        previous entry's is an exclusive lower bound, so in any node
        only the first candidate child can hold keys before ``start``
        and only the last can hold keys past ``end``: those two inherit
        the check, found by bisection, and every child between them is
        a whole subtree, handed out without a comparison.  The walk is
        one loop over a stack of what is left, in reverse order: an
        ``int`` for a whole subtree, ``(pointer, check_start,
        check_end)`` for a boundary node."""
        if self.root is None:
            return
        start_key = None if start is None else self._probe(start)
        end_key = None if end is None else self._probe(end)
        # The first entry not before ``start``, the first one past ``end``.
        first_in = bisect_left if inclusive_start else bisect_right
        first_past = bisect_right if inclusive_end else bisect_left
        stack: list = [self.root if start is None and end is None
                       else (self.root, start is not None, end is not None)]
        while stack:
            node = stack.pop()
            if type(node) is int:
                if not leaves:
                    yield node
                    continue
                kind, items, _size, _parts, keys = \
                    self._read_node_sized(node)
                if kind == "kv":
                    if descending:
                        yield items[::-1], keys and keys[::-1]
                    else:
                        yield items, keys
                    continue
                pending = [child for _last_key, child, _reduction in items]
            else:
                pointer, check_start, check_end = node
                kind, items, _size, _parts, keys = \
                    self._read_node_sized(pointer)
                seq, entry_key = _search(items, keys)
                first = first_in(seq, start_key, key=entry_key) \
                    if check_start else 0
                if kind == "kv":
                    stop = first_past(seq, end_key, first, key=entry_key) \
                        if check_end else len(items)
                    if first == 0 and stop == len(items):
                        stack.append(pointer)
                    elif first < stop:
                        piece = items[first:stop]
                        piece_keys = keys and keys[first:stop]
                        if descending:
                            piece.reverse()
                            if piece_keys:
                                piece_keys.reverse()
                        yield (piece, piece_keys) if leaves else piece
                    continue
                # Children are ordered; the first whose last key reaches
                # the end bound is the last candidate, later ones are
                # past it.
                last = len(items) - 1
                if check_end:
                    last = min(bisect_left(seq, end_key, first,
                                           key=entry_key), last)
                pending = [child for _last_key, child, _reduction
                           in items[first:last + 1]]
                if not pending:
                    continue
                if check_end:
                    pending[-1] = (pending[-1], check_start and first == last,
                                   True)
                if check_start and not (check_end and first == last):
                    pending[0] = (pending[0], True, False)
            if not descending:
                pending.reverse()
            stack += pending

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
        low = None if start is None else self._probe(start)
        high = None if end is None else self._probe(end)

        def after_start(key) -> bool:
            return low is None or key > low or (key == low and inclusive_start)

        def before_end(key) -> bool:
            return high is None or key < high or (key == high and inclusive_end)

        def walk(pointer: int, lower) -> JsonValue | None:
            """Reduce the in-range part of the subtree at ``pointer``.
            ``lower`` is the sort key of the greatest last_key of any
            preceding sibling, i.e. an exclusive lower bound on keys in
            this subtree."""
            kind, items, keys = self._node_keys(pointer)
            if kind == "kv":
                values = [value for (_key, value), key in zip(items, keys)
                          if after_start(key) and before_end(key)]
                if not values:
                    return None
                return self.reduce_fn(values)
            parts: list[JsonValue] = []
            previous_last = lower
            for (_last_key, child, reduction), last_key in zip(items, keys):
                # Subtree covers keys in (previous_last, last_key].
                subtree_entirely_inside = (
                    (low is None or (previous_last is not None and (
                        previous_last > low
                        or (previous_last >= low and inclusive_start))))
                    and before_end(last_key))
                subtree_before = low is not None and not after_start(last_key)
                subtree_after = (
                    high is not None and previous_last is not None
                    and (previous_last > high
                         or (previous_last == high and not inclusive_end)))
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
            self.sort_key,
            self.reduce_fn,
            self.rereduce_fn,
            self.max_node_items,
            node_bytes=self.node_bytes + self._update_written
            - self._update_freed,
        )
        tree.replaced = replaced
        return tree

    # Internal: ``work`` is the batch's ``(key, action, value, probe)``
    # tuples in key order, ``probe`` being the key's sort key (the key
    # itself without a sort key).  Each _modify_* finds a work key with
    # bisect, copies the untouched runs around it as slices (entries,
    # their encodings and their sort keys alike), and returns the kp
    # entries [last_key, pointer, reduction] describing the replacement
    # nodes, with their sort keys (None without a sort key).

    def _write_nodes(self, kind: str, items: list, parts: list,
                     keys: list | None) -> tuple[list, list | None]:
        """Write ``items`` with their ``parts`` and ``keys`` as ``kind``
        nodes of at most ``max_node_items`` entries each; returns their
        kp entries and those entries' sort keys."""
        entries = []
        entry_keys: list | None = None if keys is None else []
        size = self.max_node_items
        for start in range(0, len(items), size):
            chunk = items[start:start + size]
            chunk_keys = None if keys is None else keys[start:start + size]
            pointer = self._write_node(kind, chunk, parts[start:start + size],
                                       chunk_keys)
            if self.reduce_fn is None:
                reduction = None
            elif kind == "kv":
                reduction = self._reduce_leaf(chunk)
            else:
                reduction = self._rereduce([r for _k, _p, r in chunk])
            entries.append([chunk[-1][0], pointer, reduction])
            if keys is not None:
                entry_keys.append(chunk_keys[-1])
        return entries, entry_keys

    def _modify_leaf(self, items: list, parts: list, keys: list | None,
                     work: list, replaced: list) -> tuple[list, list | None]:
        seq, entry_key = _search(items, keys)
        merged: list = []
        merged_parts: list = []
        merged_keys: list | None = None if keys is None else []
        done = 0  # items[:done] are placed
        for action_key, action, value, probe in work:
            index = bisect_left(seq, probe, done, key=entry_key)
            merged += items[done:index]
            merged_parts += parts[done:index]
            if keys is not None:
                merged_keys += keys[done:index]
            if index < len(items) and probe == (
                    items[index][0] if keys is None else keys[index]):
                replaced.append(items[index])  # overwritten or deleted
                index += 1
            if action == "insert":
                entry = [action_key, value]
                merged.append(entry)
                merged_parts.append(encode_record(entry))
                if keys is not None:
                    merged_keys.append(probe)
            done = index
        merged += items[done:]
        merged_parts += parts[done:]
        if keys is not None:
            merged_keys += keys[done:]
        if not merged:
            return [], merged_keys
        return self._write_nodes("kv", merged, merged_parts, merged_keys)

    def _modify_node(self, pointer: int, work: list,
                     replaced: list) -> tuple[list, list | None]:
        """Rewrite the node at ``pointer`` with ``work`` applied; returns
        the kp entries of its replacement node(s) *at the same level* --
        one entry normally, several after a split, none when emptied --
        and their sort keys.  Keeping levels uniform is what stops
        repeated batches from skewing the tree's depth."""
        kind, items, size, parts, keys = self._read_node_sized(pointer)
        self._update_freed += size  # this node is replaced (or emptied)
        if parts is None:
            parts = [encode_record(item) for item in items]
        if kind == "kv":
            return self._modify_leaf(items, parts, keys, work, replaced)
        seq, entry_key = _search(items, keys)
        last = len(items) - 1
        child_entries: list = []
        child_parts: list = []
        child_keys: list | None = None if keys is None else []
        done = 0  # items[:done] are placed
        begin = 0  # work[:begin] is applied
        while begin < len(work):
            # A child takes the work keys up to its last key; the last
            # child takes every key past it too.
            index = bisect_left(seq, work[begin][3], done, last,
                                key=entry_key)
            end = len(work) if index == last else bisect_right(
                work, items[index][0] if keys is None else keys[index],
                begin, key=_work_probe)
            child_entries += items[done:index]
            child_parts += parts[done:index]
            entries, entry_keys = self._modify_node(
                items[index][1], work[begin:end], replaced)
            child_entries += entries
            child_parts += [encode_record(entry) for entry in entries]
            if keys is not None:
                child_keys += keys[done:index]
                child_keys += entry_keys
            done = index + 1
            begin = end
        child_entries += items[done:]
        child_parts += parts[done:]
        if keys is not None:
            child_keys += keys[done:]
        if not child_entries:
            return [], child_keys
        return self._write_nodes("kp", child_entries, child_parts, child_keys)

    def _modify_root(self, work: list, replaced: list) -> int | None:
        if self.root is None:
            inserts = [[k, v] for k, action, v, _probe in work
                       if action == "insert"]
            entries, keys = self._write_nodes(
                "kv", inserts, [encode_record(entry) for entry in inserts],
                None if self.sort_key is None else
                [probe for _k, action, _v, probe in work
                 if action == "insert"])
        else:
            entries, keys = self._modify_node(self.root, work, replaced)
        while len(entries) > 1:
            entries, keys = self._write_nodes(
                "kp", entries, [encode_record(entry) for entry in entries],
                keys)
        if not entries:
            return None
        # A single kp entry may point at a leaf or an interior node;
        # either is a valid root.
        return entries[0][1]

