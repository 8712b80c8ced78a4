"""Index storage backends.

The paper's "Indexer (Local Indexer) ... manages the on-disk index tree
data structure" (section 4.3.4); version 4.5 adds fully memory-resident
indexes with disk backups for recoverability (section 6.1.1).  The
standard backend is the shared :class:`~repro.storage.indexfile.IndexFile`;
the memory-optimized one is a skiplist with the same back-index.  Both
expose the same interface:

* ``update_docs([(doc_id, vbucket_id, entries), ...], reset)`` -- drop
  every row of the ``reset`` vBuckets, then replace all entries of
  every document in the batch, the last triple per ``doc_id`` winning
  (the back-index lives inside the storage so a batch is one call, and
  replaying a batch leaves the index as it was);
* ``keyed_rows(low, high, ..., limit, after)`` -- ordered range scan
  over composite keys: a list of ``(key_tuple, doc_id)``, cut at
  ``limit`` and started past the ``after`` row, and beside it each
  row's sort key;
* ``fold(low, high, ...)``        -- the partial GROUP BY of the rows
  ``keyed_rows`` would return (:func:`fold_rows`);
* ``count()`` / stats.

Composite keys are lists of JSON values ordered component-wise under
N1QL collation, with the doc_id as the final tiebreaker: both backends
order a ``[key_components, doc_id]`` composite by one native key,
:func:`index_key`.
"""

from __future__ import annotations

import json
import random
from typing import Any, Iterable, Iterator

from ..common.contracts import hot_path
from ..common.disk import SimulatedDisk
from ..common.errors import InvalidArgumentError
from ..n1ql.collation import MISSING, collate_key, compare, value_key
from ..storage.indexfile import BackIndex, IndexFile, replace_rows

#: Encoded form of MISSING inside stored keys (MISSING is not JSON).
_MISSING_TOKEN = {"__missing__": True}


def encode_key(components: list) -> list:
    return [
        _MISSING_TOKEN if c is MISSING else c
        for c in components
    ]


def decode_key(components: list) -> list:
    """A stored key as the index hands it to the query service: the
    stored list itself (the node cache's or a skiplist node's, to be
    read in place), or a new one when a component is MISSING."""
    for component in components:
        if type(component) is dict and component.get("__missing__"):
            return [MISSING if type(c) is dict and c.get("__missing__")
                    else c for c in components]
    return components


_MISSING_KEY = collate_key(MISSING)


def index_key(composite) -> tuple:
    """The collation key of a ``[key_components, doc_id]`` composite,
    stored (MISSING as its token) or as a scan returns it: Python's
    ``<`` orders composites by it as N1QL collation orders their
    components one by one (a shorter prefix first), the doc id last."""
    components, doc_id = composite
    return (tuple([_MISSING_KEY if isinstance(c, dict) and c.get("__missing__")
                   else collate_key(c) for c in components]),
            collate_key(doc_id))


#: Bounds used to turn a bare-key range into a composite range.
LOW_BOUND: Any = ""
HIGH_BOUND: Any = {"￿": "￿"}


# -- partial aggregates --------------------------------------------------------

#: A fold of index rows: group key (:func:`value_key` of the group
#: values) -> (group values, one ``[count, total, best]`` partial per
#: aggregate spec).
Groups = dict[Any, tuple[list, list[list]]]


def fold_rows(rows: Iterable[tuple[list, str]],
              group_positions: list[int],
              agg_specs: list[tuple[str, int | None]]) -> Groups:
    """Partial GROUP BY over ``(key_components, doc_id)`` rows in index
    order: group on the key components at ``group_positions`` and fold
    each ``(aggregate_name, position)`` spec into a mergeable partial.

    A spec position of None is COUNT(*) (counts rows) and -1 takes the
    document id.  ``count`` counts non-MISSING/non-NULL inputs, ``total``
    sums numeric inputs (SUM/AVG), ``best`` is the MIN/MAX candidate.
    The group key is the value key the query service's Group operator
    uses, so partials merge by value equality, not object identity."""
    groups: Groups = {}
    for key_components, doc_id in rows:
        values = [key_components[p] for p in group_positions]
        key = value_key(values)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = (values,
                                   [[0, 0, MISSING] for _ in agg_specs])
        for (agg_name, position), partial in zip(agg_specs, entry[1]):
            if position is None:  # COUNT(*): counts rows, not values
                partial[0] += 1
                continue
            value = doc_id if position < 0 else key_components[position]
            if value is MISSING or value is None:
                continue  # aggregates ignore MISSING and NULL inputs
            partial[0] += 1
            if agg_name in ("SUM", "AVG") \
                    and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                partial[1] += value
            elif agg_name == "MIN":
                if partial[2] is MISSING or compare(value, partial[2]) < 0:
                    partial[2] = value
            elif agg_name == "MAX":
                if partial[2] is MISSING or compare(value, partial[2]) > 0:
                    partial[2] = value
    return groups


def merge_folds(folds: Iterable[Groups],
                agg_specs: list[tuple[str, int | None]]) -> Groups:
    """One fold from folds of consecutive runs of rows, given in row
    order (or of disjoint partitions): per group, counts and totals add,
    and a later best replaces MIN's only when strictly smaller and MAX's
    only when strictly larger -- so COUNT, MIN, MAX and integer SUM equal
    one :func:`fold_rows` over all the rows, and a float total differs at
    most by the order of its additions.  The inputs are never mutated
    (they may be memoized); the result shares their group values and
    bests, which nobody mutates either."""
    merged: Groups = {}
    for groups in folds:
        for key, (values, partials) in groups.items():
            entry = merged.get(key)
            if entry is None:
                merged[key] = (values, [list(p) for p in partials])
                continue
            for (agg_name, _position), mine, theirs in zip(
                agg_specs, entry[1], partials,
            ):
                mine[0] += theirs[0]
                mine[1] += theirs[1]
                if theirs[2] is MISSING:
                    continue
                if mine[2] is MISSING:
                    mine[2] = theirs[2]
                elif agg_name == "MIN" and compare(theirs[2], mine[2]) < 0:
                    mine[2] = theirs[2]
                elif agg_name == "MAX" and compare(theirs[2], mine[2]) > 0:
                    mine[2] = theirs[2]
    return merged


#: A composite range: ``(start, end, inclusive_start, inclusive_end)``.
Bounds = tuple[Any, Any, bool, bool]


def _composite_bounds(low: list | None, high: list | None,
                      inclusive_low: bool, inclusive_high: bool,
                      descending: bool = False,
                      after: tuple[list, str] | None = None) -> Bounds:
    """A range over key components as a range over [components,
    doc_id] composites: the doc id bound puts an inclusive low before
    (an exclusive one after) every doc id sharing the components.  An
    ``after`` row (a page's continuation) is an exclusive bound on the
    side the scan starts from."""
    start = end = None
    if low is not None:
        start = [encode_key(low), LOW_BOUND if inclusive_low else HIGH_BOUND]
    if high is not None:
        end = [encode_key(high), HIGH_BOUND if inclusive_high else LOW_BOUND]
    if after is None:
        return start, end, True, True
    past = [encode_key(after[0]), after[1]]
    if descending:
        return start, past, True, False
    return past, end, False, True


def index_row(doc_id: str, vbucket_id: int, entry: list) -> tuple[list, None]:
    """An index entry as the ``[key_components, doc_id]`` composite both
    backends store (:data:`~repro.storage.indexfile.RowFn`)."""
    return [encode_key(entry), doc_id], None


class _Rows:
    """The scans both backends serve from ``_runs(bounds, descending)``:
    runs of stored ``(composite, value)`` entries in scan order, each
    with its entries' :func:`index_key` sort keys, ``(entries, keys)``."""

    def _runs(self, bounds: Bounds,
              descending: bool) -> Iterator[tuple[list, list]]:
        raise NotImplementedError

    @hot_path
    def keyed_rows(self, low: list | None, high: list | None,
                   inclusive_low: bool = True, inclusive_high: bool = True,
                   descending: bool = False, limit: int | None = None,
                   after: tuple[list, str] | None = None,
                   ) -> tuple[list[tuple[list, str]], list[tuple]]:
        """The range's rows in scan order, strictly past the ``after``
        row when given, as a list of at most ``limit``, and beside it
        their sort keys as the index holds them, for a coordinator that
        merges partitions' pages: each run is cut to the room left and
        decoded in one comprehension."""
        rows: list[tuple[list, str]] = []
        sorts: list[tuple] = []
        if limit is not None and limit <= 0:
            return rows, sorts
        bounds = _composite_bounds(low, high, inclusive_low, inclusive_high,
                                   descending, after)
        for run, keys in self._runs(bounds, descending):
            if limit is not None and len(run) > limit - len(rows):
                room = limit - len(rows)
                run, keys = run[:room], keys[:room]
            rows += [(decode_key(composite[0]), composite[1])
                     for composite, _value in run]
            sorts += keys
            if len(rows) == limit:
                break
        return rows, sorts


class BTreeIndexStorage(_Rows, IndexFile):
    """Standard (disk-resident) index: the shared index file, ordered by
    :func:`index_key`, with no values and no reduce."""

    kind = "standard"

    def __init__(self, disk: SimulatedDisk, filename: str):
        super().__init__(disk, filename, index_row, index_key)

    def _runs(self, bounds: Bounds,
              descending: bool) -> Iterator[tuple[list, list]]:
        start, end, inclusive_start, inclusive_end = bounds
        return self.tree.slices(start, end, inclusive_start=inclusive_start,
                                inclusive_end=inclusive_end,
                                descending=descending)

    def fold(self, low: list | None, high: list | None,
             inclusive_low: bool, inclusive_high: bool,
             group_positions: list[int],
             agg_specs: list[tuple[str, int | None]]) -> Groups:
        """:func:`fold_rows` over the rows :meth:`keyed_rows` would return,
        through the tree's memoized node folds (``BTree.fold_range``):
        when a node holds fewer groups than entries, only the first query
        to cover it folds its rows, and later ones fold only the range's
        boundary leaves.  A spec is one GROUP BY shape."""
        start, end, _inclusive_start, _inclusive_end = _composite_bounds(
            low, high, inclusive_low, inclusive_high)

        def fold_items(items: list) -> Groups:
            return fold_rows(
                ((decode_key(composite[0]), composite[1])
                 for composite, _value in items),
                group_positions, agg_specs)

        return self.tree.fold_range(
            start, end, fold_items=fold_items,
            merge=lambda folds: merge_folds(folds, agg_specs),
            spec=(tuple(group_positions), tuple(map(tuple, agg_specs))),
        )

    def memory_bytes(self) -> int:
        return 0  # resident data lives on "disk"

    def disk_bytes(self) -> int:
        return self.log.size


class _SkipNode:
    __slots__ = ("key", "doc_id", "sort", "forward", "back")

    def __init__(self, key, doc_id, sort, level):
        self.key = key
        self.doc_id = doc_id
        #: The composite's :func:`index_key`.
        self.sort = sort
        self.forward: list = [None] * level
        #: The previous node at level 0 (the head for the first node), so
        #: a descending scan walks back from its end bound.
        self.back: _SkipNode | None = None


class SkipListIndexStorage(_Rows):
    """Memory-optimized index (section 6.1.1): a skiplist kept entirely
    in memory, with :meth:`snapshot_to_disk` providing the paper's
    "recoverability via disk-backups"."""

    kind = "memopt"
    MAX_LEVEL = 16
    P = 0.5

    def __init__(self, disk: SimulatedDisk | None = None,
                 filename: str | None = None, seed: int = 7):
        self._rng = random.Random(seed)
        self._head = _SkipNode(None, None, None, self.MAX_LEVEL)
        self._level = 1
        self._size = 0
        self.back_index: BackIndex = {}
        self._disk = disk
        self._filename = filename

    # -- skiplist internals -----------------------------------------------------

    def _random_level(self) -> int:
        level = 1
        while self._rng.random() < self.P and level < self.MAX_LEVEL:
            level += 1
        return level

    def _predecessors(self, sort: tuple,
                      past: bool = False) -> list[_SkipNode]:
        """Per level, the last node ordered before ``sort`` (or, when
        ``past``, not after it)."""
        update = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while True:
                following = node.forward[level]
                if following is None or following.sort > sort or (
                        following.sort == sort and not past):
                    break
                node = following
            update[level] = node
        return update

    def _insert(self, composite: list) -> None:
        sort = index_key(composite)
        update = self._predecessors(sort)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.sort == sort:
            return  # already present
        new_level = self._random_level()
        if new_level > self._level:
            self._level = new_level
        new_node = _SkipNode(composite[0], composite[1], sort, new_level)
        for level in range(new_level):
            new_node.forward[level] = update[level].forward[level]
            update[level].forward[level] = new_node
        new_node.back = update[0]
        if new_node.forward[0] is not None:
            new_node.forward[0].back = new_node
        self._size += 1

    def _delete(self, composite: list) -> None:
        sort = index_key(composite)
        update = self._predecessors(sort)
        target = update[0].forward[0]
        if target is None or target.sort != sort:
            return
        for level in range(self._level):
            if update[level].forward[level] is target:
                update[level].forward[level] = target.forward[level]
        if target.forward[0] is not None:
            target.forward[0].back = target.back
        self._size -= 1

    # -- storage interface ---------------------------------------------------------

    def update_docs(self, batch: list[tuple[str, int, list[list]]],
                    reset: Iterable[int] = ()) -> None:
        deletes, inserts, _changed = replace_rows(self.back_index, batch,
                                                  index_row, reset)
        for composite in deletes:
            self._delete(composite)
        for composite, _value in inserts:
            self._insert(composite)

    #: Entries per run of an ascending scan.
    RUN = 64

    def fold(self, low: list | None, high: list | None,
             inclusive_low: bool, inclusive_high: bool,
             group_positions: list[int],
             agg_specs: list[tuple[str, int | None]]) -> Groups:
        """:func:`fold_rows` over the rows :meth:`keyed_rows` would return,
        decoded one run at a time."""
        bounds = _composite_bounds(low, high, inclusive_low, inclusive_high)
        return fold_rows(
            ((decode_key(key), doc_id)
             for run, _keys in self._runs(bounds, False)
             for (key, doc_id), _value in run),
            group_positions, agg_specs)

    def _runs(self, bounds: Bounds,
              descending: bool) -> Iterator[tuple[list, list]]:
        """The range's nodes as ``((key, doc_id), None)`` entries in
        runs of :data:`RUN`, in scan order: an ascending scan walks
        forward from its start bound, a descending one back from its end
        bound, so a LIMIT that stops the scan stops the walk."""
        run: list = []
        keys: list = []
        for node in (self._backward if descending else self._forward)(bounds):
            run.append(((node.key, node.doc_id), None))
            keys.append(node.sort)
            if len(run) == self.RUN:
                yield run, keys
                run, keys = [], []
        if run:
            yield run, keys

    def _forward(self, bounds: Bounds) -> Iterator[_SkipNode]:
        start, end, inclusive_start, inclusive_end = bounds
        node = (self._head if start is None else self._predecessors(
            index_key(start), past=not inclusive_start)[0]).forward[0]
        end_sort = None if end is None else index_key(end)
        while node is not None and (end_sort is None or node.sort < end_sort
                                    or (node.sort == end_sort
                                        and inclusive_end)):
            yield node
            node = node.forward[0]

    def _backward(self, bounds: Bounds) -> Iterator[_SkipNode]:
        start, end, inclusive_start, inclusive_end = bounds
        node = self._last_node() if end is None else self._predecessors(
            index_key(end), past=inclusive_end)[0]
        start_sort = None if start is None else index_key(start)
        while node is not self._head and (
                start_sort is None or node.sort > start_sort
                or (node.sort == start_sort and inclusive_start)):
            yield node
            node = node.back

    def _last_node(self) -> _SkipNode:
        """The last node (the head when the list is empty)."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while node.forward[level] is not None:
                node = node.forward[level]
        return node

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
        payload = json.dumps(
            [[vbucket_id, doc_id, [key for key, _doc_id in composites]]
             for vbucket_id, docs in self.back_index.items()
             for doc_id, composites in docs.items()],
            separators=(",", ":"),
        ).encode("utf-8")
        file = self._disk.open(self._filename + ".snapshot")
        file.truncate(0)
        file.append(payload)
        file.sync()
        return len(payload)

    def load_snapshot(self) -> int:
        """Load a backup into this (empty) instance; returns its rows."""
        file = self._disk.open(self._filename + ".snapshot")
        if file.size == 0:
            return 0
        payload = file.read(0, file.size)
        self.update_docs([(doc_id, vbucket_id, keys) for vbucket_id, doc_id, keys
                          in json.loads(payload.decode("utf-8"))])
        return self._size


def make_storage(kind: str, disk: SimulatedDisk, filename: str):
    """Factory for the two index storage backends ("standard" disk
    B-tree or "memopt" in-memory skiplist, section 6.1.1)."""
    if kind == "standard":
        return BTreeIndexStorage(disk, filename)
    if kind == "memopt":
        return SkipListIndexStorage(disk, filename)
    raise InvalidArgumentError(f"unknown index storage kind {kind!r}")
