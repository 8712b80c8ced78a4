"""The per-node view index structure.

Section 4.3.3 (View Engine): the view index is a local B-tree whose keys
are the emitted ``(key, doc_id)`` pairs in view collation order, whose
interior nodes carry the **pre-computed reduce** of their subtree, and
which stores vBucket information *in the tree itself* so that entries
belonging to migrated partitions can be masked out during rebalance and
failover without a rebuild.

A back-index (doc_id -> previously emitted keys) makes incremental
updates possible: when documents change, their old rows are removed and
the new emissions inserted in one batch -- one tree rewrite per view per
pump slice (:meth:`ViewIndex.update_docs`).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..common.disk import SimulatedDisk
from ..common.errors import ViewQueryError
from ..n1ql.collation import compare
from ..storage.appendlog import AppendLog
from .mapreduce import ReduceFn, ViewDefinition

#: Sentinel bounds: (key, doc_id) composite keys are compared
#: lexicographically, so a range on bare keys uses these to span every
#: doc_id under one key.  ``{}`` sorts after any scalar/array under view
#: collation; LOW sorts before any string doc id.
_LOW_DOCID = ""
_HIGH_DOCID = {"￿": "￿"}


def _composite_compare(a, b) -> int:
    order = compare(a[0], b[0])
    if order != 0:
        return order
    return compare(a[1], b[1])


class ViewIndex:
    """Materialized rows of one view on one node."""

    #: Incremental updates between automatic file compactions.
    COMPACT_EVERY = 4096

    def __init__(self, definition: ViewDefinition, disk: SimulatedDisk,
                 filename: str):
        from ..storage.btree import BTree
        self.definition = definition
        self.disk = disk
        self.filename = filename
        self.updates_since_compaction = 0
        self.compactions = 0
        self.log = AppendLog(disk.open(filename))
        user_reduce: ReduceFn | None = definition.reduce_fn
        if user_reduce is not None:
            tree_reduce = lambda values: user_reduce(  # noqa: E731
                [v["v"] for v in values], False
            )
            tree_rereduce = lambda parts: user_reduce(parts, True)  # noqa: E731
        else:
            tree_reduce = tree_rereduce = None
        self.tree = BTree(
            self.log,
            compare=_composite_compare,
            reduce_fn=tree_reduce,
            rereduce_fn=tree_rereduce,
        )
        #: doc_id -> list of [emitted_key, doc_id] composite keys.
        self.back_index: dict[str, list] = {}
        #: vBuckets that currently have rows in the tree.
        self.vbuckets_present: set[int] = set()

    # -- maintenance -----------------------------------------------------------

    def update_docs(
        self, batch: list[tuple[str, int, list[tuple[Any, Any]]]],
    ) -> None:
        """Replace the rows of every ``(doc_id, vbucket_id, rows)`` in
        the batch in one tree rewrite; the last triple per ``doc_id``
        wins, and empty ``rows`` removes the document."""
        deletes: list = []
        inserts: list = []
        latest = {doc_id: (vbucket_id, rows)
                  for doc_id, vbucket_id, rows in batch}
        for doc_id, (vbucket_id, rows) in latest.items():
            old_keys = self.back_index.pop(doc_id, [])
            if not old_keys and not rows:
                continue
            deletes.extend(old_keys)
            keys = []
            for emitted_key, emitted_value in rows:
                composite = [emitted_key, doc_id]
                inserts.append(
                    (composite, {"v": emitted_value, "vb": vbucket_id}))
                keys.append(composite)
            if keys:
                self.back_index[doc_id] = keys
                self.vbuckets_present.add(vbucket_id)
            self.updates_since_compaction += 1
        # A key both deleted and inserted is inserted: batch_update lets
        # the insert win.
        self.tree = self.tree.batch_update(inserts=inserts, deletes=deletes)
        if self.updates_since_compaction >= self.COMPACT_EVERY:
            self.compact()

    def update_doc(self, doc_id: str, vbucket_id: int,
                   rows: list[tuple[Any, Any]]) -> None:
        self.update_docs([(doc_id, vbucket_id, rows)])

    def remove_doc(self, doc_id: str) -> None:
        self.update_doc(doc_id, -1, [])

    def remove_vbucket(self, vbucket_id: int) -> None:
        """Purge all rows of a migrated-away vBucket (the deactivation the
        paper describes, made permanent)."""
        doomed_docs = []
        deletes = []
        for composite, entry in self.tree.items():
            if entry["vb"] == vbucket_id:
                deletes.append(composite)
                doomed_docs.append(composite[1])
        if deletes:
            self.tree = self.tree.batch_update(deletes=deletes)
        for doc_id in doomed_docs:
            self.back_index.pop(doc_id, None)
        self.vbuckets_present.discard(vbucket_id)

    def compact(self) -> None:
        """Rewrite the index file with only the live rows.  View files
        are append-only like the data files (section 4.3.3), so churn
        leaves dead nodes behind; compaction copies the current tree
        into a fresh file and swaps it in."""
        from ..storage.btree import BTree
        temp_name = self.filename + ".compact"
        if self.disk.exists(temp_name):
            self.disk.delete(temp_name)
        new_log = AppendLog(self.disk.open(temp_name))
        new_tree = BTree(
            new_log,
            compare=self.tree.compare,
            reduce_fn=self.tree.reduce_fn,
            rereduce_fn=self.tree.rereduce_fn,
        )
        live_rows = list(self.tree.items())
        if live_rows:
            new_tree = new_tree.batch_update(inserts=live_rows)
        self.disk.delete(self.filename)
        self.disk.rename(temp_name, self.filename)
        new_log.file.name = self.filename
        self.log = new_log
        self.tree = new_tree
        self.updates_since_compaction = 0
        self.compactions += 1

    # -- queries ---------------------------------------------------------------

    def _bounds(self, params: "ViewQueryParams"):
        if params.key is not None:
            return ([params.key, _LOW_DOCID], [params.key, _HIGH_DOCID], True)
        start = end = None
        if params.startkey is not None:
            start = [params.startkey, _LOW_DOCID]
        if params.endkey is not None:
            if params.inclusive_end:
                end = [params.endkey, _HIGH_DOCID]
            else:
                end = [params.endkey, _LOW_DOCID]
        return (start, end, params.inclusive_end)

    def scan(self, params: "ViewQueryParams",
             active_vbuckets: set[int] | None = None) -> Iterator[dict]:
        """Yield row dicts {id, key, value} under the query parameters,
        masked to ``active_vbuckets`` when given."""
        if params.keys is not None:
            for wanted in params.keys:
                sub = params.replace(key=wanted, keys=None)
                yield from self.scan(sub, active_vbuckets)
            return
        start, end, _inclusive = self._bounds(params)
        # Composite bounds already encode end inclusivity: an inclusive
        # endkey becomes [endkey, HIGH] (after every doc id), an exclusive
        # one becomes [endkey, LOW] (before every doc id).
        for composite, entry in self.tree.range(
            start=start, end=end, descending=params.descending,
        ):
            if active_vbuckets is not None and entry["vb"] not in active_vbuckets:
                continue
            yield {"id": composite[1], "key": composite[0], "value": entry["v"]}

    def reduce(self, params: "ViewQueryParams",
               active_vbuckets: set[int] | None = None) -> Any:
        """Reduce over the query range.  Uses the tree's pre-computed
        subtree reductions when no vBucket masking is needed, otherwise
        falls back to scan-and-reduce over active rows."""
        definition = self.definition
        if definition.reduce_fn is None:
            raise ViewQueryError(f"view {definition.full_name} has no reduce")
        needs_mask = (
            active_vbuckets is not None
            and not self.vbuckets_present <= active_vbuckets
        )
        if not needs_mask and params.keys is None:
            start, end, _inclusive = self._bounds(params)
            return self.tree.reduce_range(start=start, end=end)
        values = [row["value"] for row in self.scan(params, active_vbuckets)]
        return definition.reduce_fn(values, False)

    def grouped(self, params: "ViewQueryParams",
                active_vbuckets: set[int] | None = None) -> list[dict]:
        """GROUP/GROUP_LEVEL reduce: one reduced row per (truncated) key."""
        definition = self.definition
        if definition.reduce_fn is None:
            raise ViewQueryError(f"view {definition.full_name} has no reduce")
        groups: list[tuple[Any, list]] = []
        for row in self.scan(params, active_vbuckets):
            group_key = row["key"]
            if params.group_level and isinstance(group_key, list):
                group_key = group_key[:params.group_level]
            if groups and compare(groups[-1][0], group_key) == 0:
                groups[-1][1].append(row["value"])
            else:
                groups.append((group_key, [row["value"]]))
        return [
            {"key": group_key, "value": definition.reduce_fn(values, False)}
            for group_key, values in groups
        ]

    def row_count(self) -> int:
        return self.tree.count()


class ViewQueryParams:
    """Query options of the View REST API (section 3.1.2)."""

    def __init__(
        self,
        key: Any = None,
        keys: list | None = None,
        startkey: Any = None,
        endkey: Any = None,
        inclusive_end: bool = True,
        descending: bool = False,
        limit: int | None = None,
        skip: int = 0,
        reduce: bool | None = None,
        group: bool = False,
        group_level: int = 0,
        stale: str = "update_after",
    ):
        if stale not in ("false", "ok", "update_after"):
            raise ValueError(f"invalid stale value {stale!r}")
        if key is not None and keys is not None:
            raise ValueError("key and keys are mutually exclusive")
        self.key = key
        self.keys = keys
        self.startkey = startkey
        self.endkey = endkey
        self.inclusive_end = inclusive_end
        self.descending = descending
        self.limit = limit
        self.skip = skip
        self.reduce = reduce
        self.group = group
        self.group_level = group_level
        self.stale = stale
        if group and not group_level:
            # group=true means exact-key grouping.
            self.group_level = 2**31

    def replace(self, **changes) -> "ViewQueryParams":
        params = ViewQueryParams.__new__(ViewQueryParams)
        params.__dict__.update(self.__dict__)
        params.__dict__.update(changes)
        return params
