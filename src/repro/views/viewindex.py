"""The per-node view index structure.

Section 4.3.3 (View Engine): the view index is a local B-tree whose keys
are the emitted ``(key, doc_id)`` pairs in view collation order, whose
interior nodes carry the **pre-computed reduce** of their subtree, and
which stores vBucket information *in the tree itself* so that entries
belonging to migrated partitions can be masked out during rebalance and
failover without a rebuild.

The tree, its file and the back-index that makes updates incremental
are the shared :class:`~repro.storage.indexfile.IndexFile`; a view
configures it with view collation, its reduce function and rows that
carry their vBucket.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..common import tracing
from ..common.disk import SimulatedDisk
from ..common.errors import ViewQueryError
from ..kv.types import GroupCommit
from ..n1ql.collation import collate_key, compare
from ..storage.indexfile import IndexFile
from .mapreduce import DocMetaView, ViewDefinition

#: Sentinel bounds: (key, doc_id) composite keys are ordered
#: lexicographically, so a range on bare keys uses these to span every
#: doc_id under one key.  ``{}`` sorts after any scalar/array under view
#: collation; LOW sorts before any string doc id.
_LOW_DOCID = ""
_HIGH_DOCID = {"￿": "￿"}


def _view_key(composite: list) -> tuple:
    """The collation key of a stored ``[key, doc_id]`` composite."""
    return collate_key(composite[0]), collate_key(composite[1])


def _view_row(doc_id: str, vbucket_id: int, emitted: tuple) -> tuple:
    """An emitted ``(key, value)`` as the tree stores it: under ``[key,
    doc_id]``, with the row's vBucket beside its value."""
    key, value = emitted
    return [key, doc_id], {"v": value, "vb": vbucket_id}


class ViewIndex(IndexFile, GroupCommit):
    """Materialized rows of one view on one node: the shared index file
    in view collation, reduced by the view's reduce function, and the
    group commit that holds the ``(vbucket_id, doc)`` pairs its streams
    bring with the per-vBucket indexed seqnos they reach once mapped.
    ``revision`` is the catalog revision that made the view; ``owner``
    names the pump that writes it (``views/<node>/<bucket>``)."""

    COMPACT_EVERY = 4096

    def __init__(self, definition: ViewDefinition, disk: SimulatedDisk,
                 filename: str, revision: int = 0, owner: str = "views"):
        GroupCommit.__init__(self, self._map_docs)
        if definition.reduce_fn is not None:
            tree_reduce = lambda values: definition.reduce(  # noqa: E731
                [v["v"] for v in values], False)
            tree_rereduce = lambda parts: definition.reduce(parts, True)  # noqa: E731
        else:
            tree_reduce = tree_rereduce = None
        super().__init__(disk, filename, _view_row, _view_key,
                         tree_reduce, tree_rereduce)
        self.definition = definition
        self.revision = revision
        self.owner = owner

    def _map_docs(self, docs: list, resets: set[int]) -> None:
        """Map the held ``(vbucket_id, doc)`` pairs into one rewrite that
        also replaces the reset vBuckets' rows.  A deleted document maps
        to no rows."""
        tracing.record_write(self.owner)
        batch = []
        for vbucket_id, doc in docs:
            rows = []
            if not doc.meta.deleted:
                meta = DocMetaView(doc.key, doc.meta.rev, doc.meta.expiry,
                                   doc.meta.flags)
                rows = self.definition.run_map(doc.value, meta)
            batch.append((doc.key, vbucket_id, rows))
        self.update_docs(batch, resets)

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
        masked to ``active_vbuckets`` when given.  The key and value are
        the tree's stored objects, read in place by services;
        ``SmartClient.view_query`` copies what an application gets."""
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
            yield {"id": composite[1], "key": composite[0],
                   "value": entry["v"]}

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
            and not self.back_index.keys() <= active_vbuckets
        )
        if not needs_mask and params.keys is None:
            start, end, _inclusive = self._bounds(params)
            return self.tree.reduce_range(start=start, end=end)
        values = [row["value"] for row in self.scan(params, active_vbuckets)]
        return definition.reduce(values, False)

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
            {"key": group_key, "value": definition.reduce(values, False)}
            for group_key, values in groups
        ]


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
