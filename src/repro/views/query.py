"""Scatter/gather view queries.

Section 4.3.3 and Figure 8: "Queries are sent to a randomly selected
server within the cluster.  The server that receives a query sends the
request to the other relevant servers in the cluster and then aggregates
their results."

The coordinator fans a query out to every data node, k-way-merges the
sorted partial row sets under view collation, and applies skip/limit to
the merged stream.  Reduce queries re-reduce the per-node partials;
grouped queries merge group keys across nodes and re-reduce per group.

Staleness (section 3.1.2) is enforced here:

* ``stale=false``  -- drive the scheduler until every node's view engine
  has indexed through the data's current seqnos, then query.
* ``stale=ok``     -- query whatever is indexed right now.
* ``stale=update_after`` -- query now; the ever-running indexer pumps
  apply the pending mutations afterwards.  This is the default.
"""

from __future__ import annotations

import heapq
import json
from typing import TYPE_CHECKING, Any

from ..common.errors import TimeoutError_, ViewNotFoundError
from ..n1ql.collation import sort_key
from .viewindex import ViewQueryParams

if TYPE_CHECKING:
    from ..server import Cluster


class ViewResult:
    """What a view query returns: rows, or a single reduced value."""

    def __init__(self, rows: list[dict] | None = None, value: Any = None,
                 is_reduced: bool = False):
        self.rows = rows if rows is not None else []
        self.value = value
        self.is_reduced = is_reduced

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class ViewQueryCoordinator:
    """Cluster-level view querying."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster

    def _data_nodes(self):
        manager = self.cluster.manager
        return [
            manager.nodes[name]
            for name in manager.data_nodes()
            if not self.cluster.network.is_down(name)
        ]

    def _view_engines(self, bucket: str):
        return [
            node.view_engines[bucket]
            for node in self._data_nodes()
            if bucket in node.view_engines
        ]

    def _definition(self, bucket: str, design: str, view: str):
        for engine in self._view_engines(bucket):
            index = engine.indexes.get((design, view))
            if index is not None:
                return index.definition
        raise ViewNotFoundError(design, view)

    def query(self, bucket: str, design: str, view: str,
              params: ViewQueryParams | None = None, **kwargs) -> ViewResult:
        if params is None:
            params = ViewQueryParams(**kwargs)
        elif kwargs:
            raise TypeError("pass either params or keyword options, not both")
        definition = self._definition(bucket, design, view)

        if params.stale == "false":
            engines = self._view_engines(bucket)
            caught_up = lambda: all(e.caught_up() for e in engines)  # noqa: E731
            if not self.cluster.scheduler.run_until(caught_up):
                raise TimeoutError_("stale=false wait did not converge")

        # Scatter to every data node hosting the bucket, down or not:
        # each holds vbuckets no other node serves, so skipping one
        # would silently drop its rows from the result.  A down node
        # makes network.call raise NodeDownError to the caller.
        partials = []
        manager = self.cluster.manager
        for name in manager.data_nodes():
            node = manager.nodes[name]
            if bucket not in node.view_engines:
                continue
            # Scatter-gather: one view RPC per data node, each holding
            # vbuckets nobody else serves -- per-node by design.
            # repro: disable-next=n-plus-one-rpc
            partial = self.cluster.network.call(
                "view-coordinator", node.name, "view_query_local",
                bucket, design, view, params,
            )
            partials.append(partial)
        self.cluster.network.calls[("view-coordinator", "scatter_gather")] += 1
        return self._merge(definition, partials, params)

    # -- merging ----------------------------------------------------------------------

    def _merge(self, definition, partials: list[dict],
               params: ViewQueryParams) -> ViewResult:
        if not partials:
            return ViewResult()
        kind = partials[0]["kind"]
        if kind == "reduced":
            values = [p["value"] for p in partials]
            value = definition.reduce_fn(values, True) if len(values) > 1 else values[0]
            return ViewResult(value=value, is_reduced=True)
        if kind == "grouped":
            return self._merge_grouped(definition, partials, params)
        streams = [p["rows"] for p in partials]
        rows = _kway_merge(streams, params.descending)
        if params.skip:
            rows = rows[params.skip:]
        if params.limit is not None:
            rows = rows[:params.limit]
        return ViewResult(rows=rows)

    def _merge_grouped(self, definition, partials: list[dict],
                       params: ViewQueryParams) -> ViewResult:
        merged: dict[str, tuple[Any, list]] = {}
        for partial in partials:
            for row in partial["rows"]:
                token = json.dumps(row["key"], sort_keys=True,
                                   separators=(",", ":"))
                if token in merged:
                    merged[token][1].append(row["value"])
                else:
                    merged[token] = (row["key"], [row["value"]])
        rows = []
        for group_key, values in merged.values():
            value = (
                definition.reduce_fn(values, True) if len(values) > 1 else values[0]
            )
            rows.append({"key": group_key, "value": value})
        rows.sort(key=lambda r: sort_key(r["key"]), reverse=params.descending)
        if params.skip:
            rows = rows[params.skip:]
        if params.limit is not None:
            rows = rows[:params.limit]
        return ViewResult(rows=rows)


def _kway_merge(streams: list[list[dict]], descending: bool) -> list[dict]:
    """Merge per-node row lists already sorted under view collation."""
    if descending:
        # Descending streams arrive reverse-sorted; a concatenate-and-sort
        # is simplest and the per-node lists are already small.
        merged = [row for rows in streams for row in rows]
        merged.sort(key=lambda r: sort_key((r["key"], r["id"])), reverse=True)
        return merged
    heap = []
    for stream_index, rows in enumerate(streams):
        if rows:
            heap.append(
                (sort_key((rows[0]["key"], rows[0]["id"])), stream_index, 0)
            )
    heapq.heapify(heap)
    merged: list[dict] = []
    while heap:
        _key, stream_index, row_index = heapq.heappop(heap)
        merged.append(streams[stream_index][row_index])
        next_index = row_index + 1
        if next_index < len(streams[stream_index]):
            row = streams[stream_index][next_index]
            heapq.heappush(
                heap,
                (sort_key((row["key"], row["id"])), stream_index, next_index),
            )
    return merged
