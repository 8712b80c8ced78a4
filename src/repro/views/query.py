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

* ``stale=false``  -- one wave registers a waiter with every node's view
  engine for the seqnos its active vBuckets hold at request time; drive
  the scheduler until the view pumps complete them, then query.
* ``stale=ok``     -- query whatever is indexed right now.
* ``stale=update_after`` -- query now; the ever-running indexer pumps
  apply the pending mutations afterwards.  This is the default.
"""

from __future__ import annotations

import heapq
import json
from typing import TYPE_CHECKING, Any

from ..common.errors import NodeDownError, TimeoutError_
from ..common.scheduler import pump_name
from ..n1ql.collation import collate_key
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

    def query(self, bucket: str, design: str, view: str,
              params: ViewQueryParams | None = None, **kwargs) -> ViewResult:
        if params is None:
            params = ViewQueryParams(**kwargs)
        elif kwargs:
            raise TypeError("pass either params or keyword options, not both")
        definition = self.cluster.manager.catalog.view(bucket, design, view)

        # Scatter to every data node hosting the bucket, down or not, in
        # one parallel wave: each holds vbuckets no other node serves, so
        # skipping one would silently drop its rows from the result.  A
        # down node makes the all-or-nothing fan-out raise NodeDownError
        # to the caller.
        manager = self.cluster.manager
        names = [name for name in manager.data_nodes()
                 if bucket in manager.nodes[name].view_engines]
        if params.stale == "false":
            self._wait_indexed(bucket, design, view, names)
        network = self.cluster.network
        partials = network.call_fanout("view-coordinator", names,
                                       "view_query_local",
                                       bucket, design, view, params)
        network.calls[("view-coordinator", "scatter_gather")] += 1
        return self._merge(definition, partials, params)

    def _wait_indexed(self, bucket: str, design: str, view: str,
                      names: list[str]) -> None:
        """``stale=false``: one ``view_wait`` wave registers the wait
        with the view on every node, those nodes' view pumps complete
        it -- the wait drives no other pump while they make progress --
        and the wait checks the handles locally.  The scatter behind it
        needs every node, so an unreachable one fails before the wave."""
        network = self.cluster.network
        for name in names:
            if not network.reachable("view-coordinator", name):
                raise NodeDownError(name)
        waiters = network.call_fanout("view-coordinator", names,
                                      "view_wait", bucket, design, view)
        try:
            met = self.cluster.scheduler.run_until(
                lambda: not any(waiter.pending for waiter in waiters),
                pumps={pump_name("views", name, bucket) for name in names})
        finally:
            for waiter in waiters:
                waiter.cancel()
        if not met:
            raise TimeoutError_("stale=false wait did not converge")

    # -- merging ----------------------------------------------------------------------

    def _merge(self, definition, partials: list[dict],
               params: ViewQueryParams) -> ViewResult:
        if not partials:
            return ViewResult()
        kind = partials[0]["kind"]
        if kind == "reduced":
            values = [p["value"] for p in partials]
            value = definition.reduce(values, True) if len(values) > 1 else values[0]
            return ViewResult(value=value, is_reduced=True)
        if kind == "grouped":
            return self._merge_grouped(definition, partials, params)
        # Each node's rows are already sorted under view collation; ties
        # fall to node order.
        rows = list(heapq.merge(
            *(p["rows"] for p in partials),
            key=lambda row: (collate_key(row["key"]), collate_key(row["id"])),
            reverse=params.descending))
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
                definition.reduce(values, True) if len(values) > 1 else values[0]
            )
            rows.append({"key": group_key, "value": value})
        rows.sort(key=lambda r: collate_key(r["key"]),
                  reverse=params.descending)
        if params.skip:
            rows = rows[params.skip:]
        if params.limit is not None:
            rows = rows[:params.limit]
        return ViewResult(rows=rows)

