"""The index service and the cluster-wide index manager.

Section 4.3.4: "The Index Manager resides within the indexing service
and is responsible for receiving requests for indexing operations (e.g.,
creation, deletion, maintenance, scan, lookup)."

Three pieces live here:

* :class:`IndexRegistry` -- the cluster-wide index metadata (name ->
  definition, hosting nodes, state), held by the cluster manager and
  consulted by projectors/routers on every mutation and by the N1QL
  planner at plan time.
* :class:`IndexService` -- the per-node service wrapper exposing the
  indexer's RPC surface (``gsi_apply``, ``gsi_scan``, ...).
* :class:`GsiCoordinator` -- cluster-level DDL (create/build/drop with
  placement), scan fan-out for partitioned indexes, and the
  ``request_plus`` consistency barrier.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.errors import (
    IndexExistsError,
    InvalidArgumentError,
    IndexNotFoundError,
    IndexNotReadyError,
    NodeDownError,
    ServiceUnavailableError,
    TimeoutError_,
)
from ..common.services import Service
from ..kv.types import VBucketState
from ..n1ql.collation import MISSING, compare
from .indexdef import IndexDefinition
from .indexer import Indexer
from .projector import KeyVersion, Projector, Router
from .storage import HIGH_BOUND, composite_compare

if TYPE_CHECKING:
    from ..server import Cluster

#: Rows per ``gsi_scan_page`` pull.  Matches the query pipeline's batch
#: size, so a LIMIT-k query drains at most k + one page per partition.
SCAN_PAGE_SIZE = 64

#: Total order over (key_components, doc_id) rows for the k-way merge;
#: identical to the ordering the index nodes return pages in.
_ROW_ORDER = functools.cmp_to_key(
    lambda a, b: composite_compare([a[0], a[1]], [b[0], b[1]])
)

#: Deterministic output order for merged aggregate groups: collation
#: order over the group key values.
_GROUP_ORDER = functools.cmp_to_key(
    lambda a, b: composite_compare([a[0], ""], [b[0], ""])
)


@dataclass
class IndexMeta:
    definition: IndexDefinition
    #: Hosting index nodes; one entry per partition for partitioned
    #: indexes (entries may repeat when partitions share a node).
    nodes: list[str]
    #: "ready" | "deferred" | "building".  Only "ready" is planned,
    #: scanned and maintained by projectors; "building" outside
    #: :meth:`GsiCoordinator._build` means a build failed part-way.
    state: str = "ready"

    def describe(self) -> dict:
        info = self.definition.describe()
        info["nodes"] = list(dict.fromkeys(self.nodes))
        info["state"] = self.state
        return info


class IndexRegistry:
    """Cluster-wide index metadata."""

    def __init__(self):
        self._by_name: dict[str, IndexMeta] = {}
        #: Bumped on every metadata change that can alter planning (index
        #: added, removed, or built to readiness).  The query service
        #: folds this into its catalog epoch so cached/prepared plans
        #: built against an older index set are re-planned, not executed.
        self.epoch = 0

    def add(self, meta: IndexMeta) -> None:
        if meta.definition.name in self._by_name:
            raise IndexExistsError(meta.definition.name)
        self._by_name[meta.definition.name] = meta
        self.epoch += 1

    def remove(self, name: str) -> IndexMeta:
        if name not in self._by_name:
            raise IndexNotFoundError(name)
        meta = self._by_name.pop(name)
        self.epoch += 1
        return meta

    def get(self, name: str) -> IndexMeta | None:
        return self._by_name.get(name)

    def require(self, name: str) -> IndexMeta:
        meta = self._by_name.get(name)
        if meta is None:
            raise IndexNotFoundError(name)
        return meta

    def indexes_on(self, bucket: str) -> list[IndexMeta]:
        return [
            meta for meta in self._by_name.values()
            if meta.definition.bucket == bucket
        ]

    def names(self) -> list[str]:
        return sorted(self._by_name)


class IndexService:
    """Per-node index service (attached when the node runs INDEX)."""

    def __init__(self, node, network, scheduler):
        self.node = node
        self.network = network
        self.scheduler = scheduler
        self.indexer = Indexer(node)
        # Expose the RPC surface on the node object itself so the network
        # fabric can dispatch to it.
        node.gsi_apply = self.indexer.apply
        node.gsi_scan = self.indexer.scan
        node.gsi_scan_page = self.indexer.scan_page
        node.gsi_scan_aggregate = self.indexer.scan_aggregate
        node.gsi_watermarks = self.indexer.watermarks
        node.gsi_count = self.indexer.count
        node.gsi_create_local = self.indexer.create
        node.gsi_drop_local = self.indexer.drop


class GsiCoordinator:
    """Cluster-level GSI DDL and scans (what the query service calls)."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster

    @property
    def registry(self) -> IndexRegistry:
        return self.cluster.manager.index_registry

    def _index_nodes(self) -> list[str]:
        names = self.cluster.manager.nodes_with_service(Service.INDEX)
        live = [n for n in names if not self.cluster.network.is_down(n)]
        if not live:
            raise ServiceUnavailableError("index")
        return live

    # -- DDL ----------------------------------------------------------------------

    def create_index(self, definition: IndexDefinition,
                     nodes: list[str] | None = None) -> IndexMeta:
        """Create (and unless deferred, build) an index.

        Placement: explicit ``nodes``, else the least-loaded index node;
        partitioned indexes stripe partitions across index nodes."""
        if self.registry.get(definition.name) is not None:
            raise IndexExistsError(definition.name)
        available = self._index_nodes()
        if nodes is None:
            by_load = sorted(
                available,
                key=lambda n: (
                    len(self.cluster.node(n).indexer.indexer.instances), n
                ),
            )
            if definition.num_partitions == 1:
                nodes = [by_load[0]]
            else:
                nodes = [
                    by_load[i % len(by_load)]
                    for i in range(definition.num_partitions)
                ]
        meta = IndexMeta(
            definition=definition,
            nodes=nodes,
            state="deferred" if definition.deferred else "building",
        )
        for node_name in dict.fromkeys(nodes):
            self.cluster.network.call(
                "gsi-coordinator", node_name, "gsi_create_local", definition
            )
        self.registry.add(meta)
        if not definition.deferred:
            self._build(meta)
        return meta

    def build_index(self, name: str) -> None:
        """BUILD INDEX for a deferred index (defer_build, section 3.3.3),
        or for one whose earlier build failed part-way."""
        meta = self.registry.require(name)
        if meta.state == "ready":
            return
        if meta.state == "building":
            # Only a build that raised leaves this state behind.  Its
            # rows may belong to documents deleted since (nothing is
            # routed to an index that is not ready), so start over from
            # empty instances.
            network = self.cluster.network
            for node_name in dict.fromkeys(meta.nodes):
                network.call("gsi-coordinator", node_name,
                             "gsi_drop_local", name)
                network.call("gsi-coordinator", node_name,
                             "gsi_create_local", meta.definition)
        self._build(meta)

    def _build(self, meta: IndexMeta) -> None:
        """Initial materialization: snapshot-scan every active vBucket on
        every data node, route the entries to the hosting indexer(s) in
        projector-sized slices, install watermarks at the snapshot
        seqnos, and only then declare the index ready."""
        definition = meta.definition
        manager = self.cluster.manager
        meta.state = "building"
        marks: dict[int, int] = {}
        for node_name in manager.data_nodes():
            node = manager.nodes[node_name]
            engine = node.engines.get(definition.bucket)
            if engine is None:
                continue
            router = Router(node, manager.index_registry, self.cluster.network)
            active = engine.owned_vbuckets(VBucketState.ACTIVE)
            key_versions = (
                KeyVersion(
                    index_name=definition.name,
                    bucket=definition.bucket,
                    doc_id=doc.key,
                    entries=entries,
                    vbucket_id=vbucket_id,
                    seqno=doc.meta.seqno,
                )
                for vbucket_id in active
                for doc in engine.docs_in_vbucket(vbucket_id)
                if (entries := definition.entries_for(doc.value, doc.key))
            )
            while batch := list(itertools.islice(key_versions,
                                                 Projector.BATCH)):
                if router.route(batch):
                    # Installing watermarks over a row the indexer never
                    # received would declare a permanently incomplete
                    # index "ready".
                    raise ServiceUnavailableError("index")
            for vbucket_id in active:
                marks[vbucket_id] = engine.vbuckets[vbucket_id].high_seqno
        for node_name in dict.fromkeys(meta.nodes):
            instance = self.cluster.node(node_name).indexer.indexer.instance(
                definition.name
            )
            instance.set_watermarks(marks)
        meta.state = "ready"
        self.registry.epoch += 1  # a new access path exists; invalidate plans
        self.cluster.run_until_idle()

    def drop_index(self, name: str) -> None:
        meta = self.registry.remove(name)
        for node_name in dict.fromkeys(meta.nodes):
            try:
                self.cluster.network.call(
                    "gsi-coordinator", node_name, "gsi_drop_local", name
                )
            # Drop is best-effort: registry removal already hides the index.
            # repro: disable-next=swallowed-exception
            except NodeDownError:
                continue

    def list_indexes(self, bucket: str | None = None) -> list[dict]:
        metas = (
            self.registry.indexes_on(bucket)
            if bucket is not None
            else [self.registry.require(n) for n in self.registry.names()]
        )
        return [meta.describe() for meta in metas]

    # -- scans ---------------------------------------------------------------------------

    def scan(
        self,
        name: str,
        low: list | None = None,
        high: list | None = None,
        *,
        inclusive_low: bool = True,
        inclusive_high: bool = True,
        descending: bool = False,
        limit: int | None = None,
        scan_consistency: str = "not_bounded",
        mutation_tokens: list | None = None,
    ) -> list[tuple[list, str]]:
        """Cluster-level index scan: consistency barrier (see
        :meth:`_consistency_barrier`), parallel partition fan-out, and a
        streaming ordered merge that short-circuits at ``limit``."""
        meta = self.registry.require(name)
        if meta.state != "ready":
            raise IndexNotReadyError(name)
        low, high = self._pad_span(meta, low, inclusive_low,
                                   high, inclusive_high)
        self._consistency_barrier(meta, scan_consistency, mutation_tokens)
        if limit is not None and limit <= 0:
            return []

        # Every partition holds rows no other partition has: a scan that
        # skipped a down node would return a silently incomplete result
        # set, which is worse than failing.  Let NodeDownError propagate.
        node_names = list(dict.fromkeys(meta.nodes))
        if len(node_names) == 1:
            rows = self.cluster.network.call(
                "gsi-coordinator", node_names[0], "gsi_scan", name,
                low, high, inclusive_low, inclusive_high, descending,
                limit,
            )
            return rows if limit is None else rows[:limit]
        # Parallel scatter-gather: one wave of first-page RPCs to every
        # partition (charged a single round trip -- the calls overlap),
        # then a streaming k-way merge over lazily pulled pages.  With a
        # LIMIT the merge stops at the frontier, so each partition
        # yields at most limit + one page of rows.
        page = SCAN_PAGE_SIZE if limit is None else min(SCAN_PAGE_SIZE, limit)
        first_pages = self.cluster.network.call_fanout(
            "gsi-coordinator", node_names, "gsi_scan_page", name,
            low, high, inclusive_low, inclusive_high, descending,
            page, None,
        )
        streams = [
            self._page_stream(node_name, name, low, high, inclusive_low,
                              inclusive_high, descending, page, rows,
                              exhausted)
            for node_name, (rows, exhausted) in zip(node_names, first_pages)
        ]
        merged = heapq.merge(*streams, key=_ROW_ORDER, reverse=descending)
        return list(itertools.islice(merged, limit))

    def _page_stream(self, node_name: str, name: str, low, high,
                     inclusive_low: bool, inclusive_high: bool,
                     descending: bool, page: int, rows, exhausted: bool):
        """One partition's rows, pulled page by page: the next page is
        requested only when the merge frontier actually drains this
        partition past its buffered rows."""
        while True:
            yield from rows
            if exhausted or not rows:
                return
            # One RPC per *page*, pulled only when the merge frontier
            # drains past the buffer -- paging is the point here.
            # repro: disable-next=n-plus-one-rpc
            rows, exhausted = self.cluster.network.call(
                "gsi-coordinator", node_name, "gsi_scan_page", name,
                low, high, inclusive_low, inclusive_high, descending,
                page, rows[-1],
            )

    def scan_aggregate(
        self,
        name: str,
        low: list | None = None,
        high: list | None = None,
        *,
        inclusive_low: bool = True,
        inclusive_high: bool = True,
        group_positions: list[int] | tuple = (),
        agg_specs: list[tuple[str, int | None]] | tuple = (),
        scan_consistency: str = "not_bounded",
        mutation_tokens: list | None = None,
    ) -> list[tuple[list, list[list]]]:
        """Partial-aggregate pushdown (section 5.1): every partition
        pre-aggregates its own rows via ``gsi_scan_aggregate`` -- one
        parallel wave, like :meth:`scan` -- and only the per-group
        partial states cross the fabric; this coordinator merges them
        by group token.  Returns ``[(group_values, partials), ...]`` in
        collation order of the group values."""
        meta = self.registry.require(name)
        if meta.state != "ready":
            raise IndexNotReadyError(name)
        low, high = self._pad_span(meta, low, inclusive_low,
                                   high, inclusive_high)
        self._consistency_barrier(meta, scan_consistency, mutation_tokens)
        node_names = list(dict.fromkeys(meta.nodes))
        # A down partition would silently drop its groups' rows from the
        # totals; let NodeDownError propagate, exactly like scan().
        node_results = self.cluster.network.call_fanout(
            "gsi-coordinator", node_names, "gsi_scan_aggregate", name,
            low, high, inclusive_low, inclusive_high,
            list(group_positions), list(agg_specs),
        )
        merged: dict[str, tuple[list, list[list]]] = {}
        for node_groups in node_results:
            for token, values, partials in node_groups:
                entry = merged.get(token)
                if entry is None:
                    merged[token] = (values, [list(p) for p in partials])
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
                    elif agg_name == "MIN" \
                            and compare(theirs[2], mine[2]) < 0:
                        mine[2] = theirs[2]
                    elif agg_name == "MAX" \
                            and compare(theirs[2], mine[2]) > 0:
                        mine[2] = theirs[2]
        out = list(merged.values())
        out.sort(key=_GROUP_ORDER)
        return out

    def _pad_span(self, meta: IndexMeta, low: list | None,
                  inclusive_low: bool, high: list | None,
                  inclusive_high: bool) -> tuple[list | None, list | None]:
        """Prefix bounds over a composite index: pad with a
        past-everything sentinel so an inclusive upper bound includes,
        and an exclusive lower bound excludes, every entry sharing the
        prefix."""
        arity = len(meta.definition.key_sources)
        if low is not None and not inclusive_low and len(low) < arity:
            low = list(low) + [HIGH_BOUND] * (arity - len(low))
        if high is not None and inclusive_high and len(high) < arity:
            high = list(high) + [HIGH_BOUND] * (arity - len(high))
        return low, high

    def _consistency_barrier(self, meta: IndexMeta, scan_consistency: str,
                             mutation_tokens: list | None) -> None:
        """Consistency levels (section 3.2.3 plus the 4.5-era at_plus):
        ``not_bounded`` scans immediately; ``request_plus`` waits for
        every mutation that existed at request time; ``at_plus`` waits
        only for the caller's own ``mutation_tokens``."""
        if scan_consistency == "request_plus":
            self._barrier(meta, self._current_seqnos(meta.definition.bucket))
        elif scan_consistency == "at_plus":
            marks: dict[int, int] = {}
            for token in mutation_tokens or []:
                current = marks.get(token.vbucket_id, 0)
                marks[token.vbucket_id] = max(current, token.seqno)
            self._barrier(meta, marks)
        elif scan_consistency != "not_bounded":
            raise InvalidArgumentError(
                f"unknown scan consistency {scan_consistency!r}")

    def _barrier(self, meta: IndexMeta, marks: dict[int, int]) -> None:
        """Wait until the index has processed the given seqno marks.

        One ``gsi_watermarks`` wave per poll: every hosting node returns
        its whole vBucket -> seqno vector, every mark some vector has
        reached is struck from ``pending``, and a struck mark is never
        asked about again.  The maximum over partitions is the right
        test because the router delivers a vBucket's key versions in
        seqno order and stops at the first undelivered one: a partition
        holding seqno s proves every earlier key version of that vBucket
        reached its own partition.  The scan behind the barrier needs
        every hosting node, so an unreachable one fails the barrier
        before its first poll instead of after the last."""
        if not marks:
            return
        network = self.cluster.network
        hosts = list(dict.fromkeys(meta.nodes))
        for host in hosts:
            if not network.reachable("gsi-coordinator", host):
                raise NodeDownError(host)
        pending = dict(marks)

        def satisfied() -> bool:
            for vector in network.call_fanout(
                "gsi-coordinator", hosts, "gsi_watermarks",
                meta.definition.name,
            ):
                for vb in [vb for vb, seqno in pending.items()
                           if vector.get(vb, 0) >= seqno]:
                    del pending[vb]
            return not pending

        if not self.cluster.scheduler.run_until(satisfied):
            raise TimeoutError_(
                f"request_plus barrier for index {meta.definition.name!r} "
                f"did not converge"
            )

    def _current_seqnos(self, bucket: str) -> dict[int, int]:
        manager = self.cluster.manager
        marks: dict[int, int] = {}
        for node_name in manager.data_nodes():
            node = manager.nodes[node_name]
            if self.cluster.network.is_down(node_name):
                continue
            engine = node.engines.get(bucket)
            if engine is None:
                continue
            for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
                marks[vbucket_id] = engine.vbuckets[vbucket_id].high_seqno
        return marks
