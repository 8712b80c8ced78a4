"""The index service and the cluster-level GSI coordinator.

Section 4.3.4: "The Index Manager resides within the indexing service
and is responsible for receiving requests for indexing operations (e.g.,
creation, deletion, maintenance, scan, lookup)."

Each index's :class:`IndexMeta` (definition, hosting nodes, state)
lives in the cluster catalog (:mod:`repro.cluster.catalog`), and a
node's catalog reconcile makes and drops its instances.  Here:

* :class:`IndexService` -- the per-node service wrapper exposing the
  indexer's RPC surface (``gsi_apply``, ``gsi_scan``, ...).
* :class:`GsiCoordinator` -- GSI DDL (create/build/drop with placement:
  validate, change the catalog, push it), scan fan-out for partitioned
  indexes, and the ``request_plus`` consistency barrier.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..common.errors import (
    InvalidArgumentError,
    IndexNotFoundError,
    IndexNotReadyError,
    NodeDownError,
    ServiceUnavailableError,
    TimeoutError_,
)
from ..common.scheduler import pump_name
from ..common.services import Service
from ..kv.types import VBucketState
from ..n1ql.collation import collate_key
from .indexdef import IndexDefinition
from .indexer import Indexer
from .storage import HIGH_BOUND, merge_folds

if TYPE_CHECKING:
    from ..server import Cluster

#: Rows per ``gsi_scan_page`` pull.  Matches the query pipeline's batch
#: size, so a LIMIT-k query drains at most k + one page per partition.
SCAN_PAGE_SIZE = 64


def _group_order(group: tuple[list, list]) -> tuple:
    """Deterministic output order for merged aggregate groups:
    collation order over the group key values."""
    return tuple([collate_key(value) for value in group[0]])


@dataclass
class IndexMeta:
    definition: IndexDefinition
    #: Hosting index nodes; one entry per partition for partitioned
    #: indexes (entries may repeat when partitions share a node).
    nodes: list[str]
    #: "ready" | "deferred" | "building".  Only "ready" is planned and
    #: scanned; projectors stream to every index but a deferred one.
    #: "building" outside :meth:`GsiCoordinator._build` means a build
    #: failed part-way.
    state: str = "ready"
    #: The catalog revision that made the index.
    revision: int = 0

    def describe(self) -> dict:
        info = self.definition.describe()
        info["nodes"] = list(dict.fromkeys(self.nodes))
        info["state"] = self.state
        return info


class IndexService:
    """Per-node index service (attached when the node runs INDEX).

    It registers the node's ``indexer/<node>`` pump, which commits held
    key versions once they are due (:meth:`Indexer.pump`); a crashed
    node's pump does nothing, and :meth:`close` unregisters it."""

    def __init__(self, node, scheduler):
        self.node = node
        self.scheduler = scheduler
        self.indexer = Indexer(node)
        self.pump_name = pump_name("indexer", node.name)
        scheduler.register(self.pump_name,
                           lambda: bool(node.alive) and self.indexer.pump())
        # Expose the RPC surface on the node object itself so the network
        # fabric can dispatch to it.
        node.gsi_apply = self.indexer.apply
        node.gsi_scan = self.indexer.scan
        node.gsi_scan_page = self.indexer.scan_page
        node.gsi_scan_aggregate = self.indexer.scan_aggregate
        node.gsi_wait = self.indexer.wait
        node.gsi_count = self.indexer.count

    def close(self) -> None:
        """The node leaves the cluster: its pump goes with it."""
        self.scheduler.unregister(self.pump_name)


class GsiCoordinator:
    """Cluster-level GSI DDL and the query service's scans (section 4.4),
    whose rows hold the index's stored keys, read in place."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.catalog = cluster.manager.catalog

    def _index_nodes(self) -> list[str]:
        """The index nodes the manager can push the catalog to."""
        names = self.cluster.manager.nodes_with_service(Service.INDEX)
        live = [n for n in names
                if self.cluster.network.reachable("cluster-manager", n)]
        if not live:
            raise ServiceUnavailableError("index")
        return live

    # -- DDL ----------------------------------------------------------------------

    def create_index(self, definition: IndexDefinition,
                     nodes: list[str] | None = None) -> IndexMeta:
        """Create (and unless deferred, build) an index.

        Placement: explicit ``nodes``, else the least-loaded index node;
        partitioned indexes stripe partitions across index nodes.  The
        name must be free and every host a live index node."""
        self.catalog.require_free(definition.name)
        available = self._index_nodes()
        if nodes is None:
            by_load = sorted(available, key=lambda n: (
                len(self.catalog.placed_on(n)), n))
            nodes = [by_load[i % len(by_load)]
                     for i in range(definition.num_partitions)]
        for host in nodes:
            if host not in available:
                raise NodeDownError(host)
        meta = IndexMeta(
            definition=definition,
            nodes=nodes,
            state="deferred" if definition.deferred else "building",
        )
        self.catalog.add(meta)
        if definition.deferred:
            self.cluster.manager.push_catalog()
        else:
            self._build(meta)
        return meta

    def build_index(self, name: str) -> None:
        """BUILD INDEX for a deferred index (defer_build, section 3.3.3),
        or for one whose earlier build failed part-way."""
        meta = self.catalog.require(name)
        if meta.state == "ready":
            return
        if meta.state == "building":
            # Only a build that raised leaves this state behind.  A host
            # restarted since has lost rows its projectors' checkpoints
            # passed, so the catalog makes the index again: each host's
            # reconcile starts it empty and every stream replays from 0.
            self.catalog.renew(meta)
        self._build(meta)

    def _build(self, meta: IndexMeta) -> None:
        """Build an index from its streams: once the catalog says
        ``building``, every data node's projector streams each active
        vBucket to it from seqno 0 (a reset, then the replay).  The
        build drains those streams, checks them against every reachable
        data node's high seqnos -- the ``request_plus`` barrier, after
        the drain so that it does not commit each arriving batch on its
        own -- and only then declares the index ready.  A data node
        that is down delays its vBuckets' rows until it is back."""
        manager = self.cluster.manager
        meta.state = "building"
        manager.push_catalog()
        self.cluster.run_until_idle()
        self._barrier(meta, self._current_seqnos(meta.definition.bucket))
        self.catalog.mark_ready(meta)
        manager.push_catalog()

    def drop_index(self, name: str) -> None:
        """Drop a GSI or view index from the catalog and push it."""
        self.catalog.remove(name)
        self.cluster.manager.push_catalog()

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
        meta = self.catalog.require(name)
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
        # then a streaming k-way merge over lazily pulled pages, by the
        # sort keys the index nodes hold for their rows.  With a LIMIT
        # the merge stops at the frontier, so each partition yields at
        # most limit + one page of rows.
        page = SCAN_PAGE_SIZE if limit is None else min(SCAN_PAGE_SIZE, limit)
        first_pages = self.cluster.network.call_fanout(
            "gsi-coordinator", node_names, "gsi_scan_page", name,
            low, high, inclusive_low, inclusive_high, descending,
            page, None,
        )
        streams = [
            self._page_stream(node_name, name, low, high, inclusive_low,
                              inclusive_high, descending, page, first_page)
            for node_name, first_page in zip(node_names, first_pages)
        ]
        # (sort key, row) pairs: no two rows of an index share a sort key.
        merged = heapq.merge(*streams, reverse=descending)
        return [row for _sort, row in itertools.islice(merged, limit)]

    def _page_stream(self, node_name: str, name: str, low, high,
                     inclusive_low: bool, inclusive_high: bool,
                     descending: bool, page: int, first_page: tuple):
        """One partition's ``(sort key, row)`` pairs, pulled page by
        page: the next page is requested only when the merge frontier
        actually drains this partition past its buffered rows."""
        rows, sorts, exhausted = first_page
        while True:
            yield from zip(sorts, rows)
            if exhausted or not rows:
                return
            # One RPC per *page*, pulled only when the merge frontier
            # drains past the buffer -- paging is the point here.
            # repro: disable-next=n-plus-one-rpc
            rows, sorts, exhausted = self.cluster.network.call(
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
        by group key with the same ``merge_folds`` a node merges its
        memoized folds with.  Returns ``[(group_values, partials), ...]``
        in collation order of the group values."""
        meta = self.catalog.require(name)
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
        out = list(merge_folds(node_results, agg_specs).values())
        out.sort(key=_group_order)
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

        One ``gsi_wait`` wave registers the marks with every hosting
        node, whose instance strikes each mark its watermark passes, and
        the wait then checks the returned handles locally: no message
        per scheduler pass.  The wait drives only the pumps that carry
        the index forward -- every data node's projector for the bucket
        and each hosting node's indexer -- and whole rounds only once
        those stall.  A mark is met once *some* partition passed it,
        because the router delivers a vBucket's key versions in seqno
        order and stops at the first undelivered one: a partition
        holding seqno s proves every earlier key version of that vBucket
        reached its own partition.  The scan behind the barrier needs
        every hosting node, so an unreachable one fails the barrier
        before the wave instead of after the wait."""
        if not marks:
            return
        network = self.cluster.network
        hosts = list(dict.fromkeys(meta.nodes))
        for host in hosts:
            if not network.reachable("gsi-coordinator", host):
                raise NodeDownError(host)
        waiters = network.call_fanout("gsi-coordinator", hosts, "gsi_wait",
                                      meta.definition.name, marks)

        def satisfied() -> bool:
            pending = waiters[0].pending.keys()
            for waiter in waiters:
                if waiter.error is not None:
                    raise waiter.error
                pending = pending & waiter.pending.keys()
            return not pending

        bucket = meta.definition.bucket
        pumps = {pump_name("projector", node, bucket)
                 for node in self.cluster.manager.data_nodes()}
        pumps.update(pump_name("indexer", host) for host in hosts)
        try:
            met = self.cluster.scheduler.run_until(satisfied, pumps=pumps)
        finally:
            for waiter in waiters:
                waiter.cancel()
        if not met:
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
