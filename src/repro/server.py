"""The Cluster facade: one object that assembles the whole system.

This is the library's main entry point.  It owns the virtual clock, the
cooperative scheduler, the network fabric, the cluster manager, and the
nodes, and exposes the administrative operations of section 4 (create
buckets, add/remove nodes, rebalance, failover) plus ``connect()`` for
application clients.

Multi-dimensional scaling (section 4.4) is expressed at construction:
``Cluster(nodes=4)`` makes four all-service nodes, while
``Cluster(nodes=[("n1", {"data"}), ("n2", {"index"}), ("n3", {"query"})])``
builds a service-segregated topology.
"""

from __future__ import annotations

from typing import Iterable

from .admission.controller import AdmissionConfig, AdmissionController
from .client.smart_client import SmartClient
from .cluster.cluster_map import ClusterMap
from .cluster.manager import ClusterManager
from .cluster.node import Node
from .cluster.rebalance import Rebalancer
from .common.services import BucketConfig, Service
from .common.clock import VirtualClock
from .common.errors import ServiceUnavailableError
from .common.scheduler import Scheduler
from .common.transport import Network

_ALL = {Service.DATA, Service.INDEX, Service.QUERY}


def _parse_services(raw) -> set[Service]:
    return {s if isinstance(s, Service) else Service(s) for s in raw}


class Cluster:
    """A complete in-process cluster."""

    def __init__(
        self,
        nodes: int | Iterable = 4,
        *,
        vbuckets: int = 64,
        auto_failover: bool = True,
        network_latency: float = 0.0,
        admission: AdmissionConfig | None = None,
    ):
        """``nodes`` is either a count (all-service nodes named node1..N)
        or an iterable of ``(name, services)`` pairs.  ``vbuckets``
        defaults to 64 for in-process speed; pass 1024 for the paper's
        fixed production value.  ``admission`` is an
        :class:`AdmissionConfig` with explicit budgets; None gives the
        default controller (no rate caps, breakers and backpressure
        on)."""
        from .gsi.manager import GsiCoordinator
        from .views.query import ViewQueryCoordinator
        self.clock = VirtualClock()
        self.scheduler = Scheduler(self.clock)
        self.network = Network(default_latency=network_latency)
        self.admission = AdmissionController(self.scheduler, config=admission)
        self.network.call_filter = self.admission.fabric_filter
        self.manager = ClusterManager(
            self.network, self.scheduler, auto_failover=auto_failover
        )
        self.rebalancer = Rebalancer(self.manager)
        #: View queries (section 3.1.2) and GSI DDL and scans (sections
        #: 3.3, 4.3.4): stateless coordinators, one each per cluster.
        self.views = ViewQueryCoordinator(self)
        self.gsi = GsiCoordinator(self)
        self.num_vbuckets = vbuckets
        if isinstance(nodes, int):
            specs = [(f"node{i + 1}", _ALL) for i in range(nodes)]
        else:
            specs = [(name, _parse_services(services)) for name, services in nodes]
        for name, services in specs:
            self._make_node(name, services)

    # -- topology ------------------------------------------------------------------

    def _make_node(self, name: str, services: set[Service]) -> Node:
        node = Node(name, self.network, self.clock, services)
        self.manager.add_node(node)
        self._wire_services(node)
        return node

    def _wire_services(self, node: Node) -> None:
        """Attach index/query service components.  Implemented in stages:
        the view engine rides on the data service, the GSI indexer on the
        index service, the N1QL engine on the query service."""
        from .gsi.manager import IndexService
        from .n1ql.service import QueryService
        if node.has_service(Service.INDEX) and node.indexer is None:
            node.indexer = IndexService(node, self.scheduler)
        if node.has_service(Service.QUERY) and node.query_service is None:
            node.query_service = QueryService(self, node)

    def add_node(self, name: str, services: Iterable = ("data", "index", "query")) -> Node:
        """Join a new node; call :meth:`rebalance` to give it data."""
        return self._make_node(name, _parse_services(services))

    def remove_node(self, name: str) -> None:
        """Graceful removal: mark ejected, rebalance data away, then close
        the node's buckets and its index service."""
        self.manager.eject(name)
        self.rebalance()
        self.network.unregister(name)
        node = self.node(name)
        self.manager.remove_node(name)
        if node.indexer is not None:
            node.indexer.close()

    def nodes(self) -> list[Node]:
        """All nodes, sorted by name."""
        return [self.manager.nodes[n] for n in sorted(self.manager.nodes)]

    def node(self, name: str) -> Node:
        """Look up one node by name."""
        return self.manager.nodes[name]

    # -- buckets ---------------------------------------------------------------------

    def create_bucket(
        self,
        name: str,
        *,
        replicas: int = 1,
        quota_bytes: int | None = None,
        eviction_policy: str = "value",
        compaction_threshold: float | None = 0.6,
        expiry_pager_interval: float | None = 60.0,
    ) -> ClusterMap:
        """Create a bucket (keyspace) across the data nodes and return its
        initial cluster map (section 4.1)."""
        config = BucketConfig(
            name=name,
            num_replicas=replicas,
            quota_bytes=quota_bytes,
            eviction_policy=eviction_policy,
            compaction_threshold=compaction_threshold,
            expiry_pager_interval=expiry_pager_interval,
        )
        cluster_map = self.manager.create_bucket(
            config, num_vbuckets=self.num_vbuckets
        )
        self.run_until_idle()
        return cluster_map

    def drop_bucket(self, name: str) -> None:
        """Remove a bucket and all of its data from every node: its GSI
        indexes, views, vBucket files and in-memory state."""
        self.manager.drop_bucket(name)

    # -- views (section 3.1.2) --------------------------------------------------------------

    def define_view(self, bucket: str, definition) -> None:
        """Add a view (design document) to the catalog and push it: each
        data node defines and materializes it when the push reaches it."""
        self.manager.catalog.define_view(bucket, definition)
        self.manager.push_catalog()
        self.run_until_idle()

    def drop_view(self, bucket: str, design: str, view: str) -> None:
        """Remove a view from the catalog and push it: each data node
        drops the view and its file when the push reaches it."""
        self.manager.catalog.drop_view(bucket, design, view)
        self.manager.push_catalog()

    # -- global secondary indexes (sections 3.3, 4.3.4) --------------------------------------

    def create_index(self, definition, nodes=None):
        """Create a GSI index from an :class:`IndexDefinition` (the N1QL
        CREATE INDEX statement compiles down to this)."""
        return self.gsi.create_index(definition, nodes)

    def drop_index(self, name: str) -> None:
        """Drop a GSI or view index everywhere it is hosted."""
        self.gsi.drop_index(name)

    # -- clients --------------------------------------------------------------------------

    def connect(self, *, service: str | None = "kv") -> SmartClient:
        """Create an application client (the SDK handle of section 3.1).
        ``service`` names the admission budget its ops draw on ("kv" for
        applications; the query engine connects with None, because each
        query is charged once at the front door)."""
        client = SmartClient(self.manager, self.network, self.scheduler,
                             admission=self.admission, service=service)
        client.cluster = self
        return client

    # -- N1QL (sections 3.2, 4.5) ------------------------------------------------------------

    def query(self, statement: str, params=None, *,
              scan_consistency: str = "not_bounded",
              consistent_with=None):
        """Route a N1QL statement to a query-service node (SDKs "can
        route N1QL queries to any one of the nodes running the query
        service", section 4.5.1).  ``consistent_with`` takes the
        MutationResult tokens of the caller's own writes for at_plus
        (read-your-own-writes) consistency."""
        node = self.service_node(Service.QUERY)
        return node.query_service.query(statement, params,
                                        scan_consistency=scan_consistency,
                                        consistent_with=consistent_with)

    # -- operations ------------------------------------------------------------------------

    def rebalance(self) -> dict:
        """Redistribute vBuckets over the current nodes (section 4.3.1);
        returns per-bucket move counts."""
        report = self.rebalancer.rebalance()
        self.run_until_idle()
        return report

    def failover(self, node_name: str) -> dict:
        """Manual (administrator-initiated) failover."""
        report = self.manager.failover(node_name)
        self.run_until_idle()
        return report

    def crash_node(self, name: str) -> None:
        """Simulate a node death; auto-failover (if enabled) fires after
        the detection timeout of virtual time passes (see :meth:`tick`)."""
        self.network.set_down(name)
        self.node(name).alive = False
        self.run_until_idle()

    def restart_node(self, name: str) -> None:
        """Bring a crashed node back as a restarted process: memory is
        gone, the disk files survive.  Each bucket closes and reopens
        over the surviving disk (warmup, views replay their streams from
        seqno 0), and the node resumes whatever role the current cluster
        map assigns it.  Each bucket's map is
        then republished under a new revision: a restart is a new
        connection, so every active's replication streams reconnect and
        their handshake reads what this node's replicas kept on disk,
        re-sending the tail the restart lost.  The node reconciles to the
        catalog from empty: every view and GSI instance is made afresh,
        and the file of one dropped meanwhile goes.  Each ready GSI index
        hosted here is then renewed and built like a new one, from every
        projector's streams at seqno 0; a data node that is down delays
        its rows."""
        node = self.node(name)
        manager = self.manager
        self.network.set_down(name, False)
        node.alive = True
        if node.indexer is not None:
            node.indexer.indexer.instances.clear()
        for bucket, config in manager.bucket_configs.items():
            manager.close_bucket(node, bucket)
            manager.open_bucket(node, config)
        node.apply_catalog(manager.catalog)
        for bucket, cluster_map in manager.cluster_maps.items():
            republished = manager.cluster_maps[bucket] = cluster_map.copy()
            republished.revision += 1
            manager.push_map(bucket)
        for meta in manager.catalog.placed_on(name).values():
            if meta.state == "ready":
                manager.catalog.renew(meta)
                self.gsi._build(meta)
        self.run_until_idle()

    # -- time ------------------------------------------------------------------------------------

    def run_until_idle(self) -> int:
        """Drain all asynchronous work (flushers, replication, indexers)."""
        return self.scheduler.run_until_idle()

    def tick(self, seconds: float) -> None:
        """Advance virtual time and let everything settle."""
        self.scheduler.advance(seconds)
        self.run_until_idle()

    # -- service lookup (used by clients and the query path) -----------------------------------------

    def service_node(self, service: Service) -> Node:
        """The first live node, by name, running the given service (MDS
        placement), from the manager's per-service node list."""
        for name in self.manager.nodes_with_service(service):
            if not self.network.is_down(name):
                return self.manager.nodes[name]
        raise ServiceUnavailableError(service.value)

    def stats(self) -> dict:
        """Cluster-wide status snapshot (nodes, orchestrator, maps)."""
        return self.manager.stats()
