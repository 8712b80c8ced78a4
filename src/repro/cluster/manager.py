"""The cluster manager.

Section 4.3.1: the cluster manager "supervises server configuration and
interaction across all servers within a cluster"; the nodes elect an
**orchestrator** to watch cluster conditions, and if a node becomes
unavailable the orchestrator promotes that node's replica partitions to
active (**failover**), updates the cluster map everywhere, and clients
carry on.  If the orchestrator itself dies, the survivors elect a new
one immediately.

Election here is the classic deterministic rule -- the lowest-named
reachable node wins -- which gives the same observable behaviour as the
paper's description (there is always exactly one orchestrator among the
live nodes, and it changes instantly when the incumbent dies) without a
full consensus protocol, which the paper does not describe either.
"""

from __future__ import annotations

from ..common.clock import Clock
from ..common.contracts import declared_raises
from ..common.errors import (
    BucketExistsError,
    BucketNotFoundError,
    NodeExistsError,
    NodeNotFoundError,
    NoQuorumError,
)
from ..common.scheduler import Scheduler, pump_name
from ..common.transport import Network
from ..dcp.producer import DcpProducer
from ..kv.engine import KVEngine
from ..kv.types import VBucketState
from ..replication.intra import IntraReplicator
from .catalog import Catalog
from .cluster_map import ClusterMap, plan_map
from .node import Node
from ..common.services import BucketConfig, Service


class ClusterManager:
    """Membership, election, failure detection, failover, map pushing."""

    #: Seconds a node must stay unreachable before auto-failover fires
    #: (the real server defaults to 30; scaled down for virtual time).
    AUTO_FAILOVER_TIMEOUT = 30.0

    def __init__(self, network: Network, scheduler: Scheduler,
                 auto_failover: bool = True):
        self.network = network
        self.scheduler = scheduler
        self.clock: Clock = scheduler.clock
        self.auto_failover = auto_failover
        self.nodes: dict[str, Node] = {}
        self.bucket_configs: dict[str, BucketConfig] = {}
        self.cluster_maps: dict[str, ClusterMap] = {}
        #: Every bucket's design documents, GSI and view indexes (the
        #: ledger reads the GSI indexes under the older name).
        self.catalog = self.index_registry = Catalog()
        #: node -> the catalog epoch and the map revision per bucket it
        #: acknowledged (an empty catalog and no map until a push).
        self.acked: dict[str, tuple[int, dict[str, int]]] = {}
        #: Nodes administratively removed or failed over; changed only
        #: through :meth:`add_node` and :meth:`eject`.
        self.ejected: set[str] = set()
        #: Per service, the names of its nodes that are not ejected,
        #: sorted: recomputed by each change of membership (add, remove,
        #: failover, a removed node added back), read by every query.
        self._service_nodes: dict[Service, list[str]] = {
            service: [] for service in Service}
        #: node -> virtual time its unreachability was first noticed.
        self._suspects: dict[str, float] = {}
        #: History of (time, event, detail) tuples for observability.
        self.event_log: list[tuple[float, str, str]] = []
        scheduler.register("cluster-manager", self._pump)

    # -- membership -----------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise NodeExistsError(node.name)
        self.nodes[node.name] = node
        self.ejected.discard(node.name)
        self._membership_changed()
        self._log("node-added", node.name)
        # New data nodes open existing buckets; vBuckets arrive via
        # rebalance, the maps and views with the push.
        for config in self.bucket_configs.values():
            self.open_bucket(node, config)
        self.push_catalog()

    def remove_node(self, name: str) -> None:
        """Forget a node the rebalance has emptied, closing its buckets,
        and what it acknowledged."""
        node = self.nodes.pop(name)
        self._membership_changed()
        self.acked.pop(name, None)
        for bucket in self.bucket_configs:
            self.close_bucket(node, bucket)

    def data_nodes(self) -> list[str]:
        return self.nodes_with_service(Service.DATA)

    def nodes_with_service(self, service: Service) -> list[str]:
        """The service's nodes that are not ejected, by name: the
        manager's own list, to be read, not changed."""
        return self._service_nodes[service]

    def eject(self, name: str) -> None:
        """Take a node out of service (a failover, or the first step of
        its removal); it stays a member until :meth:`remove_node`."""
        self.ejected.add(name)
        self._membership_changed()

    def _membership_changed(self) -> None:
        self._service_nodes = {
            service: sorted(name for name, node in self.nodes.items()
                            if node.has_service(service)
                            and name not in self.ejected)
            for service in Service}

    def live_nodes(self) -> list[str]:
        return sorted(
            name for name in self.nodes
            if name not in self.ejected and not self.network.is_down(name)
        )

    @property
    def orchestrator(self) -> str:
        """The elected orchestrator: lowest-named live node."""
        live = self.live_nodes()
        if not live:
            raise NoQuorumError("no live nodes to elect an orchestrator")
        return live[0]

    # -- buckets -----------------------------------------------------------------------

    def create_bucket(self, config: BucketConfig,
                      num_vbuckets: int = 1024) -> ClusterMap:
        if config.name in self.bucket_configs:
            raise BucketExistsError(config.name)
        data_nodes = self.data_nodes()
        if not data_nodes:
            raise NoQuorumError("no data-service nodes available")
        self.bucket_configs[config.name] = config
        self.catalog.add_bucket(config.name)
        for name in data_nodes:
            self.open_bucket(self.nodes[name], config)
        cluster_map = plan_map(
            data_nodes, num_vbuckets=num_vbuckets,
            num_replicas=config.num_replicas,
        )
        self.cluster_maps[config.name] = cluster_map
        self.push_map(config.name)
        self._log("bucket-created", config.name)
        return cluster_map

    def drop_bucket(self, name: str) -> None:
        """Drop a bucket: every node discards its vBucket files and
        closes it, and the catalog push drops its views and indexes."""
        if name not in self.bucket_configs:
            raise BucketNotFoundError(name)
        del self.bucket_configs[name]
        del self.cluster_maps[name]
        self.catalog.drop_bucket(name)
        for node in self.nodes.values():
            self._discard_bucket(node, name)
            self.close_bucket(node, name)
        # A bucket created again may reuse a map revision some node
        # acknowledged: every node gets the maps again.
        self.acked.clear()
        self.push_catalog()
        self._log("bucket-dropped", name)

    # -- a bucket on a node: one way up, one way down --------------------------------

    #: A data node's pumps for one bucket, in registration order.  The
    #: default schedule runs pumps in that order, so every seed-exact
    #: count depends on it.
    BUCKET_PUMPS = ("flusher", "replicator", "views", "projector", "compactor")

    def open_bucket(self, node: Node, config: BucketConfig) -> None:
        """Bring a bucket up on a data node from whatever its disk holds:
        build the KV engine, DCP producer, an empty view engine,
        replicator and projector, register their pumps (the compactor
        only with a compaction threshold) and the expiry pager, apply
        the current map and warm up.  The catalog push that follows
        defines the bucket's views (:meth:`Node.apply_catalog`)."""
        if not node.has_service(Service.DATA):
            return
        from ..gsi.projector import Projector
        from ..views.engine import ViewEngine
        bucket = config.name
        engine = node.engines[bucket] = KVEngine(
            node.name, bucket, disk=node.disk, clock=node.clock,
            quota_bytes=config.quota_bytes,
            eviction_policy=config.eviction_policy, metrics=node.metrics)
        node.producers[bucket] = DcpProducer(engine, name=f"{node.name}/{bucket}")
        views = node.view_engines[bucket] = ViewEngine(node, bucket)
        replicator = node.replicators[bucket] = IntraReplicator(
            node, bucket, self.network)
        projector = node.projectors[bucket] = Projector(
            node, bucket, self.catalog, self.network)
        pumps = [lambda: bool(node.alive) and engine.flush(),
                 replicator.pump, views.pump, projector.pump]
        threshold = config.compaction_threshold
        if threshold is not None:
            pumps.append(
                lambda: bool(node.alive) and engine.run_compactor(threshold))
        for kind, pump in zip(self.BUCKET_PUMPS, pumps):
            self.scheduler.register(pump_name(kind, node.name, bucket), pump)
        if config.expiry_pager_interval is not None:
            self._arm_expiry_pager(node, bucket, config.expiry_pager_interval)
        if bucket in self.cluster_maps:
            node.apply_cluster_map(bucket, self.cluster_maps[bucket])
        engine.warmup()

    def close_bucket(self, node: Node, bucket: str) -> None:
        """Take a bucket down on a node: unregister its pumps and drop its
        in-memory state.  Its files stay on disk."""
        for kind in self.BUCKET_PUMPS:
            self.scheduler.unregister(pump_name(kind, node.name, bucket))
        node.engines.pop(bucket, None)
        node.producers.pop(bucket, None)
        node.view_engines.pop(bucket, None)
        node.replicators.pop(bucket, None)
        node.projectors.pop(bucket, None)
        node.cluster_maps.pop(bucket, None)

    @staticmethod
    def _discard_bucket(node: Node, bucket: str) -> None:
        """Destroy each vBucket file a node keeps for a bucket, by the
        DEAD-then-drop path."""
        engine = node.engines.get(bucket)
        if engine is None:
            return
        for vbucket_id in list(engine.vbuckets):
            engine.set_vbucket_state(vbucket_id, VBucketState.DEAD)
            engine.drop_vbucket(vbucket_id)

    def _arm_expiry_pager(self, node: Node, bucket: str,
                          interval: float) -> None:
        """Recurring virtual-time sweep turning expired docs into delete
        mutations; re-arms itself while the bucket stays open on the
        node."""
        engine = node.engines.get(bucket)

        @declared_raises('TemporaryFailureError')
        def fire() -> None:
            if node.engines.get(bucket) is not engine:
                return  # bucket closed; stop re-arming
            if node.alive:
                engine.run_expiry_pager()
            self.scheduler.call_later(interval, fire)

        self.scheduler.call_later(interval, fire)

    # -- pushing maps and the catalog: one rule ---------------------------------------

    def _reachable(self) -> list[str]:
        return [name for name in self.nodes if name not in self.ejected
                and self.network.reachable("cluster-manager", name)]

    def push_map(self, bucket: str) -> None:
        """Push the bucket's map to every reachable node (clients pick it
        up on their next refresh)."""
        self._push(self._reachable(), bucket)

    def push_catalog(self) -> None:
        """Push the catalog to every reachable node; each reconciles to
        it (:meth:`Node.apply_catalog`)."""
        self._push(self._reachable())

    def _current(self) -> tuple[int, dict[str, int]]:
        """What an up-to-date node has acknowledged."""
        return self.catalog.epoch, {
            bucket: cluster_map.revision
            for bucket, cluster_map in self.cluster_maps.items()}

    def _push(self, names: list[str], bucket: str | None = None) -> bool:
        """The one push rule: each map, and then the catalog, goes in one
        wave to those of ``names`` whose acknowledged revision lags --
        ``bucket``'s map to all of them -- and they are recorded as up to
        date.  The heartbeat sweep runs it once a reachable node lags, so
        one that was unreachable catches up.  True if it pushed."""
        epoch, revisions = current = self._current()
        acked = [self.acked.get(name, (0, {})) for name in names]
        pushed = []
        for each, cluster_map in self.cluster_maps.items():
            lagging = [name for name, (_, maps) in zip(names, acked)
                       if each == bucket or maps.get(each) != revisions[each]]
            self.network.call_fanout("cluster-manager", lagging,
                                     "apply_cluster_map", each, cluster_map)
            pushed += lagging
        lagging = [name for name, (seen, _) in zip(names, acked)
                   if seen != epoch]
        self.network.call_fanout("cluster-manager", lagging,
                                 "apply_catalog", self.catalog)
        self.acked.update(dict.fromkeys(names, current))
        return bool(pushed or lagging)

    # -- failure detection & failover ------------------------------------------------------

    @declared_raises('CorruptFileError', 'InvalidArgumentError',
                     'NodeNotFoundError')
    def _pump(self) -> bool:
        """Heartbeat sweep: notice unreachable nodes; auto-failover those
        unreachable longer than the timeout; re-push a map or the catalog
        to each reachable node whose acknowledged revision lags."""
        progressed = behind = False
        now = self.clock.now()
        current = self._current()
        for name in list(self.nodes):
            if name in self.ejected:
                continue
            if not self.network.is_down(name):
                if name in self._suspects:
                    del self._suspects[name]
                    self._log("node-recovered", name)
                    progressed = True
                behind = behind or self.acked.get(name, (0, {})) != current
                continue
            if name not in self._suspects:
                self._suspects[name] = now
                self._log("node-suspect", name)
                progressed = True
            elif (
                self.auto_failover
                and now - self._suspects[name] >= self.AUTO_FAILOVER_TIMEOUT
            ):
                self.failover(name)
                progressed = True
        if behind:
            progressed = self._push(self._reachable()) or progressed
        return progressed

    def failover(self, node_name: str) -> dict:
        """Promote replicas for every vBucket whose active copy lived on
        ``node_name`` and eject the node.  Returns per-bucket counts of
        promoted and (replica-less) lost vBuckets."""
        if node_name not in self.nodes:
            raise NodeNotFoundError(node_name)
        self.eject(node_name)
        self._suspects.pop(node_name, None)
        report: dict[str, dict] = {}
        for bucket, cluster_map in self.cluster_maps.items():
            promoted = lost = 0
            new_map = cluster_map.copy()
            for chain in new_map.chains:
                if node_name in chain:
                    was_active = chain[0] == node_name
                    chain[:] = [n for n in chain if n != node_name]
                    chain += [None] * (cluster_map.num_replicas + 1 - len(chain))
                    if was_active:
                        if chain[0] is not None:
                            promoted += 1
                        else:
                            lost += 1
            new_map.revision += 1
            self.cluster_maps[bucket] = new_map
            self.push_map(bucket)
            # If the failed-over node is merely partitioned off from the
            # clients' perspective but still reachable by the manager,
            # demote its vBuckets so it cannot serve stale data to a
            # client holding an old map.
            if self.network.reachable("cluster-manager", node_name):
                self._push([node_name], bucket)
            report[bucket] = {"promoted": promoted, "lost": lost}
        self._log("failover", node_name)
        return report

    # -- internals --------------------------------------------------------------------

    #: Retained observability-event history.  The log is fed from the
    #: failure-detector pump, so without a cap a long-running cluster
    #: accumulates events forever (found by the bounds checks).
    EVENT_LOG_LIMIT = 512

    def _log(self, event: str, detail: str) -> None:
        self.event_log.append((self.clock.now(), event, detail))
        if len(self.event_log) > self.EVENT_LOG_LIMIT:
            del self.event_log[: len(self.event_log) - self.EVENT_LOG_LIMIT]

    def stats(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "live": self.live_nodes(),
            "ejected": sorted(self.ejected),
            "orchestrator": self.orchestrator if self.live_nodes() else None,
            "buckets": {
                name: cluster_map.stats()
                for name, cluster_map in self.cluster_maps.items()
            },
        }
