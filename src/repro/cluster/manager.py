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
    NodeDownError,
    NodeExistsError,
    NodeNotFoundError,
    NoQuorumError,
)
from ..common.scheduler import Scheduler
from ..common.transport import Network
from ..replication.intra import IntraReplicator
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
        #: bucket -> {(design, view): ViewDefinition}; the cluster-wide
        #: design-document registry pushed to joining nodes.
        self.design_docs: dict[str, dict] = {}
        #: Bumped on keyspace DDL (create/drop bucket); the query service
        #: folds it into the plan-cache epoch.
        self.ddl_epoch = 0
        from ..gsi.manager import IndexRegistry
        #: Cluster-wide GSI metadata, consulted by projectors and the
        #: N1QL planner.
        self.index_registry = IndexRegistry()
        self.replicators: dict[tuple[str, str], IntraReplicator] = {}
        #: Nodes administratively removed or failed over.
        self.ejected: set[str] = set()
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
        self._log("node-added", node.name)
        # New data nodes get engines for existing buckets; vBuckets arrive
        # via rebalance.
        for config in self.bucket_configs.values():
            node.create_bucket(config)
            self._wire_bucket_pumps(node, config.name)
            if config.name in self.cluster_maps:
                node.apply_cluster_map(config.name, self.cluster_maps[config.name])
            for definition in self.design_docs.get(config.name, {}).values():
                node.view_define(config.name, definition)

    def data_nodes(self, include_ejected: bool = False) -> list[str]:
        return sorted(
            name for name, node in self.nodes.items()
            if node.has_service(Service.DATA)
            and (include_ejected or name not in self.ejected)
        )

    def nodes_with_service(self, service: Service) -> list[str]:
        return sorted(
            name for name, node in self.nodes.items()
            if node.has_service(service) and name not in self.ejected
        )

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
        self.ddl_epoch += 1
        cluster_map = plan_map(
            data_nodes, num_vbuckets=num_vbuckets,
            num_replicas=config.num_replicas,
        )
        self.cluster_maps[config.name] = cluster_map
        for name in data_nodes:
            node = self.nodes[name]
            node.create_bucket(config)
            self._wire_bucket_pumps(node, config.name)
        self.push_map(config.name)
        self._log("bucket-created", config.name)
        return cluster_map

    def drop_bucket(self, name: str) -> None:
        if name not in self.bucket_configs:
            raise BucketNotFoundError(name)
        del self.bucket_configs[name]
        del self.cluster_maps[name]
        self.ddl_epoch += 1
        for node in self.nodes.values():
            self.scheduler.unregister(f"flusher/{node.name}/{name}")
            self.scheduler.unregister(f"replicator/{node.name}/{name}")
            self.scheduler.unregister(f"views/{node.name}/{name}")
            self.scheduler.unregister(f"projector/{node.name}/{name}")
            self.scheduler.unregister(f"compactor/{node.name}/{name}")
            self.replicators.pop((node.name, name), None)
            node.drop_bucket(name)
        self._log("bucket-dropped", name)

    def _wire_bucket_pumps(self, node: Node, bucket: str) -> None:
        if not node.has_service(Service.DATA):
            return
        engine = node.engines.get(bucket)
        if engine is None:
            return
        flusher_name = f"flusher/{node.name}/{bucket}"
        if flusher_name not in self.scheduler.pump_names():
            self.scheduler.register(
                flusher_name,
                lambda e=engine, n=node: bool(n.alive) and e.flush(),
            )
        replicator_name = f"replicator/{node.name}/{bucket}"
        if replicator_name not in self.scheduler.pump_names():
            replicator = IntraReplicator(node, bucket, self.network)
            self.replicators[(node.name, bucket)] = replicator
            node.replicators[bucket] = replicator
            self.scheduler.register(replicator_name, replicator.pump)
        view_engine = node.view_engines.get(bucket)
        if view_engine is not None:
            view_pump_name = f"views/{node.name}/{bucket}"
            if view_pump_name not in self.scheduler.pump_names():
                self.scheduler.register(view_pump_name, view_engine.pump)
        from ..gsi.projector import Projector
        projector_name = f"projector/{node.name}/{bucket}"
        if projector_name not in self.scheduler.pump_names():
            projector = Projector(node, bucket, self.index_registry,
                                  self.network)
            self.scheduler.register(projector_name, projector.pump)
        config = self.bucket_configs.get(bucket)
        if config is not None and config.compaction_threshold is not None:
            compactor_name = f"compactor/{node.name}/{bucket}"
            if compactor_name not in self.scheduler.pump_names():
                threshold = config.compaction_threshold
                self.scheduler.register(
                    compactor_name,
                    lambda e=engine, n=node, t=threshold: (
                        bool(n.alive) and e.run_compactor(t)
                    ),
                )
        if config is not None and config.expiry_pager_interval is not None:
            self._arm_expiry_pager(node, bucket, config.expiry_pager_interval)

    def _arm_expiry_pager(self, node: Node, bucket: str,
                          interval: float) -> None:
        """Recurring virtual-time sweep turning expired docs into delete
        mutations; re-arms itself while the bucket exists on the node."""
        engine = node.engines.get(bucket)

        @declared_raises('TemporaryFailureError')
        def fire() -> None:
            if node.engines.get(bucket) is not engine:
                return  # bucket dropped; stop re-arming
            if node.alive:
                engine.run_expiry_pager()
            self.scheduler.call_later(interval, fire)

        self.scheduler.call_later(interval, fire)

    def push_map(self, bucket: str) -> None:
        """Stream the current map to every reachable node (and clients
        pick it up on their next refresh)."""
        cluster_map = self.cluster_maps[bucket]
        for name, node in self.nodes.items():
            if name in self.ejected:
                continue
            try:
                # Control plane: one RPC per *node* on a map change,
                # O(nodes) and rare -- not per-document fan-out.
                # repro: disable-next=n-plus-one-rpc
                self.network.call("cluster-manager", name, "apply_cluster_map",
                                  bucket, cluster_map)
            # Down nodes pick the map up from the manager when they reconnect.
            # repro: disable-next=swallowed-exception
            except NodeDownError:
                continue

    # -- failure detection & failover ------------------------------------------------------

    @declared_raises('CorruptFileError', 'InvalidArgumentError',
                     'NodeNotFoundError')
    def _pump(self) -> bool:
        """Heartbeat sweep: notice unreachable nodes; auto-failover those
        unreachable longer than the timeout."""
        progressed = False
        now = self.clock.now()
        for name in list(self.nodes):
            if name in self.ejected:
                continue
            reachable = not self.network.is_down(name)
            if reachable:
                if name in self._suspects:
                    del self._suspects[name]
                    self._log("node-recovered", name)
                    progressed = True
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
        return progressed

    def failover(self, node_name: str) -> dict:
        """Promote replicas for every vBucket whose active copy lived on
        ``node_name`` and eject the node.  Returns per-bucket counts of
        promoted and (replica-less) lost vBuckets."""
        if node_name not in self.nodes:
            raise NodeNotFoundError(node_name)
        self.ejected.add(node_name)
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
            try:
                # One demotion RPC per bucket during a failover -- a rare
                # control-plane event bounded by bucket count.
                # repro: disable-next=n-plus-one-rpc
                self.network.call("cluster-manager", node_name,
                                  "apply_cluster_map", bucket, new_map)
            # Demotion is best-effort: a truly dead node has nothing to demote.
            # repro: disable-next=swallowed-exception
            except NodeDownError:
                pass
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
