"""A cluster node.

Section 4.3: every node runs the cluster manager; beyond that, a node
hosts whichever services it was provisioned with (multi-dimensional
scaling).  A data-service node carries KV engines (one per bucket), a
DCP producer per bucket, the view engine, and the GSI projector/router;
index- and query-service components attach through the ``indexer`` and
``query_service`` slots, wired up by the :class:`repro.server.Cluster`
facade.

All inter-node traffic flows through the :class:`Network` fabric so that
fault injection applies, and the node's RPC surface is the set of
``kv_*`` methods below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..common.clock import Clock
from ..common.disk import SimulatedDisk
from ..common.document import Document
from ..common.errors import BucketNotFoundError, declared_raises
from ..common.metrics import MetricsRegistry
from ..common.transport import Network
from ..dcp.producer import DcpProducer
from ..kv.engine import KVEngine
from ..kv.types import MutationResult, ObserveResult, VBucketState
from .cluster_map import ClusterMap
from ..common.services import BucketConfig, Service

if TYPE_CHECKING:  # pragma: no cover
    from ..gsi.manager import IndexService
    from ..n1ql.service import QueryService
    from ..views.engine import ViewEngine


class Node:
    """One server in the cluster."""

    def __init__(
        self,
        name: str,
        network: Network,
        clock: Clock,
        services: set[Service] = frozenset({Service.DATA}),
    ):
        self.name = name
        self.network = network
        self.clock = clock
        self.services = set(services)
        self.disk = SimulatedDisk()
        self.metrics = MetricsRegistry()
        self.engines: dict[str, KVEngine] = {}
        self.producers: dict[str, DcpProducer] = {}
        self.view_engines: dict[str, "ViewEngine"] = {}
        self.indexer: "IndexService | None" = None
        self.query_service: "QueryService | None" = None
        #: Latest cluster map per bucket, as pushed by the manager.
        self.cluster_maps: dict[str, ClusterMap] = {}
        self.alive = True
        network.register(name, self)

    def __repr__(self) -> str:
        return f"<Node {self.name} services={sorted(s.value for s in self.services)}>"

    def has_service(self, service: Service) -> bool:
        return service in self.services

    # -- bucket lifecycle -----------------------------------------------------

    def create_bucket(self, config: BucketConfig) -> None:
        if not self.has_service(Service.DATA):
            return
        if config.name in self.engines:
            return
        self.engines[config.name] = KVEngine(
            self.name,
            config.name,
            disk=self.disk,
            clock=self.clock,
            quota_bytes=config.quota_bytes,
            eviction_policy=config.eviction_policy,
            metrics=self.metrics,
        )
        self.producers[config.name] = DcpProducer(
            self.engines[config.name], name=f"{self.name}/{config.name}"
        )
        from ..views.engine import ViewEngine
        self.view_engines[config.name] = ViewEngine(self, config.name)

    def drop_bucket(self, name: str) -> None:
        self.engines.pop(name, None)
        self.producers.pop(name, None)
        self.view_engines.pop(name, None)
        self.cluster_maps.pop(name, None)

    def engine(self, bucket: str) -> KVEngine:
        engine = self.engines.get(bucket)
        if engine is None:
            raise BucketNotFoundError(bucket)
        return engine

    def producer(self, bucket: str) -> DcpProducer:
        producer = self.producers.get(bucket)
        if producer is None:
            raise BucketNotFoundError(bucket)
        return producer

    # -- cluster map application -------------------------------------------------

    @declared_raises('CorruptFileError', 'InvalidArgumentError')
    def apply_cluster_map(self, bucket: str, cluster_map: ClusterMap) -> None:
        """Reconcile local vBucket states with the authoritative map.

        Active here -> ensure an active vBucket (promoting a replica, the
        failover path); replica here -> ensure a replica vBucket; not in
        the chain -> mark dead and drop."""
        self.cluster_maps[bucket] = cluster_map
        engine = self.engines.get(bucket)
        if engine is None:
            return
        for vb in range(cluster_map.num_vbuckets):
            chain = cluster_map.chains[vb]
            if chain[0] == self.name:
                desired = VBucketState.ACTIVE
            elif self.name in chain[1:]:
                desired = VBucketState.REPLICA
            else:
                desired = None
            current = engine.vbuckets.get(vb)
            if desired is None:
                if current is not None:
                    engine.set_vbucket_state(vb, VBucketState.DEAD)
                    engine.drop_vbucket(vb)
                continue
            if current is None:
                engine.create_vbucket(vb, desired)
            elif current.state is not desired:
                engine.set_vbucket_state(vb, desired)

    # -- KV RPC surface (what smart clients call) ------------------------------------

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def kv_get(self, bucket: str, vbucket_id: int, key: str) -> Document:
        return self.engine(bucket).get(vbucket_id, key)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'DocumentLockedError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def kv_upsert(self, bucket: str, vbucket_id: int, key: str, value,
                  cas: int = 0, expiry: float = 0.0, flags: int = 0) -> MutationResult:
        return self.engine(bucket).upsert(
            vbucket_id, key, value, cas=cas, expiry=expiry, flags=flags
        )

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyExistsError',
                     'KeyNotFoundError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def kv_insert(self, bucket: str, vbucket_id: int, key: str, value,
                  expiry: float = 0.0, flags: int = 0) -> MutationResult:
        return self.engine(bucket).insert(
            vbucket_id, key, value, expiry=expiry, flags=flags
        )

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def kv_replace(self, bucket: str, vbucket_id: int, key: str, value,
                   cas: int = 0, expiry: float = 0.0, flags: int = 0) -> MutationResult:
        return self.engine(bucket).replace(
            vbucket_id, key, value, cas=cas, expiry=expiry, flags=flags
        )

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def kv_delete(self, bucket: str, vbucket_id: int, key: str,
                  cas: int = 0) -> MutationResult:
        return self.engine(bucket).delete(vbucket_id, key, cas=cas)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def kv_touch(self, bucket: str, vbucket_id: int, key: str,
                 expiry: float) -> MutationResult:
        return self.engine(bucket).touch(vbucket_id, key, expiry)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'DocumentLockedError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def kv_get_and_lock(self, bucket: str, vbucket_id: int, key: str,
                        lock_time: float | None = None) -> Document:
        return self.engine(bucket).get_and_lock(vbucket_id, key, lock_time)

    @declared_raises('BucketNotFoundError', 'DocumentLockedError',
                     'KeyNotFoundError', 'NotMyVBucketError',
                     'TemporaryFailureError')
    def kv_unlock(self, bucket: str, vbucket_id: int, key: str, cas: int) -> None:
        self.engine(bucket).unlock(vbucket_id, key, cas)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'NotMyVBucketError')
    def kv_observe(self, bucket: str, vbucket_id: int, key: str) -> ObserveResult:
        return self.engine(bucket).observe(vbucket_id, key)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def kv_counter(self, bucket: str, vbucket_id: int, key: str, delta: int,
                   initial: int | None = None):
        return self.engine(bucket).counter(vbucket_id, key, delta,
                                           initial=initial)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def kv_lookup_in(self, bucket: str, vbucket_id: int, key: str,
                     paths: list) -> list:
        return self.engine(bucket).lookup_in(vbucket_id, key, paths)

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def kv_mutate_in(self, bucket: str, vbucket_id: int, key: str,
                     operations: list, cas: int = 0) -> MutationResult:
        return self.engine(bucket).mutate_in(vbucket_id, key, operations,
                                             cas=cas)

    # -- batched KV RPC surface (one network call serves many keys) -------------------

    @declared_raises('BucketNotFoundError')
    def kv_multi_get(self, bucket: str,
                     items: list[tuple[int, str]]) -> list[tuple[str, object]]:
        """Batch point lookups for keys this node hosts: one RPC, one
        per-item outcome each (``("ok", Document)`` / ``("err", error)``)."""
        return self.engine(bucket).multi_get(items)

    @declared_raises('BucketNotFoundError', 'InvalidArgumentError')
    def kv_multi_mutate(self, bucket: str,
                        ops: list[tuple[str, int, str, dict]]) -> list[tuple[str, object]]:
        """Batch mutations (upsert/insert/replace/delete) with per-op
        outcomes; see :meth:`repro.kv.engine.KVEngine.multi_mutate`."""
        return self.engine(bucket).multi_mutate(ops)

    # -- replication RPC surface ----------------------------------------------------

    @declared_raises('BucketNotFoundError', 'NotMyVBucketError')
    def kv_replica_apply_batch(self, bucket: str, vbucket_id: int,
                               docs: list[Document]) -> None:
        """Replication inbound, batched: one RPC applies one DCP stream
        batch for one vBucket (the replica-side mirror of
        :meth:`kv_multi_mutate`)."""
        self.engine(bucket).apply_replicated_batch(vbucket_id, docs)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def kv_set_with_meta(self, bucket: str, vbucket_id: int,
                         doc: Document) -> bool:
        """XDCR inbound: apply a remote-cluster mutation after conflict
        resolution.  Routed through the fabric so a down or partitioned
        target node rejects pushes like any other RPC."""
        return self.engine(bucket).set_with_meta(vbucket_id, doc)

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError')
    def kv_reset_replica(self, bucket: str, vbucket_id: int) -> None:
        """Blow away a divergent replica so replication can rebuild it
        from seqno 0 (the rollback-to-zero recovery path)."""
        engine = self.engine(bucket)
        vb = engine.vbuckets.get(vbucket_id)
        engine.drop_vbucket(vbucket_id)
        if vb is not None:
            # ``create_vbucket`` recovers whatever the old file holds;
            # a rollback-to-zero rebuild must start from empty disk.
            vb.store.destroy()
        engine.create_vbucket(vbucket_id, VBucketState.REPLICA)

    @declared_raises('BucketNotFoundError')
    def kv_replica_stream_state(self, bucket: str,
                                vbucket_id: int) -> tuple:
        """What a resuming producer needs: the lineage uuid this replica
        last synced under (None if it never synced) and its high seqno."""
        vb = self.engine(bucket).vbuckets.get(vbucket_id)
        if vb is None:
            return (None, 0)
        uuid = (vb.source_failover_log[-1][0]
                if vb.source_failover_log else None)
        return (uuid, vb.high_seqno)

    @declared_raises('BucketNotFoundError')
    def kv_adopt_failover_log(self, bucket: str, vbucket_id: int,
                              log: list) -> None:
        """Producer hands its failover log to the replica at stream open
        (real DCP consumers persist the producer's log for exactly this
        lineage bookkeeping)."""
        vb = self.engine(bucket).vbuckets.get(vbucket_id)
        if vb is not None:
            vb.source_failover_log = [tuple(entry) for entry in log]

    # -- view RPC surface (scatter/gather targets, section 4.3.3) ------------------------

    @declared_raises('CorruptFileError', 'InvalidArgumentError',
                     'ViewNotFoundError', 'ViewQueryError')
    def view_query_local(self, bucket: str, design: str, view: str, params) -> dict:
        return self.view_engines[bucket].local_query(design, view, params)

    @declared_raises('CorruptFileError', 'DiskFullError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'ViewExistsError')
    def view_define(self, bucket: str, definition) -> None:
        self.view_engines[bucket].define_view(definition)

    @declared_raises('ViewNotFoundError')
    def view_drop(self, bucket: str, design: str, view: str) -> None:
        self.view_engines[bucket].drop_view(design, view)

    # -- health ------------------------------------------------------------------------

    def ping(self) -> str:
        return "pong"

    def stats(self) -> dict:
        return {
            "name": self.name,
            "services": sorted(s.value for s in self.services),
            "buckets": {name: e.stats() for name, e in self.engines.items()},
        }
