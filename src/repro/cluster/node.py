"""A cluster node.

Section 4.3: every node runs the cluster manager; beyond that, a node
hosts whichever services it was provisioned with (multi-dimensional
scaling).  A data-service node carries, per bucket, a KV engine, a DCP
producer, a view engine, an intra-cluster replicator and a GSI
projector, in the tables below; the cluster manager opens and closes
them together (:meth:`repro.cluster.manager.ClusterManager.open_bucket`
and :meth:`~repro.cluster.manager.ClusterManager.close_bucket`).
Index- and query-service components attach through the ``indexer`` and
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
from ..common.contracts import declared_raises
from ..common.document import Document
from ..common.errors import BucketNotFoundError, NotMyVBucketError, ReproError
from ..common.metrics import MetricsRegistry
from ..common.transport import Network
from ..dcp.producer import DcpProducer
from ..kv.engine import KVEngine
from ..kv.types import (DurabilityWait, MutationResult, ObserveResult,
                        SeqnoWaiter, VBucketState)
from .cluster_map import ClusterMap
from ..common.services import Service

if TYPE_CHECKING:  # pragma: no cover
    from ..gsi.manager import IndexService
    from ..gsi.projector import Projector
    from ..n1ql.service import QueryService
    from ..replication.intra import IntraReplicator
    from ..views.engine import ViewEngine

#: What a durable write returns: the mutation token and the wait the
#: active registered for it.
DurableResult = tuple[MutationResult, DurabilityWait]


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
        #: Per-bucket services, filled by the cluster manager's
        #: ``open_bucket`` and emptied by its ``close_bucket``.
        self.engines: dict[str, KVEngine] = {}
        self.producers: dict[str, DcpProducer] = {}
        self.view_engines: dict[str, "ViewEngine"] = {}
        self.replicators: dict[str, "IntraReplicator"] = {}
        self.projectors: dict[str, "Projector"] = {}
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

    # -- per-bucket lookups ------------------------------------------------------

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
        the chain -> mark dead and drop.  An index hosted here drops
        the rows of every vBucket the map leaves without an active."""
        self.cluster_maps[bucket] = cluster_map
        if self.indexer is not None:
            self.indexer.indexer.reset(bucket, [
                vb for vb, chain in enumerate(cluster_map.chains)
                if chain[0] is None])
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

    # -- catalog application -----------------------------------------------------

    @declared_raises('InvalidArgumentError')
    def apply_catalog(self, catalog) -> None:
        """Reconcile local views and GSI instances with the catalog, as
        :meth:`apply_cluster_map` does vBuckets: drop, file included,
        what the catalog no longer has or made again (another revision),
        make what is missing, and delete every file under ``views/`` and
        ``gsi/`` that nothing kept names."""
        keep: list[str] = []
        for bucket, views in self.view_engines.items():
            want = catalog.views(bucket)
            for key in _stale(views.indexes, want):
                views.drop_view(*key)
            for key, entry in want.items():
                if key not in views.indexes:
                    views.define_view(entry.definition, entry.revision)
            keep += [index.filename for index in views.indexes.values()]
        if self.indexer is not None:
            indexer = self.indexer.indexer
            want = catalog.placed_on(self.name)
            for name in _stale(indexer.instances, want):
                indexer.drop(name)
            for name, meta in want.items():
                if name not in indexer.instances:
                    indexer.create(meta.definition, meta.revision)
            keep += [instance.filename
                     for instance in indexer.instances.values()]
        for filename in self.disk.list_files():
            if filename.startswith(("views/", "gsi/")) \
                    and not filename.startswith(tuple(keep)):
                self.disk.delete(filename)

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
                  cas: int = 0, expiry: float = 0.0, flags: int = 0,
                  durability: tuple[int, int] | None = None
                  ) -> MutationResult | DurableResult:
        return self._durable(bucket, vbucket_id, key, durability,
                             self.engine(bucket).upsert(
                                 vbucket_id, key, value, cas=cas,
                                 expiry=expiry, flags=flags))

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyExistsError',
                     'KeyNotFoundError', 'NotMyVBucketError',
                     'TemporaryFailureError', 'ValueTooLargeError')
    def kv_insert(self, bucket: str, vbucket_id: int, key: str, value,
                  expiry: float = 0.0, flags: int = 0,
                  durability: tuple[int, int] | None = None
                  ) -> MutationResult | DurableResult:
        return self._durable(bucket, vbucket_id, key, durability,
                             self.engine(bucket).insert(
                                 vbucket_id, key, value, expiry=expiry,
                                 flags=flags))

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError',
                     'ValueTooLargeError')
    def kv_replace(self, bucket: str, vbucket_id: int, key: str, value,
                   cas: int = 0, expiry: float = 0.0, flags: int = 0,
                   durability: tuple[int, int] | None = None
                   ) -> MutationResult | DurableResult:
        return self._durable(bucket, vbucket_id, key, durability,
                             self.engine(bucket).replace(
                                 vbucket_id, key, value, cas=cas,
                                 expiry=expiry, flags=flags))

    @declared_raises('BucketNotFoundError', 'CasMismatchError',
                     'CorruptFileError', 'DocumentLockedError',
                     'InvalidArgumentError', 'KeyNotFoundError',
                     'NotMyVBucketError', 'TemporaryFailureError')
    def kv_delete(self, bucket: str, vbucket_id: int, key: str,
                  cas: int = 0, durability: tuple[int, int] | None = None
                  ) -> MutationResult | DurableResult:
        return self._durable(bucket, vbucket_id, key, durability,
                             self.engine(bucket).delete(vbucket_id, key,
                                                        cas=cas))

    def _durable(self, bucket: str, vbucket_id: int, key: str,
                 durability: tuple[int, int] | None,
                 result: MutationResult) -> MutationResult | DurableResult:
        """A write's reply: with a ``(replicate_to, persist_to)``, the
        wait for it is registered in the same call and rides back."""
        if durability is None:
            return result
        return result, self.kv_durability_wait(bucket, vbucket_id, key,
                                               result.cas, *durability)

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

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError')
    def kv_durability_wait(self, bucket: str, vbucket_id: int, key: str,
                           cas: int, replicate_to: int,
                           persist_to: int) -> DurabilityWait:
        """Register a durability wait on the mutation of ``key`` with
        ``cas``, at this node as its vBucket's active (section 2.3.2):
        this copy's waiter when ``persist_to`` counts it, and -- when a
        replica can count -- a registration the replicator carries to
        every replica in its next batch.  A durable write does the same
        in the write's own call."""
        engine = self.engine(bucket)
        wait = DurabilityWait(key, cas)
        if persist_to:
            wait.waiters.append(engine.observe_wait(vbucket_id, key, cas,
                                                    active=True))
        if replicate_to or persist_to > 1:
            self.replicators[bucket].register(vbucket_id, wait)
        return wait

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

    @declared_raises('BucketNotFoundError')
    def kv_replica_apply_batch(
            self, bucket: str, batches: list[tuple[int, list[Document]]],
            registrations: dict[int, list[tuple[str, int]]] | None = None
    ) -> list[tuple[str, object]]:
        """Replication inbound, batched: one RPC carries one source
        node's round of DCP stream batches for this node, one
        ``(vbucket_id, docs)`` per vBucket (the replica-side mirror of
        :meth:`kv_multi_mutate`).  Each vBucket's docs apply in stream
        order under its own ownership check, and the result holds one
        ``("ok", waiters)`` or ``("err", error)`` per vBucket, in order,
        so one misplaced vBucket never fails the others.
        ``registrations`` holds, by vBucket, the ``(key, cas)`` of each
        durability wait the source registered: once the vBucket's docs
        are applied, this copy registers a waiter for each, and the
        ``"ok"`` slot returns them in order (None when there are none)."""
        engine = self.engine(bucket)
        registrations = registrations or {}
        out: list[tuple[str, object]] = []
        for vbucket_id, docs in batches:
            due = registrations.get(vbucket_id)
            try:
                engine.apply_replicated_batch(vbucket_id, docs)
                waiters = None if due is None else [
                    engine.observe_wait(vbucket_id, key, cas, active=False)
                    for key, cas in due]
            except ReproError as error:
                out.append(("err", error))
                continue
            out.append(("ok", waiters))
        return out

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

    @declared_raises('BucketNotFoundError', 'NotMyVBucketError')
    def kv_replica_stream_state(self, bucket: str,
                                vbucket_id: int) -> tuple:
        """What a resuming producer needs: the lineage uuid this replica
        last synced under (None if it never synced) and its high seqno.
        Refused when the copy here is missing or active: there is nothing
        to stream into, and the handshake's rollback would reset an
        active copy (one promoted in place of an active the manager
        could not demote, which still streams to it)."""
        vb = self.engine(bucket).vbuckets.get(vbucket_id)
        if vb is None or vb.state is VBucketState.ACTIVE:
            raise NotMyVBucketError(vbucket_id, self.name)
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

    @declared_raises('ViewNotFoundError')
    def view_wait(self, bucket: str, design: str, view: str) -> SeqnoWaiter:
        """Register a ``stale=false`` wait on one view of this node's
        view engine (see :meth:`repro.views.engine.ViewEngine.wait`)."""
        return self.view_engines[bucket].wait(design, view)

    # -- health ------------------------------------------------------------------------

    def ping(self) -> str:
        return "pong"

    def stats(self) -> dict:
        return {
            "name": self.name,
            "services": sorted(s.value for s in self.services),
            "buckets": {name: e.stats() for name, e in self.engines.items()},
        }



def _stale(have: dict, want: dict) -> list:
    """Keys of local views or instances whose catalog entry is gone or
    of another revision."""
    return [key for key, local in have.items()
            if key not in want or want[key].revision != local.revision]
