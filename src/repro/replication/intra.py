"""Intra-cluster replication.

Section 4.2: after a write is acknowledged from memory, the mutation "is
also pushed into the in-memory replication queue to be replicated to
other nodes within the cluster".  Replication is memory-to-memory DCP:
each data node runs an :class:`IntraReplicator` pump per bucket that
maintains a DCP stream per (active vBucket, replica node) pair from the
current cluster map and forwards batches over the network fabric.

On a cluster-map change the replicator re-derives its stream set; a
replica that turns out to be *ahead* of the new active (possible after a
failover promoted a less-caught-up copy) is reset and rebuilt from
seqno 0.
"""

from __future__ import annotations

from ..common.contracts import declared_raises
from ..common.errors import (
    NodeDownError,
    NotMyVBucketError,
    StreamRollbackRequired,
)
from ..common.transport import Network
from ..dcp.messages import Deletion, Mutation
from ..dcp.producer import DcpStream
from ..kv.types import VBucketState


class IntraReplicator:
    """Replication pump for one bucket on one (source) node."""

    BATCH = 128

    def __init__(self, node, bucket: str, network: Network):
        self.node = node
        self.bucket = bucket
        self.network = network
        #: (vbucket_id, target_node) -> DcpStream
        self._streams: dict[tuple[int, str], DcpStream] = {}
        self._map_revision = -1

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError')
    def pump(self) -> bool:
        """One scheduler round: refresh topology if needed, then forward
        one batch per stream that has news (an idle stream costs one
        predicate, no take).  Returns True if any mutation moved."""
        cluster_map = self.node.cluster_maps.get(self.bucket)
        engine = self.node.engines.get(self.bucket)
        if cluster_map is None or engine is None or not self.node.alive:
            return False
        if cluster_map.revision != self._map_revision:
            self._rebuild_streams(cluster_map)
        moved = False
        for (vbucket_id, target), stream in list(self._streams.items()):
            vb = engine.vbuckets.get(vbucket_id)
            if vb is None or vb.state is not VBucketState.ACTIVE:
                del self._streams[(vbucket_id, target)]
                continue
            if stream.idle():
                continue
            messages = stream.take(self.BATCH)
            docs = [message.doc for message in messages
                    if isinstance(message, (Mutation, Deletion))]
            if not docs:
                continue
            try:
                # One RPC per stream batch: consecutive mutations for
                # one (vBucket, replica) pair coalesce into a single
                # kv_replica_apply_batch, the replica-side mirror of the
                # client's kv_multi_mutate.  The batch applies in stream
                # order, so a failure rejects it wholesale and the next
                # handshake resumes from the replica's seqno.
                self.network.call(
                    self.node.name, target, "kv_replica_apply_batch",
                    self.bucket, vbucket_id, docs,
                )
                moved = True
            except NodeDownError:
                # Target unreachable: drop the stream; the next map
                # revision (failover) or reachability change will
                # recreate it from the target's seqno.
                del self._streams[(vbucket_id, target)]
            except NotMyVBucketError:
                del self._streams[(vbucket_id, target)]
        return moved

    def _rebuild_streams(self, cluster_map) -> None:
        """Topology changed: reconnect every stream.  Reconnecting (as
        real DCP consumers do on a new cluster map) is also when a
        divergent replica -- one ahead of this active's history -- gets
        detected via the rollback handshake and reset."""
        engine = self.node.engines[self.bucket]
        producer = self.node.producers[self.bucket]
        self._map_revision = cluster_map.revision
        wanted: set[tuple[int, str]] = set()
        for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
            if cluster_map.active_node(vbucket_id) != self.node.name:
                continue
            for target in cluster_map.replica_nodes(vbucket_id):
                wanted.add((vbucket_id, target))
        self._streams.clear()
        for vbucket_id, target in wanted:
            stream = self._open_stream(producer, vbucket_id, target)
            if stream is not None:
                self._streams[(vbucket_id, target)] = stream

    def _open_stream(self, producer, vbucket_id: int, target: str):
        """The DCP stream-open handshake: resume from the replica's seqno
        only if its recorded lineage lies on this active's history;
        otherwise reset and rebuild from zero (section 4.3.2)."""
        try:
            target_uuid, target_seqno = self.network.call(
                self.node.name, target, "kv_replica_stream_state",
                self.bucket, vbucket_id,
            )
        except NodeDownError:
            return None
        stream = None
        if target_uuid is None and target_seqno > 0:
            # The replica holds data of unknown lineage (e.g. leftover
            # state from an earlier topology): never trust it.
            stream = self._reset_and_stream(producer, vbucket_id, target)
        else:
            try:
                stream = producer.stream_request(
                    vbucket_id, start_seqno=target_seqno, vb_uuid=target_uuid,
                )
            except StreamRollbackRequired:
                stream = self._reset_and_stream(producer, vbucket_id, target)
        if stream is None:
            return None
        try:
            self.network.call(
                self.node.name, target, "kv_adopt_failover_log",
                self.bucket, vbucket_id, producer.failover_log(vbucket_id),
            )
        except NodeDownError:
            return None
        return stream

    def _reset_and_stream(self, producer, vbucket_id: int, target: str):
        try:
            self.network.call(
                self.node.name, target, "kv_reset_replica",
                self.bucket, vbucket_id,
            )
        except NodeDownError:
            return None
        return producer.stream_request(vbucket_id, start_seqno=0)

    def stream_count(self) -> int:
        return len(self._streams)
