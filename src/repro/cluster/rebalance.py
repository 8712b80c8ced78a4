"""Rebalancing.

Section 4.3.1: when the server set changes, "data partitions must be
redistributed ... a new cluster map is calculated based on the current
pending set of servers to be added and removed", partitions move between
source and destination directly, and "once the cluster moves each
partition from one location to another, an atomic and consistent
switchover takes place between the two affected nodes".

The mover builds each destination copy as a *pending* vBucket fed by a
DCP stream from the source, catches up to the source's high seqno, then
performs the switchover: destination promotes to active, source goes
dead, the shared map's revision bumps, and clients learn on their next
NOT_MY_VBUCKET retry.  Replica placement is reconciled afterwards by
pushing the final map (replica copies then backfill over normal
intra-cluster replication).
"""

from __future__ import annotations

from ..common.errors import RebalanceInProgressError
from ..dcp.messages import Deletion, Mutation
from ..kv.types import VBucketState
from .cluster_map import plan_map
from .manager import ClusterManager


class Rebalancer:
    """Executes rebalances against a :class:`ClusterManager`."""

    def __init__(self, manager: ClusterManager):
        self.manager = manager
        self.in_progress = False
        #: (bucket, vbucket, source, destination) tuples of the last run.
        self.last_moves: list[tuple[str, int, str, str]] = []

    def rebalance(self) -> dict:
        """Redistribute every bucket over the current (non-ejected) data
        nodes.  Returns per-bucket move counts."""
        if self.in_progress:
            raise RebalanceInProgressError("rebalance already running")
        self.in_progress = True
        self.last_moves = []
        try:
            report = {}
            for bucket in list(self.manager.bucket_configs):
                report[bucket] = self._rebalance_bucket(bucket)
            return report
        finally:
            self.in_progress = False

    def _rebalance_bucket(self, bucket: str) -> dict:
        manager = self.manager
        config = manager.bucket_configs[bucket]
        current = manager.cluster_maps[bucket]
        nodes = manager.data_nodes()
        target = plan_map(
            nodes,
            num_vbuckets=current.num_vbuckets,
            num_replicas=config.num_replicas,
            previous=current,
        )

        moves = 0
        working = current.copy()
        for vbucket_id in range(current.num_vbuckets):
            source = working.chains[vbucket_id][0]
            destination = target.chains[vbucket_id][0]
            if destination is None or source == destination:
                continue
            if source is None:
                # Lost vBucket (failover with no replica): destination
                # simply creates an empty active copy.
                manager.nodes[destination].engine(bucket).create_vbucket(
                    vbucket_id, VBucketState.ACTIVE
                )
            else:
                self._move_vbucket(bucket, vbucket_id, source, destination)
            working.chains[vbucket_id][0] = destination
            working.revision += 1
            manager.cluster_maps[bucket] = working
            self.last_moves.append((bucket, vbucket_id, source or "-", destination))
            moves += 1

        # Adopt the target's replica placement wholesale, then reconcile
        # every node; replica copies rebuild via the replication pumps.
        final = target.copy()
        final.revision = working.revision + 1
        manager.cluster_maps[bucket] = final
        manager.push_map(bucket)
        self.manager.scheduler.run_until_idle()
        return {"moves": moves, "map_revision": final.revision}

    def _move_vbucket(self, bucket: str, vbucket_id: int,
                      source: str, destination: str) -> None:
        """Stream one vBucket's data source -> destination and switch over."""
        manager = self.manager
        source_node = manager.nodes[source]
        destination_node = manager.nodes[destination]
        source_engine = source_node.engine(bucket)
        destination_engine = destination_node.engine(bucket)

        destination_engine.drop_vbucket(vbucket_id)
        pending = destination_engine.create_vbucket(vbucket_id,
                                                    VBucketState.PENDING)
        producer = source_node.producer(bucket)
        # The moved copy continues the source's history (lineage travels
        # with the data so later stream resumes validate correctly).
        pending.source_failover_log = producer.failover_log(vbucket_id)
        # Until idle, not high_seqno: a write refused after its seqno was
        # assigned leaves the stream below ``high_seqno`` for good.
        stream = producer.stream_request(vbucket_id, start_seqno=0)
        while not stream.idle():
            destination_engine.apply_replicated_batch(vbucket_id, [
                message.doc for message in stream.take(256)
                if isinstance(message, (Mutation, Deletion))
            ])

        # Atomic switchover (section 4.3.1): replica/pending -> active on
        # the destination, active -> dead on the source.
        destination_engine.set_vbucket_state(vbucket_id, VBucketState.ACTIVE)
        source_engine.set_vbucket_state(vbucket_id, VBucketState.DEAD)
        source_engine.drop_vbucket(vbucket_id)
        source_node.metrics.inc("rebalance.vbuckets_out")
        destination_node.metrics.inc("rebalance.vbuckets_in")
