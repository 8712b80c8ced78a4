"""Cross datacenter replication (XDCR).

Section 4.6: XDCR replicates active data between geographically separate
clusters for disaster recovery or data locality.  It is

* **per bucket** -- each replication binds one source bucket to one
  target bucket, optionally **filtered** by a regular expression on the
  document ID;
* **a DCP consumer** -- it streams in-memory mutations from the source's
  active vBuckets;
* **topology aware** -- documents are re-routed by the *target's*
  cluster map (the clusters may have different node counts and even
  different vBucket counts), and a failed-over target node just means
  the stream routes to the new active;
* **eventually consistent** across clusters, with the deterministic
  conflict resolution of section 4.6.1 (implemented in the KV engine's
  ``set_with_meta``), which makes the system CP within a cluster but AP
  across clusters.

Bidirectional replication is two :class:`XdcrReplication` objects, one
per direction; the shared conflict-resolution rule guarantees both sides
converge on the same winner.
"""

from __future__ import annotations

import re
from enum import Enum

from ..common.contracts import bounded, declared_raises, protocol
from ..common.errors import (
    BucketNotFoundError,
    LivelockError,
    NodeDownError,
    NotMyVBucketError,
)
from ..common.metrics import MetricsRegistry
from ..dcp.consumer import DcpConsumer
from ..dcp.producer import DcpStream
from ..kv.types import VBucketState


@protocol(
    # A slot streams until its push fails or the source topology stops
    # wanting it; FAILED is a one-way door to CLOSED -- a failed stream
    # already consumed mutations it could not deliver, so it must never
    # resume (the replicator opens a *fresh* slot from the checkpoint,
    # and conflict resolution drops any replayed prefix).
    "STREAMING->FAILED", "STREAMING->CLOSED", "FAILED->CLOSED",
)
class XdcrStreamState(Enum):
    STREAMING = "streaming"
    FAILED = "failed"
    CLOSED = "closed"


class XdcrStream:
    """One (source node, vBucket) replication slot: the DCP stream plus
    its delivery lifecycle state."""

    def __init__(self, stream: DcpStream, metrics: MetricsRegistry):
        self.stream = stream
        self.metrics = metrics
        self.state = XdcrStreamState.STREAMING

    def idle(self) -> bool:
        return self.stream.idle()

    def take(self, max_items: int) -> list:
        return self.stream.take(max_items)

    def close(self) -> None:
        """Retire the slot (topology change, shutdown or a failed push)."""
        self.stream.close()
        if self.state is not XdcrStreamState.CLOSED:
            self.state = XdcrStreamState.CLOSED
        self.metrics.inc("xdcr.stream_closed")


class XdcrReplication(DcpConsumer):
    """One direction of replication between two clusters.  Its stream
    table is keyed ``(source node, vbucket_id)``; the checkpoint is
    :attr:`checkpoints`, per vBucket, so it survives a source move."""

    BATCH = 128

    def __init__(self, source_cluster, target_cluster, bucket: str,
                 target_bucket: str | None = None,
                 filter_pattern: str | None = None):
        super().__init__()
        self.source = source_cluster
        self.target = target_cluster
        self.bucket = bucket
        self.target_bucket = target_bucket or bucket
        self.filter = re.compile(filter_pattern) if filter_pattern else None
        #: vbucket_id -> (vb_uuid, seqno) of the last document the target
        #: acknowledged (or the filter skipped).
        self.checkpoints: dict[int, tuple[int, int]] = {}
        self.paused = False
        self.docs_sent = 0
        self.docs_filtered = 0
        self.metrics = MetricsRegistry()
        self.name = f"xdcr/{bucket}->{self.target_bucket}"
        source_cluster.scheduler.register(self.name, self.pump)

    def stop(self) -> None:
        self.source.scheduler.unregister(self.name)
        self.sync({})

    # -- the pump ------------------------------------------------------------------

    @bounded("maxlen", "one checkpoint per source vBucket")
    @declared_raises('CorruptFileError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'TemporaryFailureError')
    def pump(self) -> bool:
        if self.paused:
            return False
        manager, bucket = self.source.manager, self.bucket
        self.sync({  # one stream per (node, active vBucket)
            (name, vbucket_id): (manager.nodes[name].producers[bucket], vbucket_id)
            for name in manager.data_nodes()
            if not self.source.network.is_down(name)
            and bucket in manager.nodes[name].engines
            for vbucket_id in manager.nodes[name].engines[bucket]
            .owned_vbuckets(VBucketState.ACTIVE)
        })
        moved = False
        for key, slot, docs in self.poll(self.BATCH):
            for doc in docs:
                if self.filter is not None and not self.filter.search(doc.key):
                    self.docs_filtered += 1
                elif self._push(doc):
                    moved = True
                else:
                    # Delivery failed (target down, partitioned, or
                    # repartitioned mid-stream).  The stream already
                    # consumed this mutation, so silently continuing
                    # would drop it forever: fail the slot and retire it
                    # -- the next round opens a fresh slot from the
                    # checkpoint.  Not counted as progress, so a
                    # persistently unreachable target still lets the
                    # scheduler quiesce.
                    if slot.state is XdcrStreamState.STREAMING:
                        slot.state = XdcrStreamState.FAILED
                    self.metrics.inc("xdcr.stream_failed")
                    self.drop(key)
                    break
                self.checkpoints[key[1]] = (slot.stream.vb.uuid, doc.meta.seqno)
        return moved

    def checkpoint(self, key) -> tuple[int | None, int]:
        return self.checkpoints.get(key[1], (None, 0))

    def opened(self, key, stream) -> XdcrStream:
        self.metrics.inc("xdcr.stream_opened")
        return XdcrStream(stream, self.metrics)

    # -- pushing to the target cluster ---------------------------------------------

    def _push(self, doc) -> bool:
        """Route one document to the target cluster's active node for the
        key (the *target's* partitioning, section 4.6: topology aware).

        Delivery goes through the target cluster's network fabric -- not
        straight into the engine -- so a down or partitioned target node
        rejects the push the way it rejects any RPC.  Returns False when
        the document could not be delivered."""
        target_map = self.target.manager.cluster_maps.get(self.target_bucket)
        if target_map is None:
            return False
        vbucket_id = target_map.vbucket_for_key(doc.key)
        node_name = target_map.active_node(vbucket_id)
        if node_name is None:
            return False
        try:
            self.target.network.call(
                self.name, node_name, "kv_set_with_meta",
                self.target_bucket, vbucket_id, doc,
            )
        except (NodeDownError, NotMyVBucketError, BucketNotFoundError):
            return False
        self.docs_sent += 1
        return True


def settle(*clusters) -> None:
    """Drive every involved cluster's scheduler until all replication
    (including bidirectional XDCR ping-pong) quiesces."""
    for _round in range(1000):
        progressed = False
        for cluster in clusters:
            if cluster.scheduler.step():
                progressed = True
        if not progressed:
            return
    raise LivelockError("XDCR did not settle (replication ping-pong?)")
