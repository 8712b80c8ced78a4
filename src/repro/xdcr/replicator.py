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

from ..common.errors import (
    BucketNotFoundError,
    LivelockError,
    NodeDownError,
    NotMyVBucketError,
    declared_raises,
)
from ..common.metrics import MetricsRegistry
from ..common.contracts import protocol
from ..dcp.messages import Deletion, Mutation
from ..dcp.producer import DcpStream
from ..kv.types import VBucketState


@protocol(
    # A slot streams until its push fails or the source topology stops
    # wanting it; FAILED is a one-way door to CLOSED -- a failed stream
    # already consumed mutations it could not deliver, so it must never
    # resume (the replicator opens a *fresh* stream from seqno 0 and
    # conflict resolution dedups the replayed prefix).
    "STREAMING->FAILED", "STREAMING->CLOSED", "FAILED->CLOSED",
)
class XdcrStreamState(Enum):
    STREAMING = "streaming"
    FAILED = "failed"
    CLOSED = "closed"


class XdcrStream:
    """One (source node, vBucket) replication slot: the DCP stream plus
    its delivery lifecycle state."""

    def __init__(self, stream: DcpStream):
        self.stream = stream
        self.state = XdcrStreamState.STREAMING


class XdcrReplication:
    """One direction of replication between two clusters."""

    BATCH = 128

    def __init__(self, source_cluster, target_cluster, bucket: str,
                 target_bucket: str | None = None,
                 filter_pattern: str | None = None):
        self.source = source_cluster
        self.target = target_cluster
        self.bucket = bucket
        self.target_bucket = target_bucket or bucket
        self.filter = re.compile(filter_pattern) if filter_pattern else None
        #: (node_name, vbucket) -> XdcrStream slot
        self._streams: dict[tuple[str, int], XdcrStream] = {}
        self.paused = False
        self.docs_sent = 0
        self.docs_filtered = 0
        self.metrics = MetricsRegistry()
        self.name = f"xdcr/{bucket}->{self.target_bucket}"
        source_cluster.scheduler.register(self.name, self.pump)

    def stop(self) -> None:
        self.source.scheduler.unregister(self.name)
        for key in list(self._streams):
            self._retire(key)

    def _retire(self, key: tuple[str, int]) -> None:
        """Close and forget one slot (topology change or shutdown)."""
        slot = self._streams.pop(key)
        if slot.state is not XdcrStreamState.CLOSED:
            slot.state = XdcrStreamState.CLOSED
        self.metrics.inc("xdcr.stream_closed")

    # -- the pump ------------------------------------------------------------------

    @declared_raises('CorruptFileError', 'InvalidArgumentError',
                     'KeyNotFoundError', 'TemporaryFailureError')
    def pump(self) -> bool:
        if self.paused:
            return False
        self._sync_streams()
        moved = False
        for key, slot in list(self._streams.items()):
            for message in slot.stream.take(self.BATCH):
                if not isinstance(message, (Mutation, Deletion)):
                    continue
                if self.filter is not None and not self.filter.search(
                    message.doc.key
                ):
                    self.docs_filtered += 1
                    continue
                if self._push(message.doc):
                    moved = True
                else:
                    # Delivery failed (target down, partitioned, or
                    # repartitioned mid-stream).  The stream already
                    # consumed this mutation, so silently continuing
                    # would drop it forever: fail the slot and retire it
                    # -- _sync_streams reopens a fresh stream from seqno
                    # 0 and conflict resolution dedups the replayed
                    # prefix.  Not counted as progress, so a persistently
                    # unreachable target still lets the scheduler quiesce.
                    if slot.state is XdcrStreamState.STREAMING:
                        slot.state = XdcrStreamState.FAILED
                    self.metrics.inc("xdcr.stream_failed")
                    self._retire(key)
                    break
        return moved

    def _sync_streams(self) -> None:
        """Track the source topology: one stream per (node, active vb)."""
        manager = self.source.manager
        wanted: set[tuple[str, int]] = set()
        for node_name in manager.data_nodes():
            if self.source.network.is_down(node_name):
                continue
            node = manager.nodes[node_name]
            engine = node.engines.get(self.bucket)
            if engine is None:
                continue
            for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
                wanted.add((node_name, vbucket_id))
        for key in list(self._streams):
            if key not in wanted:
                self._retire(key)
        for node_name, vbucket_id in wanted:
            if (node_name, vbucket_id) in self._streams:
                continue
            producer = self.source.manager.nodes[node_name].producers[self.bucket]
            try:
                self._streams[(node_name, vbucket_id)] = XdcrStream(
                    producer.stream_request(
                        vbucket_id, start_seqno=0, allow_replica=False,
                    )
                )
                self.metrics.inc("xdcr.stream_opened")
            # Vbucket moved mid-sweep; next pump re-derives streams.
            # repro: disable-next=swallowed-exception
            except NotMyVBucketError:
                continue

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

    # -- helpers ---------------------------------------------------------------------

    def backlog(self) -> int:
        """Mutations not yet streamed (approximate, for tests/stats)."""
        total = 0
        for slot in self._streams.values():
            stream = slot.stream
            total += max(0, stream.vb.high_seqno - stream.last_seqno)
        return total


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
