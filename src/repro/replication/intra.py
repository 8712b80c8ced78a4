"""Intra-cluster replication.

Section 4.2: after a write is acknowledged from memory, the mutation "is
also pushed into the in-memory replication queue to be replicated to
other nodes within the cluster".  Replication is memory-to-memory DCP:
each data node runs an :class:`IntraReplicator` pump per bucket that
maintains a DCP stream per (active vBucket, replica node) pair from the
current cluster map and forwards batches over the network fabric --
one ``kv_replica_apply_batch`` per replica node per round, as Couchbase
carries all of a node pair's vBucket streams on one DCP connection.

A durable write's wait rides on those batches (section 2.3.2): the
active hands the replicator each :class:`DurabilityWait` it registers,
the next batch to each replica carries its ``(key, cas)`` -- in a slot
with no docs if the stream has nothing new -- and the replica returns
the waiter it registered in that vBucket's ``"ok"`` slot.  A slot that
fails leaves the registration pending for that replica, so the next
batch to it carries it again.

On a cluster-map change the replicator re-derives its stream set; a
replica that turns out to be *ahead* of the new active (possible after a
failover promoted a less-caught-up copy) is reset and rebuilt from
seqno 0.
"""

from __future__ import annotations

import functools

from ..common.contracts import bounded, declared_raises
from ..common.errors import NodeDownError, NotMyVBucketError
from ..common.transport import Network
from ..dcp.consumer import DcpConsumer
from ..kv.types import DurabilityWait, ObserveWaiter, VBucketState


class IntraReplicator(DcpConsumer):
    """Replication pump for one bucket on one (source) node.  Its stream
    table is keyed ``(vbucket_id, replica node)``; the checkpoint lives on
    the replica."""

    BATCH = 128

    def __init__(self, node, bucket: str, network: Network):
        super().__init__()
        self.node = node
        self.bucket = bucket
        self.network = network
        self._wanted: dict = {}
        #: vBucket -> the replica nodes its stream goes to.
        self._targets: dict[int, list[str]] = {}
        #: vBucket -> the durability waits not yet placed on every one
        #: of its replicas; see :meth:`register`.
        self._registrations: dict[int, list[DurabilityWait]] = {}
        self._map_revision = -1

    @bounded("consumer-drained", "a registration leaves once every replica "
                                 "holds its waiter, or when its wait ends "
                                 "(cancel)")
    def register(self, vbucket_id: int, wait: DurabilityWait) -> None:
        """Carry ``wait`` to each replica this node streams the vBucket
        to, in that replica's next batch, until it is placed there."""
        self._registrations.setdefault(vbucket_id, []).append(wait)
        wait.hold(functools.partial(self._forget, vbucket_id, wait))

    def _forget(self, vbucket_id: int, wait: DurabilityWait) -> None:
        waits = self._registrations.get(vbucket_id, [])
        if wait in waits:
            waits.remove(wait)
            if not waits:
                del self._registrations[vbucket_id]

    @declared_raises('BucketNotFoundError', 'CorruptFileError',
                     'InvalidArgumentError')
    def pump(self) -> bool:
        """One scheduler round: refresh topology if needed, then forward
        one batch per stream that has news (an idle stream costs one
        predicate, no take), one RPC per replica node and every node in
        one wave.  Returns True if any vBucket's batch was applied."""
        cluster_map = self.node.cluster_maps.get(self.bucket)
        engine = self.node.engines.get(self.bucket)
        if cluster_map is None or engine is None or not self.node.alive:
            return False
        if cluster_map.revision != self._map_revision:
            # Topology changed: reconnect every stream, as real DCP
            # consumers do on a new cluster map.  Reconnecting is also
            # when a divergent replica -- one ahead of this active's
            # history -- is detected by the handshake and reset.
            self._map_revision = cluster_map.revision
            self.sync({})
            producer = self.node.producers[self.bucket]
            self._wanted = {
                (vbucket_id, target): (producer, vbucket_id)
                for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE)
                if cluster_map.active_node(vbucket_id) == self.node.name
                for target in cluster_map.replica_nodes(vbucket_id)
            }
            self._targets = {}
            for vbucket_id, target in self._wanted:
                self._targets.setdefault(vbucket_id, []).append(target)
        self.sync(self._wanted)
        # One connection per node pair: the round's stream batches are
        # grouped by replica node, and each node gets one
        # kv_replica_apply_batch carrying all of its vBuckets' batches,
        # every node in the same wave.
        batches: dict[str, list[tuple[int, list]]] = {}
        for (vbucket_id, target), _stream, docs in self.poll(self.BATCH):
            if docs:
                batches.setdefault(target, []).append((vbucket_id, docs))
        due = self._due(batches) if self._registrations else {}
        if not batches:
            return False
        outcomes = self.network.scatter(
            self.node.name, list(batches), "kv_replica_apply_batch",
            [(self.bucket, items, _wire(due.get(target)))
             for target, items in batches.items()])
        # Every stream was taken from, so every slot is settled before
        # any error is raised: a stream whose batch was not applied is
        # dropped, and the next sync reopens it from the replica's
        # seqno.  An unreachable node drops all of its streams; a
        # refused vBucket drops only its own.
        moved = False
        unexpected: Exception | None = None
        for (target, items), outcome in zip(batches.items(), outcomes):
            if isinstance(outcome, Exception):
                outcome = [("err", outcome)] * len(items)
            placing = due.get(target, {})
            for (vbucket_id, _docs), (status, reply) in zip(items, outcome):
                if status == "ok":
                    moved = True
                    if vbucket_id in placing:
                        self._placed(vbucket_id, target,
                                     placing[vbucket_id], reply)
                    continue
                self.drop((vbucket_id, target))
                if not isinstance(reply, (NodeDownError, NotMyVBucketError)):
                    unexpected = unexpected or reply
        if unexpected is not None:
            raise unexpected
        return moved

    def _due(self, batches: dict[str, list[tuple[int, list]]]
             ) -> dict[str, dict[int, list[DurabilityWait]]]:
        """Per replica, per vBucket, the registrations it does not hold
        yet, over the streams that are open; a replica with some due and
        no docs for the vBucket gets a slot with none."""
        due: dict[str, dict[int, list[DurabilityWait]]] = {}
        for vbucket_id, waits in self._registrations.items():
            for target in self._targets.get(vbucket_id, ()):
                if (vbucket_id, target) not in self.streams:
                    continue  # the next sync reopens it, or the wait fails
                pending = [wait for wait in waits if target not in wait.placed]
                if not pending:
                    continue
                due.setdefault(target, {})[vbucket_id] = pending
                items = batches.setdefault(target, [])
                if all(vb != vbucket_id for vb, _docs in items):
                    items.append((vbucket_id, []))
        return due

    def _placed(self, vbucket_id: int, target: str,
                waits: list[DurabilityWait],
                waiters: list[ObserveWaiter]) -> None:
        """``target`` registered one waiter for each of ``waits``: add
        each to its wait, and take the waits every replica now holds out
        of the table."""
        targets = self._targets[vbucket_id]
        for wait, waiter in zip(waits, waiters):
            wait.waiters.append(waiter)
            wait.placed.add(target)
            if all(name in wait.placed for name in targets):
                self._forget(vbucket_id, wait)

    def _replica_rpc(self, key, method: str, *args):
        """``method`` on the key's replica node, for the key's vBucket."""
        vbucket_id, target = key
        return self.network.call(self.node.name, target, method,
                                 self.bucket, vbucket_id, *args)

    def checkpoint(self, key) -> tuple:
        """The replica's lineage uuid (None if it never synced) and seqno."""
        return self._replica_rpc(key, "kv_replica_stream_state")

    def rollback(self, key, seqno: int) -> int:
        """The replica is off this active's history: reset it and rebuild
        from zero (section 4.3.2)."""
        self._replica_rpc(key, "kv_reset_replica")
        return 0

    def opened(self, key, stream):
        """The replica adopts this active's failover log, the lineage its
        next handshake is checked against."""
        self._replica_rpc(key, "kv_adopt_failover_log",
                          self.node.producers[self.bucket].failover_log(key[0]))
        return stream


def _wire(due: dict[int, list[DurabilityWait]] | None
          ) -> dict[int, list[tuple[str, int]]] | None:
    """What a batch carries of its registrations: ``(key, cas)`` each."""
    if due is None:
        return None
    return {vbucket_id: [(wait.key, wait.cas) for wait in waits]
            for vbucket_id, waits in due.items()}
