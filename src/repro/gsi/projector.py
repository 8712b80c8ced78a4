"""The index projector and router.

Section 4.3.3: "The Projector is responsible for mapping incoming
mutations to a set of Global Secondary Key Versions needed for secondary
index maintenance.  The Projector resides within the data service where
the mutation originated, and it is a consumer of the DCP feed ... The
Router is responsible for sending Key Versions to the index service.
The router relies on the index distribution and partitioning topology to
determine which indexer(s) should receive the key version."

One projector pump runs per (data node, bucket).  It consumes the DCP
streams of the locally active vBuckets, evaluates every index defined on
the bucket against each mutation, and hands the resulting
:class:`KeyVersion` batches to the router, which forwards them to the
responsible index-service node(s) over the network.

Every mutation produces a key version for every index -- with an empty
entry list when the document does not qualify -- so that indexer seqno
watermarks advance even through non-matching traffic; that is what makes
``request_plus`` scans (section 3.2.3) terminate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NodeDownError
from ..dcp.messages import Deletion, Mutation
from ..dcp.producer import DcpStream
from ..kv.types import VBucketState


@dataclass
class KeyVersion:
    """The projector's output: new index entries for one (doc, index)."""

    index_name: str
    bucket: str
    doc_id: str
    #: Extracted composite keys; empty = remove the doc from the index.
    entries: list[list]
    vbucket_id: int
    seqno: int


class Router:
    """Key-version routing (data node side)."""

    def __init__(self, node, registry, network):
        self.node = node
        self.registry = registry
        self.network = network

    def route(self, key_versions: list[KeyVersion]) -> set[int]:
        """Deliver a slice of key versions, one ``gsi_apply`` per
        responsible index node, and return the vBuckets that were NOT
        delivered in full.

        The caller must not advance such a vBucket: it replays the
        vBucket's slice instead, which is safe because a batch replaces
        a document's entries.  A vBucket owed to an unreachable node
        sends nothing to any node this slice -- the ``request_plus``
        barrier reads the maximum watermark over an index's partitions,
        and that is only sound while no partition holds a vBucket's
        later seqno before another holds its earlier one."""
        batches: dict[str, list[KeyVersion]] = {}
        for kv in key_versions:
            for target in self._targets(kv):
                batches.setdefault(target, []).append(kv)
        source = self.node.name
        held = {
            kv.vbucket_id
            for target, batch in batches.items()
            if not self.network.reachable(source, target)
            for kv in batch
        }
        for target, batch in batches.items():
            if held:
                batch = [kv for kv in batch if kv.vbucket_id not in held]
                if not batch:
                    continue
            try:
                # The loop is over index nodes, one batch each.
                # repro: disable-next=n-plus-one-rpc
                self.network.call(source, target, "gsi_apply", batch)
            except NodeDownError:
                held.update(kv.vbucket_id for kv in batch)
        return held

    def _targets(self, kv: KeyVersion) -> list[str]:
        meta = self.registry.get(kv.index_name)
        if meta is None:
            return []
        if meta.definition.num_partitions == 1:
            return meta.nodes[:1]
        # Partitioned index: hash the doc id to a partition; a delete
        # with a changed partition key would need the old partition
        # too, so deletions fan out to every partition's node.
        if kv.entries:
            partition = _hash_partition(kv.doc_id,
                                        meta.definition.num_partitions)
            return [meta.nodes[partition % len(meta.nodes)]]
        return list(dict.fromkeys(meta.nodes))


def _hash_partition(doc_id: str, partitions: int) -> int:
    from ..common.crc import crc32
    return crc32(doc_id.encode("utf-8")) % partitions


class Projector:
    """DCP consumer producing key versions (one per data node/bucket)."""

    BATCH = 256

    def __init__(self, node, bucket: str, registry, network):
        self.node = node
        self.bucket = bucket
        self.registry = registry
        self.router = Router(node, registry, network)
        self._streams: dict[int, DcpStream] = {}
        #: Per-vBucket seqno this projector has processed through.
        self.projected_seqnos: dict[int, int] = {}

    def pump(self) -> bool:
        """Project everything the streams yield this slice, route it as
        one batch, and advance the vBuckets the batch was delivered for.
        True only when something was delivered: claiming progress for a
        slice that will be replayed would livelock ``run_until_idle``
        while an indexer node is down."""
        engine = self.node.engines.get(self.bucket)
        if engine is None or not self.node.alive:
            return False
        definitions = [
            meta.definition for meta in self.registry.indexes_on(self.bucket)
            if meta.state == "ready"
        ]
        if not definitions:
            return self._fast_forward(engine)
        self._sync_streams(engine)
        key_versions: list[KeyVersion] = []
        yielded: set[int] = set()
        taken: list[tuple[int, DcpStream]] = []
        for vbucket_id, stream in self._streams.items():
            if stream.idle():
                continue
            taken.append((vbucket_id, stream))
            for message in stream.take(self.BATCH):
                if not isinstance(message, (Mutation, Deletion)):
                    continue
                yielded.add(vbucket_id)
                doc = message.doc
                for definition in definitions:
                    key_versions.append(KeyVersion(
                        index_name=definition.name,
                        bucket=self.bucket,
                        doc_id=doc.key,
                        entries=[] if doc.meta.deleted
                        else definition.entries_for(doc.value, doc.key),
                        vbucket_id=vbucket_id,
                        seqno=doc.meta.seqno,
                    ))
                self.node.metrics.inc("gsi.projected")
        undelivered = (self.router.route(key_versions) if key_versions
                       else set())
        for vbucket_id in undelivered:
            # Reopened by _sync_streams from the last delivered seqno,
            # so the slice is retried instead of silently lost.
            del self._streams[vbucket_id]
        # An idle stream did not move, so only the streams taken from
        # can advance a projected seqno.
        for vbucket_id, stream in taken:
            if vbucket_id not in undelivered \
                    and stream.last_seqno > self.projected_seqnos.get(vbucket_id, 0):
                self.projected_seqnos[vbucket_id] = stream.last_seqno
        return bool(yielded - undelivered)

    def _fast_forward(self, engine) -> bool:
        """The pump without a ready index: nothing to project, so hold no
        streams, copy no documents, and record each active vBucket's
        newest change (its high seqno, see ``VBucket.last_change_seqno``)
        as projected -- exactly where taking and discarding the whole
        backlog would leave a stream.  An index that becomes ready later
        is built from a snapshot, and its first projection starts here.
        Progress is the answer the discarded messages would have given:
        some active vBucket had a change past its mark."""
        self._streams.clear()
        projected = self.projected_seqnos
        progressed = False
        active = 0
        for vbucket_id, vb in engine.vbuckets.items():
            if vb.state is not VBucketState.ACTIVE:
                continue
            active += 1
            last, mark = vb.last_change_seqno(), projected.get(vbucket_id)
            if last != mark:
                projected[vbucket_id] = last
                progressed = progressed or last > (mark or 0)
        # Every active vBucket has a mark now, so a surplus mark belongs
        # to one that stopped being active here.
        if len(projected) > active:
            self.projected_seqnos = {
                vbucket_id: seqno for vbucket_id, seqno in projected.items()
                if vbucket_id in engine.vbuckets
                and engine.vbuckets[vbucket_id].state is VBucketState.ACTIVE
            }
        return progressed

    def _sync_streams(self, engine) -> None:
        active = set(engine.owned_vbuckets(VBucketState.ACTIVE))
        for vbucket_id in list(self._streams):
            if vbucket_id not in active:
                del self._streams[vbucket_id]
                self.projected_seqnos.pop(vbucket_id, None)
        producer = self.node.producers[self.bucket]
        for vbucket_id in active:
            if vbucket_id not in self._streams:
                start = self.projected_seqnos.get(vbucket_id, 0)
                self._streams[vbucket_id] = producer.stream_request(
                    vbucket_id, start_seqno=start
                )
