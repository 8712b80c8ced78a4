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

    def route(self, kv: KeyVersion) -> bool:
        """Deliver the key version to every responsible indexer node.

        Returns False when any target was unreachable.  The caller must
        NOT advance its watermark past an undelivered key version --
        dropping it here would mean the indexer never sees that seqno
        and the index diverges from the bucket permanently (the old code
        swallowed NodeDownError and lost the key version)."""
        meta = self.registry.get(kv.index_name)
        if meta is None:
            return True
        if meta.definition.num_partitions == 1:
            targets = [meta.nodes[0]]
        else:
            # Partitioned index: hash the doc id to a partition; a delete
            # with a changed partition key would need the old partition
            # too, so deletions fan out to every partition's node.
            if kv.entries:
                partition = _hash_partition(kv.doc_id,
                                            meta.definition.num_partitions)
                targets = [meta.nodes[partition % len(meta.nodes)]]
            else:
                targets = list(dict.fromkeys(meta.nodes))
        delivered = True
        for target in targets:
            try:
                # Mutations route to exactly one partition node; only
                # deletions fan out, and correctness requires it.
                # repro: disable-next=n-plus-one-rpc
                self.network.call(self.node.name, target, "gsi_apply", kv)
            except NodeDownError:
                delivered = False
        return delivered


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
        engine = self.node.engines.get(self.bucket)
        if engine is None or not self.node.alive:
            return False
        self._sync_streams(engine)
        progressed = False
        for vbucket_id, stream in list(self._streams.items()):
            delivered_all = True
            for message in stream.take(self.BATCH):
                if not isinstance(message, (Mutation, Deletion)):
                    continue
                if self._project(vbucket_id, message):
                    # Advance only past key versions every indexer saw.
                    # Undelivered messages do not count as progress: the
                    # stream is dropped and replayed below, and claiming
                    # progress for a replay-forever loop would livelock
                    # run_until_idle while an indexer node is down.
                    progressed = True
                    self.projected_seqnos[vbucket_id] = max(
                        self.projected_seqnos.get(vbucket_id, 0),
                        message.doc.meta.seqno,
                    )
                else:
                    delivered_all = False
                    break
            if delivered_all:
                self.projected_seqnos[vbucket_id] = max(
                    self.projected_seqnos.get(vbucket_id, 0),
                    stream.last_seqno,
                )
            else:
                # An indexer node was unreachable: drop the stream and
                # let _sync_streams reopen it from the last seqno that
                # was actually delivered, so the key version is retried
                # instead of silently lost.
                del self._streams[vbucket_id]
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

    def _project(self, vbucket_id: int, message) -> bool:
        """Project one mutation into key versions; True when every key
        version reached every responsible indexer."""
        doc = message.doc
        deleted = doc.meta.deleted
        delivered = True
        for meta in self.registry.indexes_on(self.bucket):
            if meta.state != "ready":
                continue
            definition = meta.definition
            entries = [] if deleted else definition.entries_for(doc.value, doc.key)
            if not self.router.route(KeyVersion(
                index_name=definition.name,
                bucket=self.bucket,
                doc_id=doc.key,
                entries=entries,
                vbucket_id=vbucket_id,
                seqno=doc.meta.seqno,
            )):
                delivered = False
        self.node.metrics.inc("gsi.projected")
        return delivered
