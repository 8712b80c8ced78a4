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
from ..dcp.consumer import DcpConsumer
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

    def __init__(self, node, catalog, network):
        self.node = node
        self.catalog = catalog
        self.network = network

    def route(self, key_versions: list[KeyVersion]) -> set[int]:
        """Deliver a slice of key versions, one ``gsi_apply`` per
        responsible index node, all in one ``Network.scatter`` wave, and
        return the vBuckets that were NOT delivered in full.

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
        if held:
            batches = {target: kept for target, batch in batches.items()
                       if (kept := [kv for kv in batch
                                    if kv.vbucket_id not in held])}
        outcomes = self.network.scatter(
            source, list(batches), "gsi_apply",
            [(batch,) for batch in batches.values()])
        for batch, outcome in zip(batches.values(), outcomes):
            if isinstance(outcome, NodeDownError):
                held.update(kv.vbucket_id for kv in batch)
            elif isinstance(outcome, Exception):
                raise outcome
        return held

    def _targets(self, kv: KeyVersion) -> list[str]:
        meta = self.catalog.get(kv.index_name)
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


class Projector(DcpConsumer):
    """DCP consumer producing key versions (one per data node/bucket).
    Its stream table is keyed by vBucket; the checkpoint is
    :attr:`projected_seqnos`."""

    BATCH = 256

    def __init__(self, node, bucket: str, catalog, network):
        super().__init__()
        self.node = node
        self.bucket = bucket
        self.catalog = catalog
        self.router = Router(node, catalog, network)
        #: Per-vBucket seqno this projector has processed through.
        self.projected_seqnos: dict[int, int] = {}
        #: ``(engine, engine.changes)`` after the last fast-forward; the
        #: marks are current while it holds.  None once streams run.
        self._forwarded: tuple | None = None

    def pump(self) -> bool:
        """Project everything the streams yield this slice, route it as
        one batch, and advance the vBuckets the batch was delivered for.
        True only when something was delivered: claiming progress for a
        slice that will be replayed would livelock ``run_until_idle``
        while an indexer node is down."""
        engine = self.node.engines.get(self.bucket)
        if engine is None or not self.node.alive:
            return False
        definitions = [meta.definition
                       for meta in self.catalog.ready_on(self.bucket)]
        if not definitions:
            return self._fast_forward(engine)
        self._forwarded = None
        producer = self.node.producers[self.bucket]
        self.sync({vbucket_id: (producer, vbucket_id)
                   for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE)})
        key_versions: list[KeyVersion] = []
        yielded: set[int] = set()
        polled = self.poll(self.BATCH)
        for vbucket_id, _stream, docs in polled:
            for doc in docs:
                yielded.add(vbucket_id)
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
            # Reopened by the next sync from the last delivered seqno,
            # so the slice is retried instead of silently lost.
            self.drop(vbucket_id)
        # An idle stream did not move, so only the streams polled can
        # advance a projected seqno.
        for vbucket_id, stream, _docs in polled:
            if vbucket_id not in undelivered \
                    and stream.last_seqno > self.projected_seqnos.get(vbucket_id, 0):
                self.projected_seqnos[vbucket_id] = stream.last_seqno
        return bool(yielded - undelivered)

    def checkpoint(self, vbucket_id: int) -> tuple[int, int]:
        """Under the local copy's uuid: a mark lives only while active."""
        vb = self.node.engines[self.bucket].vbuckets[vbucket_id]
        return vb.uuid, self.projected_seqnos.get(vbucket_id, 0)

    def retired(self, vbucket_id: int) -> None:
        self.projected_seqnos.pop(vbucket_id, None)

    def _fast_forward(self, engine) -> bool:
        """The pump without a ready index: nothing to project, so hold no
        streams, copy no documents, and record each active vBucket's
        newest change (its high seqno, see ``VBucket.last_change_seqno``)
        as projected -- exactly where taking and discarding the whole
        backlog would leave a stream.  An index that becomes ready later
        is built from a snapshot, and its first projection starts here.
        Progress is the answer the discarded messages would have given:
        some active vBucket had a change past its mark.  While the
        engine's ``changes`` counter stands where the last pass left it,
        no mark can differ, so the pass is one comparison."""
        stamp = (engine, engine.changes)
        if stamp == self._forwarded:
            return False
        self._forwarded = stamp
        for vbucket_id in list(self.streams):
            self.drop(vbucket_id)
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
