"""The index projector and router.

Section 4.3.3: "The Projector is responsible for mapping incoming
mutations to a set of Global Secondary Key Versions needed for secondary
index maintenance.  The Projector resides within the data service where
the mutation originated, and it is a consumer of the DCP feed ... The
Router is responsible for sending Key Versions to the index service.
The router relies on the index distribution and partitioning topology to
determine which indexer(s) should receive the key version."

One projector pump runs per (data node, bucket).  Every index on the
bucket but a deferred one reads its own DCP stream of each locally
active vBucket, from its own checkpoint; the pump evaluates each
index's definition against its stream's mutations and hands the
resulting :class:`KeyVersion` batches to the router, which forwards
them to the responsible index-service node(s) over the network.  An
index is filled one way: a new index has no checkpoint, so its streams
open at seqno 0, and that replay -- a reset of the vBucket at the index,
then every change the vBucket still has -- is its build.

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
    #: None = a reset: the vBucket's rows and mark go, its replay from
    #: seqno 0 follows.
    doc_id: str | None
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

    def route(self, key_versions: list[KeyVersion]) -> set[tuple[str, int]]:
        """Deliver a slice of key versions, one ``gsi_apply`` per
        responsible index node, all in one ``Network.scatter`` wave, and
        return the ``(index, vBucket)`` pairs that were NOT delivered in
        full.

        The caller must not advance such a pair's stream: it replays the
        slice instead, which is safe because a batch replaces a
        document's entries.  An index's vBucket owed to an unreachable
        node sends nothing to any of that index's nodes this slice --
        the ``request_plus`` barrier reads the maximum watermark over an
        index's partitions, and that is only sound while no partition
        holds a vBucket's later seqno before another holds its earlier
        one.  Another index's streams of the vBucket are not held: one
        index's host being down delays no other index."""
        batches: dict[str, list[KeyVersion]] = {}
        for kv in key_versions:
            for target in self._targets(kv):
                batches.setdefault(target, []).append(kv)
        source = self.node.name
        held = {
            (kv.index_name, kv.vbucket_id)
            for target, batch in batches.items()
            if not self.network.reachable(source, target)
            for kv in batch
        }
        if held:
            batches = {target: kept for target, batch in batches.items()
                       if (kept := [kv for kv in batch
                                    if (kv.index_name, kv.vbucket_id)
                                    not in held])}
        outcomes = self.network.scatter(
            source, list(batches), "gsi_apply",
            [(batch,) for batch in batches.values()])
        for batch, outcome in zip(batches.values(), outcomes):
            if isinstance(outcome, NodeDownError):
                held.update((kv.index_name, kv.vbucket_id) for kv in batch)
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

    Its stream table is keyed by ``(index, catalog revision, vBucket)``:
    every index projected here -- building or ready -- reads its own
    stream of each locally active vBucket from its own checkpoint
    (:attr:`checkpoints`).  A key without one opens at seqno 0, and so
    does a rollback; such a stream is preceded by its vBucket's reset,
    which the indexer applies in the same commit as the replay."""

    BATCH = 256

    def __init__(self, node, bucket: str, catalog, network):
        super().__init__()
        self.node = node
        self.bucket = bucket
        self.catalog = catalog
        self.router = Router(node, catalog, network)
        #: Stream key -> the seqno delivered through.
        self.checkpoints: dict[tuple[str, int, int], int] = {}
        #: Keys opened at seqno 0 since the last slice.
        self._resets: list[tuple[str, int, int]] = []

    def pump(self) -> bool:
        """Reset what reopened at 0, project everything the streams yield
        this slice, route it as one batch, and advance the keys whose
        vBuckets the batch was delivered for.  True only when something
        was delivered: claiming progress for a slice that will be
        replayed would livelock ``run_until_idle`` while an indexer node
        is down."""
        engine = self.node.engines.get(self.bucket)
        if engine is None or not self.node.alive:
            return False
        metas = [meta for meta in self.catalog.indexes_on(self.bucket)
                 if meta.state != "deferred"]
        if not metas and not self.streams:
            return False
        producer = self.node.producers[self.bucket]
        active = engine.owned_vbuckets(VBucketState.ACTIVE)
        self.sync({(meta.definition.name, meta.revision, vbucket_id):
                   (producer, vbucket_id)
                   for meta in metas for vbucket_id in active})
        definitions = {meta.definition.name: meta.definition
                       for meta in metas}
        resets, self._resets = self._resets, []
        key_versions = [KeyVersion(index_name=name, bucket=self.bucket,
                                   doc_id=None, entries=[],
                                   vbucket_id=vbucket_id, seqno=0)
                        for name, _revision, vbucket_id in resets]
        polled = self.poll(self.BATCH)
        for (name, _revision, vbucket_id), _stream, docs in polled:
            definition = definitions[name]
            for doc in docs:
                key_versions.append(KeyVersion(
                    index_name=name,
                    bucket=self.bucket,
                    doc_id=doc.key,
                    entries=[] if doc.meta.deleted
                    else definition.entries_for(doc.value, doc.key),
                    vbucket_id=vbucket_id,
                    seqno=doc.meta.seqno,
                ))
                self.node.metrics.inc("gsi.projected")
        sent = {(kv.index_name, kv.vbucket_id) for kv in key_versions}
        undelivered = (self.router.route(key_versions) if key_versions
                       else set())
        for key in resets + [key for key, _stream, _docs in polled]:
            if (key[0], key[2]) in undelivered and key in self.streams:
                # Reopened by the next sync from the last delivered seqno,
                # so the slice is retried instead of silently lost.
                self.drop(key)
        # An idle stream did not move, so only the streams polled can
        # advance a checkpoint.
        for key, stream, _docs in polled:
            if (key[0], key[2]) not in undelivered:
                self.checkpoints[key] = stream.last_seqno
        return bool(sent - undelivered)

    def checkpoint(self, key) -> tuple[int, int]:
        """Under the local copy's uuid: a mark lives only while active."""
        vb = self.node.engines[self.bucket].vbuckets[key[2]]
        return vb.uuid, self.checkpoints.get(key, 0)

    def rollback(self, key, seqno: int) -> int:
        """Replay from 0: the reset drops what the lost history indexed."""
        return 0

    def opened(self, key, stream):
        if stream.last_seqno == 0:
            self.checkpoints.pop(key, None)
            self._resets.append(key)
        return stream

    def retired(self, key) -> None:
        self.checkpoints.pop(key, None)
