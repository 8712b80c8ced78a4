"""The view engine: a DCP consumer that keeps local view indexes fresh.

Section 4.3.3: "the view engine runs within the data service ... a
consumer of the DCP feed of the mutations needed to update the view
indexes.  During initial view building, Couchbase reads the partition's
data files and applies the map function across every document."

One :class:`ViewEngine` runs per (node, bucket).  Its pump maintains a
DCP stream per locally active vBucket, applies every mutation to every
defined view, and tracks the per-vBucket indexed seqno -- which is what
``stale=false`` queries wait on (section 3.1.2).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..common import tracing
from ..common.errors import ViewExistsError
from ..dcp.messages import Deletion, Mutation
from ..dcp.producer import DcpStream
from ..kv.types import VBucketState
from .mapreduce import DocMetaView, ViewDefinition
from .viewindex import ViewIndex, ViewQueryParams

if TYPE_CHECKING:
    from ..kv.engine import KVEngine


def _map_rows(definition: ViewDefinition, docs: list) -> list:
    """``ViewIndex.update_docs`` input for ``(vbucket_id, doc)`` pairs: a
    deleted document maps to no rows."""
    batch = []
    for vbucket_id, doc in docs:
        rows = []
        if not doc.meta.deleted:
            meta = DocMetaView(doc.key, doc.meta.rev, doc.meta.expiry,
                               doc.meta.flags)
            rows = definition.run_map(doc.value, meta)
        batch.append((doc.key, vbucket_id, rows))
    return batch


class ViewEngine:
    """Local view indexing and querying for one bucket on one node."""

    BATCH = 256

    def __init__(self, node, bucket: str):
        self.node = node
        self.bucket = bucket
        self.indexes: dict[tuple[str, str], ViewIndex] = {}
        self._streams: dict[int, DcpStream] = {}
        self.indexed_seqnos: dict[int, int] = {}

    @property
    def engine(self) -> KVEngine:
        return self.node.engines[self.bucket]

    # -- DDL ------------------------------------------------------------------

    def define_view(self, definition: ViewDefinition) -> ViewIndex:
        """Create (and initially materialize) a view.

        Initial build applies the map function across every locally
        active document, as the paper describes."""
        key = (definition.design, definition.name)
        if key in self.indexes:
            raise ViewExistsError(definition.full_name)
        filename = (
            f"views/{self.bucket}/{definition.design}_{definition.name}.view"
        )
        index = ViewIndex(definition, self.node.disk, filename)
        tracing.record_write(f"views/{self.node.name}/{self.bucket}")
        engine = self.engine
        docs = (
            (vbucket_id, doc)
            for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE)
            for doc in engine.docs_in_vbucket(vbucket_id)
        )
        while batch := list(itertools.islice(docs, self.BATCH)):
            index.update_docs(_map_rows(definition, batch))
        self.indexes[key] = index
        self.node.metrics.inc("views.defined")
        return index

    def drop_view(self, design: str, name: str) -> None:
        from ..common.errors import ViewNotFoundError
        if (design, name) not in self.indexes:
            raise ViewNotFoundError(design, name)
        del self.indexes[(design, name)]

    def get_index(self, design: str, name: str) -> ViewIndex:
        from ..common.errors import ViewNotFoundError
        index = self.indexes.get((design, name))
        if index is None:
            raise ViewNotFoundError(design, name)
        return index

    # -- incremental maintenance (the DCP consumer pump) ----------------------------

    def pump(self) -> bool:
        """Apply everything the streams yield this slice: one tree
        rewrite per view, however many documents changed.  An idle
        stream costs one predicate, no take."""
        if not self.node.alive or not self.indexes:
            return False
        self._sync_streams()
        batch = []
        taken: list[tuple[int, DcpStream]] = []
        for vbucket_id, stream in self._streams.items():
            if stream.idle():
                continue
            taken.append((vbucket_id, stream))
            for message in stream.take(self.BATCH):
                if isinstance(message, (Mutation, Deletion)):
                    batch.append((vbucket_id, message.doc))
        if batch:
            tracing.record_write(f"views/{self.node.name}/{self.bucket}")
            for index in self.indexes.values():
                index.update_docs(_map_rows(index.definition, batch))
            self.node.metrics.inc("views.mutations_indexed", len(batch))
        for vbucket_id, stream in taken:
            if stream.last_seqno > self.indexed_seqnos.get(vbucket_id, 0):
                self.indexed_seqnos[vbucket_id] = stream.last_seqno
        return bool(batch)

    def _sync_streams(self) -> None:
        """Track local active vBuckets: open streams for new ones, drop
        (and purge rows of) departed ones."""
        engine = self.engine
        active = set(engine.owned_vbuckets(VBucketState.ACTIVE))
        for vbucket_id in list(self._streams):
            if vbucket_id not in active:
                self._streams.pop(vbucket_id)
                self.indexed_seqnos.pop(vbucket_id, None)
                for index in self.indexes.values():
                    index.remove_vbucket(vbucket_id)
        producer = self.node.producers[self.bucket]
        for vbucket_id in active:
            if vbucket_id in self._streams:
                continue
            start = self.indexed_seqnos.get(vbucket_id, 0)
            self._streams[vbucket_id] = producer.stream_request(
                vbucket_id, start_seqno=start
            )

    # -- staleness --------------------------------------------------------------------

    def caught_up(self) -> bool:
        """True when every locally active vBucket is indexed through its
        current high seqno (what stale=false waits for)."""
        engine = self.engine
        for vbucket_id in engine.owned_vbuckets(VBucketState.ACTIVE):
            vb = engine.vbuckets[vbucket_id]
            if self.indexed_seqnos.get(vbucket_id, 0) < vb.high_seqno:
                return False
        return True

    # -- local query (one scatter target) ------------------------------------------------

    def local_query(self, design: str, name: str,
                    params: ViewQueryParams) -> dict:
        """Run a view query against this node's rows only.  The
        scatter/gather coordinator merges these partial results."""
        index = self.get_index(design, name)
        active = set(self.engine.owned_vbuckets(VBucketState.ACTIVE))
        wants_reduce = (
            index.definition.reduce_fn is not None and params.reduce is not False
        )
        if wants_reduce and (params.group or params.group_level):
            return {"kind": "grouped", "rows": index.grouped(params, active)}
        if wants_reduce:
            return {"kind": "reduced", "value": index.reduce(params, active)}
        rows = list(index.scan(params, active))
        return {"kind": "rows", "rows": rows}
