"""The view engine: a DCP consumer that keeps local view indexes fresh.

Section 4.3.3: "the view engine runs within the data service ... a
consumer of the DCP feed of the mutations needed to update the view
indexes.  During initial view building, Couchbase reads the partition's
data files and applies the map function across every document."

One :class:`ViewEngine` runs per (node, bucket).  Its pump maintains a
DCP stream per locally active vBucket, commits every mutation to every
defined view in time (a :class:`~repro.kv.types.GroupCommit`), and
tracks the per-vBucket indexed seqno -- which is what ``stale=false``
queries wait on (section 3.1.2), while ``stale=ok`` reads what is
committed.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..common import tracing
from ..common.contracts import declared_raises
from ..common.errors import ViewNotFoundError
from ..common.jsonval import deep_copy
from ..dcp.consumer import DcpConsumer
from ..kv.types import GroupCommit, SeqnoWaiter, VBucketState
from .mapreduce import DocMetaView, ViewDefinition
from .viewindex import ViewIndex, ViewQueryParams

if TYPE_CHECKING:
    from ..kv.engine import KVEngine


def _map_rows(definition: ViewDefinition, docs: list) -> list:
    """``ViewIndex.update_docs`` input for ``(vbucket_id, doc)`` pairs: a
    deleted document maps to no rows.  The map function is user code, so
    it gets its own copy of the value: the document is the stored one."""
    batch = []
    for vbucket_id, doc in docs:
        rows = []
        if not doc.meta.deleted:
            meta = DocMetaView(doc.key, doc.meta.rev, doc.meta.expiry,
                               doc.meta.flags)
            rows = definition.run_map(deep_copy(doc.value), meta)
        batch.append((doc.key, vbucket_id, rows))
    return batch


class ViewEngine(DcpConsumer):
    """Local view indexing and querying for one bucket on one node.  Its
    stream table is keyed by vBucket; the checkpoint is the group
    commit's watermarks."""

    BATCH = 256

    def __init__(self, node, bucket: str):
        super().__init__()
        self.node = node
        self.bucket = bucket
        self.indexes: dict[tuple[str, str], ViewIndex] = {}
        #: Held documents, indexed seqnos and ``stale=false`` waits.
        self.commits = GroupCommit(self._write)

    @property
    def engine(self) -> KVEngine:
        return self.node.engines[self.bucket]

    # -- DDL ------------------------------------------------------------------

    def define_view(self, definition: ViewDefinition,
                    revision: int = 0) -> ViewIndex:
        """Create (and initially materialize) a view this engine lacks;
        the node's catalog reconcile calls it.

        Initial build applies the map function across every locally
        active document, as the paper describes, and covers each active
        vBucket through its high seqno.  The views already defined first
        catch up to the streams' ends and commit, and every stream then
        resumes after the build, so no document is mapped into a view
        twice."""
        while self.indexes and self._take():
            pass
        filename = (
            f"views/{self.bucket}/{definition.design}_{definition.name}.view"
        )
        index = ViewIndex(definition, self.node.disk, filename, revision)
        tracing.record_write(f"views/{self.node.name}/{self.bucket}")
        engine = self.engine
        active = engine.owned_vbuckets(VBucketState.ACTIVE)
        docs = (
            (vbucket_id, doc)
            for vbucket_id in active
            for doc in engine.docs_in_vbucket(vbucket_id)
        )
        while batch := list(itertools.islice(docs, self.BATCH)):
            index.update_docs(_map_rows(definition, batch))
        self.commits.set_watermarks({
            vbucket_id: engine.vbuckets[vbucket_id].high_seqno
            for vbucket_id in active})
        self.indexes[definition.design, definition.name] = index
        for vbucket_id in list(self.streams):
            self.drop(vbucket_id)  # reopened after the build's marks
        self.node.metrics.inc("views.defined")
        return index

    def drop_view(self, design: str, name: str) -> None:
        """Forget a view and delete its file."""
        self.indexes.pop((design, name)).destroy()

    def get_index(self, design: str, name: str) -> ViewIndex:
        index = self.indexes.get((design, name))
        if index is None:
            raise ViewNotFoundError(design, name)
        return index

    # -- incremental maintenance (the DCP consumer pump) ----------------------------

    @declared_raises('CorruptFileError', 'DiskFullError',
                     'InvalidArgumentError')
    def pump(self) -> bool:
        """Hold what the streams yield this slice; one rewrite per view
        commits everything held when it is due.  An idle stream costs
        one predicate, no take.  Returns True while anything is held."""
        if not self.node.alive or not self.indexes:
            return False
        self._take()
        return self.commits.tick()

    def _take(self) -> bool:
        """Hold one poll of the streams; False when every one was idle."""
        producer = self.node.producers[self.bucket]
        self.sync({vbucket_id: (producer, vbucket_id) for vbucket_id
                   in self.engine.owned_vbuckets(VBucketState.ACTIVE)})
        polled = self.poll(self.BATCH)
        self.commits.hold(
            [(vbucket_id, doc) for vbucket_id, _stream, docs in polled
             for doc in docs],
            ((vbucket_id, stream.last_seqno)
             for vbucket_id, stream, _docs in polled))
        return bool(polled)

    def _write(self, docs: list) -> None:
        """Map the held ``(vbucket_id, doc)`` pairs into every view."""
        tracing.record_write(f"views/{self.node.name}/{self.bucket}")
        for index in self.indexes.values():
            index.update_docs(_map_rows(index.definition, docs))
        self.node.metrics.inc("views.mutations_indexed", len(docs))

    def checkpoint(self, vbucket_id: int) -> tuple[int, int]:
        """Under the local copy's uuid: a mark lives only while active."""
        vb = self.engine.vbuckets[vbucket_id]
        return vb.uuid, self.commits.watermarks.get(vbucket_id, 0)

    def retired(self, vbucket_id: int) -> None:
        """A vBucket that left this node takes its mark and its rows."""
        self.commits.retire(vbucket_id)
        for index in self.indexes.values():
            index.remove_vbucket(vbucket_id)

    # -- staleness --------------------------------------------------------------------

    def wait(self) -> SeqnoWaiter:
        """Register a ``stale=false`` wait: every locally active vBucket
        indexed through the high seqno it has now.  It commits what is
        held, and the pump strikes the marks as its watermarks pass."""
        marks = {
            vbucket_id: vb.high_seqno
            for vbucket_id, vb in self.engine.vbuckets.items()
            if vb.state is VBucketState.ACTIVE
        }
        return self.commits.register(marks)

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
