"""The view engine: a DCP consumer that keeps local view indexes fresh.

Section 4.3.3: "the view engine runs within the data service ... a
consumer of the DCP feed of the mutations needed to update the view
indexes.  During initial view building, Couchbase reads the partition's
data files and applies the map function across every document."

One :class:`ViewEngine` runs per (node, bucket).  Each view it holds is
its own :class:`~repro.kv.types.GroupCommit` and reads its own DCP
stream of each locally active vBucket, keyed by ``(view, catalog
revision, vBucket)`` and resumed from that view's indexed seqno.  A new
view has none, so its streams open at seqno 0: the initial build is
that replay, committed in time like every later mutation.  A stream
opened at 0 replaces the vBucket's rows and mark in the same commit.
The per-vBucket indexed seqnos are what ``stale=false`` queries wait on
(section 3.1.2), while ``stale=ok`` reads what is committed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..common.contracts import declared_raises
from ..common.errors import ViewNotFoundError
from ..dcp.consumer import DcpConsumer
from ..kv.types import SeqnoWaiter, VBucketState
from .mapreduce import ViewDefinition
from .viewindex import ViewIndex, ViewQueryParams

if TYPE_CHECKING:
    from ..kv.engine import KVEngine


class ViewEngine(DcpConsumer):
    """Local view indexing and querying for one bucket on one node.  Its
    stream table is keyed by ``((design, view), revision, vBucket)``;
    the checkpoint is that view's watermarks."""

    BATCH = 256

    def __init__(self, node, bucket: str):
        super().__init__()
        self.node = node
        self.bucket = bucket
        self.indexes: dict[tuple[str, str], ViewIndex] = {}
        #: Keys opened at seqno 0 since the last slice.
        self._resets: list = []

    @property
    def engine(self) -> KVEngine:
        return self.node.engines[self.bucket]

    # -- DDL ------------------------------------------------------------------

    def define_view(self, definition: ViewDefinition,
                    revision: int = 0) -> ViewIndex:
        """Create a view this engine lacks, empty; the node's catalog
        reconcile calls it.  The pump builds it: its streams open at
        seqno 0, which maps every active document, as the paper
        describes."""
        filename = (
            f"views/{self.bucket}/{definition.design}_{definition.name}.view"
        )
        index = ViewIndex(definition, self.node.disk, filename, revision,
                          owner=f"views/{self.node.name}/{self.bucket}")
        self.indexes[definition.design, definition.name] = index
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
        """Hold what each view's streams yield this slice; one rewrite
        per view commits everything it holds when it is due.  An idle
        stream costs one predicate, no take.  Returns True while
        anything is held."""
        if not self.node.alive or not (self.indexes or self.streams):
            return False
        producer = self.node.producers[self.bucket]
        active = self.engine.owned_vbuckets(VBucketState.ACTIVE)
        self.sync({(key, index.revision, vbucket_id): (producer, vbucket_id)
                   for key, index in self.indexes.items()
                   for vbucket_id in active})
        resets, self._resets = self._resets, []
        held = {key: ([], [], []) for key in self.indexes}
        for view, _revision, vbucket_id in resets:
            held[view][2].append(vbucket_id)
        for (view, _revision, vbucket_id), stream, docs in self.poll(self.BATCH):
            items, marks, _resets = held[view]
            items += [(vbucket_id, doc) for doc in docs]
            marks.append((vbucket_id, stream.last_seqno))
        busy = False
        for key, index in self.indexes.items():
            items, marks, vbuckets = held[key]
            if marks or vbuckets:
                index.hold(items, marks, vbuckets)
            busy = index.tick() or busy
        return busy

    def checkpoint(self, key) -> tuple[int, int]:
        """Under the local copy's uuid: a mark lives only while active."""
        view, _revision, vbucket_id = key
        vb = self.engine.vbuckets[vbucket_id]
        return vb.uuid, self.indexes[view].watermarks.get(vbucket_id, 0)

    def rollback(self, key, seqno: int) -> int:
        """Replay from 0: the reset drops what the lost history mapped."""
        return 0

    def opened(self, key, stream):
        if stream.last_seqno == 0:
            self._resets.append(key)
        return stream

    def retired(self, key) -> None:
        """A vBucket that left this node takes its mark and its rows."""
        view, _revision, vbucket_id = key
        index = self.indexes.get(view)
        if index is not None:
            index.retire(vbucket_id)
            index.remove_vbucket(vbucket_id)

    # -- staleness --------------------------------------------------------------------

    def wait(self, design: str, name: str) -> SeqnoWaiter:
        """Register a ``stale=false`` wait on one view: every locally
        active vBucket indexed through the high seqno it has now.  It
        commits what the view holds, and the pump strikes the marks as
        the view's watermarks pass."""
        marks = {
            vbucket_id: vb.high_seqno
            for vbucket_id, vb in self.engine.vbuckets.items()
            if vb.state is VBucketState.ACTIVE
        }
        return self.get_index(design, name).register(marks)

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
