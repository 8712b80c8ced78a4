"""The local indexer.

Section 4.3.4: "The indexer component processes the changes received
from the router and manages the on-disk index tree data structure.  It
also provides the interface for the query client to run index scans."

One :class:`Indexer` lives inside each index-service node.  It hosts
index *instances* (the storage plus per-vBucket seqno watermarks), takes
key versions pushed by routers, and serves range scans.

Key versions are committed in time, like the flusher's disk write queue
(DESIGN.md § "Group commit in time for the index"): an instance is a
:class:`~repro.kv.types.GroupCommit` that holds what the routers hand it
and rewrites its tree once when the oldest held batch has waited
``FLUSH_ROUNDS`` calls of the node's ``indexer/<node>`` pump or when a
freshness waiter is registered.
A watermark names only seqnos whose rows are in the tree, and scans read
the tree: a ``not_bounded`` scan may miss what is still held, which is
the staleness ``not_bounded`` allows.

Watermarks are what ``request_plus`` consistency waits on: the scan
coordinator blocks until the indexer has processed every data-service
seqno that existed at query time (section 4.2: "the query engine will
wait until the index is updated up to the maximum sequence number for
each vBucket").  The coordinator registers that wait once
(:meth:`Indexer.wait`), which commits what the instance holds; while the
wait lasts, every batch is committed as it arrives and the instance
strikes the marks its watermarks pass.
"""

from __future__ import annotations

from ..common import tracing
from ..common.contracts import declared_raises
from ..common.disk import SimulatedDisk
from ..common.errors import IndexNotFoundError
from ..kv.types import GroupCommit, SeqnoWaiter
from .indexdef import IndexDefinition
from .projector import KeyVersion
from .storage import Groups, make_storage


class IndexInstance(GroupCommit):
    """One index's rows (or one partition of them) on one index node:
    the storage, and the key versions held for it with the per-vBucket
    watermarks they reach once committed.  ``revision`` is the catalog
    revision that made the index."""

    def __init__(self, definition: IndexDefinition, disk: SimulatedDisk,
                 node_name: str, revision: int = 0):
        super().__init__(self._write)
        self.definition = definition
        self.node_name = node_name
        self.revision = revision
        self.filename = f"gsi/{definition.bucket}/{definition.name}.index"
        self.storage = make_storage(definition.storage, disk, self.filename)

    def _write(self, held: list[KeyVersion], resets: set[int]) -> None:
        """One storage rewrite for the resets and everything held; a
        document's key versions arrive in seqno order and the last one
        wins."""
        tracing.record_write(f"gsi/{self.node_name}/{self.definition.name}")
        self.storage.update_docs([(kv.doc_id, kv.vbucket_id, kv.entries)
                                  for kv in held], resets)


class Indexer:
    """Index hosting + scan serving for one index-service node."""

    def __init__(self, node):
        self.node = node
        self.instances: dict[str, IndexInstance] = {}

    @declared_raises('InvalidArgumentError')
    def create(self, definition: IndexDefinition,
               revision: int = 0) -> IndexInstance:
        instance = IndexInstance(definition, self.node.disk, self.node.name,
                                 revision)
        self.instances[definition.name] = instance
        self.node.metrics.inc("gsi.indexes_hosted")
        return instance

    def drop(self, name: str) -> None:
        instance = self.instances.pop(name, None)
        if instance is not None:
            instance.storage.destroy()
            instance.fail(IndexNotFoundError(name))

    def instance(self, name: str) -> IndexInstance:
        instance = self.instances.get(name)
        if instance is None:
            raise IndexNotFoundError(name)
        return instance

    def pump(self) -> bool:
        """The ``indexer/<node>`` pump: one tick of every instance's
        group commit.  Returns True while anything was held, so a drain
        (``run_until_idle``) ends with every index committed."""
        busy = False
        for instance in self.instances.values():
            busy = instance.tick() or busy
        return busy

    # -- RPC surface -----------------------------------------------------------------

    def apply(self, key_versions: list[KeyVersion]) -> None:
        """Apply one router batch: its key versions grouped by index and
        held by each instance until it commits, a vBucket's reset (a
        key version without a document) ahead of its replay.  A
        document's key versions arrive in seqno order and the last one
        wins, so replaying a batch (the projector does after a partial
        delivery) changes nothing."""
        by_index: dict[str, list[KeyVersion]] = {}
        for kv in key_versions:
            by_index.setdefault(kv.index_name, []).append(kv)
        for name, batch in by_index.items():
            instance = self.instances.get(name)
            if instance is not None:
                docs = [kv for kv in batch if kv.doc_id is not None]
                instance.hold(docs, ((kv.vbucket_id, kv.seqno) for kv in docs),
                              [kv.vbucket_id for kv in batch
                               if kv.doc_id is None])

    def reset(self, bucket: str, vbucket_ids: list[int]) -> None:
        """Every index on ``bucket`` drops the rows and watermarks of
        ``vbucket_ids``, which have no active copy left: no projector
        streams them, so no stream reopened at seqno 0 can reset them,
        and KV serves none of their documents."""
        for instance in self.instances.values():
            if instance.definition.bucket == bucket:
                instance.reset(vbucket_ids)

    @declared_raises('IndexNotFoundError')
    def scan(self, name: str, low: list | None, high: list | None,
             inclusive_low: bool = True, inclusive_high: bool = True,
             descending: bool = False,
             limit: int | None = None) -> list[tuple[list, str]]:
        """Range scan; returns [(key_components, doc_id), ...] sorted.

        An index "simply returns the document ID for each attribute match
        found" (section 4.5.1) -- plus the key components themselves,
        which is what makes covering indexes (section 5.1.2) possible."""
        instance = self.instance(name)
        rows, _sorts = instance.storage.keyed_rows(
            low, high, inclusive_low, inclusive_high, descending, limit)
        self.node.metrics.inc("gsi.scans")
        self.node.metrics.inc("gsi.scan_rows", len(rows))
        return rows

    @declared_raises('IndexNotFoundError')
    def scan_page(self, name: str, low: list | None, high: list | None,
                  inclusive_low: bool = True, inclusive_high: bool = True,
                  descending: bool = False, page_size: int = 64,
                  after: tuple[list, str] | None = None,
                  ) -> tuple[list[tuple[list, str]], list[tuple], bool]:
        """One page of a range scan: up to ``page_size`` rows strictly
        past the ``after`` continuation (the last row of the previous
        page), their sort keys (``Storage.keyed_rows``), which the
        coordinator merges pages by, and an exhausted flag.

        This is the node half of the coordinator's streaming merge: the
        coordinator pulls pages on demand and stops once a LIMIT is
        satisfied, so a partition never materializes a partial the merge
        frontier will not reach.  The continuation is an exclusive bound
        on the composite ``[key, doc_id]``, so the walk starts just past
        ``after`` -- rows sharing its key but not its doc id included --
        and never re-walks a row."""
        instance = self.instance(name)
        page_size = max(1, page_size)
        rows, sorts = instance.storage.keyed_rows(
            low, high, inclusive_low, inclusive_high, descending, page_size,
            after)
        self.node.metrics.inc("gsi.scan_pages")
        self.node.metrics.inc("gsi.scan_page_rows", len(rows))
        return rows, sorts, len(rows) < page_size

    @declared_raises('IndexNotFoundError')
    def scan_aggregate(self, name: str, low: list | None, high: list | None,
                       inclusive_low: bool = True,
                       inclusive_high: bool = True,
                       group_positions: list[int] | tuple = (),
                       agg_specs: list[tuple[str, int | None]] | tuple = (),
                       ) -> Groups:
        """Partial GROUP BY over this node's index rows (section 5.1's
        pre-computed aggregates): the range's rows folded by
        :func:`~repro.gsi.storage.fold_rows` into one mergeable partial
        per group and aggregate spec, so only group summaries -- never
        rows -- cross the fabric.  A standard index serves the fold from
        its memoized node folds (``BTreeIndexStorage.fold``).

        Returns ``{group_key: (group_values, partials)}`` as the
        storage folded it, which may be a memoized fold: the caller reads
        it in place (``merge_folds`` never mutates its inputs)."""
        instance = self.instance(name)
        groups = instance.storage.fold(low, high, inclusive_low,
                                       inclusive_high, list(group_positions),
                                       list(agg_specs))
        self.node.metrics.inc("gsi.scan_aggregates")
        return groups

    @declared_raises('IndexNotFoundError')
    def watermarks(self, name: str) -> dict[int, int]:
        return dict(self.instance(name).watermarks)

    @declared_raises('IndexNotFoundError')
    def wait(self, name: str, marks: dict[int, int]) -> SeqnoWaiter:
        """Register a ``request_plus`` / ``at_plus`` wait on this
        node's instance of ``name``, committing what it holds first; a
        drop fails it with :class:`IndexNotFoundError`."""
        return self.instance(name).register(marks)

    def count(self, name: str) -> int:
        return self.instance(name).storage.count()
