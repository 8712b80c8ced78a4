"""The local indexer.

Section 4.3.4: "The indexer component processes the changes received
from the router and manages the on-disk index tree data structure.  It
also provides the interface for the query client to run index scans."

One :class:`Indexer` lives inside each index-service node.  It hosts
index *instances* (the storage plus per-vBucket seqno watermarks), takes
key versions pushed by routers, and serves range scans.  Watermarks are
what ``request_plus`` consistency waits on: the scan coordinator blocks
until the indexer has processed every data-service seqno that existed at
query time (section 4.2: "the query engine will wait until the index is
updated up to the maximum sequence number for each vBucket").
"""

from __future__ import annotations

import json

from ..common import tracing
from ..common.disk import SimulatedDisk
from ..common.errors import (
    IndexExistsError,
    IndexNotFoundError,
    declared_raises,
)
from ..n1ql.collation import MISSING, compare
from .indexdef import IndexDefinition
from .projector import KeyVersion
from .storage import composite_compare, make_storage


def _same_group(values: list, previous: list) -> bool:
    """Whether two rows' group values share a group token.  Decided
    without serializing only for same-typed strings, integers, booleans,
    NULL and MISSING: Python's ``1 == 1.0 == True`` and ``0.0 == -0.0``
    are not JSON's, and a list or object could hide either inside."""
    for mine, theirs in zip(values, previous):
        if (type(mine) is not type(theirs) or mine != theirs
                or isinstance(mine, (float, list, dict))):
            return False
    return True


class IndexInstance:
    """One index's rows (or one partition of them) on one index node."""

    #: one watermark per vbucket -- capacity is the vbucket keyspace.
    __bounds__ = ("watermarks",)

    def __init__(self, definition: IndexDefinition, disk: SimulatedDisk,
                 node_name: str):
        self.definition = definition
        self.node_name = node_name
        filename = f"gsi/{definition.bucket}/{definition.name}.index"
        self.storage = make_storage(definition.storage, disk, filename)
        #: vbucket -> highest seqno applied (or acknowledged via an empty
        #: key version).
        self.watermarks: dict[int, int] = {}
        self.items_applied = 0

    def apply(self, key_versions: list[KeyVersion]) -> None:
        """One storage rewrite for the batch, then the watermarks: a
        watermark never names a seqno whose rows are not in the tree."""
        tracing.record_write(f"gsi/{self.node_name}/{self.definition.name}")
        self.storage.update_docs(
            [(kv.doc_id, kv.entries) for kv in key_versions])
        watermarks = self.watermarks
        for kv in key_versions:
            if kv.seqno > watermarks.get(kv.vbucket_id, 0):
                watermarks[kv.vbucket_id] = kv.seqno
        self.items_applied += len(key_versions)

    def set_watermarks(self, marks: dict[int, int]) -> None:
        for vbucket_id, seqno in marks.items():
            if seqno > self.watermarks.get(vbucket_id, 0):
                self.watermarks[vbucket_id] = seqno


class Indexer:
    """Index hosting + scan serving for one index-service node."""

    def __init__(self, node):
        self.node = node
        self.instances: dict[str, IndexInstance] = {}

    @declared_raises('IndexExistsError', 'InvalidArgumentError')
    def create(self, definition: IndexDefinition) -> IndexInstance:
        if definition.name in self.instances:
            raise IndexExistsError(definition.name)
        instance = IndexInstance(definition, self.node.disk, self.node.name)
        self.instances[definition.name] = instance
        self.node.metrics.inc("gsi.indexes_hosted")
        return instance

    def drop(self, name: str) -> None:
        instance = self.instances.pop(name, None)
        if instance is not None:
            instance.storage.destroy()

    def instance(self, name: str) -> IndexInstance:
        instance = self.instances.get(name)
        if instance is None:
            raise IndexNotFoundError(name)
        return instance

    # -- RPC surface -----------------------------------------------------------------

    def apply(self, key_versions: list[KeyVersion]) -> None:
        """Apply one router batch: its key versions grouped by index,
        one storage rewrite per index.  A document's key versions arrive
        in seqno order and the last one wins, so replaying a batch (the
        projector does after a partial delivery) changes nothing."""
        by_index: dict[str, list[KeyVersion]] = {}
        for kv in key_versions:
            by_index.setdefault(kv.index_name, []).append(kv)
        for name, batch in by_index.items():
            instance = self.instances.get(name)
            if instance is not None:
                instance.apply(batch)

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
        rows = []
        for key_components, doc_id in instance.storage.scan(
            low, high, inclusive_low, inclusive_high, descending,
        ):
            rows.append((key_components, doc_id))
            if limit is not None and len(rows) >= limit:
                break
        self.node.metrics.inc("gsi.scans")
        self.node.metrics.inc("gsi.scan_rows", len(rows))
        return rows

    @declared_raises('IndexNotFoundError')
    def scan_page(self, name: str, low: list | None, high: list | None,
                  inclusive_low: bool = True, inclusive_high: bool = True,
                  descending: bool = False, page_size: int = 64,
                  after: tuple[list, str] | None = None,
                  ) -> tuple[list[tuple[list, str]], bool]:
        """One page of a range scan: up to ``page_size`` rows strictly
        past the ``after`` continuation (the last row of the previous
        page), plus an exhausted flag.

        This is the node half of the coordinator's streaming merge: the
        coordinator pulls pages on demand and stops once a LIMIT is
        satisfied, so a partition never materializes a partial the merge
        frontier will not reach.  The continuation restarts the walk at
        ``after``'s key, skipping rows at-or-before it -- duplicate keys
        at the page boundary are re-walked but never re-returned."""
        instance = self.instance(name)
        page_size = max(1, page_size)
        after_row: list | None = None
        if after is not None:
            after_row = [after[0], after[1]]
            if descending:
                high, inclusive_high = after[0], True
            else:
                low, inclusive_low = after[0], True
        rows: list[tuple[list, str]] = []
        for key_components, doc_id in instance.storage.scan(
            low, high, inclusive_low, inclusive_high, descending,
        ):
            if after_row is not None:
                order = composite_compare([key_components, doc_id], after_row)
                if order >= 0 if descending else order <= 0:
                    continue
            rows.append((key_components, doc_id))
            if len(rows) >= page_size:
                break
        self.node.metrics.inc("gsi.scan_pages")
        self.node.metrics.inc("gsi.scan_page_rows", len(rows))
        return rows, len(rows) < page_size

    @declared_raises('IndexNotFoundError')
    def scan_aggregate(self, name: str, low: list | None, high: list | None,
                       inclusive_low: bool = True,
                       inclusive_high: bool = True,
                       group_positions: list[int] | tuple = (),
                       agg_specs: list[tuple[str, int | None]] | tuple = (),
                       ) -> list[list]:
        """Partial GROUP BY over this node's index rows (section 5.1's
        pre-computed aggregates): group on the key components at
        ``group_positions`` and fold each ``(aggregate_name, position)``
        spec into a mergeable partial state, so only group summaries --
        never rows -- cross the fabric.

        A spec position of None is COUNT(*) (counts rows) and -1 takes
        the document id.  Each partial is ``[count, total, best]``:
        ``count`` counts non-MISSING/non-NULL inputs, ``total`` sums
        numeric inputs (SUM/AVG), ``best`` tracks the MIN/MAX candidate.
        Returns ``[[group_token, group_values, partials], ...]`` sorted
        by token; the token is the same JSON shape the query service's
        Group operator uses, so the coordinator merges by value
        equality, not object identity."""
        instance = self.instance(name)
        groups: dict[str, tuple[list, list[list]]] = {}
        entry = None
        for key_components, doc_id in instance.storage.scan(
            low, high, inclusive_low, inclusive_high, False,
        ):
            values = [key_components[p] for p in group_positions]
            # Index order keeps a leading group key's rows together, so
            # most rows land in the previous row's group: serialize a
            # token only when the group values change.
            if entry is None or not _same_group(values, entry[0]):
                token = json.dumps(
                    [None if v is MISSING else ["$", v] for v in values],
                    sort_keys=True,
                )
                entry = groups.get(token)
                if entry is None:
                    entry = (values, [[0, 0, MISSING] for _ in agg_specs])
                    groups[token] = entry
            for (agg_name, position), partial in zip(agg_specs, entry[1]):
                if position is None:  # COUNT(*): counts rows, not values
                    partial[0] += 1
                    continue
                value = doc_id if position < 0 else key_components[position]
                if value is MISSING or value is None:
                    continue  # aggregates ignore MISSING and NULL inputs
                partial[0] += 1
                if agg_name in ("SUM", "AVG") \
                        and isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    partial[1] += value
                elif agg_name == "MIN":
                    if partial[2] is MISSING or compare(value, partial[2]) < 0:
                        partial[2] = value
                elif agg_name == "MAX":
                    if partial[2] is MISSING or compare(value, partial[2]) > 0:
                        partial[2] = value
        self.node.metrics.inc("gsi.scan_aggregates")
        return [
            [token, groups[token][0], groups[token][1]]
            for token in sorted(groups)
        ]

    @declared_raises('IndexNotFoundError')
    def watermarks(self, name: str) -> dict[int, int]:
        return dict(self.instance(name).watermarks)

    def count(self, name: str) -> int:
        return self.instance(name).storage.count()
