"""One index file for both secondary-index kinds.

The view engine's local B-tree, which keeps each row's vBucket "in the
tree itself" (section 4.3.3), and the GSI indexer's on-disk index tree
(section 4.3.4) are one design: a copy-on-write B-tree over an
append-only log, plus an in-memory back-index ``{vbucket_id: {doc_id:
[key, ...]}}`` naming the keys each document's rows are stored under.
With it a batch of changed documents is one tree rewrite and a vBucket
that leaves takes its rows in another, without a walk of the tree.  The
tree's root lives only in the memory of whoever wrote it, so a file of
the same name left behind could never be read again: an index file
starts by deleting it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..common.disk import SimulatedDisk
from .appendlog import AppendLog
from .btree import BTree, ReduceFn, RereduceFn, SortKey

#: ``row(doc_id, vbucket_id, row)`` -> the ``(key, value)`` the tree
#: stores for one row a document emitted.
RowFn = Callable[[str, int, Any], tuple[Any, Any]]

#: ``{vbucket_id: {doc_id: keys of the document's rows}}``.
BackIndex = dict[int, dict[str, list]]


def replace_rows(back_index: BackIndex, batch: list[tuple[str, int, list]],
                 row: RowFn, reset: Iterable[int] = ()
                 ) -> tuple[list, list, int]:
    """The tree edits that drop every row of the ``reset`` vBuckets and
    then replace the rows of every ``(doc_id, vbucket_id, rows)`` in
    ``batch`` -- ``(deletes, inserts, documents changed)`` -- with
    ``back_index`` updated to match.  The last triple per document wins
    and empty ``rows`` removes the document.  A document's vBucket is a
    hash of its id, so its old keys are found under the vBucket it
    arrives with."""
    deletes: list = [key for vbucket_id in reset
                     for keys in back_index.pop(vbucket_id, {}).values()
                     for key in keys]
    inserts: list = []
    changed = 0
    latest = {doc_id: (vbucket_id, rows) for doc_id, vbucket_id, rows in batch}
    for doc_id, (vbucket_id, rows) in latest.items():
        docs = back_index.get(vbucket_id)
        old_keys = docs.pop(doc_id, ()) if docs is not None else ()
        if not old_keys and not rows:
            continue
        changed += 1
        deletes.extend(old_keys)
        if rows:
            stored = [row(doc_id, vbucket_id, emitted) for emitted in rows]
            inserts.extend(stored)
            if docs is None:
                docs = back_index[vbucket_id] = {}
            docs[doc_id] = [key for key, _value in stored]
        elif not docs:
            del back_index[vbucket_id]
    return deletes, inserts, changed


class IndexFile:
    """A secondary index's tree, file and back-index on one node."""

    #: Changed documents between automatic compactions; None compacts
    #: only on request.
    COMPACT_EVERY: int | None = None

    def __init__(self, disk: SimulatedDisk, filename: str, row: RowFn,
                 sort_key: SortKey, reduce_fn: ReduceFn | None = None,
                 rereduce_fn: RereduceFn | None = None):
        self.disk = disk
        self.filename = filename
        self.row = row
        disk.delete(filename)
        self.log = AppendLog(disk.open(filename))
        self.tree = BTree(self.log, sort_key=sort_key, reduce_fn=reduce_fn,
                          rereduce_fn=rereduce_fn)
        self.back_index: BackIndex = {}
        self.updates_since_compaction = 0
        self.compactions = 0

    def update_docs(self, batch: list[tuple[str, int, list]],
                    reset: Iterable[int] = ()) -> None:
        """Drop the rows of the ``reset`` vBuckets and replace the rows
        of every ``(doc_id, vbucket_id, rows)`` in one tree rewrite; the
        last triple per document wins, and empty ``rows`` removes the
        document."""
        deletes, inserts, changed = replace_rows(self.back_index, batch,
                                                 self.row, reset)
        # A key both deleted and inserted is inserted: batch_update lets
        # the insert win.
        self.tree = self.tree.batch_update(inserts=inserts, deletes=deletes)
        self.updates_since_compaction += changed
        if self.COMPACT_EVERY is not None \
                and self.updates_since_compaction >= self.COMPACT_EVERY:
            self.compact()

    def remove_vbucket(self, vbucket_id: int) -> None:
        """Purge every row of a vBucket that left the node (the masking
        the paper describes, made permanent)."""
        self.update_docs([], (vbucket_id,))

    def compact(self) -> None:
        """Rewrite the file with only the live rows.  Index files are
        append-only like the data files (section 4.3.3), so churn leaves
        dead nodes behind; compaction copies the current tree into a
        fresh file and swaps it in, with fresh node and fold caches."""
        temp_name = self.filename + ".compact"
        self.disk.delete(temp_name)
        new_log = AppendLog(self.disk.open(temp_name))
        tree = self.tree
        new_tree = BTree(new_log, sort_key=tree.sort_key,
                         reduce_fn=tree.reduce_fn,
                         rereduce_fn=tree.rereduce_fn)
        live_rows = list(tree.items())
        if live_rows:
            new_tree = new_tree.batch_update(inserts=live_rows)
        self.disk.delete(self.filename)
        self.disk.rename(temp_name, self.filename)
        self.log = new_log
        self.tree = new_tree
        self.updates_since_compaction = 0
        self.compactions += 1

    def count(self) -> int:
        return self.tree.count()

    def destroy(self) -> None:
        """Delete the file."""
        self.disk.delete(self.filename)
