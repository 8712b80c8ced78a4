"""Append-only storage engine: record log, copy-on-write B+tree with
reduce annotations, per-vBucket stores, and the compactor (section
4.3.3 of the paper)."""

from .appendlog import RT_DOC, RT_HEADER, RT_NODE, AppendLog
from .btree import BTree
from .compaction import Compactor
from .couchstore import VBucketStore

__all__ = [
    "AppendLog",
    "BTree",
    "Compactor",
    "RT_DOC",
    "RT_HEADER",
    "RT_NODE",
    "VBucketStore",
]
