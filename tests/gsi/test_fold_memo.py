"""The memoized aggregate fold against a plain fold.

A standard index answers ``gsi_scan_aggregate`` from per-node folds
memoized beside its node cache (``BTree.fold_range``): boundary leaves
fold their in-range rows, whole subtrees contribute their node's fold,
and partitions merge at the coordinator.  Whatever the tree's shape and
history, the answer must be the plain fold of the rows a scan of the
same range returns -- here on trees three entries wide, through random
write batches, a crash and a restart of an index node, both padded
bound flavours, every aggregate, and the values JSON tells apart but
Python does not (``1``, ``1.0``, ``True``; MISSING and NULL).  A memopt
index, whose skiplist folds its scan with the same ``fold_rows``, is
held to the same answer.
"""

import json
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.disk import SimulatedDisk
from repro.n1ql.collation import MISSING, compare
from repro.storage.appendlog import AppendLog
from repro.storage.btree import BTree

DOC_IDS = [f"d{i}" for i in range(12)]
ABSENT = object()
VALUES = [0, 1, 2, 1.0, 2.5, True, False, None, "x", "y"]
value = st.sampled_from(VALUES + [ABSENT])
document = st.fixed_dictionaries({"a": value, "b": value}).map(
    lambda fields: {k: v for k, v in fields.items() if v is not ABSENT})
write = st.tuples(st.just("write"), st.lists(
    st.tuples(st.sampled_from(DOC_IDS), st.one_of(st.none(), document)),
    min_size=1, max_size=10))
bound = st.one_of(st.none(), st.lists(st.sampled_from(VALUES),
                                      min_size=1, max_size=2))
AGGREGATES = [("COUNT", None), ("COUNT", 1), ("SUM", 0), ("SUM", 1),
              ("AVG", 1), ("MIN", 0), ("MIN", 1), ("MAX", 1), ("MAX", -1),
              ("MIN", -1)]
query = st.tuples(
    st.just("query"), bound, st.booleans(), bound, st.booleans(),
    st.sampled_from([[], [0], [1], [0, 1]]),
    st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4))
crash = st.just(("crash",))


def plain_fold(rows, group_positions, agg_specs) -> list[str]:
    """One pass over the scanned rows, in a canonical form (repr tells
    ``1``, ``1.0`` and ``True`` apart)."""
    groups: dict = {}
    for components, doc_id in rows:
        values = [components[p] for p in group_positions]
        token = json.dumps([None if v is MISSING else ["$", v] for v in values],
                           sort_keys=True)
        _values, partials = groups.setdefault(
            token, (values, [[0, 0, MISSING] for _ in agg_specs]))
        for (name, position), partial in zip(agg_specs, partials):
            if position is None:
                partial[0] += 1
                continue
            item = doc_id if position < 0 else components[position]
            if item is MISSING or item is None:
                continue
            partial[0] += 1
            if name in ("SUM", "AVG"):
                if isinstance(item, (int, float)) and not isinstance(item, bool):
                    partial[1] += item
            elif name == "MIN":
                if partial[2] is MISSING or compare(item, partial[2]) < 0:
                    partial[2] = item
            elif name == "MAX":
                if partial[2] is MISSING or compare(item, partial[2]) > 0:
                    partial[2] = item
    return sorted(repr(group) for group in groups.values())


def count_fold(tree: BTree, group, calls: list) -> dict:
    """Keys counted per ``group(key)`` over the whole tree; ``calls``
    records what each fold_items / merge call was handed."""
    def fold_items(items):
        calls.append(("fold", len(items)))
        fold: dict = {}
        for key, _value in items:
            fold[group(key)] = fold.get(group(key), 0) + 1
        return fold

    def merge(folds):
        calls.append(("merge", len(folds)))
        merged: dict = {}
        for fold in folds:
            for token, count in fold.items():
                merged[token] = merged.get(token, 0) + count
        return merged

    return tree.fold_range(fold_items=fold_items, merge=merge,
                           spec=group.__name__)


def test_only_a_fold_smaller_than_its_node_is_memoized():
    """A node's fold is kept only when it has fewer groups than the node
    has entries.  64 keys in leaves of four under interior nodes of four:
    grouped per key, no fold shrinks, nothing is kept, and each query
    folds every leaf once and merges once -- not once per level.
    Grouped per pair of keys, the leaves' folds (two groups of four
    entries) are kept and the interior ones (eight groups of four
    children) are not: a repeat folds no leaf."""
    log = AppendLog(SimulatedDisk().open("ix"))
    tree = BTree(log, max_node_items=4).batch_update(
        inserts=[(key, None) for key in range(64)])

    def per_key(key):
        return key

    def per_pair(key):
        return key // 2

    for _round in range(2):
        calls: list = []
        assert count_fold(tree, per_key, calls) == {k: 1 for k in range(64)}
        assert calls == [("fold", 4)] * 16 + [("merge", 16)]
        assert log.fold_memo == {}
    calls = []
    assert count_fold(tree, per_pair, calls) == {k: 2 for k in range(32)}
    assert calls.count(("fold", 4)) == 16
    assert len(log.fold_memo) == 16
    calls = []
    assert count_fold(tree, per_pair, calls) == {k: 2 for k in range(32)}
    assert calls == [("merge", 16)]


@settings(max_examples=30, deadline=None)
@given(with_clause=st.sampled_from(['', ' WITH {"num_partitions": 2}',
                                    ' WITH {"memory_optimized": true}']),
       actions=st.lists(st.one_of(write, query, crash), min_size=1,
                        max_size=12))
def test_memoized_fold_equals_a_plain_fold(with_clause, actions):
    with patch.object(BTree, "MAX_NODE_ITEMS", 3):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        cluster.query(f"CREATE INDEX ix ON b(a, b) USING GSI{with_clause}")
        hosts = cluster.manager.catalog.indexes_on("b")[0].describe()["nodes"]
        stored: set[str] = set()
        for action in actions:
            if action[0] == "write":
                for doc_id, doc in action[1]:
                    if doc is not None:
                        client.upsert("b", doc_id, doc)
                        stored.add(doc_id)
                    elif doc_id in stored:
                        client.remove("b", doc_id)
                        stored.discard(doc_id)
                cluster.run_until_idle()
            elif action[0] == "crash":
                cluster.crash_node(hosts[0])
                cluster.restart_node(hosts[0])
            else:
                _kind, low, inclusive_low, high, inclusive_high, \
                    group_positions, agg_specs = action
                span = dict(low=low, high=high, inclusive_low=inclusive_low,
                            inclusive_high=inclusive_high,
                            scan_consistency="request_plus")
                rows = cluster.gsi.scan("ix", **span)
                # The second answer is served from the first's memo, and
                # another spec over the same nodes keeps its own.
                for specs in (agg_specs, agg_specs, agg_specs[::-1]):
                    expected = plain_fold(rows, group_positions, specs)
                    groups = cluster.gsi.scan_aggregate(
                        "ix", group_positions=group_positions,
                        agg_specs=specs, **span)
                    assert sorted(repr(group) for group in groups) == expected
