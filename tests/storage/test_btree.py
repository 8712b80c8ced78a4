"""Tests for the append-only copy-on-write B+tree."""

import functools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.gsi.storage import HIGH_BOUND, composite_compare
from repro.storage.appendlog import AppendLog
from repro.storage.btree import BTree, default_compare


def make_tree(**kwargs) -> BTree:
    log = AppendLog(SimulatedDisk().open("t"))
    return BTree(log, **kwargs)


class TestBasicOps:
    def test_empty_lookup(self):
        tree = make_tree()
        assert tree.lookup("a") == (False, None)

    def test_insert_and_lookup(self):
        tree = make_tree().batch_update(inserts=[("a", 1), ("b", 2)])
        assert tree.lookup("a") == (True, 1)
        assert tree.lookup("b") == (True, 2)
        assert tree.lookup("c") == (False, None)

    def test_update_replaces(self):
        tree = make_tree().batch_update(inserts=[("a", 1)])
        tree = tree.batch_update(inserts=[("a", 99)])
        assert tree.lookup("a") == (True, 99)
        assert tree.count() == 1

    def test_delete(self):
        tree = make_tree().batch_update(inserts=[("a", 1), ("b", 2)])
        tree = tree.batch_update(deletes=["a"])
        assert tree.lookup("a") == (False, None)
        assert tree.lookup("b") == (True, 2)

    def test_delete_absent_is_noop(self):
        tree = make_tree().batch_update(inserts=[("a", 1)])
        tree = tree.batch_update(deletes=["zzz"])
        assert tree.count() == 1

    def test_delete_everything_empties_root(self):
        tree = make_tree().batch_update(inserts=[("a", 1)])
        tree = tree.batch_update(deletes=["a"])
        assert tree.root is None

    def test_empty_batch_returns_self(self):
        tree = make_tree()
        assert tree.batch_update() is tree

    def test_insert_overrides_delete_in_same_batch(self):
        tree = make_tree().batch_update(inserts=[("a", 1)])
        tree = tree.batch_update(inserts=[("a", 2)], deletes=["a"])
        assert tree.lookup("a") == (True, 2)

    def test_copy_on_write_snapshots(self):
        """Old roots stay readable after updates (MVCC for backfill)."""
        tree_v1 = make_tree().batch_update(inserts=[("a", 1)])
        tree_v2 = tree_v1.batch_update(inserts=[("a", 2), ("b", 3)])
        assert tree_v1.lookup("a") == (True, 1)
        assert tree_v1.lookup("b") == (False, None)
        assert tree_v2.lookup("a") == (True, 2)


class TestLargeTrees:
    def test_many_keys_split_into_multiple_levels(self):
        tree = make_tree(max_node_items=4)
        keys = [f"k{i:05d}" for i in range(500)]
        tree = tree.batch_update(inserts=[(k, i) for i, k in enumerate(keys)])
        for i in (0, 123, 250, 499):
            assert tree.lookup(keys[i]) == (True, i)
        assert tree.count() == 500

    def test_incremental_inserts(self):
        tree = make_tree(max_node_items=4)
        for i in range(200):
            tree = tree.batch_update(inserts=[(f"k{i:04d}", i)])
        assert tree.count() == 200
        assert [v for _k, v in tree.items()] == list(range(200))

    def test_items_sorted(self):
        import random
        rng = random.Random(7)
        keys = [f"k{i:04d}" for i in range(300)]
        shuffled = keys[:]
        rng.shuffle(shuffled)
        tree = make_tree(max_node_items=8)
        for key in shuffled:
            tree = tree.batch_update(inserts=[(key, None)])
        assert [k for k, _ in tree.items()] == keys


class TestRangeScans:
    def make_populated(self):
        tree = make_tree(max_node_items=4)
        return tree.batch_update(inserts=[(f"k{i:03d}", i) for i in range(50)])

    def test_full_range(self):
        tree = self.make_populated()
        assert len(list(tree.range())) == 50

    def test_bounded_range(self):
        tree = self.make_populated()
        rows = list(tree.range(start="k010", end="k019"))
        assert [k for k, _ in rows] == [f"k{i:03d}" for i in range(10, 20)]

    def test_exclusive_bounds(self):
        tree = self.make_populated()
        rows = list(
            tree.range(start="k010", end="k015",
                       inclusive_start=False, inclusive_end=False)
        )
        assert [k for k, _ in rows] == ["k011", "k012", "k013", "k014"]

    def test_descending(self):
        tree = self.make_populated()
        rows = list(tree.range(start="k010", end="k012", descending=True))
        assert [k for k, _ in rows] == ["k012", "k011", "k010"]

    def test_open_start(self):
        tree = self.make_populated()
        rows = list(tree.range(end="k002"))
        assert [k for k, _ in rows] == ["k000", "k001", "k002"]

    def test_open_end(self):
        tree = self.make_populated()
        rows = list(tree.range(start="k048"))
        assert [k for k, _ in rows] == ["k048", "k049"]

    def test_empty_range(self):
        tree = self.make_populated()
        assert list(tree.range(start="zzz")) == []


class TestReduce:
    @staticmethod
    def count_reduce(values):
        return len(values)

    @staticmethod
    def count_rereduce(reductions):
        return sum(reductions)

    def make_counted(self, n=100):
        tree = make_tree(
            max_node_items=4,
            reduce_fn=self.count_reduce,
            rereduce_fn=self.count_rereduce,
        )
        return tree.batch_update(inserts=[(f"k{i:03d}", i) for i in range(n)])

    def test_full_reduce(self):
        assert self.make_counted(100).full_reduce() == 100

    def test_full_reduce_updates(self):
        tree = self.make_counted(10).batch_update(deletes=["k003"])
        assert tree.full_reduce() == 9

    def test_reduce_range(self):
        tree = self.make_counted(100)
        assert tree.reduce_range(start="k010", end="k019") == 10

    def test_reduce_range_full(self):
        tree = self.make_counted(64)
        assert tree.reduce_range() == 64

    def test_reduce_range_exclusive(self):
        tree = self.make_counted(50)
        assert tree.reduce_range(start="k010", end="k020",
                                 inclusive_start=False, inclusive_end=False) == 9

    def test_reduce_range_empty(self):
        tree = self.make_counted(10)
        assert tree.reduce_range(start="z", end="zz") == 0

    def test_reduce_without_fn_raises(self):
        with pytest.raises(ValueError):
            make_tree().reduce_range()

    def test_sum_reduce(self):
        tree = make_tree(
            max_node_items=4,
            reduce_fn=lambda values: sum(values),
        )
        tree = tree.batch_update(inserts=[(f"k{i:02d}", i) for i in range(20)])
        assert tree.full_reduce() == sum(range(20))
        assert tree.reduce_range(start="k05", end="k09") == 5 + 6 + 7 + 8 + 9


class TestIntegerKeys:
    def test_seqno_style_tree(self):
        tree = make_tree(max_node_items=4)
        tree = tree.batch_update(inserts=[(i, f"doc{i}") for i in range(100)])
        assert tree.lookup(42) == (True, "doc42")
        rows = list(tree.range(start=90, inclusive_start=False))
        assert [k for k, _ in rows] == list(range(91, 100))


@st.composite
def operation_batches(draw):
    n_batches = draw(st.integers(1, 5))
    batches = []
    for _ in range(n_batches):
        inserts = draw(
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(-100, 100)),
                max_size=20,
            )
        )
        deletes = draw(st.lists(st.integers(0, 60), max_size=10))
        batches.append((inserts, deletes))
    return batches


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(operation_batches(), st.integers(3, 8))
    def test_matches_dict_model(self, batches, fanout):
        """The tree must behave exactly like a sorted dict under any
        sequence of batch updates."""
        tree = make_tree(max_node_items=fanout)
        model: dict[int, int] = {}
        for inserts, deletes in batches:
            tree = tree.batch_update(
                inserts=list(inserts), deletes=list(deletes)
            )
            for key in deletes:
                model.pop(key, None)
            for key, value in inserts:
                model[key] = value
            assert sorted(model.items()) == list(tree.items())
            for key in range(0, 61, 7):
                assert tree.lookup(key) == (
                    (True, model[key]) if key in model else (False, None)
                )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5)), max_size=40),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    def test_reduce_range_matches_brute_force(self, inserts, bound_a, bound_b):
        start, end = min(bound_a, bound_b), max(bound_a, bound_b)
        tree = make_tree(
            max_node_items=4,
            reduce_fn=lambda vs: sum(vs),
        )
        tree = tree.batch_update(inserts=list(inserts))
        model = dict(inserts)
        expected = sum(v for k, v in model.items() if start <= k <= end)
        assert tree.reduce_range(start=start, end=end) == expected


# -- BTree.range against a model ----------------------------------------------
#
# The walk compares bounds only on its two boundary paths and finds them
# by bisection, so the cases that matter are the ones where a bound sits
# exactly on a node boundary.  The model is a flat sorted list filtered
# key by key with the comparator -- no bisection, no tree.

#: One value of every N1QL collation class, the encoded MISSING among
#: them; no two compare equal (so no ``1`` next to ``1.0``).
COMPONENTS = [{"__missing__": True}, None, False, True, 0, 1, 2.5,
              "a", "b", [1], {"k": 1}]
DOC_IDS = ["", "d0", "d1", "d2", HIGH_BOUND]

int_keys = st.integers(0, 120)
composite_keys = st.tuples(
    st.lists(st.sampled_from(COMPONENTS), min_size=0, max_size=2),
    st.sampled_from(DOC_IDS),
).map(list)


def node_last_keys(tree: BTree) -> tuple[list, int]:
    """Every interior entry's ``last_key`` and every leaf's last key --
    the bounds that land exactly on a node boundary -- and the depth."""
    found, depth, level = [], 0, [tree.root]
    while level:
        depth += 1
        below = []
        for pointer in level:
            kind, items = tree._read_node(pointer)
            found.append(items[-1][0])
            if kind == "kp":
                found.extend(last_key for last_key, _p, _r in items)
                below.extend(child for _k, child, _r in items)
        level = below
    return found, depth


def check_range_against_model(data, compare, keys):
    tree = make_tree(max_node_items=data.draw(st.sampled_from([3, 4])),
                     compare=compare)
    model: dict[str, tuple] = {}
    first = data.draw(st.lists(keys, min_size=40, max_size=70))
    batches = [(first, [])] + data.draw(st.lists(
        st.tuples(st.lists(keys, max_size=8), st.lists(keys, max_size=4)),
        max_size=4))
    serial = 0
    for inserts, deletes in batches:
        pairs = []
        for key in inserts:
            serial += 1
            pairs.append((key, serial))
        tree = tree.batch_update(inserts=pairs, deletes=deletes)
        for key in deletes:
            model.pop(json.dumps(key), None)
        for key, value in pairs:
            model[json.dumps(key)] = (key, value)
    ordered = sorted(model.values(),
                     key=functools.cmp_to_key(lambda a, b: compare(a[0], b[0])))
    boundaries, depth = node_last_keys(tree)
    assume(depth >= 3)
    bound = st.one_of(
        st.none(),
        st.sampled_from(boundaries),
        st.sampled_from([key for key, _value in ordered]),   # present
        keys,                                                # mostly absent
    )
    for _query in range(8):
        start, end = data.draw(bound), data.draw(bound)
        inclusive_start, inclusive_end, descending = (
            data.draw(st.booleans()) for _flag in range(3))

        def in_range(key):
            if start is not None:
                order = compare(key, start)
                if order < 0 or (order == 0 and not inclusive_start):
                    return False
            if end is not None:
                order = compare(key, end)
                if order > 0 or (order == 0 and not inclusive_end):
                    return False
            return True

        expected = [pair for pair in ordered if in_range(pair[0])]
        if descending:
            expected.reverse()
        rows = list(tree.range(
            start=start, end=end, inclusive_start=inclusive_start,
            inclusive_end=inclusive_end, descending=descending))
        assert rows == expected
        assert all(type(row) is tuple for row in rows)


class TestRangeAgainstModel:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_default_comparator(self, data):
        check_range_against_model(data, default_compare, int_keys)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_composite_comparator(self, data):
        check_range_against_model(data, composite_compare, composite_keys)
