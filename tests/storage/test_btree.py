"""Tests for the append-only copy-on-write B+tree."""

import functools
import json
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.common.metrics import MetricsRegistry
from repro.gsi.indexdef import IndexDefinition
from repro.gsi.indexer import Indexer
from repro.gsi.storage import HIGH_BOUND, index_key, make_storage
from repro.n1ql.collation import MISSING, compare
from repro.storage.appendlog import AppendLog
from repro.storage.btree import BTree, encode_record
from repro.views.mapreduce import ViewDefinition
from repro.views.viewindex import ViewIndex

from .btree_oracle import full_reduce


def natural_compare(a, b) -> int:
    """Three-way comparison of keys that order themselves."""
    return (a > b) - (a < b)


def composite_compare(a, b) -> int:
    """The oracle for :func:`index_key`: N1QL collation over
    ``[components, doc_id]`` composites, component by component (the
    encoded MISSING as MISSING, a shorter prefix first), doc id last."""
    def decoded(component):
        if isinstance(component, dict) and component.get("__missing__"):
            return MISSING
        return component

    for mine, theirs in zip(a[0], b[0]):
        order = compare(decoded(mine), decoded(theirs))
        if order:
            return order
    order = (len(a[0]) > len(b[0])) - (len(a[0]) < len(b[0]))
    return order or compare(a[1], b[1])


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
        tree = tree.batch_update(inserts=[("a", 1)]).batch_update(
            inserts=[("a", 2)])
        assert tree.replaced == [["a", 1]]
        assert tree.batch_update() is tree and tree.replaced == []

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
        assert full_reduce(self.make_counted(100)) == 100

    def test_full_reduce_updates(self):
        tree = self.make_counted(10).batch_update(deletes=["k003"])
        assert full_reduce(tree) == 9

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
        assert full_reduce(tree) == sum(range(20))
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
            touched = set(deletes) | {key for key, _value in inserts}
            assert tree.replaced == [[key, model[key]]
                                     for key in sorted(touched & set(model))]
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


def check_range_against_model(data, compare, sort_key, keys):
    tree = make_tree(max_node_items=data.draw(st.sampled_from([3, 4])),
                     sort_key=sort_key)
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
        check_range_against_model(data, natural_compare, None, int_keys)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_composite_comparator(self, data):
        check_range_against_model(data, composite_compare, index_key,
                                  composite_keys)

    @pytest.mark.parametrize("kind", ["standard", "memopt"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_index_scans_match_the_comparator(self, kind, data):
        """A GSI backend's scans over prefix, exclusive and descending
        bounds, against a model sorted by the comparator; and the same
        scans paged through ``Indexer.scan_page``'s continuation."""
        indexer = Indexer(SimpleNamespace(disk=SimulatedDisk(), name="n1",
                                          metrics=MetricsRegistry()))
        instance = indexer.create(IndexDefinition(
            "i", "b", ["a", "b"], [lambda doc: MISSING] * 2, storage=kind))
        storage = instance.storage
        if kind == "standard":
            storage.tree.max_node_items = data.draw(st.sampled_from([3, 4]))
        docs = {}
        for _batch in range(data.draw(st.integers(1, 4))):
            batch = data.draw(st.lists(st.tuples(
                st.sampled_from(SCAN_DOC_IDS),
                st.lists(st.lists(st.sampled_from(SCAN_COMPONENTS),
                                  min_size=2, max_size=2), max_size=3)),
                max_size=30))
            storage.update_docs([(doc_id, 0, entries)
                                 for doc_id, entries in batch])
            docs.update(batch)
        # A document's repeated entry is one row.
        rows = {repr((entry, doc_id)): [entry, doc_id]
                for doc_id, entries in docs.items() for entry in entries}
        model = sorted(rows.values(),
                       key=functools.cmp_to_key(composite_compare))
        bound = st.none() | st.lists(st.sampled_from(SCAN_COMPONENTS),
                                     min_size=1, max_size=2)
        for _query in range(6):
            low, high = data.draw(bound), data.draw(bound)
            inclusive_low, inclusive_high, descending = (
                data.draw(st.booleans()) for _flag in range(3))
            # The coordinator's prefix padding (``_pad_span``).
            if low is not None and not inclusive_low and len(low) < 2:
                low = low + [HIGH_BOUND]
            if high is not None and inclusive_high and len(high) < 2:
                high = high + [HIGH_BOUND]
            start = None if low is None else [
                low, "" if inclusive_low else HIGH_BOUND]
            end = None if high is None else [
                high, HIGH_BOUND if inclusive_high else ""]
            expected = [(entry, doc_id) for entry, doc_id in model
                        if (start is None or composite_compare(
                            [entry, doc_id], start) >= 0)
                        and (end is None or composite_compare(
                            [entry, doc_id], end) <= 0)]
            if descending:
                expected.reverse()
            args = (low, high, inclusive_low, inclusive_high, descending)
            assert storage.keyed_rows(*args)[0] == expected
            assert indexer.scan("i", *args) == expected
            limit = data.draw(st.integers(0, 5))
            assert indexer.scan("i", *args, limit=limit) == expected[:limit]
            page_size = data.draw(st.integers(1, 4))
            pages, after = [], None
            while True:
                rows, sorts, exhausted = indexer.scan_page(
                    "i", *args, page_size=page_size, after=after)
                assert sorts == [index_key(row) for row in rows]
                pages += rows
                if exhausted:
                    break
                after = rows[-1]
            assert pages == expected


#: Components of the index scan model: every collation class, MISSING
#: among them, and few enough that equal keys under other doc ids are
#: common and pages split runs of them.  No two collate equal (no ``1``
#: beside ``1.0``), so the model's order has no ties.
SCAN_COMPONENTS = [MISSING, None, False, True, 0, 1, 2.5, "a", "b",
                   [1], {"k": 1}]
SCAN_DOC_IDS = ["d0", "d1", "d2", "d3", "d4", "d5"]


# -- bytes written against a full encode ----------------------------------------
#
# A rewritten node re-encodes only the entries a batch changed and
# splices in the cached encodings of the rest.  The oracle is the full
# encode: every reachable node's body must be ``encode_record`` of its
# decoded entries, and a tree that reads every node cold (encoding its
# entries afresh) must append exactly the bytes a warm one does.

#: Keys whose JSON texts differ but which GSI collation holds equal
#: (``1`` and ``1.0``, ``[1]`` and ``[1.0]``), beside every other class.
MIXED_COMPONENTS = [None, False, True, 0, 1, 1.0, -2.5, "", "a", "b",
                    [1], [1.0], ["a", None], {"__missing__": True}]


def view_tree_kwargs() -> dict:
    """The sort key and reduce pair of a ``_stats`` view index."""
    index = ViewIndex(ViewDefinition("d", "v", lambda doc, meta, emit: None,
                                     "_stats"),
                      SimulatedDisk(), "v.view")
    tree = index.tree
    return {"sort_key": tree.sort_key, "reduce_fn": tree.reduce_fn,
            "rereduce_fn": tree.rereduce_fn}


TREE_KINDS = {
    "str": (st.text("abcdé", max_size=3), st.integers(-9, 9), dict),
    "int": (st.integers(-40, 40), st.lists(st.integers(0, 3), max_size=2),
            dict),
    "gsi": (st.tuples(st.lists(st.sampled_from(MIXED_COMPONENTS),
                               max_size=2),
                      st.sampled_from(["d0", "d1", "d2"])).map(list),
            st.none(), lambda: {"sort_key": index_key}),
    "view": (st.tuples(st.sampled_from(MIXED_COMPONENTS[:11]),
                       st.sampled_from(["d0", "d1"])).map(list),
             st.builds(lambda v, vb: {"v": v, "vb": vb},
                       st.integers(-5, 5) | st.sampled_from([0.5, -0.0]),
                       st.integers(0, 3)),
             view_tree_kwargs),
}


def assert_bodies_are_full_encodes(tree: BTree) -> None:
    stack = [] if tree.root is None else [tree.root]
    while stack:
        pointer = stack.pop()
        _rt, body = tree.log.read(pointer)
        kind, items = json.loads(body)
        assert body == encode_record([kind, items]).encode()
        cached = tree.log.node_cache.get(pointer)
        if cached is not None:
            assert body == encode_record([cached[0], cached[1]]).encode()
        if kind == "kp":
            stack.extend(child for _key, child, _reduction in items)


class TestBytesWritten:
    @pytest.mark.parametrize("kind", sorted(TREE_KINDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_and_cold_write_full_encodes(self, kind, data):
        keys, values, tree_kwargs = TREE_KINDS[kind]
        fanout = data.draw(st.sampled_from([3, 4, 5]))
        warm, cold = (make_tree(max_node_items=fanout, **tree_kwargs())
                      for _tree in range(2))
        batches = data.draw(st.lists(st.tuples(
            st.lists(st.tuples(keys, values), max_size=25),
            st.lists(keys, max_size=8)), min_size=1, max_size=6))
        for inserts, deletes in batches:
            cold.log.node_cache.clear()
            warm = warm.batch_update(inserts=inserts, deletes=deletes)
            cold = cold.batch_update(inserts=inserts, deletes=deletes)
            assert_bodies_are_full_encodes(warm)
            assert cold.log.file.read(0, cold.log.size) == \
                warm.log.file.read(0, warm.log.size)
            assert (warm.root, warm.node_bytes) == (cold.root, cold.node_bytes)


# -- point lookups against a model ----------------------------------------------
#
# ``lookup`` bisects each node.  The model is a dict keyed by a key's JSON
# text, so every kind below draws keys that compare equal only when their
# texts are equal.

LOOKUP_KINDS = {
    "str": (st.text("abcdé", max_size=3), dict),
    "int": (st.integers(-40, 40), dict),
    "gsi": (composite_keys, lambda: {"sort_key": index_key}),
    "view": (st.tuples(st.sampled_from(COMPONENTS),
                       st.sampled_from(["d0", "d1"])).map(list),
             view_tree_kwargs),
}


class TestLookupAgainstModel:
    @pytest.mark.parametrize("kind", sorted(LOOKUP_KINDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_dict_model(self, kind, data):
        keys, tree_kwargs = LOOKUP_KINDS[kind]
        tree = make_tree(max_node_items=data.draw(st.sampled_from([3, 4, 5])),
                         **tree_kwargs())
        model: dict[str, tuple] = {}
        batches = data.draw(st.lists(st.tuples(
            st.lists(keys, max_size=30), st.lists(keys, max_size=8)),
            min_size=1, max_size=4))
        serial = 0
        for inserts, deletes in batches:
            pairs = []
            for key in inserts:
                serial += 1
                pairs.append((key, {"v": serial}))
            tree = tree.batch_update(inserts=pairs, deletes=deletes)
            for key in deletes:
                model.pop(json.dumps(key), None)
            for key, value in pairs:
                model[json.dumps(key)] = (key, value)
            probes = [key for key, _value in model.values()] + deletes \
                + data.draw(st.lists(keys, max_size=10))
            if tree.root is not None:
                probes += node_last_keys(tree)[0]
            for key in probes:
                expected = model.get(json.dumps(key))
                assert tree.lookup(key) == (
                    (True, expected[1]) if expected else (False, None))


# -- the record encoder against the standard library's -------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20)


class TestEncodeRecord:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_the_standard_encoder(self, value):
        assert encode_record(value) == \
            json.JSONEncoder(separators=(",", ":")).encode(value)

    def test_rejects_what_the_standard_encoder_rejects(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON"):
            encode_record({"k": [1, {2}]})
