"""Tests for view definitions, builtin reduces, and the view index."""

import pytest

from repro.common.disk import SimulatedDisk
from repro.views.mapreduce import (
    BUILTIN_REDUCES,
    DocMetaView,
    ViewDefinition,
    attribute_view,
    primary_view,
)
from repro.views.viewindex import ViewIndex, ViewQueryParams

META = DocMetaView(id="doc1", rev=1, expiry=0.0, flags=0)


class TestMapFunctions:
    def test_emit_rows(self):
        def map_fn(doc, meta, emit):
            emit(doc["name"], doc["email"])

        view = ViewDefinition("dd", "profile", map_fn)
        rows = view.run_map({"name": "Dipti", "email": "d@cb.com"}, META)
        assert rows == [("Dipti", "d@cb.com")]

    def test_conditional_emit(self):
        """The paper's Profile view: emit only when doc.name exists."""
        def map_fn(doc, meta, emit):
            if "name" in doc:
                emit(doc["name"], doc.get("email"))

        view = ViewDefinition("dd", "profile", map_fn)
        assert view.run_map({"other": 1}, META) == []
        assert view.run_map({"name": "x"}, META) == [("x", None)]

    def test_multi_emit(self):
        def map_fn(doc, meta, emit):
            for tag in doc.get("tags", []):
                emit(tag, 1)

        view = ViewDefinition("dd", "tags", map_fn)
        rows = view.run_map({"tags": ["a", "b"]}, META)
        assert rows == [("a", 1), ("b", 1)]

    def test_throwing_map_emits_nothing(self):
        def map_fn(doc, meta, emit):
            raise RuntimeError("boom")

        view = ViewDefinition("dd", "bad", map_fn)
        assert view.run_map({}, META) == []

    def test_meta_available(self):
        def map_fn(doc, meta, emit):
            emit(meta.id, meta.rev)

        view = ViewDefinition("dd", "ids", map_fn)
        assert view.run_map({}, META) == [("doc1", 1)]

    def test_attribute_view(self):
        view = attribute_view("dd", "email", "email")
        assert view.run_map({"email": "a@b.c"}, META) == [("a@b.c", None)]
        assert view.run_map({"other": 1}, META) == []

    def test_attribute_view_dotted_path(self):
        view = attribute_view("dd", "zip", "address.zip")
        assert view.run_map({"address": {"zip": "94040"}}, META) == [("94040", None)]
        assert view.run_map({"address": "flat"}, META) == []

    def test_primary_view(self):
        view = primary_view()
        assert view.run_map({"any": "thing"}, META) == [("doc1", None)]

    def test_unknown_builtin_reduce(self):
        with pytest.raises(ValueError):
            ViewDefinition("dd", "v", lambda d, m, e: None, "_median")


class TestBuiltinReduces:
    def test_count(self):
        count = BUILTIN_REDUCES["_count"]
        assert count([1, "a", None], False) == 3
        assert count([3, 4], True) == 7

    def test_sum(self):
        total = BUILTIN_REDUCES["_sum"]
        assert total([1, 2, 3.5], False) == 6.5
        assert total([6, 4], True) == 10

    def test_stats(self):
        stats = BUILTIN_REDUCES["_stats"]
        result = stats([1, 2, 3], False)
        assert result["sum"] == 6
        assert result["count"] == 3
        assert result["min"] == 1
        assert result["max"] == 3
        assert result["sumsqr"] == 14

    def test_stats_rereduce(self):
        stats = BUILTIN_REDUCES["_stats"]
        a = stats([1, 2], False)
        b = stats([3], False)
        merged = stats([a, b], True)
        assert merged == stats([1, 2, 3], False)


def make_index(reduce_fn=None):
    definition = ViewDefinition("dd", "v", lambda d, m, e: None, reduce_fn)
    return ViewIndex(definition, SimulatedDisk(), "v.view")


class TestViewIndex:
    def test_update_and_scan(self):
        index = make_index()
        index.update_docs([("d1", 0, [("apple", 1)])])
        index.update_docs([("d2", 0, [("banana", 2)])])
        rows = list(index.scan(ViewQueryParams()))
        assert [(r["key"], r["id"]) for r in rows] == [("apple", "d1"), ("banana", "d2")]

    def test_update_replaces_old_rows(self):
        index = make_index()
        index.update_docs([("d1", 0, [("old", 1)])])
        index.update_docs([("d1", 0, [("new", 2)])])
        rows = list(index.scan(ViewQueryParams()))
        assert [r["key"] for r in rows] == ["new"]

    def test_remove_doc(self):
        index = make_index()
        index.update_docs([("d1", 0, [("k", 1)])])
        index.update_docs([("d1", 0, [])])
        assert list(index.scan(ViewQueryParams())) == []

    def test_multi_emit_per_doc(self):
        index = make_index()
        index.update_docs([("d1", 0, [("a", 1), ("b", 2)])])
        assert index.count() == 2
        index.update_docs([("d1", 0, [])])
        assert index.count() == 0

    def test_key_lookup(self):
        index = make_index()
        index.update_docs([("d1", 0, [("x", 1)])])
        index.update_docs([("d2", 0, [("x", 2)])])
        index.update_docs([("d3", 0, [("y", 3)])])
        rows = list(index.scan(ViewQueryParams(key="x")))
        assert len(rows) == 2
        assert all(r["key"] == "x" for r in rows)

    def test_keys_lookup(self):
        index = make_index()
        for i, key in enumerate(["a", "b", "c", "d"]):
            index.update_docs([(f"d{i}", 0, [(key, i)])])
        rows = list(index.scan(ViewQueryParams(keys=["b", "d"])))
        assert [r["key"] for r in rows] == ["b", "d"]

    def test_range_inclusive(self):
        index = make_index()
        for i in range(10):
            index.update_docs([(f"d{i}", 0, [(i, None)])])
        rows = list(index.scan(ViewQueryParams(startkey=3, endkey=6)))
        assert [r["key"] for r in rows] == [3, 4, 5, 6]

    def test_range_exclusive_end(self):
        index = make_index()
        for i in range(10):
            index.update_docs([(f"d{i}", 0, [(i, None)])])
        rows = list(
            index.scan(ViewQueryParams(startkey=3, endkey=6, inclusive_end=False))
        )
        assert [r["key"] for r in rows] == [3, 4, 5]

    def test_descending(self):
        index = make_index()
        for i in range(5):
            index.update_docs([(f"d{i}", 0, [(i, None)])])
        rows = list(index.scan(ViewQueryParams(descending=True)))
        assert [r["key"] for r in rows] == [4, 3, 2, 1, 0]

    def test_mixed_type_keys_collate(self):
        index = make_index()
        index.update_docs([("d1", 0, [("str", None)])])
        index.update_docs([("d2", 0, [(1, None)])])
        index.update_docs([("d3", 0, [(None, None)])])
        index.update_docs([("d4", 0, [([1], None)])])
        index.update_docs([("d5", 0, [(True, None)])])
        rows = [r["key"] for r in index.scan(ViewQueryParams())]
        assert rows == [None, True, 1, "str", [1]]

    def test_vbucket_masking(self):
        index = make_index()
        index.update_docs([("d1", 0, [("a", 1)])])
        index.update_docs([("d2", 1, [("b", 2)])])
        rows = list(index.scan(ViewQueryParams(), active_vbuckets={0}))
        assert [r["id"] for r in rows] == ["d1"]

    def test_remove_vbucket(self):
        index = make_index()
        index.update_docs([("d1", 0, [("a", 1)])])
        index.update_docs([("d2", 1, [("b", 2)])])
        index.remove_vbucket(1)
        assert [r["id"] for r in index.scan(ViewQueryParams())] == ["d1"]
        assert index.back_index.keys() == {0}


class TestViewIndexReduce:
    def test_full_reduce_count(self):
        index = make_index("_count")
        for i in range(25):
            index.update_docs([(f"d{i}", 0, [(i, None)])])
        assert index.reduce(ViewQueryParams()) == 25

    def test_range_reduce_sum(self):
        index = make_index("_sum")
        for i in range(20):
            index.update_docs([(f"d{i}", 0, [(i, i * 10)])])
        assert index.reduce(ViewQueryParams(startkey=5, endkey=7)) == 50 + 60 + 70

    def test_reduce_with_masking_falls_back(self):
        index = make_index("_count")
        index.update_docs([("d1", 0, [("a", None)])])
        index.update_docs([("d2", 1, [("b", None)])])
        assert index.reduce(ViewQueryParams(), active_vbuckets={0}) == 1

    def test_grouped(self):
        index = make_index("_count")
        index.update_docs([("d1", 0, [("a", None)])])
        index.update_docs([("d2", 0, [("a", None)])])
        index.update_docs([("d3", 0, [("b", None)])])
        groups = index.grouped(ViewQueryParams(group=True))
        assert groups == [{"key": "a", "value": 2}, {"key": "b", "value": 1}]

    def test_group_level_truncates_array_keys(self):
        index = make_index("_count")
        index.update_docs([("d1", 0, [(["2016", "01", "05"], None)])])
        index.update_docs([("d2", 0, [(["2016", "01", "09"], None)])])
        index.update_docs([("d3", 0, [(["2016", "02", "01"], None)])])
        groups = index.grouped(ViewQueryParams(group_level=2))
        assert groups == [
            {"key": ["2016", "01"], "value": 2},
            {"key": ["2016", "02"], "value": 1},
        ]

    def test_reduce_without_fn_raises(self):
        index = make_index()
        with pytest.raises(ValueError):
            index.reduce(ViewQueryParams())


class TestViewQueryParams:
    def test_invalid_stale(self):
        with pytest.raises(ValueError):
            ViewQueryParams(stale="nope")

    def test_key_and_keys_exclusive(self):
        with pytest.raises(ValueError):
            ViewQueryParams(key=1, keys=[1])

    def test_group_true_sets_exact_level(self):
        params = ViewQueryParams(group=True)
        assert params.group_level > 1000
