"""Tests for index definitions and the two storage backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.disk import SimulatedDisk
from repro.gsi.indexdef import (
    IndexDefinition,
    array_index,
    attribute_index,
    path_extractor,
    primary_index,
)
from repro.gsi.storage import (
    BTreeIndexStorage,
    SkipListIndexStorage,
    make_storage,
)
from repro.n1ql.collation import MISSING


class TestExtraction:
    def test_single_attribute(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for({"age": 30}, "d1") == [[30]]

    def test_missing_leading_key_not_indexed(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for({"name": "x"}, "d1") == []

    def test_composite_keys(self):
        index = attribute_index("i", "b", "country", "city")
        assert index.entries_for({"country": "US", "city": "SF"}, "d1") == [
            ["US", "SF"]
        ]

    def test_composite_trailing_missing_still_indexed(self):
        index = attribute_index("i", "b", "country", "city")
        entries = index.entries_for({"country": "US"}, "d1")
        assert entries == [["US", MISSING]]

    def test_dotted_path(self):
        index = attribute_index("i", "b", "address.zip")
        assert index.entries_for({"address": {"zip": "94040"}}, "d1") == [["94040"]]

    def test_deleted_doc(self):
        index = attribute_index("i", "b", "age")
        assert index.entries_for(None, "d1") == []

    def test_partial_index_condition(self):
        """The paper's over-21 selective index (section 3.3.4)."""
        index = attribute_index(
            "over21", "b", "age",
            condition=lambda doc, doc_id: doc.get("age", 0) > 21,
            condition_source="age > 21",
        )
        assert index.entries_for({"age": 30}, "d1") == [[30]]
        assert index.entries_for({"age": 18}, "d2") == []

    def test_condition_exception_means_skip(self):
        index = attribute_index(
            "i", "b", "age",
            condition=lambda doc, doc_id: doc["zzz"] > 0,
        )
        assert index.entries_for({"age": 30}, "d1") == []

    def test_primary_index_extracts_id(self):
        index = primary_index("pk", "b")
        assert index.entries_for({"any": 1}, "doc-42") == [["doc-42"]]
        assert index.is_primary

    def test_array_index_expands(self):
        index = array_index("tags", "b", "tags")
        entries = index.entries_for({"tags": ["a", "b"]}, "d1")
        assert entries == [["a"], ["b"]]

    def test_array_index_distinct(self):
        index = array_index("tags", "b", "tags")
        entries = index.entries_for({"tags": ["a", "a", "b"]}, "d1")
        assert entries == [["a"], ["b"]]

    def test_array_index_non_array_skipped(self):
        index = array_index("tags", "b", "tags")
        assert index.entries_for({"tags": "scalar"}, "d1") == []

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexDefinition("i", "b", [], [])
        with pytest.raises(ValueError):
            IndexDefinition("i", "b", ["a"], [path_extractor("a")],
                            storage="papier")


@pytest.fixture(params=["standard", "memopt"])
def storage(request):
    return make_storage(request.param, SimulatedDisk(), "test.index")


class TestStorageBackends:
    def test_kind_dispatch(self):
        disk = SimulatedDisk()
        assert isinstance(make_storage("standard", disk, "f"), BTreeIndexStorage)
        assert isinstance(make_storage("memopt", disk, "f"), SkipListIndexStorage)
        with pytest.raises(ValueError):
            make_storage("other", disk, "f")

    def test_update_and_scan(self, storage):
        storage.update_docs([("d1", 0, [[5]])])
        storage.update_docs([("d2", 0, [[3]])])
        storage.update_docs([("d3", 0, [[7]])])
        rows = storage.keyed_rows(None, None)[0]
        assert [key[0] for key, _ in rows] == [3, 5, 7]

    def test_update_replaces(self, storage):
        storage.update_docs([("d1", 0, [[5]])])
        storage.update_docs([("d1", 0, [[9]])])
        rows = storage.keyed_rows(None, None)[0]
        assert rows == [([9], "d1")]
        assert storage.count() == 1

    def test_remove_via_empty_entries(self, storage):
        storage.update_docs([("d1", 0, [[5]])])
        storage.update_docs([("d1", 0, [])])
        assert storage.count() == 0

    def test_range_bounds(self, storage):
        for i in range(10):
            storage.update_docs([(f"d{i}", 0, [[i]])])
        rows = storage.keyed_rows([3], [6])[0]
        assert [key[0] for key, _ in rows] == [3, 4, 5, 6]

    def test_exclusive_bounds(self, storage):
        for i in range(10):
            storage.update_docs([(f"d{i}", 0, [[i]])])
        rows = storage.keyed_rows([3], [6], inclusive_low=False,
                                  inclusive_high=False)[0]
        assert [key[0] for key, _ in rows] == [4, 5]

    def test_descending(self, storage):
        for i in range(5):
            storage.update_docs([(f"d{i}", 0, [[i]])])
        rows = storage.keyed_rows([1], [3], descending=True)[0]
        assert [key[0] for key, _ in rows] == [3, 2, 1]

    def test_duplicate_keys_different_docs(self, storage):
        storage.update_docs([("d1", 0, [[5]])])
        storage.update_docs([("d2", 0, [[5]])])
        rows = storage.keyed_rows([5], [5])[0]
        assert [(key[0], doc) for key, doc in rows] == [(5, "d1"), (5, "d2")]

    def test_missing_component_roundtrips(self, storage):
        storage.update_docs([("d1", 0, [["US", MISSING]])])
        rows = storage.keyed_rows(None, None)[0]
        assert rows[0][0] == ["US", MISSING]

    def test_multi_entry_docs(self, storage):
        storage.update_docs([("d1", 0, [["a"], ["b"]])])
        assert storage.count() == 2
        storage.update_docs([("d1", 0, [["c"]])])
        rows = storage.keyed_rows(None, None)[0]
        assert [key[0] for key, _ in rows] == ["c"]

    def test_mixed_type_keys_collate(self, storage):
        storage.update_docs([("d1", 0, [["str"]])])
        storage.update_docs([("d2", 0, [[10]])])
        storage.update_docs([("d3", 0, [[None]])])
        storage.update_docs([("d4", 0, [[True]])])
        rows = [key[0] for key, _ in storage.keyed_rows(None, None)[0]]
        assert rows == [None, True, 10, "str"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["d1", "d2", "d3", "d4"]),
                  st.lists(st.integers(0, 50), min_size=0, max_size=3)),
        max_size=25,
    ))
    def test_backends_agree(self, operations):
        """Both storage backends must produce identical scans for any
        operation sequence."""
        disk = SimulatedDisk()
        btree = make_storage("standard", disk, "a.index")
        skiplist = make_storage("memopt", disk, "b.index")
        for doc_id, keys in operations:
            entries = [[k] for k in keys]
            btree.update_docs([(doc_id, 0, entries)])
            skiplist.update_docs([(doc_id, 0, entries)])
        assert (btree.keyed_rows(None, None)[0]
                == skiplist.keyed_rows(None, None)[0])
        assert btree.count() == skiplist.count()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
                  st.lists(st.integers(0, 20), min_size=0, max_size=3)),
        max_size=30,
    ), st.one_of(st.none(), st.integers(0, 20)),
       st.one_of(st.none(), st.integers(0, 20)),
       st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(0, 8)))
    def test_backends_agree_on_bounded_descending_scans(
            self, operations, low, high, inclusive_low, inclusive_high,
            limit):
        """A memopt descending scan walks back from its end bound over
        nodes whose back links every insert and delete keeps: it returns
        the standard backend's rows, bounds, LIMIT and all."""
        disk = SimulatedDisk()
        btree = make_storage("standard", disk, "a.index")
        skiplist = make_storage("memopt", disk, "b.index")
        for doc_id, keys in operations:
            entries = [[k] for k in keys]
            btree.update_docs([(doc_id, 0, entries)])
            skiplist.update_docs([(doc_id, 0, entries)])
        span = (None if low is None else [low],
                None if high is None else [high], inclusive_low,
                inclusive_high)
        for descending in (True, False):
            options = dict(descending=descending, limit=limit)
            assert (skiplist.keyed_rows(*span, **options)[0]
                    == btree.keyed_rows(*span, **options)[0])

    def test_a_descending_memopt_scan_stops_at_its_limit(self):
        """``keyed_rows(None, None, descending=True, limit=1)`` over 1 000 rows
        visits one run of nodes back from the end, not the whole range
        (which it built in full, 1 000 nodes, before the LIMIT cut it)."""
        skiplist = SkipListIndexStorage()
        btree = BTreeIndexStorage(SimulatedDisk(), "idx")
        batch = [(f"d{i:04d}", 0, [[i % 97, i]]) for i in range(1000)]
        skiplist.update_docs(batch)
        btree.update_docs(batch)
        walk = skiplist._backward
        visited = []

        def counted(bounds):
            for node in walk(bounds):
                visited.append(node)
                yield node

        skiplist._backward = counted
        rows = skiplist.keyed_rows(None, None, descending=True, limit=1)[0]
        assert rows == btree.keyed_rows(None, None, descending=True,
                                        limit=1)[0]
        assert rows == [([96, 969], "d0969")]
        assert len(visited) <= SkipListIndexStorage.RUN


class TestMemoptSnapshot:
    def test_snapshot_and_recover(self):
        disk = SimulatedDisk()
        storage = SkipListIndexStorage(disk, "idx")
        for i in range(20):
            storage.update_docs([(f"d{i}", 0, [[i]])])
        written = storage.snapshot_to_disk()
        assert written > 0

        recovered = SkipListIndexStorage(disk, "idx")
        assert recovered.load_snapshot() == 20
        assert (recovered.keyed_rows(None, None)[0]
                == storage.keyed_rows(None, None)[0])

    def test_snapshot_without_disk_raises(self):
        storage = SkipListIndexStorage()
        with pytest.raises(ValueError):
            storage.snapshot_to_disk()

    def test_memopt_reports_memory_not_disk(self):
        storage = SkipListIndexStorage(SimulatedDisk(), "idx")
        storage.update_docs([("d1", 0, [[1]])])
        assert storage.memory_bytes() > 0
        assert storage.disk_bytes() == 0

    def test_standard_reports_disk(self):
        storage = BTreeIndexStorage(SimulatedDisk(), "idx")
        storage.update_docs([("d1", 0, [[1]])])
        assert storage.disk_bytes() > 0
