"""Cluster-level GSI tests: projector/router flow, DDL with placement,
deferred builds, partitioned indexes, scan consistency, and MDS."""

import pytest

from repro import Cluster
from repro.common.errors import (
    IndexExistsError,
    IndexNotFoundError,
    IndexNotReadyError,
    ServiceUnavailableError,
)
from repro.gsi import array_index, attribute_index, primary_index
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.kv.types import VBucketState


def node_counter(cluster, name: str) -> int:
    return sum(node.metrics.counter_value(name) for node in cluster.nodes())


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b")
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def load(client, n=30):
    for i in range(n):
        client.upsert("b", f"u{i}", {
            "name": f"user{i:02d}",
            "age": 20 + i % 10,
            "tags": [f"t{i % 3}", "common"],
        })


class TestDdl:
    def test_create_after_data_builds(self, cluster, client):
        load(client)
        cluster.create_index(attribute_index("by_age", "b", "age"))
        rows = cluster.gsi.scan("by_age")
        assert len(rows) == 30

    def test_create_before_data_maintains(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        load(client, 10)
        cluster.run_until_idle()
        assert len(cluster.gsi.scan("by_age")) == 10

    def test_duplicate_name_rejected(self, cluster):
        cluster.create_index(attribute_index("i", "b", "age"))
        with pytest.raises(IndexExistsError):
            cluster.create_index(attribute_index("i", "b", "name"))

    def test_drop(self, cluster, client):
        cluster.create_index(attribute_index("i", "b", "age"))
        cluster.drop_index("i")
        with pytest.raises(IndexNotFoundError):
            cluster.gsi.scan("i")

    def test_drop_deletes_the_index_file(self, cluster, client):
        """The tree's root lives only in memory, so a dropped index's
        bytes are unreadable garbage: DROP must free them, or a re-CREATE
        of the same name appends a second build behind the first."""
        load(client, 200)
        cluster.run_until_idle()
        meta = cluster.create_index(attribute_index("ia", "b", "age"))
        disk = cluster.node(meta.nodes[0]).disk
        first_build = disk.open("gsi/b/ia.index").size
        assert first_build > 0
        cluster.drop_index("ia")
        assert "gsi/b/ia.index" not in disk.list_files()
        again = cluster.create_index(
            attribute_index("ia", "b", "age"), nodes=meta.nodes)
        assert again.nodes == meta.nodes
        assert disk.open("gsi/b/ia.index").size == first_build

    def test_a_restarted_index_node_keeps_its_deferred_index(self):
        """A restart recreates every instance its node hosts, not only the
        ready ones: a deferred index can still be built there, and its
        file is a fresh one that a drop deletes."""
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("i1", {"index"}), ("q1", {"query"})],
            vbuckets=8, auto_failover=False)
        cluster.create_bucket("b", replicas=0)
        load(cluster.connect(), 20)
        cluster.create_index(primary_index("pk", "b", deferred=True))
        cluster.crash_node("i1")
        cluster.restart_node("i1")
        cluster.gsi.build_index("pk")
        assert len(cluster.gsi.scan("pk")) == 20
        cluster.drop_index("pk")
        assert "gsi/b/pk.index" not in cluster.node("i1").disk.list_files()

    def test_drop_deletes_a_memopt_snapshot(self, cluster, client):
        load(client)
        meta = cluster.create_index(IndexDefinition(
            name="mem", bucket="b", key_sources=["age"],
            extractors=[path_extractor("age")], storage="memopt",
        ))
        node = cluster.node(meta.nodes[0])
        node.indexer.indexer.instance("mem").storage.snapshot_to_disk()
        assert "gsi/b/mem.index.snapshot" in node.disk.list_files()
        cluster.drop_index("mem")
        assert "gsi/b/mem.index.snapshot" not in node.disk.list_files()

    def test_drop_unknown(self, cluster):
        with pytest.raises(IndexNotFoundError):
            cluster.drop_index("ghost")

    def test_deferred_build(self, cluster, client):
        load(client)
        cluster.create_index(primary_index("pk", "b", deferred=True))
        with pytest.raises(IndexNotReadyError):
            cluster.gsi.scan("pk")
        cluster.gsi.build_index("pk")
        assert len(cluster.gsi.scan("pk")) == 30

    def test_list_indexes(self, cluster):
        cluster.create_index(attribute_index("i1", "b", "age"))
        cluster.create_index(primary_index("pk", "b"))
        described = [meta.describe()
                     for meta in cluster.manager.catalog.indexes_on("b")]
        assert {d["name"] for d in described} == {"i1", "pk"}
        primary = next(d for d in described if d["name"] == "pk")
        assert primary["is_primary"]

    def test_placement_spreads_by_load(self, cluster):
        for i in range(6):
            cluster.create_index(attribute_index(f"i{i}", "b", "age"))
        hosted = [
            len(cluster.node(f"node{n}").indexer.indexer.instances)
            for n in (1, 2, 3)
        ]
        assert max(hosted) - min(hosted) <= 1

    def test_explicit_placement(self, cluster):
        meta = cluster.create_index(
            attribute_index("i", "b", "age"), nodes=["node2"]
        )
        assert meta.nodes == ["node2"]
        assert "i" in cluster.node("node2").indexer.indexer.instances


class TestMaintenance:
    def test_update_moves_entry(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        client.upsert("b", "u1", {"age": 30})
        cluster.run_until_idle()
        client.upsert("b", "u1", {"age": 40})
        cluster.run_until_idle()
        assert cluster.gsi.scan("by_age", low=[30], high=[30]) == []
        assert [d for _, d in cluster.gsi.scan("by_age", low=[40], high=[40])] == ["u1"]

    def test_delete_removes_entry(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        client.upsert("b", "u1", {"age": 30})
        cluster.run_until_idle()
        client.remove("b", "u1")
        cluster.run_until_idle()
        assert cluster.gsi.scan("by_age") == []

    def test_doc_leaving_partial_condition(self, cluster, client):
        cluster.create_index(attribute_index(
            "over21", "b", "age",
            condition=lambda doc, _id: doc.get("age", 0) > 21,
            condition_source="age > 21",
        ))
        client.upsert("b", "u1", {"age": 30})
        cluster.run_until_idle()
        assert len(cluster.gsi.scan("over21")) == 1
        client.upsert("b", "u1", {"age": 18})
        cluster.run_until_idle()
        assert cluster.gsi.scan("over21") == []

    def test_array_index_maintenance(self, cluster, client):
        cluster.create_index(array_index("tags", "b", "tags"))
        load(client, 9)
        cluster.run_until_idle()
        rows = cluster.gsi.scan("tags", low=["common"], high=["common"])
        assert len(rows) == 9
        rows = cluster.gsi.scan("tags", low=["t0"], high=["t0"])
        assert len(rows) == 3

    def test_index_after_an_index_less_run_misses_and_replays_nothing(
            self, cluster, client):
        """Without a live index a projector holds no streams and copies
        no documents.  An index created later is built by its own
        streams from seqno 0, and they then carry exactly the mutations
        made after it -- none missing, none replayed twice."""
        expected: dict[str, int] = {}
        for i in range(200):  # 120 documents, 80 of them updated
            key = f"d{i % 120:03d}"
            expected[key] = i % 23
            client.upsert("b", key, {"age": expected[key]})
            if i == 99:
                cluster.run_until_idle()
        cluster.run_until_idle()
        for node in cluster.nodes():
            assert node.projectors["b"].streams == {}
        assert node_counter(cluster, "gsi.projected") == 0

        cluster.create_index(attribute_index("by_age", "b", "age"))
        # The replay reads the change buffers, which still hold every
        # one of the 200 changes; the indexer keeps the last per document.
        built = node_counter(cluster, "gsi.projected")
        assert built == 200
        for i in range(50):  # 20 updates, 20 new documents, 10 deletes
            key = f"d{(i * 7) % 140:03d}"
            if i % 5 == 4 and key in expected:
                client.remove("b", key)
                del expected[key]
            else:
                expected[key] = 100 + i
                client.upsert("b", key, {"age": expected[key]})
        rows = cluster.gsi.scan("by_age", scan_consistency="request_plus")
        assert rows == sorted(([age], key) for key, age in expected.items())
        assert node_counter(cluster, "gsi.projected") == built + 50


class TestScans:
    def test_range_scan_sorted(self, cluster, client):
        load(client)
        cluster.create_index(attribute_index("by_name", "b", "name"))
        rows = cluster.gsi.scan("by_name", low=["user05"], high=["user10"])
        names = [key[0] for key, _ in rows]
        assert names == sorted(names)
        assert names[0] == "user05" and names[-1] == "user10"

    def test_scan_limit(self, cluster, client):
        load(client)
        cluster.create_index(attribute_index("by_name", "b", "name"))
        rows = cluster.gsi.scan("by_name", limit=7)
        assert len(rows) == 7

    def test_scan_descending(self, cluster, client):
        load(client, 10)
        cluster.create_index(attribute_index("by_name", "b", "name"))
        rows = cluster.gsi.scan("by_name", descending=True, limit=3)
        names = [key[0] for key, _ in rows]
        assert names == sorted(names, reverse=True)

    def test_composite_scan(self, cluster, client):
        cluster.create_index(attribute_index("combo", "b", "age", "name"))
        load(client, 20)
        cluster.run_until_idle()
        rows = cluster.gsi.scan("combo", low=[25], high=[25, {"zz": 1}])
        assert all(key[0] == 25 for key, _ in rows)
        names = [key[1] for key, _ in rows]
        assert names == sorted(names)

    @pytest.mark.parametrize("with_clause", [
        "", ' WITH {"memory_optimized": true}', ' WITH {"num_partitions": 2}'])
    def test_mutating_a_returned_row_leaves_the_index_unchanged(
            self, cluster, client, with_clause):
        """Covered rows and pushed groups carry copies of the container
        keys the index holds (the B-tree's node cache, a skiplist node, a
        memoized partial): mutating them in the caller's hands changes
        no later answer."""
        for i in range(5):
            client.upsert("b", f"d{i}", {"tags": ["x", i], "o": {"n": i}})
        cluster.run_until_idle()
        cluster.query(f"CREATE INDEX ix ON b(tags, o) USING GSI{with_clause}")
        scan = "SELECT b.tags, b.o FROM b WHERE b.tags >= [] ORDER BY b.tags"
        grouped = ("SELECT b.tags, COUNT(*) AS n, MIN(b.o) AS low FROM b "
                   "WHERE b.tags >= [] GROUP BY b.tags")
        expected = [{"tags": ["x", i], "o": {"n": i}} for i in range(5)]
        expected_groups = [{"tags": ["x", i], "n": 1, "low": {"n": i}}
                           for i in range(5)]
        assert first_operator(cluster, scan) == "IndexScan"
        assert first_operator(cluster, grouped) == "IndexAggregateScan"
        for _attempt in range(2):
            rows = cluster.query(scan, scan_consistency="request_plus").rows
            groups = cluster.query(grouped).rows
            assert rows == expected
            assert sorted(groups, key=lambda row: row["tags"][1]) \
                == expected_groups
            for row in rows + groups:
                row["tags"].append("MUTATED")
            for row in rows:
                row["o"]["n"] = 999
            for row in groups:
                row["low"]["n"] = 999
        rows = cluster.gsi.scan("ix", low=[[]])
        assert [key for key, _doc_id in rows] \
            == [[["x", i], {"n": i}] for i in range(5)]


def first_operator(cluster, text: str) -> str:
    plan = cluster.query(f"EXPLAIN {text}").rows[0]
    return plan["~children"][0]["#operator"]


class TestScanConsistency:
    def test_not_bounded_can_miss_fresh_writes(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        engine = cluster.node("node1").engines["b"]
        vb = engine.owned_vbuckets()[0]
        engine.upsert(vb, "direct", {"age": 99})
        rows = cluster.gsi.scan("by_age", low=[99], high=[99],
                                scan_consistency="not_bounded")
        assert rows == []

    def test_request_plus_sees_all_prior_writes(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        engine = cluster.node("node1").engines["b"]
        vb = engine.owned_vbuckets()[0]
        engine.upsert(vb, "direct", {"age": 99})
        rows = cluster.gsi.scan("by_age", low=[99], high=[99],
                                scan_consistency="request_plus")
        assert [d for _, d in rows] == ["direct"]

    def test_unknown_consistency_rejected(self, cluster, client):
        cluster.create_index(attribute_index("by_age", "b", "age"))
        with pytest.raises(ValueError):
            cluster.gsi.scan("by_age", scan_consistency="linearizable")


class TestPartitionedIndex:
    def make_partitioned(self, cluster):
        definition = IndexDefinition(
            name="part",
            bucket="b",
            key_sources=["name"],
            extractors=[path_extractor("name")],
            num_partitions=3,
        )
        return cluster.create_index(definition)

    def test_partitions_spread_over_nodes(self, cluster, client):
        meta = self.make_partitioned(cluster)
        assert len(set(meta.nodes)) == 3

    def test_partitioned_scan_merges_sorted(self, cluster, client):
        load(client)
        cluster.run_until_idle()
        self.make_partitioned(cluster)
        rows = cluster.gsi.scan("part", scan_consistency="request_plus")
        names = [key[0] for key, _ in rows]
        assert len(names) == 30
        assert names == sorted(names)

    def test_partitioned_maintenance(self, cluster, client):
        self.make_partitioned(cluster)
        load(client, 12)
        cluster.run_until_idle()
        assert len(cluster.gsi.scan("part", scan_consistency="request_plus")) == 12
        client.remove("b", "u3")
        cluster.run_until_idle()
        rows = cluster.gsi.scan("part", scan_consistency="request_plus")
        assert len(rows) == 11


class TestMemoptIndex:
    def test_memopt_index_works_end_to_end(self, cluster, client):
        load(client)
        cluster.create_index(
            attribute_index("fast", "b", "age", storage="memopt")
        )
        rows = cluster.gsi.scan("fast", low=[25], high=[26],
                                scan_consistency="request_plus")
        assert all(key[0] in (25, 26) for key, _ in rows)

    def test_memopt_keeps_up_with_writes(self, cluster, client):
        cluster.create_index(
            attribute_index("fast", "b", "age", storage="memopt")
        )
        load(client, 20)
        cluster.run_until_idle()
        assert len(cluster.gsi.scan("fast")) == 20


class TestMds:
    def test_index_requires_index_service(self):
        cluster = Cluster(nodes=[("d1", {"data"}), ("q1", {"query"})],
                          vbuckets=8)
        cluster.create_bucket("b")
        with pytest.raises(ServiceUnavailableError):
            cluster.create_index(attribute_index("i", "b", "age"))

    def test_index_lands_on_index_node_only(self):
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("d2", {"data"}), ("i1", {"index"})],
            vbuckets=8,
        )
        cluster.create_bucket("b")
        client = cluster.connect()
        for i in range(10):
            client.upsert("b", f"k{i}", {"age": i})
        meta = cluster.create_index(attribute_index("byage", "b", "age"))
        assert meta.nodes == ["i1"]
        assert len(cluster.gsi.scan("byage", scan_consistency="request_plus")) == 10


class TestTopology:
    def test_index_maintained_through_rebalance(self, cluster, client):
        load(client)
        cluster.create_index(attribute_index("by_age", "b", "age"))
        cluster.add_node("node4")
        cluster.rebalance()
        client.upsert("b", "fresh", {"age": 25})
        cluster.run_until_idle()
        rows = cluster.gsi.scan("by_age", scan_consistency="request_plus")
        assert len(rows) == 31

    def test_index_maintained_after_failover(self, cluster, client):
        load(client)
        # Host the index away from the node we kill.
        cluster.create_index(attribute_index("by_age", "b", "age"),
                             nodes=["node1"])
        cluster.failover("node3")
        client.upsert("b", "fresh", {"age": 25})
        cluster.run_until_idle()
        rows = cluster.gsi.scan("by_age", scan_consistency="request_plus")
        assert len(rows) == 31
