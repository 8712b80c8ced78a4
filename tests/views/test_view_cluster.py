"""Cluster-level view tests: incremental DCP maintenance, stale
semantics, scatter/gather merging, and behaviour across rebalance and
failover."""

import pytest

from repro import Cluster
from repro.common.errors import ViewNotFoundError
from repro.views import ViewDefinition, ViewQueryParams


def age_view():
    def map_fn(doc, meta, emit):
        if "age" in doc:
            emit(doc["age"], doc.get("name"))

    return ViewDefinition("dd", "by_age", map_fn, "_count")


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b")
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def load_users(client, n=30):
    for i in range(n):
        client.upsert("b", f"u{i}", {"name": f"user{i}", "age": 20 + (i % 10)})


class TestDefinition:
    def test_initial_materialization(self, cluster, client):
        """Define the view *after* the data exists: initial build reads
        the existing documents (section 4.3.3)."""
        load_users(client)
        cluster.define_view("b", age_view())
        result = client.view_query("b", "dd", "by_age", stale="ok",
                                   reduce=False)
        assert len(result.rows) == 30

    def test_unknown_view_query(self, cluster, client):
        with pytest.raises(ViewNotFoundError):
            client.view_query("b", "dd", "ghost")

    def test_drop_view(self, cluster, client):
        cluster.define_view("b", age_view())
        cluster.drop_view("b", "dd", "by_age")
        with pytest.raises(ViewNotFoundError):
            client.view_query("b", "dd", "by_age")


class TestIncrementalMaintenance:
    def test_writes_flow_into_view(self, cluster, client):
        cluster.define_view("b", age_view())
        load_users(client, 10)
        cluster.run_until_idle()
        result = client.view_query("b", "dd", "by_age", stale="ok",
                                   reduce=False)
        assert len(result.rows) == 10

    def test_update_reindexes(self, cluster, client):
        cluster.define_view("b", age_view())
        client.upsert("b", "u1", {"name": "x", "age": 30})
        cluster.run_until_idle()
        client.upsert("b", "u1", {"name": "x", "age": 99})
        cluster.run_until_idle()
        result = client.view_query("b", "dd", "by_age", stale="ok",
                                   reduce=False, key=99)
        assert len(result.rows) == 1
        assert not len(client.view_query("b", "dd", "by_age", stale="ok",
                                         reduce=False, key=30).rows)

    def test_delete_removes_rows(self, cluster, client):
        cluster.define_view("b", age_view())
        client.upsert("b", "u1", {"name": "x", "age": 30})
        cluster.run_until_idle()
        client.remove("b", "u1")
        cluster.run_until_idle()
        result = client.view_query("b", "dd", "by_age", stale="ok",
                                   reduce=False)
        assert len(result.rows) == 0


    def test_a_pump_slice_rewrites_a_view_tree_once(self):
        """The documents one pump slice carries are one tree rewrite per
        view -- here one appended root, because 20 rows fit a leaf --
        while ``updates_since_compaction`` still counts documents."""
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        cluster.define_view("b", age_view())
        load_users(client, 10)
        cluster.run_until_idle()
        node = cluster.node("node1")
        index = node.view_engines["b"].get_index("dd", "by_age")
        assert index.updates_since_compaction == 10
        size = index.log.size
        records = sum(1 for _ in index.log.scan())
        load_users(client, 20)  # ten updates, ten inserts
        client.remove("b", "u3")
        cluster.run_until_idle()
        assert sum(1 for _ in index.log.scan()) - records == 1
        assert index.log.size > size
        assert index.updates_since_compaction == 10 + 20
        assert len(client.view_query("b", "dd", "by_age", stale="ok",
                                     reduce=False).rows) == 19


class TestStaleness:
    def test_stale_ok_may_miss_fresh_writes(self, cluster, client):
        """Eventually consistent by default (section 3.1.2): without
        running the pumps, stale=ok misses unindexed mutations."""
        cluster.define_view("b", age_view())
        engine = cluster.node("node1").engines["b"]
        # Write directly so no scheduler rounds run.
        vb = engine.owned_vbuckets()[0]
        engine.upsert(vb, "direct", {"age": 55})
        result = cluster.views.query("b", "dd", "by_age",
                                     ViewQueryParams(stale="ok", reduce=False))
        assert all(row["id"] != "direct" for row in result.rows)

    def test_stale_false_waits_for_indexer(self, cluster, client):
        cluster.define_view("b", age_view())
        engine = cluster.node("node1").engines["b"]
        vb = engine.owned_vbuckets()[0]
        engine.upsert(vb, "direct", {"age": 55})
        result = cluster.views.query("b", "dd", "by_age",
                                     ViewQueryParams(stale="false", reduce=False))
        assert any(row["id"] == "direct" for row in result.rows)

    def test_update_after_is_default(self):
        assert ViewQueryParams().stale == "update_after"


class TestScatterGather:
    def test_rows_merged_sorted_across_nodes(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        result = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False)
        keys = [row["key"] for row in result.rows]
        assert keys == sorted(keys)
        assert len(keys) == 40

    def test_cluster_wide_reduce(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        result = client.view_query("b", "dd", "by_age", stale="false")
        assert result.is_reduced
        assert result.value == 40

    def test_cluster_wide_group(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        result = client.view_query("b", "dd", "by_age", stale="false",
                                   group=True)
        assert sum(row["value"] for row in result.rows) == 40
        assert [row["key"] for row in result.rows] == sorted(
            row["key"] for row in result.rows
        )

    def test_limit_and_skip_after_merge(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        everything = client.view_query("b", "dd", "by_age", stale="false",
                                       reduce=False)
        window = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False, skip=5, limit=10)
        assert [r["id"] for r in window.rows] == [
            r["id"] for r in everything.rows[5:15]
        ]

    def test_descending_merge(self, cluster, client):
        load_users(client, 20)
        cluster.define_view("b", age_view())
        result = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False, descending=True)
        keys = [row["key"] for row in result.rows]
        assert keys == sorted(keys, reverse=True)

    def test_sum_reduce_across_nodes(self, cluster, client):
        def map_fn(doc, meta, emit):
            emit(doc["age"], doc["age"])

        cluster.define_view("b", ViewDefinition("dd", "sum_age", map_fn, "_sum"))
        load_users(client, 30)
        result = client.view_query("b", "dd", "sum_age", stale="false")
        expected = sum(20 + (i % 10) for i in range(30))
        assert result.value == expected


class TestTopologyChanges:
    def test_view_consistent_through_rebalance(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        before = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False)
        cluster.add_node("node4")
        cluster.rebalance()
        after = client.view_query("b", "dd", "by_age", stale="false",
                                  reduce=False)
        assert len(after.rows) == len(before.rows) == 40
        assert sorted(r["id"] for r in after.rows) == sorted(
            r["id"] for r in before.rows
        )

    def test_new_node_serves_view_rows(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        cluster.add_node("node4")
        cluster.rebalance()
        view_engine = cluster.node("node4").view_engines["b"]
        assert view_engine.indexes == {} or True  # engine exists
        # The new node must contribute rows for its vBuckets.
        local = cluster.node("node4").view_query_local(
            "b", "dd", "by_age", ViewQueryParams(reduce=False)
        )
        assert local["kind"] == "rows"

    def test_view_consistent_after_failover(self, cluster, client):
        load_users(client, 40)
        cluster.define_view("b", age_view())
        client.view_query("b", "dd", "by_age", stale="false", reduce=False)
        cluster.failover("node2")
        cluster.run_until_idle()
        result = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False)
        assert len(result.rows) == 40

    def test_no_duplicate_rows_after_rebalance(self, cluster, client):
        """The moved-away vBuckets' rows must be masked/purged on the old
        node (the B-tree vBucket marking of section 4.3.3)."""
        load_users(client, 40)
        cluster.define_view("b", age_view())
        client.view_query("b", "dd", "by_age", stale="false", reduce=False)
        cluster.add_node("node4")
        cluster.rebalance()
        result = client.view_query("b", "dd", "by_age", stale="false",
                                   reduce=False)
        ids = [row["id"] for row in result.rows]
        assert len(ids) == len(set(ids)) == 40
