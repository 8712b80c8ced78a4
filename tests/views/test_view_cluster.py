"""Cluster-level view tests: incremental DCP maintenance, stale
semantics, scatter/gather merging, and behaviour across rebalance and
failover."""

import pytest

from repro import Cluster
from repro.common.errors import NodeDownError, ViewNotFoundError
from repro.storage.appendlog import RT_NODE
from repro.views import ViewDefinition, ViewQueryParams

from ..integration.test_paper_claims import tree_nodes


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

    def test_mutating_a_returned_row_leaves_the_index_unchanged(
            self, cluster, client):
        """A row's composite key and emitted value are copies of what the
        tree's node cache holds: mutating them in the caller's hands must
        not reach the index."""
        def map_fn(doc, meta, emit):
            emit(doc["tags"], doc["o"])

        cluster.define_view("b", ViewDefinition("dd", "by_tags", map_fn))
        for i in range(5):
            client.upsert("b", f"d{i}", {"tags": ["x", i], "o": {"n": i}})
        cluster.run_until_idle()

        def rows():
            return client.view_query("b", "dd", "by_tags", stale="false").rows

        before = rows()
        assert [row["key"] for row in before] == [["x", i] for i in range(5)]
        for row in before:
            row["key"].append("MUTATED")
            row["value"]["n"] = 999
        after = rows()
        assert [row["key"] for row in after] == [["x", i] for i in range(5)]
        assert [row["value"] for row in after] == [{"n": i} for i in range(5)]

    @pytest.mark.parametrize("nodes", [1, 3])
    def test_a_reduce_that_accumulates_into_its_input_changes_no_row(
            self, nodes):
        """A custom reduce is user code: it is handed copies of the
        stored values and memoized reductions, at write time and at
        query time, so one that accumulates into ``values[0]`` changes
        neither the rows nor a later answer.  (Handed the stored ones,
        the rows summed to 86 for 40 documents and three identical
        reduce queries read 48, 56, 64.)"""
        def map_fn(doc, meta, emit):
            emit(doc["g"], {"n": doc["n"]})

        def reduce_fn(values, rereduce):
            out = values[0]
            out["n"] += sum(value["n"] for value in values[1:])
            return out

        cluster = Cluster(nodes=nodes, vbuckets=8)
        cluster.create_bucket("b")
        client = cluster.connect()
        cluster.define_view("b", ViewDefinition("dd", "v", map_fn, reduce_fn))
        for i in range(40):
            client.upsert("b", f"d{i}", {"g": i % 3, "n": 1})
        cluster.run_until_idle()

        def row_sum():
            rows = client.view_query("b", "dd", "v", stale="false",
                                     reduce=False).rows
            return sum(row["value"]["n"] for row in rows)

        assert row_sum() == 40
        for _query in range(3):
            assert client.view_query("b", "dd", "v",
                                     stale="false").value == {"n": 40}
            groups = client.view_query("b", "dd", "v", stale="false",
                                       group=True).rows
            assert [row["value"]["n"] for row in groups] == [14, 13, 13]
        assert row_sum() == 40


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

    def test_scatter_gather_is_one_wave_and_all_or_nothing(self):
        """The per-node partial queries overlap: a ``stale=ok`` query of
        a 4-node cluster costs one latency wave, not one per node.  A
        down node still fails the query rather than dropping its rows."""
        cluster = Cluster(nodes=4, vbuckets=16, network_latency=0.001)
        cluster.create_bucket("b")
        client = cluster.connect()
        load_users(client, 40)
        cluster.define_view("b", age_view())
        cluster.run_until_idle()

        cluster.network.reset_counters()
        result = client.view_query("b", "dd", "by_age", stale="ok",
                                   reduce=False)
        assert len(result.rows) == 40
        calls = cluster.network.calls
        assert {dst for (dst, method) in calls
                if method == "view_query_local"} == set(cluster.manager.nodes)
        assert sum(count for (_dst, method), count in calls.items()
                   if method == "view_query_local") == 4
        assert calls[("view-coordinator", "scatter_gather")] == 1
        assert cluster.network.latency_charged == pytest.approx(0.001)

        cluster.crash_node("node3")
        with pytest.raises(NodeDownError):
            client.view_query("b", "dd", "by_age", stale="ok", reduce=False)


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


class TestDescendingMergeAcrossNodes:
    def test_rows_merge_in_collation_order_both_ways(self, cluster, client):
        """Every node returns its rows sorted; the coordinator's merge
        interleaves them by (key, doc id), and equal keys from different
        nodes come out by doc id in either direction."""
        load_users(client, 20)
        cluster.define_view("b", age_view())
        hosts = {node.name for node in cluster.nodes()
                 if node.view_query_local("b", "dd", "by_age",
                                          ViewQueryParams(reduce=False))
                 ["rows"]}
        assert len(hosts) == 3
        expected = sorted((20 + i % 10, f"u{i}") for i in range(20))
        for descending in (False, True):
            result = client.view_query("b", "dd", "by_age", stale="false",
                                       reduce=False, descending=descending)
            assert [(row["key"], row["id"]) for row in result.rows] == (
                expected[::-1] if descending else expected)


def node_records(index) -> int:
    """Node records a view file holds, live or replaced."""
    return sum(1 for _offset, record_type, _body in index.log.scan()
               if record_type == RT_NODE)


class TestOneBuildPerView:
    """A view build is its own streams from seqno 0: it maps each active
    document once and covers each active vBucket through its high seqno,
    without touching another view; a reopened node starts every view
    file afresh."""

    def test_each_document_is_mapped_and_written_once(self):
        mapped = []

        def by_v(doc, meta, emit):
            mapped.append(meta.id)
            emit(doc["v"], None)

        cluster = Cluster(nodes=1, vbuckets=8, auto_failover=False)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        for i in range(200):
            client.upsert("b", f"k{i:03d}", {"v": i})
        cluster.run_until_idle()
        node = cluster.node("node1")
        views = node.view_engines["b"]
        cluster.define_view("b", ViewDefinition("dd", "first", by_v))
        first = views.get_index("dd", "first")
        assert sorted(mapped) == [f"k{i:03d}" for i in range(200)]
        # One batch of 200 rows from an empty tree: every node record
        # written is a node of the tree.
        assert node_records(first) == tree_nodes(first.tree)

        # Writes the first view has not indexed yet: its own streams
        # map them once, and the second view's streams from seqno 0 map
        # every document once.
        for i in range(200, 250):
            client.upsert("b", f"k{i:03d}", {"v": i})
        mapped.clear()
        cluster.define_view("b", ViewDefinition("dd", "second", by_v))
        cluster.run_until_idle()
        assert sorted(mapped) == sorted(
            [f"k{i:03d}" for i in range(200, 250)]
            + [f"k{i:03d}" for i in range(250)])
        engine = node.engines["b"]
        high = {vbucket_id: vb.high_seqno
                for vbucket_id, vb in engine.vbuckets.items()}
        assert first.watermarks == views.get_index("dd", "second").watermarks \
            == high

        cluster.crash_node("node1")
        mapped.clear()
        cluster.restart_node("node1")
        assert sorted(mapped) == sorted(
            [f"k{i:03d}" for i in range(250)] * 2)
        views = node.view_engines["b"]
        for name in ("first", "second"):
            index = views.get_index("dd", name)
            assert node_records(index) == tree_nodes(index.tree)
            assert index.count() == 250

    def test_a_view_file_is_as_large_after_restarts_and_a_redefine(self):
        def by_v(doc, meta, emit):
            emit(doc["v"], None)

        cluster = Cluster(nodes=2, vbuckets=16)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        for i in range(200):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.run_until_idle()
        disk = cluster.node("node1").disk
        filename = "views/b/dd_by_v.view"
        cluster.define_view("b", ViewDefinition("dd", "by_v", by_v))
        built = disk.open(filename).size
        for _ in range(3):
            cluster.crash_node("node1")
            cluster.restart_node("node1")
            assert disk.open(filename).size == built
        assert len(cluster.views.query("b", "dd", "by_v",
                                       stale="false").rows) == 200
        cluster.drop_view("b", "dd", "by_v")
        assert not disk.exists(filename)
        cluster.define_view("b", ViewDefinition("dd", "by_v", by_v))
        assert disk.open(filename).size == built
