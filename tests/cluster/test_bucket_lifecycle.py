"""A bucket on a node opens and closes one way.

``ClusterManager.open_bucket`` builds a bucket's services on a data node
and registers its pumps; ``close_bucket`` unregisters them and drops the
in-memory state.  Creating a bucket, adding a node and restarting one
open; dropping a bucket and removing a node close.  These tests pin the
pumps each path leaves behind, and that a drop or a removal leaves
nothing of the bucket behind.
"""

import pytest

from repro import Cluster
from repro.common.errors import KeyNotFoundError
from repro.gsi import attribute_index
from repro.views import ViewDefinition

#: A data node's pumps for one bucket, in registration order: the
#: default schedule runs pumps in that order, and every seed-exact count
#: depends on it.
PUMPS = ["flusher", "replicator", "views", "projector", "compactor"]


def bucket_pumps(cluster, node, bucket="b"):
    """The kinds of the pumps registered for ``bucket`` on ``node``, in
    registration order."""
    return [name.split("/")[0] for name in cluster.scheduler.pump_names()
            if name.endswith(f"/{node}/{bucket}")]


class TestPumpsPerDataNode:
    def test_create_bucket_registers_the_five_pumps_in_order(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        for node in ("node1", "node2"):
            assert bucket_pumps(cluster, node) == PUMPS

    def test_add_node_registers_the_five_pumps_in_order(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.add_node("node3")
        assert bucket_pumps(cluster, "node3") == PUMPS

    def test_restart_node_registers_the_five_pumps_in_order(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.crash_node("node1")
        cluster.restart_node("node1")
        for node in ("node1", "node2"):
            assert bucket_pumps(cluster, node) == PUMPS

    def test_no_compaction_threshold_registers_no_compactor(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1, compaction_threshold=None)
        cluster.add_node("node3")
        cluster.crash_node("node1")
        cluster.restart_node("node1")
        for node in ("node1", "node2", "node3"):
            assert bucket_pumps(cluster, node) == PUMPS[:-1]

    def test_index_and_query_nodes_register_none(self):
        cluster = Cluster(nodes=[("d1", {"data"}), ("i1", {"index"}),
                                 ("q1", {"query"})], vbuckets=8)
        cluster.create_bucket("b", replicas=0)
        cluster.add_node("i2", services=("index",))
        cluster.crash_node("q1")
        cluster.restart_node("q1")
        assert bucket_pumps(cluster, "d1") == PUMPS
        for node in ("i1", "i2", "q1"):
            assert bucket_pumps(cluster, node) == []
            assert cluster.node(node).engines == {}

    def test_the_node_tables_hold_the_registered_services(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        node = cluster.node("node1")
        assert node.replicators["b"].bucket == "b"
        assert node.projectors["b"].bucket == "b"
        assert node.view_engines["b"].bucket == "b"


class TestDropBucketDiscardsWhatItOwned:
    def test_a_recreated_bucket_inherits_nothing(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        client = cluster.connect()
        keys = [f"k{i}" for i in range(20)]
        for i, key in enumerate(keys):
            client.upsert("b", key, {"v": i})
        cluster.run_until_idle()

        cluster.drop_bucket("b")
        cluster.create_bucket("b", replicas=1)
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")

        statement = "SELECT META(b).id, b.v FROM b WHERE v >= 0"
        assert cluster.query(statement).rows == []
        assert cluster.query(statement,
                             scan_consistency="request_plus").rows == []
        for node in cluster.nodes():
            for vb in node.engines["b"].vbuckets.values():
                assert vb.high_seqno == 0
        cluster.crash_node("node1")
        cluster.restart_node("node1")
        client = cluster.connect()
        for key in keys:
            with pytest.raises(KeyNotFoundError):
                client.get("b", key)

    def test_views_and_their_files_go(self):
        def map_fn(doc, meta, emit):
            emit(doc["v"], None)

        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.define_view("b", ViewDefinition("dd", "by_v", map_fn))
        cluster.define_view("b", ViewDefinition("dd", "old", map_fn))
        cluster.drop_view("b", "dd", "old")
        filenames = ["views/b/dd_by_v.view", "views/b/dd_old.view"]
        assert [[node.disk.exists(filename) for filename in filenames]
                for node in cluster.nodes()] == [[True, False]] * 2

        cluster.drop_bucket("b")
        assert not any(node.disk.exists(filename) for node in cluster.nodes()
                       for filename in filenames)
        cluster.create_bucket("b", replicas=1)
        cluster.add_node("node3")
        for node in cluster.nodes():
            assert node.view_engines["b"].indexes == {}


class TestDefineWhileANodeIsDown:
    def test_define_view_skips_a_down_node_that_defines_it_on_restart(self):
        """Every reachable node gets the view; the down node defines it
        when it reopens the bucket, so a ``stale=false`` query after the
        restart sees every document.  (``define_view`` once raised
        ``NodeDownError`` at the down node, and the nodes after it never
        got the view.)"""
        def map_fn(doc, meta, emit):
            emit(doc["v"], None)

        cluster = Cluster(nodes=3, vbuckets=16, auto_failover=False)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        for i in range(30):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.run_until_idle()
        cluster.crash_node("node2")
        cluster.define_view("b", ViewDefinition("dd", "v", map_fn))
        assert [("dd", "v") in node.view_engines["b"].indexes
                for node in cluster.nodes()] == [True, False, True]

        cluster.restart_node("node2")
        assert all(("dd", "v") in node.view_engines["b"].indexes
                   for node in cluster.nodes())
        rows = cluster.views.query("b", "dd", "v", stale="false").rows
        assert sorted(row["key"] for row in rows) == list(range(30))


class TestDropWhileANodeIsDown:
    def test_drop_view_skips_a_down_node_that_forgets_it_on_restart(self):
        def map_fn(doc, meta, emit):
            emit(doc["v"], None)

        cluster = Cluster(nodes=3, vbuckets=8, auto_failover=False)
        cluster.create_bucket("b", replicas=1)
        cluster.define_view("b", ViewDefinition("dd", "v", map_fn))
        cluster.crash_node("node2")
        cluster.drop_view("b", "dd", "v")
        for name in ("node1", "node3"):
            node = cluster.node(name)
            assert node.view_engines["b"].indexes == {}
            assert not node.disk.exists("views/b/dd_v.view")
        assert cluster.node("node2").disk.exists("views/b/dd_v.view")

        cluster.restart_node("node2")
        node2 = cluster.node("node2")
        assert node2.view_engines["b"].indexes == {}
        assert not node2.disk.exists("views/b/dd_v.view")

    def test_an_index_dropped_while_its_host_is_down_loses_its_file(self):
        cluster = Cluster(nodes=3, vbuckets=8, auto_failover=False)
        cluster.create_bucket("b", replicas=1)
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        host = cluster.manager.index_registry.require("by_v").nodes[0]
        cluster.create_index(attribute_index("by_w", "b", "w"), nodes=[host])
        cluster.crash_node(host)
        cluster.query("DROP INDEX b.by_v")
        assert cluster.node(host).disk.exists("gsi/b/by_v.index")

        cluster.restart_node(host)
        disk = cluster.node(host).disk
        assert not disk.exists("gsi/b/by_v.index")
        # An index the registry still places here keeps its file.
        assert disk.exists("gsi/b/by_w.index")


def unreachable_during(cluster, node, ddl):
    """Run ``ddl`` while ``node`` is cut off from the network (its
    process stays up), bring it back and let the heartbeat sweep run."""
    cluster.network.set_down(node)
    ddl()
    cluster.network.set_down(node, False)
    cluster.tick(5)


@pytest.fixture
def loaded():
    """3 nodes, 16 vBuckets and 30 documents, no auto-failover."""
    cluster = Cluster(nodes=3, vbuckets=16, auto_failover=False)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    for i in range(30):
        client.upsert("b", f"k{i}", {"v": i, "a": i})
    cluster.run_until_idle()
    return cluster


def map_v(doc, meta, emit):
    emit(doc["v"], None)


class TestDDLWhileANodeIsUnreachable:
    """A node that is unreachable during DDL and comes back without a
    restart catches up from the manager's heartbeat sweep.  (It once
    kept what it had for good.)"""

    def test_a_view_defined_meanwhile_is_defined_on_it(self, loaded):
        unreachable_during(loaded, "node2", lambda: loaded.define_view(
            "b", ViewDefinition("dd", "v", map_v)))
        assert all(("dd", "v") in node.view_engines["b"].indexes
                   for node in loaded.nodes())
        rows = loaded.views.query("b", "dd", "v", stale="false").rows
        assert sorted(row["key"] for row in rows) == list(range(30))

    def test_a_view_dropped_meanwhile_goes_with_its_file(self, loaded):
        loaded.define_view("b", ViewDefinition("dd", "v", map_v))
        unreachable_during(loaded, "node2",
                           lambda: loaded.drop_view("b", "dd", "v"))
        node2 = loaded.node("node2")
        assert node2.view_engines["b"].indexes == {}
        assert not node2.disk.exists("views/b/dd_v.view")
        loaded.define_view("b", ViewDefinition("dd", "v", map_v))
        rows = loaded.views.query("b", "dd", "v", stale="false").rows
        assert len(rows) == 30

    def test_an_index_dropped_meanwhile_goes_with_its_file(self, loaded):
        create = 'CREATE INDEX ia ON b(a) WITH {"nodes": ["node2"]}'
        loaded.query(create)
        unreachable_during(loaded, "node2",
                           lambda: loaded.query("DROP INDEX ia"))
        node2 = loaded.node("node2")
        assert "ia" not in node2.indexer.indexer.instances
        assert not node2.disk.exists("gsi/b/ia.index")
        loaded.query(create)
        assert len(loaded.gsi.scan("ia")) == 30


class TestRemoveNodeClosesItsBuckets:
    def test_a_removed_node_keeps_no_pump_and_no_engine(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        node3 = cluster.add_node("node3")
        cluster.rebalance()
        cluster.remove_node("node3")
        assert [name for name in cluster.scheduler.pump_names()
                if "/node3/" in name] == []
        assert "b" not in node3.engines

    def test_a_removed_node_can_join_again(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.add_node("node3")
        cluster.rebalance()
        cluster.remove_node("node3")
        cluster.add_node("node3")
        cluster.rebalance()
        assert bucket_pumps(cluster, "node3") == PUMPS
        assert cluster.node("node3").engines["b"].vbuckets
