"""One catalog and one push rule.

The cluster manager keeps every bucket's design documents, GSI indexes
and USING VIEW indexes in one catalog under one revision, and pushes it
-- like each bucket's map -- to every reachable node; the heartbeat
sweep re-pushes either to a node whose acknowledged revision lags, so a
node that was unreachable catches up without a restart.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.errors import (
    IndexExistsError,
    IndexNotFoundError,
    KeyNotFoundError,
    NodeDownError,
    ServiceUnavailableError,
    ViewExistsError,
    ViewNotFoundError,
)
from repro.views import ViewDefinition


class TestAnUnreachableNodeCatchesUpOnTheMap:
    def test_a_failover_it_missed_reaches_it_on_the_next_sweep(self):
        """node2 is unreachable while node1 fails over, so the push of
        the new map misses it.  It used to keep map revision 1 and leave
        the vBuckets promoted to it as replicas, refusing their keys."""
        cluster = Cluster(nodes=3, vbuckets=16, auto_failover=False)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        keys = [f"k{i}" for i in range(40)]
        for i, key in enumerate(keys):
            client.upsert("b", key, {"i": i})
        cluster.run_until_idle()

        cluster.network.set_down("node2")
        cluster.crash_node("node1")
        cluster.failover("node1")
        cluster.network.set_down("node2", False)
        cluster.tick(1)

        manager = cluster.manager
        assert cluster.node("node2").cluster_maps["b"].revision \
            == manager.cluster_maps["b"].revision == 2
        for i, key in enumerate(keys):
            assert client.get("b", key).value == {"i": i}
            client.upsert("b", key, {"i": -i})


class TestIndexNamesAreOneNamespace:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.create_bucket("c", replicas=1)
        return cluster

    def test_a_gsi_index_cannot_take_a_view_index_name(self, cluster):
        cluster.query("CREATE INDEX x ON b(a) USING VIEW")
        with pytest.raises(IndexExistsError):
            cluster.query("CREATE INDEX x ON b(a) USING GSI")
        assert cluster.manager.catalog.get("x") is None
        for node in cluster.nodes():
            assert "x" not in node.indexer.indexer.instances
            assert not node.disk.exists("gsi/b/x.index")

    def test_a_refused_view_index_leaves_no_view_behind(self, cluster):
        cluster.query("CREATE INDEX y ON b(a) USING VIEW")
        with pytest.raises(IndexExistsError):
            cluster.query("CREATE INDEX y ON c(a) USING VIEW")
        assert cluster.manager.catalog.views("c") == {}
        for node in cluster.nodes():
            assert node.view_engines["c"].indexes == {}
            assert not node.disk.exists("views/c/_n1ql_y.view")

    def test_dropping_the_view_of_a_view_index_drops_the_index(self, cluster):
        cluster.query("CREATE INDEX v ON b(a) USING VIEW")
        cluster.drop_view("b", "_n1ql", "v")
        assert cluster.manager.catalog.view_indexes() == []
        cluster.query("CREATE INDEX v ON b(a) USING VIEW")

    def test_drop_index_drops_either_kind(self, cluster):
        cluster.query("CREATE INDEX g ON b(a) USING GSI")
        cluster.query("CREATE INDEX v ON b(a) USING VIEW")
        cluster.query("DROP INDEX g")
        cluster.query("DROP INDEX v")
        assert cluster.query("SELECT idx.name FROM system:indexes idx").rows \
            == []
        with pytest.raises(IndexNotFoundError):
            cluster.query("DROP INDEX v")


class TestAViewIndexGoesWithItsBucket:
    def test_a_recreated_bucket_has_no_view_index(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.query("CREATE INDEX va ON b(a) USING VIEW")
        cluster.drop_bucket("b")
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        for i in range(10):
            client.upsert("b", f"k{i}", {"a": i})
        cluster.run_until_idle()

        assert cluster.query("SELECT idx.name FROM system:indexes idx").rows \
            == []
        cluster.query("CREATE INDEX va ON b(a) USING VIEW")
        rows = cluster.query("SELECT a FROM b WHERE a > 5",
                             scan_consistency="request_plus").rows
        assert sorted(row["a"] for row in rows) == [6, 7, 8, 9]


class TestAViewMadeAgainMeanwhileIsMadeAgain:
    def test_a_node_that_missed_a_redefinition_rebuilds_the_view(self):
        """node2 is unreachable while ``dd/v`` is dropped and defined
        again with another map function: on catching up it drops its
        copy, file included, and builds the new one."""
        cluster = Cluster(nodes=3, vbuckets=16, auto_failover=False)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        for i in range(30):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.run_until_idle()
        cluster.define_view("b", ViewDefinition(
            "dd", "v", lambda doc, meta, emit: emit(doc["v"], None)))
        cluster.network.set_down("node2")
        cluster.drop_view("b", "dd", "v")
        cluster.define_view("b", ViewDefinition(
            "dd", "v", lambda doc, meta, emit: emit(-doc["v"], None)))
        cluster.network.set_down("node2", False)
        cluster.tick(1)
        rows = cluster.views.query("b", "dd", "v", stale="false").rows
        assert sorted(row["key"] for row in rows) == list(range(-29, 1))


class TestARejoiningNodeGetsTheCatalog:
    def test_a_node_removed_and_added_again_defines_the_views(self):
        """What the manager recorded as acknowledged goes with the node,
        so the push reaches the fresh node that takes its name."""
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        cluster.define_view("b", ViewDefinition(
            "dd", "v", lambda doc, meta, emit: emit(doc["v"], None)))
        cluster.add_node("node3")
        cluster.rebalance()
        cluster.remove_node("node3")
        node3 = cluster.add_node("node3")
        assert ("dd", "v") in node3.view_engines["b"].indexes


class TestViewDDLIsValidatedFirst:
    def test_a_view_defined_twice_is_refused(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        view = ViewDefinition("dd", "v", lambda doc, meta, emit: emit(1, None))
        cluster.define_view("b", view)
        epoch = cluster.manager.catalog.epoch
        with pytest.raises(ViewExistsError):
            cluster.define_view("b", view)
        with pytest.raises(ViewNotFoundError):
            cluster.drop_view("b", "dd", "other")
        assert cluster.manager.catalog.epoch == epoch


# -- convergence under failures ---------------------------------------------------

def _map_v(doc, meta, emit):
    emit(doc.get("v"), None)


#: A step is its kind and an integer: which view or index it names (a
#: drop picks among those that exist), or the node ``node<n>``.
STEPS = st.one_of(
    st.tuples(st.sampled_from(["define_view", "view_index"]),
              st.integers(0, 1)),
    st.tuples(st.sampled_from(["drop_view", "drop_index"]),
              st.integers(0, 3)),
    st.tuples(st.just("create_index"), st.integers(0, 1), st.integers(1, 5)),
    *(st.tuples(st.just(kind), st.integers(1, 5))
      for kind in ("crash", "restart", "down", "up", "failover")),
    st.tuples(st.sampled_from(["add_node", "recreate_bucket"])),
)

#: What a step may be refused with: the name is taken or unknown, or a
#: named host is not a live index node.
REFUSALS = (IndexExistsError, IndexNotFoundError, NodeDownError,
            ServiceUnavailableError, ViewExistsError, ViewNotFoundError)


def _run(cluster: Cluster, step: tuple) -> None:
    manager = cluster.manager
    kind, *args = step
    node = f"node{args[-1]}" if args else ""   # for the node steps
    member = node in manager.nodes and node not in manager.ejected
    if kind == "define_view":
        cluster.define_view("b", ViewDefinition("dd", f"v{args[0]}", _map_v))
    elif kind == "drop_view":
        views = sorted(manager.catalog.views("b"))
        if views:
            cluster.drop_view("b", *views[args[0] % len(views)])
    elif kind == "create_index":
        cluster.query(f'CREATE INDEX g{args[0]} ON b(v) '
                      f'WITH {{"nodes": ["{node}"]}}')
    elif kind == "view_index":
        cluster.query(f"CREATE INDEX w{args[0]} ON b(v) USING VIEW")
    elif kind == "drop_index":
        names = manager.catalog.names() + sorted(
            info.name for info in manager.catalog.view_indexes())
        if names:
            cluster.query(f"DROP INDEX {names[args[0] % len(names)]}")
    elif kind == "crash" and member:
        cluster.crash_node(node)
    elif kind == "down" and member and len(manager.live_nodes()) > 1:
        cluster.network.set_down(node)
    elif kind == "up" and member and cluster.node(node).alive:
        cluster.network.set_down(node, False)
    elif kind == "failover" and member and len(manager.data_nodes()) > 1:
        cluster.failover(node)
    elif kind == "add_node" and len(manager.nodes) < 5:
        cluster.add_node(f"node{len(manager.nodes) + 1}")
    elif kind == "recreate_bucket":
        cluster.drop_bucket("b")
        cluster.create_bucket("b", replicas=1)


def _assert_converged(cluster: Cluster, nodes: list) -> None:
    """Each of ``nodes`` holds exactly the catalog's views and GSI
    instances, at the catalog's revisions, and no other index file."""
    catalog = cluster.manager.catalog
    for node in nodes:
        named = []
        for bucket, views in node.view_engines.items():
            assert {key: index.revision
                    for key, index in views.indexes.items()} \
                == {key: entry.revision
                    for key, entry in catalog.views(bucket).items()}
            named += [index.filename for index in views.indexes.values()]
        instances = node.indexer.indexer.instances
        assert {name: instance.revision
                for name, instance in instances.items()} \
            == {name: meta.revision
                for name, meta in catalog.placed_on(node.name).items()}
        named += [instance.filename for instance in instances.values()]
        for filename in node.disk.list_files():
            if filename.startswith(("views/", "gsi/")):
                assert filename.startswith(tuple(named)), (node.name, filename)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(STEPS, min_size=1, max_size=12))
# node1 and node2 hold every copy of some vBuckets: the index on node3
# must drop their rows.
@example([("create_index", 0, 3), ("failover", 1), ("failover", 2)])
# node3, down, hosts g1: node1's restarted projector must still build g0.
@example([("create_index", 0, 1), ("create_index", 1, 3), ("crash", 1),
          ("crash", 3)])
def test_every_node_converges_to_the_catalog(steps):
    """DDL mixed with crash/restart, transient outages, failover, a
    joining node and a re-created bucket; any number of nodes may be
    crashed at once, and a restart never raises.  Once every member is
    back, every node holds what the catalog says and no file of a
    dropped view or index, and each ready GSI index holds exactly the
    documents KV reads back."""
    cluster = Cluster(nodes=3, vbuckets=8, auto_failover=False)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    keys = [f"k{i}" for i in range(12)]
    for i, key in enumerate(keys):
        client.upsert("b", key, {"v": i})
    cluster.run_until_idle()
    for step in steps:
        kind, *args = step
        node = f"node{args[-1]}" if args else ""
        if kind == "restart":
            if node in cluster.manager.nodes \
                    and node not in cluster.manager.ejected \
                    and not cluster.node(node).alive:
                cluster.restart_node(node)
            continue
        try:
            _run(cluster, step)
        except REFUSALS:
            pass
    members = [node for node in cluster.nodes()
               if node.name not in cluster.manager.ejected]
    for node in members:
        if node.alive:
            cluster.network.set_down(node.name, False)
    cluster.run_until_idle()
    _assert_converged(cluster, [node for node in members if node.alive])
    for node in members:
        if not node.alive:
            cluster.restart_node(node.name)
    cluster.run_until_idle()
    _assert_converged(cluster, members)
    # A vBucket whose every copy was failed over has no active left:
    # KV serves none of its documents, and every index host drops the
    # rows it fed when the map reaches it.  An index hosted on a
    # failed-over node cannot be scanned.
    client = cluster.connect()
    cluster_map = cluster.manager.cluster_maps["b"]
    served = [key for key in keys if cluster_map.active_node(
        cluster_map.vbucket_for_key(key)) is not None]
    documents = {}
    for key in served:
        try:
            documents[key] = client.get("b", key).value["v"]
        except KeyNotFoundError:
            pass
    catalog = cluster.manager.catalog
    hosts = {node.name for node in members}
    for name in catalog.names():
        meta = catalog.require(name)
        if meta.state == "ready" and set(meta.nodes) <= hosts:
            rows = cluster.gsi.scan(name, scan_consistency="request_plus")
            assert rows == sorted(([v], key)
                                  for key, v in documents.items()), name
