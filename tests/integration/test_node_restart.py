"""Node restart and warmup: a crashed process loses its memory but not
its (synced) disk; restart rebuilds the cache, views, and GSI instances
from persistent state."""

import pytest

from repro import Cluster
from repro.common.errors import KeyNotFoundError
from repro.views import ViewDefinition


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b", replicas=0)  # no replicas: disk is the net
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


class TestWarmup:
    def test_persisted_data_survives_restart(self, cluster, client):
        for i in range(40):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()  # flusher persists everything
        cluster.crash_node("node1")
        cluster.node("node1").disk.crash()  # drop unsynced bytes
        cluster.restart_node("node1")
        for i in range(40):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_unpersisted_writes_lost_on_restart(self, cluster, client):
        client.upsert("b", "durable", 1)
        cluster.run_until_idle()
        # Write without letting the flusher run, then crash.
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("volatile")
        node_name = cluster_map.active_node(vb)
        engine = cluster.node(node_name).engines["b"]
        engine.upsert(vb, "volatile", 2)
        cluster.node(node_name).disk.crash()
        cluster.restart_node(node_name)
        assert client.get("b", "durable").value == 1
        with pytest.raises(KeyNotFoundError):
            client.get("b", "volatile")

    def test_warmup_restores_metadata(self, cluster, client):
        result = client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()
        cluster.restart_node("node1")
        cluster.restart_node("node2")
        doc = client.get("b", "k")
        assert doc.meta.cas == result.cas
        assert doc.meta.rev == 1

    def test_cas_continues_monotonically_after_restart(self, cluster, client):
        first = client.upsert("b", "k", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        node_name = cluster_map.active_node(first.vbucket_id)
        cluster.restart_node(node_name)
        second = client.upsert("b", "k", 2)
        assert second.cas > first.cas

    def test_writes_resume_after_restart(self, cluster, client):
        client.upsert("b", "pre", 1)
        cluster.run_until_idle()
        cluster.restart_node("node1")
        client.upsert("b", "post", 2)
        cluster.run_until_idle()
        assert client.get("b", "post").value == 2

    def test_tombstones_survive_restart(self, cluster, client):
        client.upsert("b", "gone", 1)
        cluster.run_until_idle()
        client.remove("b", "gone")
        cluster.run_until_idle()
        cluster.restart_node("node1")
        cluster.restart_node("node2")
        with pytest.raises(KeyNotFoundError):
            client.get("b", "gone")


class TestServiceRebuildOnRestart:
    def test_views_rematerialize(self, cluster, client):
        def by_i(doc, meta, emit):
            if "i" in doc:
                emit(doc["i"], None)

        cluster.define_view("b", ViewDefinition("dd", "by_i", by_i, "_count"))
        for i in range(20):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.restart_node("node1")
        result = cluster.views.query("b", "dd", "by_i", stale="false")
        assert result.value == 20

    def test_gsi_rebuilt_on_restart(self, cluster, client):
        for i in range(20):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.query("CREATE INDEX by_i ON b(i) USING GSI")
        meta = cluster.manager.index_registry.require("by_i")
        index_host = meta.nodes[0]
        cluster.restart_node(index_host)
        rows = cluster.gsi.scan("by_i", scan_consistency="request_plus")
        assert len(rows) == 20

    def test_gsi_stays_fresh_after_restart(self, cluster, client):
        cluster.query("CREATE INDEX by_i ON b(i) USING GSI")
        client.upsert("b", "a", {"i": 1})
        cluster.run_until_idle()
        cluster.restart_node("node1")
        cluster.restart_node("node2")
        client.upsert("b", "b2", {"i": 2})
        rows = cluster.gsi.scan("by_i", scan_consistency="request_plus")
        assert len(rows) == 2

    def test_replica_rebuilt_after_restart(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("r", replicas=1)
        client = cluster.connect()
        for i in range(20):
            client.upsert("r", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.crash_node("node2")
        cluster.node("node2").disk.crash()
        cluster.restart_node("node2")
        cluster.run_until_idle()
        # node2's replica copies are repopulated by the replicator.
        from repro.kv.engine import VBucketState
        engine = cluster.node("node2").engines["r"]
        replica_docs = sum(
            sum(1 for _k, e in engine.vbuckets[vb].hashtable.items()
                if not e.doc.meta.deleted)
            for vb in engine.owned_vbuckets(VBucketState.REPLICA)
        )
        active_docs = sum(
            sum(1 for _k, e in engine.vbuckets[vb].hashtable.items()
                if not e.doc.meta.deleted)
            for vb in engine.owned_vbuckets(VBucketState.ACTIVE)
        )
        # Every document lives on node2 exactly once (active or replica
        # copy), and the cluster serves all of them.
        assert replica_docs + active_docs == 20
        total_everywhere = sum(
            1 for i in range(20) if client.get("r", f"k{i}").value == {"i": i}
        )
        assert total_everywhere == 20

    def test_a_replica_restart_gets_its_lost_tail_back(self):
        """A restarted replica loses its unsynced tail.  Its actives must
        re-send it: the restart republishes the map, every active's
        stream reconnects, and the handshake reads the replica's state
        from its disk.  (The stream once outlived the restart, so the
        tail stayed lost, and a later failover to that replica lost
        writes its active had acked and persisted.)"""
        cluster = Cluster(nodes=4, vbuckets=64)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        client.multi_upsert("b", {f"k{i}": {"i": i}
                                  for i in range(400)}).require_ok()
        cluster.run_until_idle()
        for i in range(400, 800):
            client.upsert("b", f"k{i}", {"i": i})
            if i % 32 == 31:
                cluster.scheduler.step()
        cluster.crash_node("node1")
        cluster.node("node1").disk.crash()
        cluster.restart_node("node1")
        cluster.run_until_idle()

        cluster_map = cluster.manager.cluster_maps["b"]
        replicated = {vb: chain[0] for vb, chain in enumerate(cluster_map.chains)
                      if "node1" in chain[1:]}
        assert replicated
        restarted = cluster.node("node1").engines["b"]
        behind = sum(
            cluster.node(active).engines["b"].vbuckets[vb].high_seqno
            - restarted.vbuckets[vb].high_seqno
            for vb, active in replicated.items())
        assert behind == 0

        # Lose every active node1 replicates: its copies are promoted.
        for active in sorted(set(replicated.values())):
            cluster.crash_node(active)
            cluster.failover(active)
        client = cluster.connect()
        for i in range(800):
            key = f"k{i}"
            if cluster_map.vbucket_for_key(key) in replicated:
                assert client.get("b", key).value == {"i": i}
