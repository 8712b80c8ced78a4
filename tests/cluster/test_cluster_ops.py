"""Integration tests for the clustered system: smart-client routing,
replication, durability, failover, orchestrator election, and rebalance."""

import pytest

from repro import Cluster
from repro.common.errors import (
    BucketExistsError,
    BucketNotFoundError,
    DurabilityImpossibleError,
    NoQuorumError,
)
from repro.common.services import Service
from repro.kv.engine import VBucketState


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def doc_count_on(cluster, node_name, bucket="b", state=VBucketState.ACTIVE):
    engine = cluster.node(node_name).engine(bucket)
    total = 0
    for vb_id in engine.owned_vbuckets(state):
        total += sum(
            1 for _k, e in engine.vbuckets[vb_id].hashtable.items()
            if not e.doc.meta.deleted
        )
    return total


class TestSmartClientRouting:
    def test_write_read_roundtrip(self, cluster, client):
        for i in range(50):
            client.upsert("b", f"user::{i}", {"i": i})
        for i in range(50):
            assert client.get("b", f"user::{i}").value == {"i": i}

    def test_keys_spread_across_nodes(self, cluster, client):
        for i in range(100):
            client.upsert("b", f"user::{i}", {"i": i})
        counts = [doc_count_on(cluster, f"node{n}") for n in (1, 2, 3)]
        assert sum(counts) == 100
        assert all(count > 0 for count in counts)

    def test_get_touches_single_node(self, cluster, client):
        client.upsert("b", "k1", {})
        cluster.network.reset_counters()
        client.get("b", "k1")
        gets = [(dst, m) for (dst, m), n in cluster.network.calls.items()
                if m == "kv_get"]
        assert len(gets) == 1

    def test_unknown_bucket(self, client):
        with pytest.raises(BucketNotFoundError):
            client.get("nope", "k")

    def test_duplicate_bucket_rejected(self, cluster):
        with pytest.raises(BucketExistsError):
            cluster.create_bucket("b")

    def test_multi_get(self, cluster, client):
        client.upsert("b", "a", 1)
        client.upsert("b", "c", 3)
        found = client.multi_get("b", ["a", "missing", "c"])
        assert set(found) == {"a", "c"}


class TestReplication:
    def test_mutations_reach_replicas(self, cluster, client):
        for i in range(30):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        replica_docs = sum(
            doc_count_on(cluster, f"node{n}", state=VBucketState.REPLICA)
            for n in (1, 2, 3)
        )
        assert replica_docs == 30  # replicas=1

    def test_deletes_replicate(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        client.remove("b", "k")
        cluster.run_until_idle()
        replica_docs = sum(
            doc_count_on(cluster, f"node{n}", state=VBucketState.REPLICA)
            for n in (1, 2, 3)
        )
        assert replica_docs == 0

    def test_replica_matches_active_value(self, cluster, client):
        result = client.upsert("b", "key-x", {"v": "final"})
        cluster.run_until_idle()
        vb = cluster.manager.cluster_maps["b"].vbucket_for_key("key-x")
        replica_node = cluster.manager.cluster_maps["b"].replica_nodes(vb)[0]
        entry = (
            cluster.node(replica_node).engine("b").vbuckets[vb].hashtable.peek("key-x")
        )
        assert entry.doc.value == {"v": "final"}
        assert entry.doc.meta.cas == result.cas


class TestDurability:
    def test_replicate_to_one(self, cluster, client):
        result = client.upsert("b", "k", {"v": 1}, replicate_to=1)
        vb = result.vbucket_id
        replica_node = cluster.manager.cluster_maps["b"].replica_nodes(vb)[0]
        entry = cluster.node(replica_node).engine("b").vbuckets[vb].hashtable.peek("k")
        assert entry is not None

    def test_persist_to_one(self, cluster, client):
        result = client.upsert("b", "k", {"v": 1}, persist_to=1)
        vb = result.vbucket_id
        active = cluster.manager.cluster_maps["b"].active_node(vb)
        assert cluster.node(active).engine("b").vbuckets[vb].store.contains("k")

    def test_persist_and_replicate(self, cluster, client):
        client.upsert("b", "k", {"v": 1}, replicate_to=1, persist_to=2)

    def test_impossible_requirement(self, cluster, client):
        with pytest.raises(DurabilityImpossibleError):
            client.upsert("b", "k", 1, replicate_to=3)


class TestFailover:
    def test_manual_failover_promotes_replicas(self, cluster, client):
        for i in range(40):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        report = cluster.failover("node2")
        assert report["b"]["promoted"] > 0
        assert report["b"]["lost"] == 0
        for i in range(40):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_crash_then_auto_failover(self, cluster, client):
        for i in range(40):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.crash_node("node3")
        cluster.tick(31.0)  # past AUTO_FAILOVER_TIMEOUT
        assert "node3" in cluster.manager.ejected
        for i in range(40):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_no_failover_before_timeout(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        cluster.crash_node("node3")
        cluster.tick(5.0)
        assert "node3" not in cluster.manager.ejected

    def test_recovery_cancels_suspicion(self, cluster, client):
        cluster.crash_node("node3")
        cluster.tick(5.0)
        cluster.restart_node("node3")
        cluster.tick(60.0)
        assert "node3" not in cluster.manager.ejected

    def test_failover_without_replicas_loses_data(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("nb", replicas=0)
        client = cluster.connect()
        for i in range(20):
            client.upsert("nb", f"k{i}", i)
        report = cluster.failover("node2")
        assert report["nb"]["lost"] > 0

    def test_reads_after_failover_are_served_by_promoted_node(self, cluster, client):
        client.upsert("b", "kx", {"v": 1})
        cluster.run_until_idle()
        vb = cluster.manager.cluster_maps["b"].vbucket_for_key("kx")
        active_before = cluster.manager.cluster_maps["b"].active_node(vb)
        cluster.crash_node(active_before)
        cluster.tick(31.0)
        active_after = cluster.manager.cluster_maps["b"].active_node(vb)
        assert active_after != active_before
        assert client.get("b", "kx").value == {"v": 1}

    def test_writes_continue_after_failover(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        cluster.crash_node("node1")
        cluster.tick(31.0)
        client.upsert("b", "k", 2)
        assert client.get("b", "k").value == 2


class TestOrchestrator:
    def test_lowest_live_node_is_orchestrator(self, cluster):
        assert cluster.manager.orchestrator == "node1"

    def test_reelection_on_orchestrator_death(self, cluster):
        cluster.crash_node("node1")
        assert cluster.manager.orchestrator == "node2"

    def test_no_quorum(self, cluster):
        for n in ("node1", "node2", "node3"):
            cluster.crash_node(n)
        with pytest.raises(NoQuorumError):
            _ = cluster.manager.orchestrator


class TestRebalance:
    def test_rebalance_after_add_node(self, cluster, client):
        for i in range(60):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.add_node("node4")
        report = cluster.rebalance()
        assert report["b"]["moves"] > 0
        assert doc_count_on(cluster, "node4") > 0
        for i in range(60):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_rebalance_balances_actives(self, cluster, client):
        cluster.add_node("node4")
        cluster.rebalance()
        stats = cluster.manager.cluster_maps["b"].stats()
        counts = stats["active_per_node"].values()
        assert max(counts) - min(counts) <= 1

    def test_rebalance_rebuilds_replicas(self, cluster, client):
        for i in range(30):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.add_node("node4")
        cluster.rebalance()
        replica_docs = sum(
            doc_count_on(cluster, f"node{n}", state=VBucketState.REPLICA)
            for n in (1, 2, 3, 4)
        )
        assert replica_docs == 30

    def test_remove_node_gracefully(self, cluster, client):
        for i in range(40):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.remove_node("node3")
        assert "node3" not in cluster.manager.nodes
        for i in range(40):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_rebalance_after_failover_restores_redundancy(self, cluster, client):
        for i in range(30):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.failover("node2")
        cluster.rebalance()
        stats = cluster.manager.cluster_maps["b"].stats()
        assert stats["unassigned_active"] == 0
        # With 2 survivors and replicas=1, every vBucket should again
        # have one replica.
        replica_total = sum(stats["replica_per_node"].values())
        assert replica_total == 16

    def test_client_with_stale_map_retries_through_rebalance(self, cluster):
        client_a = cluster.connect()
        for i in range(30):
            client_a.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster.add_node("node4")
        cluster.rebalance()
        # client_a still holds the old map; every read must still succeed
        # via NOT_MY_VBUCKET refresh.
        for i in range(30):
            assert client_a.get("b", f"k{i}").value == {"i": i}


class TestMds:
    def test_service_segregated_topology(self):
        cluster = Cluster(
            nodes=[
                ("data1", {"data"}),
                ("data2", {"data"}),
                ("index1", {"index"}),
                ("query1", {"query"}),
            ],
            vbuckets=16,
        )
        cluster.create_bucket("b")
        client = cluster.connect()
        client.upsert("b", "k", 1)
        # Data lands only on data nodes.
        assert "k" not in str(cluster.node("index1").engines)
        assert doc_count_on(cluster, "data1") + doc_count_on(cluster, "data2") == 1
        assert cluster.service_node(Service.INDEX).name == "index1"
        assert cluster.service_node(Service.QUERY).name == "query1"

    def test_bucket_requires_data_node(self):
        cluster = Cluster(nodes=[("q1", {"query"})], vbuckets=8)
        with pytest.raises(NoQuorumError):
            cluster.create_bucket("b")
