"""Unit-level tests for intra-cluster replication: stream lifecycle,
the lineage handshake, and the stale-replica regression the soak test
originally uncovered."""

import pytest

from repro import Cluster
from repro.common.document import Document, DocumentMeta
from repro.kv.engine import VBucketState


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=8)
    cluster.create_bucket("b", replicas=1)
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def replicator_of(cluster, node, bucket="b"):
    return cluster.manager.replicators[(node, bucket)]


class TestStreamLifecycle:
    def test_streams_follow_ownership(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        for name in ("node1", "node2", "node3"):
            expected = len(cluster_map.active_vbuckets_of(name))
            assert len(replicator_of(cluster, name).streams) == expected

    def test_streams_rebuilt_on_revision_change(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        replicator = replicator_of(cluster, "node1")
        old_revision = replicator._map_revision
        cluster.manager.cluster_maps["b"].revision += 1
        cluster.manager.push_map("b")
        cluster.run_until_idle()
        assert replicator._map_revision > old_revision

    def test_replica_adopts_producer_failover_log(self, cluster, client):
        client.upsert("b", "key-x", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("key-x")
        active = cluster_map.active_node(vb)
        replica = cluster_map.replica_nodes(vb)[0]
        producer_log = cluster.node(active).producers["b"].failover_log(vb)
        replica_vb = cluster.node(replica).engines["b"].vbuckets[vb]
        assert replica_vb.source_failover_log == producer_log


class TestLineageHandshake:
    def test_stale_lineage_replica_is_rebuilt(self, cluster, client):
        """Regression for the soak-test bug: a leftover replica whose
        data came from an *older* active lineage -- with a LOWER seqno
        than the new active -- must be detected and rebuilt, not resumed
        by raw seqno."""
        for i in range(12):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k0")
        active = cluster_map.active_node(vb)
        replica_name = cluster_map.replica_nodes(vb)[0]
        replica_engine = cluster.node(replica_name).engines["b"]
        # Fabricate a stale same-seqno-range copy of unknown lineage.
        replica_engine.drop_vbucket(vb)
        stale = replica_engine.create_vbucket(vb, VBucketState.REPLICA)
        replica_engine.apply_replicated(vb, Document(
            DocumentMeta(key="stale-doc", cas=5, seqno=1, rev=1),
            {"stale": True},
        ))
        assert stale.source_failover_log is None
        # Force a stream re-open.
        cluster.manager.cluster_maps["b"].revision += 1
        cluster.manager.push_map("b")
        cluster.run_until_idle()
        rebuilt = replica_engine.vbuckets[vb]
        assert rebuilt.hashtable.peek("stale-doc") is None
        # And it now carries the real content of the active.
        active_vb = cluster.node(active).engines["b"].vbuckets[vb]
        active_keys = {
            k for k, e in active_vb.hashtable.items() if not e.doc.meta.deleted
        }
        replica_keys = {
            k for k, e in rebuilt.hashtable.items() if not e.doc.meta.deleted
        }
        assert replica_keys == active_keys

    def test_lineage_survives_promotion_chain(self, cluster, client):
        """active A -> replica B promoted -> new replica C: C's adopted
        log must contain B's inherited history plus B's new branch."""
        client.upsert("b", "key-y", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("key-y")
        active = cluster_map.active_node(vb)
        cluster.failover(active)
        cluster.rebalance()
        cluster.run_until_idle()
        new_map = cluster.manager.cluster_maps["b"]
        new_active = new_map.active_node(vb)
        log = cluster.node(new_active).producers["b"].failover_log(vb)
        assert len(log) >= 2  # inherited branch + promotion branch
        replicas = new_map.replica_nodes(vb)
        if replicas:
            replica_vb = cluster.node(replicas[0]).engines["b"].vbuckets[vb]
            assert replica_vb.source_failover_log == log

    def test_caught_up_replica_resumes_without_reset(self, cluster, client):
        client.upsert("b", "key-z", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("key-z")
        replica_name = cluster_map.replica_nodes(vb)[0]
        replica_vb = cluster.node(replica_name).engines["b"].vbuckets[vb]
        marker = replica_vb.uuid  # object identity proxy: reset would replace it
        cluster.manager.cluster_maps["b"].revision += 1
        cluster.manager.push_map("b")
        cluster.run_until_idle()
        assert cluster.node(replica_name).engines["b"].vbuckets[vb].uuid == marker

    def test_a_stale_active_never_resets_the_promoted_copy(self, cluster, client):
        """An active the manager failed over but could not reach still
        replicates to the copy promoted in its place.  That copy refuses
        the batch, and reopening the stream must not roll it back: a
        replica-state request to an active copy is refused."""
        client.upsert("b", "key-s", {"v": 1})
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("key-s")
        stale, promoted = cluster_map.chains[vb][:2]
        cluster.network.partition(stale, "cluster-manager")
        cluster.failover(stale)
        promoted_engine = cluster.node(promoted).engines["b"]
        promoted_engine.upsert(vb, "key-s", {"v": 2})
        promoted_engine.upsert(vb, "key-t", {"v": 3})
        cluster.node(stale).engines["b"].upsert(vb, "key-stale", {"v": 0})
        cluster.run_until_idle()
        assert promoted_engine.vbuckets[vb].state is VBucketState.ACTIVE
        assert promoted_engine.get(vb, "key-s").value == {"v": 2}


class TestBatchedReplicaApply:
    def test_pump_coalesces_mutations_into_batch_rpcs(self, cluster, client):
        """A round of DCP messages for one vBucket travels as ONE
        kv_replica_apply_batch RPC, not one RPC per mutation."""
        cluster.run_until_idle()
        cluster.network.reset_counters()
        for i in range(40):
            client.upsert("b", f"batch-k{i}", {"i": i})
        cluster.run_until_idle()
        calls = cluster.network.calls
        batch_calls = sum(
            count for (_dst, method), count in calls.items()
            if method == "kv_replica_apply_batch"
        )
        assert 0 < batch_calls < 40

    def test_batched_replicas_converge(self, cluster, client):
        for i in range(40):
            client.upsert("b", f"conv-k{i}", i)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        for i in range(40):
            vb = cluster_map.vbucket_for_key(f"conv-k{i}")
            for replica in cluster_map.replica_nodes(vb):
                replica_vb = cluster.node(replica).engines["b"].vbuckets[vb]
                entry = replica_vb.hashtable.peek(f"conv-k{i}")
                assert entry is not None and entry.doc.value == i


class TestDeliveryFailure:
    def test_a_replica_catches_up_after_a_partition_heals(self, cluster, client):
        """Batches a partitioned replica refused are not lost: the stream
        is dropped and reopened from the replica's seqno as soon as the
        replica is reachable again, with no map change in between."""
        cluster_map = cluster.manager.cluster_maps["b"]
        keys = [f"p{i}" for i in range(40)]
        active, replica = cluster_map.chains[cluster_map.vbucket_for_key("p0")][:2]
        cluster.network.partition(active, replica)
        for key in keys:
            client.upsert("b", key, {"k": key})
        cluster.run_until_idle()
        cluster.network.heal()
        cluster.run_until_idle()
        for key in keys:
            vb = cluster_map.vbucket_for_key(key)
            for name in cluster_map.replica_nodes(vb):
                entry = cluster.node(name).engines["b"].vbuckets[vb] \
                    .hashtable.peek(key)
                assert entry is not None and entry.doc.value == {"k": key}


class TestReplicationUnderLoad:
    def test_interleaved_writes_and_stream_reopens(self, cluster, client):
        for round_number in range(5):
            for i in range(10):
                client.upsert("b", f"r{round_number}-k{i}", round_number)
            cluster.manager.cluster_maps["b"].revision += 1
            cluster.manager.push_map("b")
            cluster.run_until_idle()
        # Every replica holds exactly the active data set.
        for name in ("node1", "node2", "node3"):
            engine = cluster.node(name).engines["b"]
            for vb_id in engine.owned_vbuckets(VBucketState.REPLICA):
                cluster_map = cluster.manager.cluster_maps["b"]
                active = cluster_map.active_node(vb_id)
                active_vb = cluster.node(active).engines["b"].vbuckets[vb_id]
                replica_vb = engine.vbuckets[vb_id]
                active_docs = {
                    k: e.doc.value for k, e in active_vb.hashtable.items()
                    if not e.doc.meta.deleted and not e.doc.ejected
                }
                replica_docs = {
                    k: e.doc.value for k, e in replica_vb.hashtable.items()
                    if not e.doc.meta.deleted and not e.doc.ejected
                }
                assert replica_docs == active_docs
