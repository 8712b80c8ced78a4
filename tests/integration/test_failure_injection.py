"""Failure-injection tests: partitions, divergent replicas, durability
under failures, service loss, and crash-recovery of the whole node."""

import pytest

from repro import Cluster
from repro.common.errors import (
    DurabilityError,
    IndexNotReadyError,
    NodeDownError,
    NoSuitableIndexError,
    ServiceUnavailableError,
)
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.gsi.projector import _hash_partition
from repro.kv.engine import VBucketState


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=1)
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


class TestPartitions:
    def test_client_partitioned_from_one_node_still_reads_after_failover(
        self, cluster, client
    ):
        for i in range(30):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        # Partition node2 away from everything (clients and peers).
        cluster.crash_node("node2")
        cluster.tick(31.0)  # auto-failover
        for i in range(30):
            assert client.get("b", f"k{i}").value == {"i": i}

    def test_replication_stalls_through_partition_then_catches_up(
        self, cluster, client
    ):
        client.upsert("b", "pre", 1)
        cluster.run_until_idle()
        # Partition node1 <-> node2: replication between them stalls but
        # neither is "down".
        cluster.network.partition("node1", "node2")
        client.upsert("b", "during", 2)
        cluster.run_until_idle()
        cluster.network.heal()
        cluster.run_until_idle()
        # After healing, every replica converges.
        total_replica_docs = sum(
            sum(1 for _k, e in cluster.node(f"node{n}").engines["b"]
                .vbuckets[vb].hashtable.items() if not e.doc.meta.deleted)
            for n in (1, 2, 3)
            for vb in cluster.node(f"node{n}").engines["b"]
            .owned_vbuckets(VBucketState.REPLICA)
        )
        assert total_replica_docs == 2

    def test_durability_fails_when_replica_unreachable(self, cluster, client):
        result_key = "needs-replica"
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key(result_key)
        replica_node = cluster_map.replica_nodes(vb)[0]
        cluster.network.set_down(replica_node)
        with pytest.raises(DurabilityError):
            client.upsert("b", result_key, {"v": 1}, replicate_to=1)
        # The write itself still took effect on the active (durability is
        # an observation, not a transaction).
        cluster.network.set_down(replica_node, False)
        assert client.get("b", result_key).value == {"v": 1}


class TestDivergentReplica:
    def test_replica_ahead_of_new_active_is_reset(self, cluster, client):
        """Failover promotes the least-caught-up copy; the old (ahead)
        replica must be detected via the DCP rollback path and rebuilt."""
        for i in range(20):
            client.upsert("b", f"k{i}", {"i": i})
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k0")
        active = cluster_map.active_node(vb)
        replica = cluster_map.replica_nodes(vb)[0]
        # Replica "hears" extra mutations the active never had (simulates
        # a divergent history after a botched failover).
        replica_engine = cluster.node(replica).engines["b"]
        replica_vb = replica_engine.vbuckets[vb]
        from repro.common.document import Document, DocumentMeta
        replica_engine.apply_replicated(vb, Document(
            DocumentMeta(key="phantom", cas=10**12,
                         seqno=replica_vb.high_seqno + 100, rev=1),
            {"phantom": True},
        ))
        assert replica_vb.high_seqno > \
            cluster.node(active).engines["b"].vbuckets[vb].high_seqno
        # Force the replicator to re-derive streams: bump map revision.
        cluster.manager.cluster_maps["b"].revision += 1
        cluster.manager.push_map("b")
        cluster.run_until_idle()
        # The divergent replica was reset and rebuilt from the active:
        # the phantom is gone and real data is present.
        new_vb = cluster.node(replica).engines["b"].vbuckets[vb]
        assert new_vb.hashtable.peek("phantom") is None
        for i in range(20):
            cluster_map2 = cluster.manager.cluster_maps["b"]
            if cluster_map2.vbucket_for_key(f"k{i}") == vb:
                assert new_vb.hashtable.peek(f"k{i}") is not None


class TestServiceLoss:
    def test_query_routing_fails_over_to_surviving_query_node(self):
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("q1", {"query"}), ("q2", {"query"}),
                   ("i1", {"index"})],
            vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        assert cluster.service_node.__self__ is cluster  # sanity
        cluster.network.set_down("q1")
        rows = cluster.query("SELECT x.v FROM b x",
                             scan_consistency="request_plus").rows
        assert rows == [{"v": 1}]

    def test_all_query_nodes_down(self):
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("q1", {"query"})], vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        cluster.network.set_down("q1")
        with pytest.raises(ServiceUnavailableError):
            cluster.query("SELECT 1")

    def test_gsi_scan_with_index_node_down(self):
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("i1", {"index"}), ("q1", {"query"})],
            vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        for i in range(5):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        cluster.network.set_down("i1")
        # Every partition holds rows no other node serves: a scan that
        # skipped the down node would silently return an incomplete (here
        # empty) result set.  It must fail instead.
        with pytest.raises(NodeDownError):
            cluster.gsi.scan("by_v")

    @pytest.mark.parametrize("partition", [0, 1])
    def test_barrier_behind_a_down_partition_fails_fast(self, partition):
        """The scan behind a request_plus barrier needs every hosting
        node, so the barrier raises NodeDownError before its first poll
        whichever partition the caller's last write hashed to (it used
        to drain the whole scheduler and time out when the write hashed
        to the down node, and raise only after polling otherwise)."""
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("i1", {"index"}), ("i2", {"index"}),
                   ("q1", {"query"})],
            vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        for i in range(5):
            client.upsert("b", f"k{i}", {"v": i})
        meta = cluster.create_index(IndexDefinition(
            name="by_v", bucket="b", key_sources=["v"],
            extractors=[path_extractor("v")], num_partitions=2,
        ))
        assert meta.nodes == ["i1", "i2"]
        cluster.run_until_idle()
        cluster.network.set_down("i1")
        key = next(f"w{i}" for i in range(100)
                   if _hash_partition(f"w{i}", 2) == partition)
        client.upsert("b", key, {"v": 99})
        cluster.network.reset_counters()
        cluster.scheduler.trace = []
        with pytest.raises(NodeDownError):
            cluster.gsi.scan("by_v", scan_consistency="request_plus")
        assert cluster.network.calls == {}
        assert cluster.scheduler.trace == []  # no scheduler round either


class TestIndexBuild:
    def test_failed_build_leaves_no_ready_partial_index(self, cluster, client):
        """A build that cannot reach its hosting node must not leave a
        plannable index behind: the index used to be marked ready before
        the first row was routed, so after heal() the COUNT below was
        pushed down to a 44-row index of a 60-document bucket."""
        for i in range(60):
            client.upsert("b", f"k{i}", {"a": i})
        cluster.run_until_idle()
        cluster.network.partition("node3", "node1")
        epoch = cluster.manager.index_registry.epoch
        with pytest.raises(ServiceUnavailableError):
            cluster.query("CREATE INDEX ia ON b(a)")
        (described,) = cluster.gsi.list_indexes("b")
        assert described["nodes"] == ["node1"]
        assert described["state"] == "building"
        # Registered, but no new access path was announced to the planner.
        assert cluster.manager.index_registry.epoch == epoch + 1
        cluster.network.heal()
        with pytest.raises(NoSuitableIndexError):
            cluster.query("SELECT COUNT(*) AS n FROM b WHERE a >= 0")
        with pytest.raises(IndexNotReadyError):
            cluster.gsi.scan("ia")
        # Nothing is routed to an index that is not ready, so a document
        # the failed build did deliver can vanish unseen: the retry must
        # start from empty instances, not on top of the partial rows.
        delivered = {doc_id for _key, doc_id in
                     cluster.node("node1").indexer.indexer.scan("ia", None, None)}
        assert len(delivered) == 44
        client.remove("b", min(delivered))
        cluster.run_until_idle()
        cluster.query("BUILD INDEX ON b(ia)")
        assert cluster.query(
            "SELECT COUNT(*) AS n FROM b WHERE a >= 0").rows == [{"n": 59}]
        cluster.query("CREATE INDEX fresh ON b(a)")
        assert cluster.gsi.scan("ia") == cluster.gsi.scan("fresh")
        assert len(cluster.gsi.scan("ia")) == 59


class TestPartialDelivery:
    """One projector slice, two hosting index nodes, one of them down."""

    @pytest.fixture
    def cluster(self):
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("i1", {"index"}), ("i2", {"index"}),
                   ("q1", {"query"})],
            vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        return cluster

    def test_only_fully_delivered_vbuckets_advance_and_heal_converges(
            self, cluster):
        client = cluster.connect()
        vbucket_of = cluster.manager.cluster_maps["b"].vbucket_for_key
        candidates = [f"k{i}" for i in range(200)]
        # ``landed`` holds only keys of partition 0 (i1, up); ``owed``
        # mixes both partitions, so part of its slice is owed to i2.
        landed_vb, owed_vb = 0, 1
        landed = [k for k in candidates if vbucket_of(k) == landed_vb
                  and _hash_partition(k, 2) == 0][:4]
        owed = [[k for k in candidates if vbucket_of(k) == owed_vb
                 and _hash_partition(k, 2) == partition][:3]
                for partition in (0, 1)]
        bucket = {owed[0][0]: 1, owed[1][0]: 2, owed[1][1]: 3}
        for key, v in bucket.items():
            client.upsert("b", key, {"v": v})
        meta = cluster.create_index(IndexDefinition(
            name="by_v", bucket="b", key_sources=["v"],
            extractors=[path_extractor("v")], num_partitions=2,
        ))
        assert meta.nodes == ["i1", "i2"]
        cluster.run_until_idle()
        projector = dict(cluster.scheduler._pumps)["projector/d1/b"].__self__
        engine = cluster.node("d1").engines["b"]
        i1 = cluster.node("i1").indexer.indexer
        before = (projector.projected_seqnos[owed_vb],
                  i1.watermarks("by_v")[owed_vb])

        cluster.network.set_down("i2")
        for key in landed:
            bucket[key] = 10
        # In the owed vBucket: an update and a new key for the live
        # partition, then an update, a delete and a new key for the down
        # one -- the replay after heal() sends all of them again.
        bucket[owed[0][0]] = 11
        bucket[owed[0][1]] = 12
        bucket[owed[1][0]] = 13
        bucket[owed[1][2]] = 14
        for key in landed + [owed[0][0], owed[0][1], owed[1][0], owed[1][2]]:
            client.upsert("b", key, {"v": bucket[key]})
        client.remove("b", owed[1][1])
        del bucket[owed[1][1]]

        cluster.network.reset_counters()
        assert projector.pump() is True  # the landed vBucket was delivered
        assert cluster.network.calls == {("i1", "gsi_apply"): 1}
        assert projector.projected_seqnos[landed_vb] == \
            engine.vbuckets[landed_vb].high_seqno
        assert i1.watermarks("by_v")[landed_vb] == \
            engine.vbuckets[landed_vb].high_seqno
        # The owed vBucket advanced nowhere: not in the projector, and
        # not on the live partition (which a max-over-partitions barrier
        # would otherwise take as proof that i2 is up to date too).
        assert (projector.projected_seqnos[owed_vb],
                i1.watermarks("by_v")[owed_vb]) == before
        # Only the owed vBucket is left: nothing can be delivered, so the
        # pump must not claim progress (run_until_idle would livelock).
        cluster.network.reset_counters()
        assert projector.pump() is False
        assert cluster.network.calls == {}
        cluster.run_until_idle()

        cluster.network.set_down("i2", False)
        rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
        assert rows == sorted(([v], key) for key, v in bucket.items())


class TestNodeCrashRecovery:
    def test_node_process_crash_loses_memory_keeps_disk(self, cluster, client):
        """Crash = lose unsynced disk bytes + all memory.  Recovery rebuilds
        engines from the storage files (what survives is what the flusher
        committed)."""
        client.upsert("b", "durable", {"v": 1}, persist_to=1)
        result_key_map = cluster.manager.cluster_maps["b"]
        vb = result_key_map.vbucket_for_key("durable")
        node_name = result_key_map.active_node(vb)
        node = cluster.node(node_name)
        node.disk.crash()
        # Reopen the store the way a restarting node would.
        from repro.storage.couchstore import VBucketStore
        reopened = VBucketStore(node.disk, f"b/vb{vb}.couch", vb)
        assert reopened.get("durable").value == {"v": 1}

    def test_restart_rebuilds_a_hosted_index_into_a_fresh_file(self):
        """``restart_node`` rebuilds every index its node hosted.  The
        tree root of the old file died with the process, so the rebuild
        must start from an empty file: it used to append behind the
        crashed process's 34 529 bytes (86 025 instead of 51 478 here).
        The restarted file is the one a node whose disk never held the
        index writes through the same restart -- the snapshot build plus
        the restarted projector's replay of the node's own vBuckets --
        and queries answer as before."""
        def indexed_cluster() -> Cluster:
            cluster = Cluster(nodes=3, vbuckets=16)
            cluster.create_bucket("b", replicas=1)
            cluster.connect().multi_upsert("b", {
                f"k{i:03d}": {"a": i % 37, "t": f"t{i % 11}"}
                for i in range(600)}).require_ok()
            cluster.run_until_idle()
            cluster.query("CREATE INDEX ia ON b(a, t)")
            return cluster

        def answers(cluster: Cluster) -> list:
            return cluster.query(
                "SELECT COUNT(*) AS n, SUM(a) AS s FROM b WHERE a >= 0").rows

        cluster, twin = indexed_cluster(), indexed_cluster()
        (host,) = cluster.gsi.list_indexes("b")[0]["nodes"]
        before = answers(cluster)
        assert before == [{"n": 600, "s": sum(i % 37 for i in range(600))}]
        for each in (cluster, twin):
            each.crash_node(host)
        twin.node(host).disk.delete("gsi/b/ia.index")
        for each in (cluster, twin):
            each.restart_node(host)
        sizes = [each.node(host).disk.open("gsi/b/ia.index").size
                 for each in (cluster, twin)]
        assert sizes[0] == sizes[1]
        assert answers(cluster) == answers(twin) == before

    def test_unpersisted_write_lost_on_crash(self, cluster, client):
        client.upsert("b", "volatile", {"v": 1})  # memory-only ack
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("volatile")
        node = cluster.node(cluster_map.active_node(vb))
        # Crash before any flusher round runs.
        node.disk.crash()
        from repro.storage.couchstore import VBucketStore
        reopened = VBucketStore(node.disk, f"b/vb{vb}.couch", vb)
        assert not reopened.contains("volatile")


class TestStaleClients:
    def test_many_clients_survive_serial_topology_changes(self, cluster):
        clients = [cluster.connect() for _ in range(4)]
        for i, c in enumerate(clients):
            c.upsert("b", f"seed{i}", {"i": i})
        cluster.run_until_idle()
        cluster.add_node("node4")
        cluster.rebalance()
        cluster.failover("node2")
        cluster.rebalance()
        for i, c in enumerate(clients):
            assert c.get("b", f"seed{i}").value == {"i": i}
            c.upsert("b", f"seed{i}", {"i": i, "updated": True})
        for i, c in enumerate(clients):
            assert c.get("b", f"seed{i}").value["updated"]
