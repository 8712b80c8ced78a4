"""Unit-level tests for intra-cluster replication: stream lifecycle,
the lineage handshake, and the stale-replica regression the soak test
originally uncovered."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.common.document import Document, DocumentMeta
from repro.common.errors import CorruptFileError, NotMyVBucketError
from repro.common.transport import Network
from repro.kv.engine import VBucketState
from tests.cluster.support import active_vbuckets_of


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=8)
    cluster.create_bucket("b", replicas=1)
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def replicator_of(cluster, node, bucket="b"):
    return cluster.node(node).replicators[bucket]


def live_docs(cluster, node, vbucket_id, bucket="b") -> dict:
    vb = cluster.node(node).engines[bucket].vbuckets[vbucket_id]
    return {key: entry.doc.value for key, entry in vb.hashtable.items()
            if not entry.doc.meta.deleted}


def assert_replicas_match_actives(cluster, bucket="b"):
    cluster_map = cluster.manager.cluster_maps[bucket]
    for vbucket_id in range(cluster_map.num_vbuckets):
        active = live_docs(cluster, cluster_map.active_node(vbucket_id),
                           vbucket_id, bucket)
        for replica in cluster_map.replica_nodes(vbucket_id):
            assert live_docs(cluster, replica, vbucket_id, bucket) == active


def key_in(cluster_map, vbucket_id: int) -> str:
    return next(key for key in (f"k{i}" for i in range(10_000))
                if cluster_map.vbucket_for_key(key) == vbucket_id)


def record_scatters(monkeypatch) -> list:
    """``(src, dsts, vBuckets per dst)`` of every replication scatter."""
    sent = []
    scatter = Network.scatter

    def recorded(network, src, dsts, method, args_per_dst):
        if method == "kv_replica_apply_batch":
            sent.append((src, list(dsts),
                         [[vb for vb, _docs in args[1]] for args in args_per_dst]))
        return scatter(network, src, dsts, method, args_per_dst)

    monkeypatch.setattr(Network, "scatter", recorded)
    return sent


class TestStreamLifecycle:
    def test_streams_follow_ownership(self, cluster, client):
        client.upsert("b", "k", 1)
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        for name in ("node1", "node2", "node3"):
            expected = len(active_vbuckets_of(cluster_map, name))
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


class TestOneBatchPerNodePair:
    """A round's stream batches leave as one ``kv_replica_apply_batch``
    per replica node, every node in one scatter wave; a failed slot
    drops only the streams whose batches it did not apply."""

    @pytest.fixture
    def cluster(self):
        # replicas=2 on three nodes: every active streams to both others.
        cluster = Cluster(nodes=3, vbuckets=8)
        cluster.create_bucket("b", replicas=2)
        cluster.run_until_idle()
        return cluster

    def write_one_key_per_active(self, cluster, client, node="node1") -> dict:
        cluster_map = cluster.manager.cluster_maps["b"]
        keys = {vb: key_in(cluster_map, vb)
                for vb in active_vbuckets_of(cluster_map, node)}
        assert len(keys) >= 2
        client.multi_upsert("b", {key: {"vb": vb} for vb, key in keys.items()}
                            ).require_ok()
        return keys

    def test_one_pump_scatter_reaches_both_replicas(self, cluster, client,
                                                    monkeypatch):
        keys = self.write_one_key_per_active(cluster, client)
        sent = record_scatters(monkeypatch)
        cluster.network.reset_counters()
        assert replicator_of(cluster, "node1").pump()
        owned = sorted(keys)
        [(src, dsts, vbuckets)] = sent
        assert (src, sorted(dsts), vbuckets) == \
            ("node1", ["node2", "node3"], [owned, owned])
        assert cluster.network.calls == {
            ("node2", "kv_replica_apply_batch"): 1,
            ("node3", "kv_replica_apply_batch"): 1}
        for vb, key in keys.items():
            for replica in ("node2", "node3"):
                assert key in live_docs(cluster, replica, vb)

    def test_a_partitioned_replica_does_not_block_the_other(self, cluster,
                                                            client):
        cluster.network.partition("node1", "node2")
        keys = self.write_one_key_per_active(cluster, client)
        replicator = replicator_of(cluster, "node1")
        assert replicator.pump()
        for vb, key in keys.items():
            assert key in live_docs(cluster, "node3", vb)
            assert key not in live_docs(cluster, "node2", vb)
        # Every stream to the unreachable node was dropped.
        assert {target for _vb, target in replicator.streams} == {"node3"}
        cluster.network.heal()
        cluster.run_until_idle()
        assert_replicas_match_actives(cluster)

    def refuse(self, cluster, monkeypatch, vbucket_id, error, node="node2"):
        """``node`` refuses the first replica batch for ``vbucket_id``."""
        engine = cluster.node(node).engines["b"]
        apply = engine.apply_replicated_batch
        refused = []

        def refuse_once(vb, docs):
            if vb == vbucket_id and not refused:
                refused.append(vb)
                raise error
            apply(vb, docs)

        monkeypatch.setattr(engine, "apply_replicated_batch", refuse_once)

    def test_a_refused_vbucket_drops_only_its_stream(self, cluster, client,
                                                     monkeypatch):
        owned = active_vbuckets_of(cluster.manager.cluster_maps["b"], "node1")
        refused = owned[0]
        self.refuse(cluster, monkeypatch, refused,
                    NotMyVBucketError(refused, "node2"))
        keys = self.write_one_key_per_active(cluster, client)
        replicator = replicator_of(cluster, "node1")
        streams = set(replicator.streams)
        assert replicator.pump()
        assert streams - set(replicator.streams) == {(refused, "node2")}
        for vb, key in keys.items():
            assert key in live_docs(cluster, "node3", vb)
            assert (key in live_docs(cluster, "node2", vb)) == (vb != refused)
        # The next sync reopens the stream from the replica's seqno.
        assert replicator.pump()
        assert set(replicator.streams) == streams
        assert keys[refused] in live_docs(cluster, "node2", refused)
        cluster.run_until_idle()
        assert_replicas_match_actives(cluster)

    def test_an_unexpected_error_is_raised_after_every_slot_settles(
            self, cluster, client, monkeypatch):
        """No stream stays ahead of its replica: the other slots are
        applied and the failed stream dropped before the error leaves."""
        owned = active_vbuckets_of(cluster.manager.cluster_maps["b"], "node1")
        failed = owned[0]
        # Both slots fail, so whichever is handled first, the other's
        # failed stream must still be dropped.
        for replica in ("node2", "node3"):
            self.refuse(cluster, monkeypatch, failed, CorruptFileError("torn"),
                        node=replica)
        keys = self.write_one_key_per_active(cluster, client)
        replicator = replicator_of(cluster, "node1")
        streams = set(replicator.streams)
        with pytest.raises(CorruptFileError):
            replicator.pump()
        assert streams - set(replicator.streams) == {(failed, "node2"),
                                                     (failed, "node3")}
        for vb, key in keys.items():
            for replica in ("node2", "node3"):
                assert (key in live_docs(cluster, replica, vb)) == (vb != failed)
        cluster.run_until_idle()
        assert_replicas_match_actives(cluster)


PAIRS = [("node1", "node2"), ("node1", "node3"), ("node2", "node3")]


class TestConvergenceUnderPartitions:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("write"), st.integers(0, 30), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("partition"), st.sampled_from(PAIRS)),
        st.tuples(st.just("heal"), st.sampled_from(PAIRS)),
        st.tuples(st.just("step"))), max_size=40),
        st.sampled_from([1, 2]))
    def test_replicas_converge_once_partitions_heal(self, steps, replicas):
        cluster = Cluster(nodes=3, vbuckets=8)
        cluster.create_bucket("b", replicas=replicas)
        client = cluster.connect()
        live = set()
        for kind, *args in steps:
            if kind == "write":
                client.upsert("b", f"k{args[0]}", {"v": args[1]})
                live.add(args[0])
            elif kind == "delete" and args[0] in live:
                client.remove("b", f"k{args[0]}")
                live.discard(args[0])
            elif kind == "partition":
                cluster.network.partition(*args[0])
            elif kind == "heal":
                cluster.network.heal(*args[0])
            elif kind == "step":
                cluster.scheduler.step()
        cluster.network.heal()
        cluster.run_until_idle()
        assert_replicas_match_actives(cluster)
