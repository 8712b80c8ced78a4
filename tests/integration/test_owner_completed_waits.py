"""Waits that the owner of the work completes (sections 2.3.2, 3.1.2,
4.2): a durability wait rides on the write and its replication batches,
a ``request_plus`` barrier and a ``stale=false`` view query each
register waiters in one wave, and the flusher, the replica apply, the
indexer and the view pump complete them.

These tests pin what the waits do when they fail, and that no waiter
outlives its wait -- met, failed or raised.
"""

import pytest

from repro import Cluster
from repro.common.errors import (
    DurabilityError,
    IndexNotFoundError,
    NodeDownError,
    NotMyVBucketError,
)
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.kv.types import VBucketState
from repro.replication.durability import (DurabilityMonitor,
                                          DurabilityRequirement)
from repro.views import ViewDefinition

#: Intra-cluster traffic: what the replicators send, never the client.
REPLICATION = ("kv_replica_apply_batch", "kv_replica_stream_state",
               "kv_adopt_failover_log", "kv_reset_replica")


def kv_waiters(cluster) -> int:
    """Waiters the engines hold, plus durability registrations the
    replicators have not placed on every replica yet."""
    return sum(len(waiters) for node in cluster.nodes()
               for engine in node.engines.values()
               for waiters in engine._waiters.values()) + sum(
        len(waits) for node in cluster.nodes()
        for replicator in node.replicators.values()
        for waits in replicator._registrations.values())


def client_calls(cluster) -> dict:
    """RPCs since the last ``reset_counters`` that are not replication
    traffic, by ``(dst, method)``."""
    return {call: count for call, count in cluster.network.calls.items()
            if call[1] not in REPLICATION}


def replica_batches(cluster) -> dict:
    return {dst: count for (dst, method), count
            in cluster.network.calls.items()
            if method == "kv_replica_apply_batch"}


def index_waiters(cluster) -> int:
    return sum(len(instance.waiters) for node in cluster.nodes()
               if node.indexer is not None
               for instance in node.indexer.indexer.instances.values())


def view_waiters(cluster) -> int:
    return sum(len(index.waiters) for node in cluster.nodes()
               for engine in node.view_engines.values()
               for index in engine.indexes.values())


def run_once_after(cluster, name, action) -> None:
    """Perform ``action`` right after the next call of the registered
    pump ``name`` -- inside the wait that drives it.  A wait drives only
    the pumps that can end it, so the action rides on one of those."""
    scheduler = cluster.scheduler
    pump = scheduler._by_name[name]
    done = []

    def wrapped() -> bool:
        progressed = pump()
        if not done:
            done.append(True)
            action()
        return progressed

    scheduler._by_name[name] = wrapped


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=8)
    cluster.create_bucket("b", replicas=2)
    return cluster


class TestDurabilityWaits:
    def test_no_waiter_outlives_a_durable_write(self, cluster):
        client = cluster.connect()
        client.upsert("b", "met", {"v": 1}, replicate_to=2, persist_to=3)
        assert kv_waiters(cluster) == 0

        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("unmet")
        active = cluster_map.chains[vb][0]
        for name in cluster_map.replica_nodes(vb):
            cluster.network.partition(active, name)  # replication stalls
        with pytest.raises(DurabilityError):
            client.upsert("b", "unmet", {"v": 1}, replicate_to=1)
        assert kv_waiters(cluster) == 0

    def test_an_unreachable_replica_is_left_out_and_fails_the_wait(
            self, cluster):
        client = cluster.connect()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        active = cluster_map.chains[vb][0]
        for name in cluster_map.replica_nodes(vb):
            cluster.network.set_down(name)
        cluster.network.reset_counters()
        with pytest.raises(DurabilityError):
            client.upsert("b", "k", {"v": 1}, replicate_to=1, persist_to=1)
        # The write carried the wait: it is the client's only RPC.
        assert client_calls(cluster) == {(active, "kv_upsert"): 1}
        assert kv_waiters(cluster) == 0

    @pytest.mark.parametrize("demote", [True, False],
                             ids=["demoted-then-dropped", "dropped"])
    def test_a_vbucket_leaving_mid_wait_raises_not_my_vbucket(
            self, cluster, demote):
        """Map reconciliation marks a copy DEAD before dropping it; a
        replica reset drops it outright.  Either way a replica's waiter
        that the vBucket leaves before it settles makes the wait raise.
        The copy leaves right after the active's replicator delivers the
        batch: after the apply and before the replica's flush."""
        client = cluster.connect()
        cluster_map = cluster.manager.cluster_maps["b"]
        key = "k"
        vb = cluster_map.vbucket_for_key(key)
        active = cluster_map.chains[vb][0]
        engine = cluster.node(cluster_map.replica_nodes(vb)[0]).engines["b"]
        left = []

        def leave() -> None:
            # The replica's waiter is registered and not settled yet.
            [waiter] = engine._waiters[vb]
            assert waiter.replicated and not waiter.persisted
            if demote:
                engine.set_vbucket_state(vb, VBucketState.DEAD)
            engine.drop_vbucket(vb)
            left.append(waiter)

        run_once_after(cluster, f"replicator/{active}/b", leave)
        with pytest.raises(NotMyVBucketError):
            client.upsert("b", key, {"v": 1}, persist_to=2)
        assert left and isinstance(left[0].error, NotMyVBucketError)
        assert kv_waiters(cluster) == 0

    def test_a_partition_healed_mid_wait_resends_the_registration(
            self, cluster):
        """The batch that should carry the registration cannot reach the
        replica; once the partition heals, the next batch to it does."""
        client = cluster.connect()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        active = cluster_map.chains[vb][0]
        replicas = cluster_map.replica_nodes(vb)
        for name in replicas:
            cluster.network.partition(active, name)
        run_once_after(cluster, f"replicator/{active}/b",
                       cluster.network.heal)
        result = client.upsert("b", "k", {"v": 1}, replicate_to=2)
        for name in replicas:
            entry = cluster.node(name).engines["b"].vbuckets[vb] \
                .hashtable.peek("k")
            assert entry.doc.meta.cas == result.cas
        assert kv_waiters(cluster) == 0

    def test_one_scatter_wave_registers_on_both_replicas(self, cluster):
        client = cluster.connect()
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        active = cluster_map.chains[vb][0]
        cluster.network.reset_counters()
        client.upsert("b", "k", {"v": 1}, replicate_to=2, persist_to=3)
        assert client_calls(cluster) == {(active, "kv_upsert"): 1}
        assert replica_batches(cluster) == {
            name: 1 for name in cluster_map.replica_nodes(vb)}
        assert kv_waiters(cluster) == 0

    def test_a_wait_on_a_replicated_mutation_settles_by_an_empty_slot(
            self, cluster, monkeypatch):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()  # every copy holds and persisted it
        cluster_map = cluster.manager.cluster_maps["b"]
        replicas = cluster_map.replica_nodes(result.vbucket_id)
        sent = []
        scatter = cluster.network.scatter

        def recorded(src, dsts, method, args_per_dst):
            sent.extend(args for args in args_per_dst)
            return scatter(src, dsts, method, args_per_dst)

        monkeypatch.setattr(cluster.network, "scatter", recorded)
        cluster.network.reset_counters()
        DurabilityMonitor(cluster.network, cluster.scheduler).wait(
            "b", "k", result, DurabilityRequirement(replicate_to=2),
            cluster_map)
        assert client_calls(cluster) == {
            (cluster_map.chains[result.vbucket_id][0],
             "kv_durability_wait"): 1}
        assert replica_batches(cluster) == {name: 1 for name in replicas}
        assert sent == [("b", [(result.vbucket_id, [])],
                         {result.vbucket_id: [("k", result.cas)]})] * 2
        assert kv_waiters(cluster) == 0

    def test_a_failed_wait_leaves_no_pending_registration(self, cluster):
        client = cluster.connect()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        active = cluster_map.chains[vb][0]
        replicas = cluster_map.replica_nodes(vb)
        cluster.network.partition(active, replicas[0])
        pending = []
        replicator = cluster.node(active).replicators["b"]
        run_once_after(
            cluster, f"replicator/{active}/b", lambda: pending.append(
                sum(len(waits)
                    for waits in replicator._registrations.values())))
        with pytest.raises(DurabilityError):
            client.upsert("b", "k", {"v": 1}, replicate_to=2)
        # Mid-wait, the registration was waiting for the cut replica.
        assert pending == [1]
        assert kv_waiters(cluster) == 0


class TestBarriers:
    @pytest.fixture
    def indexed(self, cluster):
        client = cluster.connect()
        for i in range(20):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.create_index(IndexDefinition(
            name="by_v", bucket="b", key_sources=["v"],
            extractors=[path_extractor("v")], num_partitions=2,
        ))
        cluster.run_until_idle()
        # An un-indexed backlog longer than one projector round: 600
        # versions of one document.
        for i in range(600):
            client.upsert("b", "busy", {"v": 100 + i})
        return cluster

    def test_no_waiter_outlives_a_barrier(self, indexed):
        rows = indexed.gsi.scan("by_v", scan_consistency="request_plus")
        assert len(rows) == 21 and [699] in [key for key, _id in rows]
        assert index_waiters(indexed) == 0

    def test_an_index_dropped_mid_barrier_raises_index_not_found(
            self, indexed):
        run_once_after(indexed, "projector/node1/b",
                       lambda: indexed.gsi.drop_index("by_v"))
        with pytest.raises(IndexNotFoundError):
            indexed.gsi.scan("by_v", scan_consistency="request_plus")
        assert index_waiters(indexed) == 0


class TestStaleFalse:
    @pytest.fixture
    def viewed(self, cluster):
        def by_v(doc, meta, emit):
            emit(doc["v"], None)

        cluster.define_view("b", ViewDefinition("dd", "by_v", by_v))
        client = cluster.connect()
        for i in range(30):
            client.upsert("b", f"k{i}", {"v": i})  # un-indexed backlog
        return cluster

    def test_one_wave_registers_the_wait_and_nothing_outlives_it(
            self, viewed):
        viewed.network.reset_counters()
        result = viewed.views.query("b", "dd", "by_v", stale="false")
        assert len(result.rows) == 30
        assert {dst for (dst, method) in viewed.network.calls
                if method == "view_wait"} == {"node1", "node2", "node3"}
        assert sum(count for (_dst, method), count
                   in viewed.network.calls.items()
                   if method == "view_wait") == 3
        assert view_waiters(viewed) == 0

    def test_a_partitioned_view_node_fails_fast(self, viewed):
        viewed.network.partition("view-coordinator", "node2")
        before = viewed.scheduler._round
        with pytest.raises(NodeDownError):
            viewed.views.query("b", "dd", "by_v", stale="false")
        assert viewed.scheduler._round == before
        assert view_waiters(viewed) == 0
