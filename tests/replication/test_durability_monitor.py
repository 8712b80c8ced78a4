"""Unit tests for the durability monitor (observe-based waits)."""

import pytest

from repro import Cluster
from repro.common.errors import (
    DurabilityError,
    DurabilityImpossibleError,
)
from repro.replication.durability import (
    DurabilityMonitor,
    DurabilityRequirement,
)
from tests.kv.support import drain_flusher


class TestRequirement:
    def test_trivial(self):
        assert DurabilityRequirement().trivial
        assert not DurabilityRequirement(replicate_to=1).trivial
        assert not DurabilityRequirement(persist_to=1).trivial

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DurabilityRequirement(replicate_to=-1)
        with pytest.raises(ValueError):
            DurabilityRequirement(persist_to=-1)


class TestMonitor:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster(nodes=3, vbuckets=8)
        cluster.create_bucket("b", replicas=2)
        return cluster

    def test_waits_until_replicated(self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        monitor = DurabilityMonitor(cluster.network, cluster.scheduler)
        monitor.wait("b", "k", result, DurabilityRequirement(replicate_to=2),
                     cluster.manager.cluster_maps["b"])
        # Both replicas must now hold the exact CAS.
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = result.vbucket_id
        for name in cluster_map.replica_nodes(vb):
            entry = cluster.node(name).engines["b"].vbuckets[vb].hashtable.peek("k")
            assert entry.doc.meta.cas == result.cas

    def test_persist_counts_active_disk(self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        monitor = DurabilityMonitor(cluster.network, cluster.scheduler)
        monitor.wait("b", "k", result, DurabilityRequirement(persist_to=3),
                     cluster.manager.cluster_maps["b"])
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = result.vbucket_id
        chain = [n for n in cluster_map.chains[vb] if n is not None]
        for name in chain:
            assert cluster.node(name).engines["b"].vbuckets[vb].store.contains("k")

    def test_impossible_replicate_to(self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        monitor = DurabilityMonitor(cluster.network, cluster.scheduler)
        with pytest.raises(DurabilityImpossibleError):
            monitor.wait("b", "k", result,
                         DurabilityRequirement(replicate_to=3),
                         cluster.manager.cluster_maps["b"])

    def test_impossible_persist_to(self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        monitor = DurabilityMonitor(cluster.network, cluster.scheduler)
        with pytest.raises(DurabilityImpossibleError):
            monitor.wait("b", "k", result,
                         DurabilityRequirement(persist_to=4),
                         cluster.manager.cluster_maps["b"])

    def test_unreachable_replica_fails_durability(self, cluster):
        client = cluster.connect()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        for name in cluster_map.replica_nodes(vb):
            cluster.network.set_down(name)
        result = client._call("b", "k", "kv_upsert", {"v": 1}, 0, 0.0, 0)
        monitor = DurabilityMonitor(cluster.network, cluster.scheduler)
        with pytest.raises(DurabilityError):
            monitor.wait("b", "k", result,
                         DurabilityRequirement(replicate_to=1), cluster_map)

    def test_deletion_durability(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()
        # Waiting on the tombstone: replicas confirm via persisted delete.
        client.remove("b", "k", replicate_to=1, persist_to=1)


class TestDeletionDurability:
    """The tombstone observe path: a delete only counts as persisted
    once the tombstone itself reaches disk (a stale live version on disk
    must not satisfy persist_to), and an in-memory replica tombstone
    carrying the delete's CAS counts toward replicate_to."""

    @pytest.fixture
    def cluster(self):
        cluster = Cluster(nodes=3, vbuckets=8)
        cluster.create_bucket("b", replicas=2)
        return cluster

    def test_remove_persist_to_waits_for_tombstone_on_disk(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()  # the *live* version is now persisted
        result = client.remove("b", "k", persist_to=1)
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = result.vbucket_id
        active = cluster.node(cluster_map.chains[vb][0])
        # The active's store must hold the tombstone, not just any entry.
        assert active.engines["b"].vbuckets[vb].store.has_tombstone("k")

    def test_observe_does_not_count_stale_live_version_as_persisted_delete(
            self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = result.vbucket_id
        active = cluster.node(cluster_map.chains[vb][0])
        engine = active.engines["b"]
        engine.delete(vb, "k")  # tombstone in memory, flusher not run
        observed = engine.observe(vb, "k")
        assert not observed.exists
        assert not observed.persisted  # disk still holds the live doc
        drain_flusher(engine)
        observed = engine.observe(vb, "k")
        assert observed.persisted

    def test_in_memory_replica_tombstone_counts_as_replicated(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()
        # replicate_to=2 with both replica flushers effectively unable
        # to matter: the monitor must credit the in-memory tombstones.
        client.remove("b", "k", replicate_to=2)
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        for name in cluster_map.replica_nodes(vb):
            entry = cluster.node(name).engines["b"].vbuckets[vb].hashtable.peek("k")
            assert entry is not None and entry.doc.meta.deleted

    @pytest.mark.parametrize("durability", [{"replicate_to": 1},
                                            {"persist_to": 2}])
    def test_an_old_tombstone_does_not_make_a_later_write_durable(
            self, cluster, durability):
        """A replica still holding the key's persisted tombstone has not
        received a later write of the key, so it counts toward neither
        level (it once counted toward both, acking the write at once)."""
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        client.remove("b", "k")
        cluster.run_until_idle()  # every copy persisted the tombstone
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        active = cluster_map.chains[vb][0]
        for name in cluster_map.replica_nodes(vb):
            cluster.network.partition(active, name)  # replication stalls
        with pytest.raises(DurabilityError):
            client.insert("b", "k", {"v": 2}, **durability)

    def test_remove_durability_through_failover(self, cluster):
        client = cluster.connect()
        result = client.upsert("b", "k", {"v": 1},
                               replicate_to=2, persist_to=3)
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = result.vbucket_id
        old_active = cluster_map.chains[vb][0]
        cluster.crash_node(old_active)
        cluster.failover(old_active)
        # The smart client refreshes its map on NOT_MY_VBUCKET/down and
        # the durability wait runs against the promoted chain.
        client.remove("b", "k", replicate_to=1, persist_to=2)
        new_map = cluster.manager.cluster_maps["b"]
        new_active = cluster.node(new_map.chains[vb][0])
        assert new_active.name != old_active
        assert new_active.engines["b"].vbuckets[vb].store.has_tombstone("k")
        replicas = [n for n in new_map.replica_nodes(vb)
                    if n != old_active]
        survivor_tombstones = sum(
            1 for name in replicas
            if (e := cluster.node(name).engines["b"].vbuckets[vb]
                .hashtable.peek("k")) is not None and e.doc.meta.deleted
        )
        assert survivor_tombstones >= 1
