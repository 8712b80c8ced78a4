"""The node-grouped batch KV path: multi_get / multi_upsert /
multi_remove issue one RPC per destination node, all in one parallel
wave, survive topology changes by re-batching only the failed keys, and
surface per-key errors in a structured BatchResult."""

import pytest

from repro import BatchResult, Cluster
from repro.client.smart_client import SmartClient
from repro.common.errors import (
    AdmissionRejectedError,
    KeyExistsError,
    KeyNotFoundError,
    NodeDownError,
)
from tests.cluster.support import node_for_key


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("b", replicas=1)
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


def batch_calls(cluster, method):
    """(node, count) pairs for one batch RPC method."""
    return {
        dst: n for (dst, m), n in cluster.network.calls.items() if m == method
    }


class TestNodeGrouping:
    def test_multi_get_one_rpc_per_involved_node(self, cluster, client):
        keys = [f"user::{i}" for i in range(60)]
        client.multi_upsert("b", {k: {"i": i} for i, k in enumerate(keys)})
        cluster_map = cluster.manager.cluster_maps["b"]
        involved = {node_for_key(cluster_map, k) for k in keys}
        assert len(involved) == 4  # 60 keys spread over all 4 nodes

        cluster.network.reset_counters()
        found = client.multi_get("b", keys)
        assert len(found) == 60
        calls = batch_calls(cluster, "kv_multi_get")
        assert set(calls) == involved
        assert all(count == 1 for count in calls.values())
        # And no per-key gets at all.
        assert not any(m == "kv_get" for _dst, m in cluster.network.calls)

    def test_multi_upsert_one_rpc_per_involved_node(self, cluster, client):
        keys = [f"k{i}" for i in range(40)]
        cluster.network.reset_counters()
        result = client.multi_upsert("b", [(k, {"v": k}) for k in keys])
        assert result.ok and len(result) == 40
        calls = batch_calls(cluster, "kv_multi_mutate")
        assert sum(calls.values()) == len(calls) <= 4
        for key in keys:
            assert client.get("b", key).value == {"v": key}

    def test_batched_charges_less_latency_than_per_key(self):
        """50 gets cost 50 round trips; the same 50 keys as one batch
        cost one: the four per-node RPCs overlap in a single wave."""
        cluster = Cluster(nodes=4, vbuckets=64, network_latency=0.001)
        cluster.create_bucket("b")
        client = cluster.connect()
        keys = [f"k{i}" for i in range(50)]
        client.multi_upsert("b", {k: 1 for k in keys})

        # The naive bulk read: one routed round trip per key.
        cluster.network.reset_counters()
        for key in keys:
            client.get("b", key)
        per_key = cluster.network.latency_charged
        assert per_key == pytest.approx(0.001 * len(keys))

        # The batch: one kv_multi_get per node, all four in one wave.
        cluster.network.reset_counters()
        client.multi_get("b", keys)
        batched = cluster.network.latency_charged
        assert batched < per_key
        assert sum(batch_calls(cluster, "kv_multi_get").values()) == 4
        assert batched == pytest.approx(0.001)  # one unit for all 4 nodes

    def test_deduplicates_keys(self, cluster, client):
        client.upsert("b", "dup", {"v": 1})
        cluster.network.reset_counters()
        found = client.multi_get("b", ["dup", "dup", "dup"])
        assert set(found) == {"dup"}
        assert sum(batch_calls(cluster, "kv_multi_get").values()) == 1


class TestPartialFailure:
    def test_missing_keys_omitted(self, cluster, client):
        client.upsert("b", "a", 1)
        client.upsert("b", "c", 3)
        found = client.multi_get("b", ["a", "missing", "c"])
        assert set(found) == {"a", "c"}

    def test_batch_result_surfaces_per_key_errors(self, cluster, client):
        client.upsert("b", "present", {"v": 1})
        batch = client.multi_get_batch("b", ["present", "absent"])
        assert isinstance(batch, BatchResult)
        assert not batch.ok
        assert batch["present"].value == {"v": 1}
        assert isinstance(batch.errors["absent"], KeyNotFoundError)
        with pytest.raises(KeyNotFoundError):
            batch.require_ok()

    def test_multi_remove_partial(self, cluster, client):
        client.multi_upsert("b", {"x": 1, "y": 2})
        result = client.multi_remove("b", ["x", "ghost", "y"])
        assert set(result.results) == {"x", "y"}
        assert isinstance(result.errors["ghost"], KeyNotFoundError)
        assert client.multi_get("b", ["x", "y"]) == {}

    def test_one_bad_key_does_not_mask_the_rest(self, cluster, client):
        client.upsert("b", "taken", {"v": 0})
        # Batch mutations through the engine surface KeyExistsError per
        # key; route an insert batch directly at the owning node.
        cluster_map = cluster.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("taken")
        node = cluster_map.active_node(vb)
        vb2 = cluster_map.vbucket_for_key("fresh::for-node-test")
        outcomes = cluster.network.call(
            "test", node, "kv_multi_mutate", "b",
            [("insert", vb, "taken", {"value": {"v": 1}})],
        )
        assert outcomes[0][0] == "err"
        assert isinstance(outcomes[0][1], KeyExistsError)
        assert vb2 >= 0  # vbucket hashing stays in range

    def test_partitioned_node_fails_only_its_keys_one_wave_per_round(
            self, monkeypatch):
        """A node cut off from the client: the other nodes' keys come
        back in the first wave, and the cut node's keys retry -- each
        round one wave carrying only them -- until they land in
        ``errors`` as NodeDownError after MAX_RETRIES rounds.  A wave
        whose only destination is unreachable is charged nothing."""
        cluster = Cluster(nodes=4, vbuckets=64, network_latency=0.001)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        keys = [f"user::{i}" for i in range(60)]
        client.multi_upsert("b", {k: i for i, k in enumerate(keys)}).require_ok()
        cluster.run_until_idle()
        cluster_map = cluster.manager.cluster_maps["b"]
        cut = "node2"
        on_cut = {k for k in keys if node_for_key(cluster_map, k) == cut}
        assert 0 < len(on_cut) < len(keys)
        cluster.network.partition(client.name, cut)

        network = cluster.network
        scatter = network.scatter
        rounds = []

        def recording_scatter(src, dsts, method, args_per_dst):
            before = network.latency_charged
            outcomes = scatter(src, dsts, method, args_per_dst)
            carried = {key for _bucket, items in args_per_dst
                       for _vbucket_id, key in items}
            rounds.append((list(dsts), carried, network.latency_charged - before))
            return outcomes

        monkeypatch.setattr(network, "scatter", recording_scatter)
        network.reset_counters()
        batch = client.multi_get_batch("b", keys)

        assert set(batch.results) == set(keys) - on_cut
        assert set(batch.errors) == on_cut
        assert all(isinstance(error, NodeDownError)
                   for error in batch.errors.values())
        assert len(rounds) == SmartClient.MAX_RETRIES
        (first_dsts, first_keys, first_charge), *retries = rounds
        assert first_dsts == ["node1", "node2", "node3", "node4"]
        assert first_keys == set(keys)
        assert first_charge == pytest.approx(0.001)
        for dsts, carried, charge in retries:
            assert (dsts, carried, charge) == ([cut], on_cut, 0.0)
        assert network.latency_charged == pytest.approx(0.001)
        assert cut not in batch_calls(cluster, "kv_multi_get")

    def test_open_breaker_rejects_its_node_without_an_rpc(self, cluster,
                                                          client):
        """A node whose breaker is open gets no RPC: its keys fail fast
        with AdmissionRejectedError and the other nodes answer theirs."""
        keys = [f"user::{i}" for i in range(60)]
        client.multi_upsert("b", {k: i for i, k in enumerate(keys)}).require_ok()
        cluster_map = cluster.manager.cluster_maps["b"]
        tripped = "node3"
        on_tripped = {k for k in keys
                      if node_for_key(cluster_map, k) == tripped}
        assert 0 < len(on_tripped) < len(keys)
        breaker = cluster.admission.breaker(tripped)
        for _ in range(breaker.threshold):
            breaker.record_failure()
        assert not breaker.allow()

        cluster.network.reset_counters()
        batch = client.multi_get_batch("b", keys)
        assert set(batch.results) == set(keys) - on_tripped
        assert set(batch.errors) == on_tripped
        assert all(isinstance(error, AdmissionRejectedError)
                   for error in batch.errors.values())
        assert batch_calls(cluster, "kv_multi_get") == {
            "node1": 1, "node2": 1, "node4": 1}


class TestTopologyChanges:
    def test_rebatch_after_rebalance(self, cluster, client):
        keys = [f"user::{i}" for i in range(40)]
        client.multi_upsert("b", {k: {"i": i} for i, k in enumerate(keys)})
        # Client cached the 4-node map; shrink the cluster under it.
        cluster.remove_node("node4")
        found = client.multi_get("b", keys)
        assert len(found) == 40

    def test_rebatch_after_failover(self, cluster, client):
        keys = [f"user::{i}" for i in range(40)]
        client.multi_upsert("b", {k: {"i": i} for i, k in enumerate(keys)})
        cluster.run_until_idle()
        cluster.crash_node("node2")
        cluster.failover("node2")
        found = client.multi_get("b", keys)
        assert len(found) == 40

    def test_stale_map_only_failed_keys_rebatched(self, cluster, client):
        keys = [f"user::{i}" for i in range(40)]
        client.multi_upsert("b", {k: {"i": i} for i, k in enumerate(keys)})
        stale_map = client._map("b")
        cluster.remove_node("node3")
        fresh_map = cluster.manager.cluster_maps["b"]
        moved = [k for k in keys
                 if node_for_key(stale_map, k) != node_for_key(fresh_map, k)]
        assert moved  # the shrink moved some of our keys
        client._maps["b"] = stale_map
        cluster.network.reset_counters()
        found = client.multi_get("b", keys)
        assert len(found) == 40
        # Round 1: one RPC to each of the 4 stale destinations (one of
        # which is gone / not the owner any more); the retry round only
        # carries the moved keys, so total batch RPCs stay well under
        # "one per key".
        total_batches = sum(batch_calls(cluster, "kv_multi_get").values())
        assert total_batches < len(keys)


class TestConsumers:
    def test_ycsb_load_uses_batch_path(self, cluster):
        from repro.ycsb import CoreWorkload, YcsbClient, workload_a
        workload = CoreWorkload(workload_a(record_count=50), seed=7)
        ycsb = YcsbClient(cluster, "b", workload)
        cluster.network.reset_counters()
        count = ycsb.load()
        assert count == 50
        assert sum(batch_calls(cluster, "kv_multi_mutate").values()) >= 1
        assert not any(m == "kv_upsert" for _dst, m in cluster.network.calls)

    def test_n1ql_fetch_uses_batch_path(self, cluster, client):
        for i in range(30):
            client.upsert("b", f"user::{i:03d}", {"i": i, "city": f"c{i % 3}"})
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        cluster.run_until_idle()
        cluster.network.reset_counters()
        rows = cluster.query("SELECT b.city FROM b WHERE b.i >= 0").rows
        assert len(rows) == 30
        assert sum(batch_calls(cluster, "kv_multi_get").values()) >= 1
        assert not any(m == "kv_get" for _dst, m in cluster.network.calls)
