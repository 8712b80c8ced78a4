"""The node-grouped batch KV path: multi_get / multi_upsert /
multi_remove issue one RPC per destination node, survive topology
changes by re-batching only the failed keys, and surface per-key errors
in a structured BatchResult."""

import pytest

from repro import BatchResult, Cluster
from repro.common.errors import KeyExistsError, KeyNotFoundError


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
        involved = {cluster_map.node_for_key(k) for k in keys}
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

        cluster.network.reset_counters()
        client.multi_get("b", keys)
        batched = cluster.network.latency_charged
        assert batched < per_key
        assert batched == pytest.approx(0.001 * 4)  # one unit per node

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
                 if stale_map.node_for_key(k) != fresh_map.node_for_key(k)]
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
