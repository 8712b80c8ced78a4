"""Observability surfaces (stats, event logs, metrics) plus a seeded
randomized soak test that interleaves KV traffic, N1QL queries, and
topology changes while checking invariants."""

import random

import pytest

from repro import Cluster
from repro.common.errors import KeyNotFoundError, NodeDownError


class TestObservability:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster(nodes=2, vbuckets=16)
        cluster.create_bucket("b")
        return cluster

    def test_cluster_stats_shape(self, cluster):
        stats = cluster.stats()
        assert stats["nodes"] == ["node1", "node2"]
        assert stats["orchestrator"] == "node1"
        assert "b" in stats["buckets"]
        assert stats["buckets"]["b"]["revision"] >= 1

    def test_node_stats(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", 1)
        stats = cluster.node("node1").stats()
        assert stats["name"] == "node1"
        assert set(stats["services"]) == {"data", "index", "query"}
        assert "b" in stats["buckets"]

    def test_event_log_records_lifecycle(self, cluster):
        cluster.crash_node("node2")
        cluster.tick(31.0)
        events = [event for _t, event, _d in cluster.manager.event_log]
        assert "node-added" in events
        assert "bucket-created" in events
        assert "node-suspect" in events
        assert "failover" in events

    def test_recovery_event(self, cluster):
        cluster.crash_node("node2")
        cluster.tick(5.0)
        cluster.restart_node("node2")
        events = [event for _t, event, _d in cluster.manager.event_log]
        assert "node-recovered" in events

    def test_network_call_accounting(self, cluster):
        client = cluster.connect()
        cluster.network.reset_counters()
        client.upsert("b", "k", 1)
        upserts = sum(
            count for (dst, method), count in cluster.network.calls.items()
            if method == "kv_upsert"
        )
        assert upserts == 1

    def test_engine_metrics(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", 1)
        client.get("b", "k")
        try:
            client.get("b", "missing")
        except KeyNotFoundError:
            pass
        cluster.run_until_idle()
        totals = {}
        for name in ("node1", "node2"):
            for counter, value in cluster.node(name).metrics.snapshot()[
                "counters"
            ].items():
                totals[counter] = totals.get(counter, 0) + value
        assert totals.get("kv.mutations", 0) >= 1
        assert totals.get("kv.gets", 0) >= 1
        assert totals.get("kv.get_misses", 0) >= 1
        assert totals.get("kv.flushed", 0) >= 1

    def test_query_metrics(self, cluster):
        cluster.query("SELECT 1")
        requests = sum(
            cluster.node(n).metrics.counter_value("n1ql.requests")
            for n in ("node1", "node2")
        )
        assert requests == 1

    def test_rebalance_in_progress_guard(self, cluster):
        from repro.common.errors import RebalanceInProgressError
        cluster.rebalancer.in_progress = True
        with pytest.raises(RebalanceInProgressError):
            cluster.rebalancer.rebalance()
        cluster.rebalancer.in_progress = False

    def test_client_retries_exhaust_to_error(self, cluster):
        client = cluster.connect()
        client.upsert("b", "k", 1)
        cluster.manager.auto_failover = False
        cluster.network.set_down("node1")
        cluster.network.set_down("node2")
        with pytest.raises(NodeDownError):
            client.get("b", "k")


class TestSoak:
    """A deterministic random workload across every subsystem at once.
    The invariant: a Python dict shadow-model and the cluster agree on
    every key's value at every checkpoint, through writes, deletes,
    rebalance, failover, and index maintenance."""

    SEED = 20160626  # SIGMOD'16 started June 26, 2016

    def test_soak(self):
        rng = random.Random(self.SEED)
        cluster = Cluster(nodes=3, vbuckets=16)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        cluster.query("CREATE INDEX by_group ON b(grp) USING GSI")
        model: dict[str, dict] = {}
        next_node = 4

        def checkpoint():
            cluster.run_until_idle()
            # Spot-check a sample of keys against the model.
            sample = rng.sample(sorted(model), min(len(model), 15))
            for key in sample:
                assert client.get("b", key).value == model[key]
            # Deleted keys stay deleted.
            # COUNT(*) through N1QL must match the model exactly.
            rows = cluster.query(
                "SELECT COUNT(*) AS n FROM b x",
                scan_consistency="request_plus").rows
            assert rows[0]["n"] == len(model)
            # Per-group counts through the secondary index match too.
            rows = cluster.query(
                "SELECT x.grp, COUNT(*) AS n FROM b x GROUP BY x.grp",
                scan_consistency="request_plus").rows
            from collections import Counter
            expected = Counter(doc["grp"] for doc in model.values())
            assert {(r["grp"], r["n"]) for r in rows} == set(expected.items())

        for step in range(300):
            action = rng.random()
            if action < 0.55:  # write
                key = f"k{rng.randrange(80):03d}"
                doc = {"grp": rng.randrange(5), "step": step}
                client.upsert("b", key, doc)
                model[key] = doc
            elif action < 0.70:  # delete
                if model:
                    key = rng.choice(sorted(model))
                    client.remove("b", key)
                    del model[key]
            elif action < 0.80:  # N1QL update
                grp = rng.randrange(5)
                result = cluster.query(
                    "UPDATE b x SET x.touched = $1 WHERE x.grp = $2",
                    params=[step, grp],
                    scan_consistency="request_plus")
                for key, doc in model.items():
                    if doc["grp"] == grp:
                        doc["touched"] = step
                assert result.mutation_count == sum(
                    1 for d in model.values() if d["grp"] == grp
                )
            elif action < 0.90:  # settle + checkpoint
                checkpoint()
            else:  # topology event
                event = rng.random()
                if event < 0.4 and len(cluster.manager.data_nodes()) < 5:
                    cluster.add_node(f"node{next_node}")
                    next_node += 1
                    cluster.rebalance()
                elif event < 0.7 and len(cluster.manager.data_nodes()) > 2:
                    # Let replication catch up first: failing over with
                    # un-replicated writes in flight loses them -- that is
                    # the asynchronous-replication trade-off of section
                    # 2.3.2, exercised separately in
                    # TestAsyncReplicationLoss below.
                    cluster.run_until_idle()
                    victim = rng.choice(cluster.manager.data_nodes()[1:])
                    cluster.failover(victim)
                    cluster.rebalance()
                else:
                    cluster.rebalance()
                checkpoint()
        checkpoint()


class TestAsyncReplicationLoss:
    def test_failover_before_replication_can_lose_memory_only_writes(self):
        """The flip side of memory-first acknowledgement (section 2.3.2):
        a write acked from memory and failed over before the replicator
        ran is gone -- unless the client asked for replicate_to."""
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        client.upsert("b", "seed", 0)
        cluster.run_until_idle()

        # Write 50 keys but do NOT let the replication pumps run.
        for i in range(50):
            client.upsert("b", f"racy{i}", {"i": i})
        cluster.failover("node2")  # promotes stale replicas

        lost = 0
        for i in range(50):
            try:
                client.get("b", f"racy{i}")
            except KeyNotFoundError:
                lost += 1
        # Keys whose active was node2 are lost; keys on node1 survive.
        assert lost > 0
        # With replicate_to=1 the same race cannot lose anything.
        cluster2 = Cluster(nodes=2, vbuckets=8)
        cluster2.create_bucket("b", replicas=1)
        client2 = cluster2.connect()
        for i in range(20):
            client2.upsert("b", f"safe{i}", {"i": i}, replicate_to=1)
        cluster2.failover("node2")
        for i in range(20):
            assert client2.get("b", f"safe{i}").value == {"i": i}
