"""Tests for the online background maintenance of section 4.3.3:
auto-compaction past the fragmentation threshold and the expiry pager."""

import pytest

from repro import Cluster
from repro.common.errors import KeyNotFoundError
from repro.kv.engine import KVEngine, VBucketState
from tests.kv.support import drain_flusher

VB = 0


class TestEngineCompactor:
    def make_churned(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        for round_number in range(60):
            engine.upsert(VB, "hot", {"pad": "x" * 300, "round": round_number})
            drain_flusher(engine)
        return engine

    def test_compacts_past_threshold(self):
        engine = self.make_churned()
        store = engine.vbuckets[VB].store
        assert store.fragmentation() > 0.6
        size_before = store.file_size
        assert engine.run_compactor(threshold=0.6)
        after = engine.vbuckets[VB].store
        assert after.file_size < size_before
        assert after.get("hot").value["round"] == 59

    def test_idle_when_clean(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        engine.upsert(VB, "k", 1)
        drain_flusher(engine)
        assert not engine.run_compactor(threshold=0.6)

    def test_skips_vbuckets_with_dirty_queue(self):
        engine = self.make_churned()
        engine.upsert(VB, "dirty", 1)  # unflushed
        assert not engine.run_compactor(threshold=0.6)
        drain_flusher(engine)
        assert engine.run_compactor(threshold=0.6)

    def test_one_compactor_per_engine(self):
        engine = self.make_churned()
        compactor = engine.compactor
        assert not engine.run_compactor(threshold=0.99)
        assert engine.run_compactor(threshold=0.6)
        assert engine.compactor is compactor and compactor.runs == 1

    def test_a_dropped_vbucket_store_is_not_pinned(self):
        """The compactor's ratio cache must not keep a dropped vBucket's
        store (its log, decoded nodes and fold memo) alive."""
        import gc
        import weakref
        engine = self.make_churned()
        assert not engine.run_compactor(threshold=0.99)  # ratio cached
        store = weakref.ref(engine.vbuckets[VB].store)
        engine.drop_vbucket(VB)
        gc.collect()
        assert store() is None

    def test_reads_survive_compaction(self):
        engine = self.make_churned()
        engine.run_compactor(threshold=0.5)
        assert engine.get(VB, "hot").value["round"] == 59

    def test_dcp_backfill_after_compaction(self):
        from repro.dcp.producer import DcpProducer
        engine = self.make_churned()
        engine.vbuckets[VB].trim_change_buffer()
        engine.run_compactor(threshold=0.5)
        stream = DcpProducer(engine).stream_request(VB)
        messages = []
        while True:
            batch = stream.take()
            if not batch:
                break
            messages.extend(batch)
        from repro.dcp.messages import Mutation
        mutations = [m for m in messages if isinstance(m, Mutation)]
        assert len(mutations) == 1
        assert mutations[0].doc.value["round"] == 59


class TestClusterAutoCompaction:
    def test_churn_triggers_auto_compaction(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", compaction_threshold=0.5)
        client = cluster.connect()
        for round_number in range(80):
            client.upsert("b", "hot", {"pad": "y" * 400, "round": round_number})
            cluster.run_until_idle()
        compactions = sum(
            cluster.node(f"node{n}").metrics.counter_value("kv.compactions")
            for n in (1, 2)
        )
        assert compactions > 0
        assert client.get("b", "hot").value["round"] == 79

    def test_auto_compaction_disabled(self):
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", compaction_threshold=None, replicas=0)
        client = cluster.connect()
        for round_number in range(60):
            client.upsert("b", "hot", {"pad": "y" * 400, "round": round_number})
            cluster.run_until_idle()
        assert cluster.node("node1").metrics.counter_value("kv.compactions") == 0

    def test_compactor_quiesces_past_600_docs(self):
        """Regression: fragmentation once counted live B-tree nodes as
        garbage, so past ~600 docs per vBucket a freshly compacted file
        still read above the threshold and the compactor rewrote one
        vBucket every pump round -- the scheduler never went idle."""
        cluster = Cluster(nodes=1, vbuckets=4, network_latency=0.0)
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        for base in range(0, 800, 100):
            client.multi_upsert("b", {
                f"doc-{i}": {"i": i, "pad": "x" * 60}
                for i in range(base, base + 100)
            })
            cluster.run_until_idle()
        cluster.run_until_idle()
        # The cluster is loaded and idle: further rounds must do nothing.
        assert not cluster.scheduler.step()
        runs_when_idle = cluster.node("node1").metrics.counter_value(
            "kv.compactions")
        for _ in range(25):
            assert not cluster.scheduler.step()
        assert cluster.node("node1").metrics.counter_value(
            "kv.compactions") == runs_when_idle
        # And every file sits below the default threshold.
        engine = cluster.node("node1").engines["b"]
        for vb in engine.vbuckets.values():
            assert vb.store.fragmentation() < 0.6

    def test_replica_files_compacted_too(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", compaction_threshold=0.5)
        client = cluster.connect()
        for round_number in range(80):
            client.upsert("b", "hot2", {"pad": "z" * 400, "round": round_number})
            cluster.run_until_idle()
        # Whichever node holds the replica must also have compacted.
        vb = cluster.manager.cluster_maps["b"].vbucket_for_key("hot2")
        replica = cluster.manager.cluster_maps["b"].replica_nodes(vb)[0]
        assert cluster.node(replica).metrics.counter_value("kv.compactions") > 0


class TestExpiryPagerEngine:
    def test_pager_expires_without_access(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB)
        engine.upsert(VB, "short", 1, expiry=10.0)
        engine.upsert(VB, "long", 2, expiry=1000.0)
        engine.upsert(VB, "forever", 3)
        engine.clock.advance(50.0)
        assert engine.run_expiry_pager() == 1
        vb = engine.vbuckets[VB]
        assert vb.hashtable.peek("short").doc.meta.deleted
        assert not vb.hashtable.peek("long").doc.meta.deleted

    def test_pager_skips_replicas(self):
        engine = KVEngine("n1", "b")
        engine.create_vbucket(VB, VBucketState.REPLICA)
        from repro.common.document import Document, DocumentMeta
        engine.apply_replicated(VB, Document(
            DocumentMeta(key="k", cas=1, seqno=1, rev=1, expiry=1.0), {"v": 1},
        ))
        engine.clock.advance(10.0)
        assert engine.run_expiry_pager() == 0


class TestExpiryPagerCluster:
    def test_expiry_propagates_to_indexes_without_access(self):
        """The pager turns expiry into a delete mutation, so GSI entries
        disappear even if nobody ever GETs the expired key."""
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", expiry_pager_interval=30.0)
        client = cluster.connect()
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        now = cluster.clock.now()
        client.upsert("b", "ephemeral", {"v": 7}, expiry=now + 10.0)
        cluster.run_until_idle()
        assert len(cluster.gsi.scan("by_v", low=[7], high=[7],
                                    scan_consistency="request_plus")) == 1
        cluster.tick(120.0)  # pager fires (interval 30s) well past expiry
        rows = cluster.gsi.scan("by_v", low=[7], high=[7],
                                scan_consistency="request_plus")
        assert rows == []

    def test_expiry_propagates_to_replicas(self):
        cluster = Cluster(nodes=2, vbuckets=8)
        cluster.create_bucket("b", expiry_pager_interval=30.0)
        client = cluster.connect()
        now = cluster.clock.now()
        client.upsert("b", "ephemeral", 1, expiry=now + 10.0)
        cluster.run_until_idle()
        cluster.tick(120.0)
        vb = cluster.manager.cluster_maps["b"].vbucket_for_key("ephemeral")
        replica = cluster.manager.cluster_maps["b"].replica_nodes(vb)[0]
        entry = cluster.node(replica).engines["b"].vbuckets[vb].hashtable.peek(
            "ephemeral")
        assert entry.doc.meta.deleted

    def test_pager_disabled(self):
        cluster = Cluster(nodes=1, vbuckets=8)
        cluster.create_bucket("b", expiry_pager_interval=None, replicas=0)
        client = cluster.connect()
        now = cluster.clock.now()
        client.upsert("b", "k", 1, expiry=now + 10.0)
        cluster.tick(120.0)
        vb = cluster.manager.cluster_maps["b"].vbucket_for_key("k")
        node = cluster.manager.cluster_maps["b"].active_node(vb)
        entry = cluster.node(node).engines["b"].vbuckets[vb].hashtable.peek("k")
        # No pager: still physically present (until accessed).
        assert not entry.doc.meta.deleted
        with pytest.raises(KeyNotFoundError):
            client.get("b", "k")  # lazy expiry on access still works
