"""Tests for cross datacenter replication (section 4.6)."""

import pytest

from repro import Cluster
from repro.xdcr import XdcrReplication, settle


def make_cluster(nodes, vbuckets, bucket="b"):
    cluster = Cluster(nodes=nodes, vbuckets=vbuckets)
    cluster.create_bucket(bucket)
    return cluster


@pytest.fixture
def east():
    return make_cluster(2, 16)


@pytest.fixture
def west():
    # Deliberately different topology and partition count: XDCR must be
    # topology aware (section 4.6).
    return make_cluster(3, 32)


class TestUnidirectional:
    def test_documents_replicate(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(30):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        for i in range(30):
            assert cw.get("b", f"k{i}").value == {"i": i}

    def test_metadata_preserved(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", {"v": 1})
        ce.upsert("b", "k", {"v": 2})
        settle(east, west)
        remote = cw.get("b", "k")
        assert remote.meta.rev == 2

    def test_deletes_replicate(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", 1)
        settle(east, west)
        ce.remove("b", "k")
        settle(east, west)
        from repro.common.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            cw.get("b", "k")

    def test_updates_flow_continuously(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", {"gen": 1})
        settle(east, west)
        ce.upsert("b", "k", {"gen": 2})
        settle(east, west)
        assert cw.get("b", "k").value == {"gen": 2}

    def test_filtered_replication(self, east, west):
        """Per-bucket filtering by key regex (section 4.6)."""
        XdcrReplication(east, west, "b", filter_pattern=r"^eu::")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "eu::1", {"r": "eu"})
        ce.upsert("b", "us::1", {"r": "us"})
        settle(east, west)
        assert cw.get("b", "eu::1").value == {"r": "eu"}
        from repro.common.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            cw.get("b", "us::1")

    def test_different_target_bucket(self, east, west):
        west.create_bucket("archive")
        XdcrReplication(east, west, "b", target_bucket="archive")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", 1)
        settle(east, west)
        assert cw.get("archive", "k").value == 1

    def test_stop(self, east, west):
        link = XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k1", 1)
        settle(east, west)
        link.stop()
        ce.upsert("b", "k2", 2)
        settle(east, west)
        from repro.common.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            cw.get("b", "k2")


class TestTopologyAwareness:
    def test_survives_target_failover(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(20):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        west.failover("node3")
        for i in range(20, 40):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        for i in range(40):
            assert cw.get("b", f"k{i}").value == {"i": i}

    def test_survives_source_rebalance(self, east, west):
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(20):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        east.add_node("node9")
        east.rebalance()
        for i in range(20, 40):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        for i in range(40):
            assert cw.get("b", f"k{i}").value == {"i": i}


class TestConflictResolution:
    def test_most_updates_wins(self, east, west):
        """Section 4.6.1: the document with the most updates wins."""
        XdcrReplication(east, west, "b")
        XdcrReplication(west, east, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "doc", {"site": "east"})
        ce.upsert("b", "doc", {"site": "east", "v": 2})  # rev 2
        cw.upsert("b", "doc", {"site": "west"})          # rev 1
        settle(east, west)
        assert ce.get("b", "doc").value == {"site": "east", "v": 2}
        assert cw.get("b", "doc").value == {"site": "east", "v": 2}

    def test_same_winner_on_both_clusters(self, east, west):
        XdcrReplication(east, west, "b")
        XdcrReplication(west, east, "b")
        ce, cw = east.connect(), west.connect()
        # Same number of updates on both sides: metadata tie-break, but
        # both clusters must pick the SAME winner.
        ce.upsert("b", "doc", {"site": "east"})
        cw.upsert("b", "doc", {"site": "west"})
        settle(east, west)
        assert ce.get("b", "doc").value == cw.get("b", "doc").value

    def test_bidirectional_convergence_bulk(self, east, west):
        XdcrReplication(east, west, "b")
        XdcrReplication(west, east, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(15):
            ce.upsert("b", f"e{i}", {"from": "east", "i": i})
            cw.upsert("b", f"w{i}", {"from": "west", "i": i})
        settle(east, west)
        for i in range(15):
            assert cw.get("b", f"e{i}").value["from"] == "east"
            assert ce.get("b", f"w{i}").value["from"] == "west"

    def test_replication_does_not_bump_rev(self, east, west):
        """An applied remote mutation must keep the source's rev -- a
        ping-pong that incremented revs would never converge."""
        XdcrReplication(east, west, "b")
        XdcrReplication(west, east, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", 1)
        settle(east, west)
        assert cw.get("b", "k").meta.rev == ce.get("b", "k").meta.rev == 1


class TestSetWithMeta:
    def test_incoming_lower_rev_rejected(self, east):
        from repro.common.document import Document, DocumentMeta
        client = east.connect()
        client.upsert("b", "k", {"local": True})
        client.upsert("b", "k", {"local": True, "v": 2})
        cluster_map = east.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        node = east.manager.nodes[cluster_map.active_node(vb)]
        stale = Document(DocumentMeta(key="k", cas=1, seqno=1, rev=1), {"remote": True})
        assert not node.engines["b"].set_with_meta(vb, stale)
        assert client.get("b", "k").value == {"local": True, "v": 2}

    def test_incoming_higher_rev_applied(self, east):
        from repro.common.document import Document, DocumentMeta
        client = east.connect()
        client.upsert("b", "k", {"local": True})
        cluster_map = east.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        node = east.manager.nodes[cluster_map.active_node(vb)]
        fresh = Document(
            DocumentMeta(key="k", cas=10**9, seqno=5, rev=9), {"remote": True}
        )
        assert node.engines["b"].set_with_meta(vb, fresh)
        doc = client.get("b", "k")
        assert doc.value == {"remote": True}
        assert doc.meta.rev == 9

    def test_exact_tie_not_applied(self, east):
        from repro.common.document import Document, DocumentMeta
        client = east.connect()
        result = client.upsert("b", "k", {"v": 1})
        cluster_map = east.manager.cluster_maps["b"]
        vb = cluster_map.vbucket_for_key("k")
        node = east.manager.nodes[cluster_map.active_node(vb)]
        twin = Document(
            DocumentMeta(key="k", cas=result.cas, seqno=1, rev=1), {"v": 1}
        )
        assert not node.engines["b"].set_with_meta(vb, twin)


class TestDownTarget:
    """Regression: a push that fails after the stream already consumed
    the mutation must not be silently dropped.  The pump drops the slot
    instead of skipping the doc, and a fresh slot resumes from the
    vBucket's checkpoint: the last document the target acknowledged."""

    def test_docs_written_while_target_down_arrive_after_restart(self, east):
        west = make_cluster(1, 8)
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "before", {"phase": "before"})
        settle(east, west)
        assert cw.get("b", "before").value == {"phase": "before"}

        west.crash_node("node1")
        for i in range(10):
            ce.upsert("b", f"during{i}", {"i": i})
        # The source must quiesce even though every push fails ...
        settle(east, west)

        west.restart_node("node1")
        settle(east, west)
        # ... and nothing consumed-but-undelivered may be lost.
        for i in range(10):
            assert cw.get("b", f"during{i}").value == {"i": i}
        assert cw.get("b", "before").value == {"phase": "before"}

    def test_replay_after_reopen_does_not_regress_metadata(self, east):
        west = make_cluster(1, 8)
        XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        ce.upsert("b", "k", {"v": 1})
        settle(east, west)
        west.crash_node("node1")
        ce.upsert("b", "k", {"v": 2})
        settle(east, west)
        west.restart_node("node1")
        settle(east, west)
        # The fresh slot resumes from the checkpoint, past v1; whatever
        # it replays, conflict resolution must converge on the latest
        # revision, not an echo of v1.
        remote = cw.get("b", "k")
        assert remote.value == {"v": 2}
        assert remote.meta.rev == 2


class TestCheckpointResume:
    """Each vBucket resumes from the ``(vb_uuid, seqno)`` of the last
    document the target acknowledged, so a delivered document is not
    sent again (section 4.6 over the DCP handshake of section 4.3.2)."""

    def test_a_source_rebalance_resends_nothing(self):
        east, west = make_cluster(3, 16), make_cluster(2, 16)
        link = XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(200):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        assert link.docs_sent == 200
        east.add_node("node4")
        east.rebalance()
        settle(east, west)
        # 250 while every moved vBucket replayed from seqno 0.
        assert link.docs_sent == 200
        # A vBucket that moved resumes on its new node.
        east_map = east.manager.cluster_maps["b"]
        key = next(key for key in (f"after{i}" for i in range(1000))
                   if east_map.active_node(east_map.vbucket_for_key(key))
                   == "node4")
        ce.upsert("b", key, {"moved": True})
        settle(east, west)
        assert link.docs_sent == 201
        assert cw.get("b", key).value == {"moved": True}

    def test_a_target_restart_sends_only_what_it_missed(self):
        east, west = make_cluster(2, 8), make_cluster(1, 8)
        link = XdcrReplication(east, west, "b")
        ce, cw = east.connect(), west.connect()
        for i in range(120):
            ce.upsert("b", f"k{i}", {"i": i})
        settle(east, west)
        west.crash_node("node1")
        for i in range(10):
            ce.upsert("b", f"during{i}", {"i": i})
        settle(east, west)
        sent = link.docs_sent
        west.restart_node("node1")
        settle(east, west)
        # 130 while each failed slot replayed its vBucket from seqno 0.
        assert link.docs_sent - sent == 10
        for i in range(10):
            assert cw.get("b", f"during{i}").value == {"i": i}
