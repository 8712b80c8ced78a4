"""Regression tests for the defects the flow checks' first whole-tree run
surfaced (option plumbing and swallowed-exception findings).

Each test pins the *fixed* behaviour:

* at_plus consistency was silently degraded to ``stale=ok`` on the
  view-backed index scan path (option-domain finding in
  ``n1ql/operators.py``);
* ``scan_consistency`` was dropped on the operators -> GSI scan hop
  (option-dropped finding, plus the ``consistency`` -> a
  ``scan_consistency`` rename so the kwarg survives the hop);
* the view scatter loop swallowed ``NodeDownError`` and returned a
  silently incomplete result set;
* the projector's router swallowed ``NodeDownError`` and advanced its
  seqno watermark past key versions the indexer never received, so the
  index diverged from the bucket permanently.
"""

import pytest

from repro import Cluster
from repro.common.errors import NodeDownError
from repro.views import ViewDefinition


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b", replicas=0)
    return cluster


def _direct_engine_upsert(cluster, bucket, key, value):
    """Write straight into the active engine so no scheduler rounds run
    before the query -- the index is guaranteed stale at query time."""
    cluster_map = cluster.manager.cluster_maps[bucket]
    vb = cluster_map.vbucket_for_key(key)
    node = cluster.node(cluster_map.active_node(vb))
    return node.engines[bucket].upsert(vb, key, value)


class TestAtPlusViewIndexScan:
    def test_at_plus_sees_own_write_through_view_index(self, cluster):
        """at_plus on a view-backed index must wait for the caller's own
        mutation; the pre-fix code degraded it to stale=ok and missed
        writes that had not been indexed yet."""
        cluster.query("CREATE INDEX by_v ON b(v) USING VIEW")
        cluster.run_until_idle()
        token = _direct_engine_upsert(cluster, "b", "mine", {"v": 999})
        stale = cluster.query("SELECT meta(x).id FROM b x WHERE x.v = 999").rows
        assert stale == []  # not_bounded legitimately misses it
        fresh = cluster.query(
            "SELECT meta(x).id AS id FROM b x WHERE x.v = 999",
            scan_consistency="at_plus",
            consistent_with=[token],
        ).rows
        assert [r["id"] for r in fresh] == ["mine"]


class TestGsiScanConsistencyPlumbing:
    def test_request_plus_reaches_the_index_scan(self, cluster):
        """The operators -> GsiCoordinator.scan hop must forward
        scan_consistency; the pre-fix code dropped it, so request_plus
        queries scanned not_bounded."""
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        cluster.run_until_idle()
        _direct_engine_upsert(cluster, "b", "fresh", {"v": 7})
        rows = cluster.query(
            "SELECT meta(x).id AS id FROM b x WHERE x.v = 7",
            scan_consistency="request_plus",
        ).rows
        assert [r["id"] for r in rows] == ["fresh"]

    def test_gsi_scan_accepts_scan_consistency_kwarg(self, cluster):
        """The public kwarg is named scan_consistency everywhere (the
        coordinator used to call it consistency, so the client-side name
        silently changed meaning across the hop)."""
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        cluster.run_until_idle()
        _direct_engine_upsert(cluster, "b", "fresh", {"v": 7})
        rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
        assert [doc_id for _entry, doc_id in rows] == ["fresh"]


class TestViewScatterNodeDown:
    def test_view_query_raises_instead_of_partial_result(self, cluster):
        """Every data node holds rows no other node serves; skipping a
        down node returned a silently incomplete result set pre-fix."""

        def map_fn(doc, meta, emit):
            if "v" in doc:
                emit(doc["v"], None)

        cluster.define_view("b", ViewDefinition("dd", "by_v", map_fn))
        client = cluster.connect()
        for i in range(20):
            client.upsert("b", f"k{i}", {"v": i})
        cluster.run_until_idle()
        assert len(client.view_query("b", "dd", "by_v").rows) == 20
        cluster.network.set_down("node2")
        with pytest.raises(NodeDownError):
            client.view_query("b", "dd", "by_v")


class TestProjectorRedelivery:
    def test_key_versions_survive_index_node_downtime(self):
        """Mutations projected while the index node is unreachable must
        be redelivered once it returns; the pre-fix router swallowed
        NodeDownError and the watermark advanced past the lost rows."""
        cluster = Cluster(
            nodes=[("d1", {"data"}), ("i1", {"index"}), ("q1", {"query"})],
            vbuckets=8,
        )
        cluster.create_bucket("b", replicas=0)
        client = cluster.connect()
        client.upsert("b", "before", {"v": 1})
        cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
        cluster.run_until_idle()

        cluster.network.set_down("i1")
        client.upsert("b", "during", {"v": 2})
        # The projector pump runs, fails to deliver, and must NOT record
        # the mutation as projected.  (It also must not claim progress,
        # or this call would livelock.)
        cluster.run_until_idle()

        cluster.network.set_down("i1", False)
        cluster.run_until_idle()
        rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
        assert sorted(doc_id for _entry, doc_id in rows) == \
            ["before", "during"]
