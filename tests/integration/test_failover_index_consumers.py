"""Index consumers after a failover that lost writes (paper section 4.3.1).

Data nodes ``n1`` and ``n2`` hold one replica of each other's vBuckets;
``n3`` runs the index and query services.  ``n1`` is partitioned from
``n2``, so 20 documents written to ``n1``'s vBuckets reach the index but
never the replicas.  ``n1`` is then failed over, the partition heals, and
10 new documents land on the promoted vBuckets.  The promoted copies
reuse seqnos the lost writes already had.

The promoted vBuckets are new to ``n2``'s projector, so each index's
stream of them opens at seqno 0: the reset drops the rows and the
watermark the index reached on the lost branch, and the replay brings
back what the promoted copy holds.  A ``request_plus`` barrier then
waits for the new documents, and no row of a lost document is left.  A
view is kept on the data node that owns the vBucket, and its streams of
a promoted vBucket open at seqno 0 the same way."""

from repro import Cluster
from repro.gsi.indexdef import IndexDefinition, path_extractor
from repro.views.mapreduce import ViewDefinition


def fail_over_with_lost_writes(define) -> tuple:
    """Run the scenario with ``define(cluster)`` creating the index or
    view; returns the cluster, the lost keys and the new keys."""
    cluster = Cluster(
        nodes=[("n1", {"data"}), ("n2", {"data"}), ("n3", {"index", "query"})],
        vbuckets=8,
    )
    cluster.create_bucket("b", replicas=1)
    define(cluster)
    client = cluster.connect()
    cluster.run_until_idle()
    cluster_map = cluster.manager.cluster_maps["b"]
    on_n1 = [vbucket_id for vbucket_id in range(8)
             if cluster_map.active_node(vbucket_id) == "n1"]

    def keys_on_n1(prefix: str, count: int) -> list[str]:
        keys = (f"{prefix}{i}" for i in range(10_000))
        return [key for key in keys
                if cluster_map.vbucket_for_key(key) in on_n1][:count]

    cluster.network.partition("n1", "n2")
    lost = keys_on_n1("lost", 20)
    for key in lost:
        client.upsert("b", key, {"v": "lost"})
    cluster.run_until_idle()
    cluster.failover("n1")
    cluster.network.heal()
    fresh = keys_on_n1("fresh", 10)
    for key in fresh:
        client.upsert("b", key, {"v": "fresh"})
    return cluster, set(lost), set(fresh)


def define_index(cluster) -> None:
    cluster.create_index(IndexDefinition("by_v", "b", ["v"],
                                         [path_extractor("v")]))


def define_view(cluster) -> None:
    def by_v(doc, meta, emit):
        emit(doc["v"], None)

    cluster.define_view("b", ViewDefinition("dd", "by_v", by_v))


def test_a_request_plus_scan_sees_the_writes_after_a_lossy_failover():
    cluster, _lost, fresh = fail_over_with_lost_writes(define_index)
    rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
    assert fresh <= {doc_id for _key, doc_id in rows}


def test_the_index_drops_the_rows_of_documents_a_failover_lost():
    cluster, lost, _fresh = fail_over_with_lost_writes(define_index)
    cluster.run_until_idle()
    rows = cluster.gsi.scan("by_v", scan_consistency="request_plus")
    assert not lost & {doc_id for _key, doc_id in rows}


def test_a_stale_false_view_sees_the_writes_and_not_the_lost_ones():
    cluster, lost, fresh = fail_over_with_lost_writes(define_view)
    rows = cluster.views.query("b", "dd", "by_v", stale="false").rows
    ids = {row["id"] for row in rows}
    assert len(fresh & ids) == 10
    assert not lost & ids
