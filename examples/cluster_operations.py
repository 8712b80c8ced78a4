"""Cluster operations: elastic scaling, failover, and multi-dimensional
scaling.

The introduction demands systems that "scale elastically with demand
while being always available"; section 4 describes the machinery.  This
example walks through the operational lifecycle:

1. grow the cluster and rebalance (section 4.3.1),
2. crash a node and watch auto-failover promote replicas,
3. rebalance again to restore redundancy, and
4. build a service-segregated (MDS) topology (section 4.4).

Run:  python examples/cluster_operations.py
"""

from repro import Cluster
from repro.common.services import Service


def spread(cluster, bucket="data"):
    stats = cluster.manager.cluster_maps[bucket].stats()
    return stats["active_per_node"]


def main() -> None:
    cluster = Cluster(nodes=2, vbuckets=64)
    cluster.create_bucket("data", replicas=1)
    client = cluster.connect()

    print("== load 500 documents on a 2-node cluster ==")
    for i in range(500):
        client.upsert("data", f"doc::{i:05d}", {"n": i})
    cluster.run_until_idle()
    print(f"  active vBuckets per node: {spread(cluster)}")

    # -- scale out ---------------------------------------------------------------
    print("\n== scale out to 4 nodes and rebalance ==")
    cluster.add_node("node3")
    cluster.add_node("node4")
    report = cluster.rebalance()
    print(f"  moved {report['data']['moves']} vBuckets; "
          f"map revision {report['data']['map_revision']}")
    print(f"  active vBuckets per node: {spread(cluster)}")
    counts = spread(cluster).values()
    assert max(counts) - min(counts) <= 1

    # Data is intact and clients with stale maps retry transparently.
    for i in range(0, 500, 50):
        assert client.get("data", f"doc::{i:05d}").value == {"n": i}
    print("  all documents still reachable after the rebalance")

    # -- failure and auto-failover -------------------------------------------------
    print("\n== crash node2; auto-failover after the detection timeout ==")
    cluster.crash_node("node2")
    cluster.tick(31.0)  # past the 30s auto-failover timeout
    assert "node2" in cluster.manager.ejected
    print(f"  orchestrator is now {cluster.manager.orchestrator!r}; "
          f"node2 ejected")
    for i in range(0, 500, 50):
        assert client.get("data", f"doc::{i:05d}").value == {"n": i}
    print("  zero data loss: replicas were promoted to active")

    print("\n== rebalance to restore one-replica redundancy ==")
    cluster.rebalance()
    stats = cluster.manager.cluster_maps["data"].stats()
    assert stats["unassigned_active"] == 0
    print(f"  active vBuckets per node: {spread(cluster)}")

    # Writes continue throughout.
    client.upsert("data", "post-failover", {"ok": True})
    assert client.get("data", "post-failover").value == {"ok": True}

    # -- multi-dimensional scaling ----------------------------------------------------
    print("\n== multi-dimensional scaling (section 4.4) ==")
    mds = Cluster(nodes=[
        ("data1", {"data"}), ("data2", {"data"}),     # memory-heavy nodes
        ("index1", {"index"}),                        # fast-disk node
        ("query1", {"query"}), ("query2", {"query"}),  # many-core nodes
    ], vbuckets=32)
    mds.create_bucket("b")
    mds_client = mds.connect()
    for i in range(100):
        mds_client.upsert("b", f"k{i}", {"v": i, "bucket_of": i % 10})
    mds.query("CREATE INDEX by_v ON b(v) USING GSI")
    meta = mds.manager.catalog.require("by_v")
    rows = mds.query("SELECT b.v FROM b WHERE b.v BETWEEN 10 AND 14",
                     scan_consistency="request_plus").rows
    print(f"  index lives on {meta.nodes}, query served by "
          f"{mds.service_node(Service.QUERY).name}, "
          f"data on data1/data2 -> {len(rows)} rows")
    assert meta.nodes == ["index1"]
    assert len(rows) == 5

    print("\ncluster_operations OK")


if __name__ == "__main__":
    main()
