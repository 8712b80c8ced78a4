"""Quickstart: a tour of the three access paths.

The paper's central pitch -- "have your data and query it too" -- is that
one system serves key-value access, view queries, and N1QL queries over
the same documents.  This script spins up a 4-node in-process cluster
and exercises all three paths.

Run:  python examples/quickstart.py
"""

from repro import Cluster
from repro.views import ViewDefinition


def main() -> None:
    # A 4-node cluster, every node running data+index+query services
    # (the topology of the paper's Figure 14 evaluation setup).
    cluster = Cluster(nodes=4, vbuckets=64)
    cluster.create_bucket("profiles", replicas=1)
    client = cluster.connect()

    # -- access path 1: key-value (section 3.1.1) --------------------------
    print("== key-value access ==")
    client.upsert("profiles", "borkar123", {
        "name": "Dipti",
        "email": "dipti@couchbase.com",
    })
    doc = client.get("profiles", "borkar123")
    print(f"GET borkar123 -> {doc.value}  (cas={doc.meta.cas})")

    # Optimistic concurrency: re-write with the CAS we read.
    updated = dict(doc.value, title="Director of PM")
    client.upsert("profiles", "borkar123", updated, cas=doc.meta.cas)
    print(f"CAS update applied: {client.get('profiles', 'borkar123').value}")

    # -- access path 2: view query (section 3.1.2) --------------------------
    print("\n== view access ==")

    def profile_view(doc, meta, emit):
        if "name" in doc:
            emit(doc["name"], doc.get("email"))

    cluster.define_view("profiles", ViewDefinition("dd", "profile",
                                                   profile_view))
    for i in range(10):
        client.upsert("profiles", f"user::{i}",
                      {"name": f"user{i}", "email": f"u{i}@example.com"})
    result = client.view_query("profiles", "dd", "profile",
                               stale="false", key="Dipti")
    print(f"view lookup key='Dipti' -> {result.rows}")

    # -- access path 3: N1QL (sections 3.1.3, 3.2) ----------------------------
    print("\n== N1QL access ==")
    cluster.query("CREATE PRIMARY INDEX ON profiles USING GSI")
    cluster.query("CREATE INDEX by_name ON profiles(name) USING GSI")

    rows = cluster.query(
        "SELECT p.name, p.email FROM profiles p "
        "WHERE p.name LIKE 'user%' ORDER BY p.name LIMIT 3",
        scan_consistency="request_plus",
    ).rows
    for row in rows:
        print(f"  {row}")

    explain = cluster.query(
        "EXPLAIN SELECT p.email FROM profiles p WHERE p.name = 'user3'")
    print(f"plan uses: {explain.rows[0]['~children'][0]['index']}")

    assert len(rows) == 3
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
