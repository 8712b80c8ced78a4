"""Which operators run behind an index scan.

A covered GSI scan whose span absorbs the whole WHERE clause runs with
no Filter: every row the span admits satisfies every conjunct.  A scan
followed by Fetch keeps its Filter, because the fetched document may be
newer than the index entry that matched it.
"""

import pytest

from repro import Cluster

#: The paper's Fig 16 statement, answered by the covering primary index.
FIG16 = "SELECT meta().id AS id FROM `ycsb` WHERE meta().id >= $1 LIMIT $2"
#: The ledger's range-plus-fetch shape: ``status`` is not an index key.
RANGE_FETCH = ("SELECT s.customer_id, s.total, s.status FROM shop s "
               "WHERE s.day >= $1 AND s.day < $2 AND s.status = \"paid\"")


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=2, vbuckets=8)
    for bucket in ("ycsb", "shop"):
        cluster.create_bucket(bucket, replicas=0)
    client = cluster.connect()
    for i in range(20):
        client.upsert("ycsb", f"user{i:02d}", {"field0": "x"})
        client.upsert("shop", f"order{i:02d}",
                      {"day": i, "total": i * 10, "customer_id": f"c{i}",
                       "status": "paid" if i % 2 else "open"})
    cluster.run_until_idle()
    cluster.query("CREATE PRIMARY INDEX ON ycsb USING GSI")
    cluster.query("CREATE INDEX by_day ON shop(day, total) USING GSI")
    return cluster


def operators(cluster, text: str) -> list[str]:
    plan = cluster.query("EXPLAIN " + text).rows[0]
    return [op["#operator"] for op in plan["~children"]]


def test_the_fig16_scan_runs_without_a_filter(cluster):
    assert operators(cluster, FIG16) \
        == ["IndexScan", "Limit", "InitialProject", "FinalProject"]
    rows = cluster.query(FIG16, {"1": "user05", "2": 3}).rows
    assert rows == [{"id": "user05"}, {"id": "user06"}, {"id": "user07"}]


#: The span absorbs this whole WHERE clause, but ``customer_id`` is not
#: an index key, so the rows are fetched.
FETCHED_RANGE = ("SELECT s.customer_id FROM shop s "
                 "WHERE s.day >= $1 AND s.day < $2")


@pytest.mark.parametrize("text, customers", [
    (RANGE_FETCH, ["c3", "c7"]),
    (FETCHED_RANGE, ["c3", "c4", "c6", "c7"]),
], ids=["range-fetch", "absorbed-range-fetch"])
def test_a_scan_followed_by_fetch_keeps_its_filter(cluster, text, customers):
    """``order05`` moves out of the range after the index saw it; its
    stale entry still matches the span, and only the Filter over the
    fetched document drops the row."""
    assert operators(cluster, text) \
        == ["IndexScan", "Fetch", "Filter", "InitialProject", "FinalProject"]
    cluster.connect().upsert("shop", "order05",
                             {"day": 50, "total": 50, "customer_id": "c5",
                              "status": "paid"})
    stale = cluster.gsi.scan("by_day", [3], [8], inclusive_high=False)
    assert "order05" in [doc_id for _key, doc_id in stale]
    rows = cluster.query(text, {"1": 3, "2": 8}).rows
    assert sorted(row["customer_id"] for row in rows) == customers
