"""Partial-aggregate pushdown (IndexAggregateScan) properties.

Every pushed plan must return exactly what the unpushed plan (covering
scan + Group operator) returns, and the planner must refuse the rewrite
whenever it cannot prove the grouping keys and aggregate arguments are
index keys and nothing downstream needs more than the group keys.
"""

import pytest

from repro import Cluster
from repro.n1ql.planner import Planner


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(180):
        doc = {"city": ["SF", "NY", "LA", "TX"][i % 4],
               "age": 20 + i % 17,
               "score": i * 1.5}
        if i % 11 == 0:
            del doc["age"]  # MISSING second key exercises NULL/MISSING folds
        client.upsert("b", f"k{i:03d}", doc)
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_city ON b(city, age) USING GSI '
                  'WITH {"num_partitions": 3}')
    cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
    return cluster


def first_operator(cluster, text: str) -> str:
    plan = cluster.query("EXPLAIN " + text).rows[0]
    return plan["~children"][0]["#operator"]


PUSHED = [
    "SELECT city, COUNT(*) AS n, SUM(b.age) AS total, MIN(b.age) AS lo, "
    "MAX(b.age) AS hi, AVG(b.age) AS mean FROM b "
    "WHERE b.city >= 'A' GROUP BY city",
    "SELECT city, age, COUNT(*) AS n FROM b WHERE b.city >= 'A' "
    "GROUP BY city, age",
    "SELECT city, COUNT(b.age) AS n FROM b WHERE b.city = 'SF' "
    "GROUP BY city",
    "SELECT city, COUNT(*) AS n FROM b WHERE b.city >= 'A' GROUP BY city "
    "HAVING COUNT(*) > 40 ORDER BY city DESC",
    "SELECT COUNT(*) AS n, MIN(b.age) AS lo FROM b WHERE b.city = 'NY'",
    # Empty range: the global-aggregate defaults row (COUNT 0, MIN NULL).
    "SELECT COUNT(b.age) AS n, MIN(b.age) AS lo FROM b WHERE b.city = 'ZZ'",
    "SELECT COUNT(META(x).id) AS n FROM b x WHERE x.city >= 'A'",
    # Global aggregate over the covered primary index.
    "SELECT COUNT(*) AS n FROM b",
]

NOT_PUSHED = [
    # Aggregate argument is not an index key.
    "SELECT city, SUM(b.score) AS s FROM b WHERE b.city >= 'A' "
    "GROUP BY city",
    # Projection references a non-grouping field.
    "SELECT age, COUNT(*) AS n FROM b WHERE b.city >= 'A' GROUP BY city",
    # Grouping key is not a leading prefix of the index keys.
    "SELECT age, COUNT(*) AS n FROM b WHERE b.city = 'SF' GROUP BY age",
    # DISTINCT aggregates need the raw values, not a mergeable partial.
    "SELECT city, COUNT(DISTINCT b.age) AS n FROM b WHERE b.city >= 'A' "
    "GROUP BY city",
    # meta().id outside an aggregate is per-document, not per-group.
    "SELECT meta(x).id AS id, COUNT(*) AS n FROM b x WHERE x.city = 'SF' "
    "GROUP BY city",
]


@pytest.mark.parametrize("text", PUSHED)
def test_pushdown_engages(cluster, text):
    assert first_operator(cluster, text) == "IndexAggregateScan"


@pytest.mark.parametrize("text", NOT_PUSHED)
def test_pushdown_refused(cluster, text):
    assert first_operator(cluster, text) != "IndexAggregateScan"


@pytest.mark.parametrize("text", PUSHED)
def test_pushed_matches_unpushed(cluster, monkeypatch, text):
    """Property: pushed plan == covering-scan + Group plan, rows and
    order."""
    pushed = cluster.query(text, scan_consistency="request_plus").rows
    monkeypatch.setattr(Planner, "_push_group_to_index",
                        lambda self, statement, operators, aggregates: None)
    # A trailing space gives the unpushed run its own plan-cache entry.
    unpushed = cluster.query(text + " ",
                             scan_consistency="request_plus").rows
    assert pushed == unpushed


def test_rows_never_cross_the_fabric(cluster):
    """The pushed plan moves group partials, not index rows: no Fetch,
    no per-row scan traffic, one aggregate scan per partition."""
    text = ("SELECT city, COUNT(*) AS n FROM b WHERE b.city >= 'A' "
            "GROUP BY city")

    def totals(name):
        return sum(node.metrics.counter_value(name)
                   for node in cluster.manager.nodes.values())

    before = {name: totals(name) for name in
              ("n1ql.aggscan", "n1ql.fetch", "gsi.scan_rows",
               "gsi.scan_page_rows", "gsi.scan_aggregates")}
    rows = cluster.query(text, scan_consistency="request_plus").rows
    assert len(rows) == 4
    assert totals("n1ql.aggscan") - before["n1ql.aggscan"] == 1
    assert totals("n1ql.fetch") - before["n1ql.fetch"] == 0
    assert totals("gsi.scan_rows") - before["gsi.scan_rows"] == 0
    assert totals("gsi.scan_page_rows") - before["gsi.scan_page_rows"] == 0
    assert totals("gsi.scan_aggregates") - before["gsi.scan_aggregates"] == 3
