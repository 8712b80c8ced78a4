"""Partial-aggregate pushdown (IndexAggregateScan) properties.

Every pushed plan must return exactly what the unpushed plan (covering
scan + Group operator) returns, and the planner must refuse the rewrite
whenever it cannot prove the grouping keys and aggregate arguments are
index keys and nothing downstream needs more than the group keys.
"""

import functools

import pytest

from repro import Cluster
from repro.n1ql.collation import MISSING, compare
from repro.n1ql.expressions import Env
from repro.n1ql.parser import parse
from repro.n1ql.planner import Planner

from .reference_evaluator import ReferenceEvaluator


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


def test_fold_on_a_non_leading_key_matches_the_reference_evaluator():
    """The indexer's fold groups on any key position (the planner only
    pushes leading prefixes today).  Grouping the (city, age) index by
    ``age`` is the order a leading-key GROUP BY never produces: rows of
    one group are adjacent within a city -- the fold reuses the previous
    row's entry -- and come back under the next city, where the entry
    must be found again by token.  MISSING and NULL are groups of their
    own.  The oracle is a plain fold over the documents with the
    tree-walking evaluator reading each field."""
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("b")
    client = cluster.connect()
    docs = {}
    for i in range(120):
        doc = {"city": ["SF", "NY", "LA", "TX"][i % 4],
               "age": [20, 21, 20, None, 22, 21, 20][i % 7]}
        if i % 5 == 0:
            del doc["age"]
        docs[f"k{i:03d}"] = doc
        client.upsert("b", f"k{i:03d}", doc)
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_city ON b(city, age) USING GSI '
                  'WITH {"num_partitions": 3}')
    specs = [("COUNT", None), ("COUNT", 1), ("SUM", 1), ("MIN", 0),
             ("MAX", 0)]
    pushed = cluster.gsi.scan_aggregate(
        "by_city", ["A"], None, group_positions=[1], agg_specs=specs,
        scan_consistency="request_plus")

    statement = parse("SELECT b.city, b.age FROM b")
    city_expr, age_expr = (p.expr for p in statement.projections)
    evaluator = ReferenceEvaluator({}, default_alias="b")
    folded: dict = {}
    for key, doc in docs.items():
        env = Env()
        env.bind("b", doc, {"id": key})
        city = evaluator.evaluate(city_expr, env)
        age = evaluator.evaluate(age_expr, env)
        group = folded.setdefault(repr(age), {"age": age, "cities": []})
        group["cities"].append(city)
    collate = functools.cmp_to_key(compare)
    expected = []
    for group in sorted(folded.values(),
                        key=lambda group: collate(group["age"])):
        age, cities = group["age"], sorted(group["cities"], key=collate)
        counted = 0 if age is MISSING or age is None else len(cities)
        expected.append(([age], [
            [len(cities), 0, MISSING],            # COUNT(*)
            [counted, 0, MISSING],                # COUNT(age)
            [counted, counted and age * counted, MISSING],   # SUM(age)
            [len(cities), 0, cities[0]],          # MIN(city)
            [len(cities), 0, cities[-1]],         # MAX(city)
        ]))
    assert [values for values, _partials in expected] \
        == [[MISSING], [None], [20], [21], [22]]
    assert pushed == expected

    # And the unpushed plan (covering scan + Group operator) agrees.
    text = ("SELECT age, COUNT(*) AS n FROM b WHERE b.city >= 'A' "
            "GROUP BY age")
    assert first_operator(cluster, text) != "IndexAggregateScan"
    rows = cluster.query(text, scan_consistency="request_plus").rows
    assert sorted((repr(row.get("age", MISSING)), row["n"]) for row in rows) \
        == sorted((repr(values[0]), partials[0][0])
                  for values, partials in pushed)


def test_entry_reuse_goes_by_json_equality_not_pythons():
    """``1`` and ``1.0`` (and ``0.0`` and ``-0.0``) collate equal, so
    their rows are adjacent in the index, and Python calls them ``==``
    -- but they are different group tokens (here and in the Group
    operator).  The fold must not take the previous row's entry for
    them."""
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b")
    client = cluster.connect()
    for key, value in [("a", 1), ("b", 1.0), ("c", 1), ("d", 1.0), ("e", 1),
                       ("f", 0.0), ("g", -0.0)]:
        client.upsert("b", key, {"v": value})
    cluster.query("CREATE INDEX by_v ON b(v) USING GSI")
    groups = cluster.gsi.scan_aggregate(
        "by_v", group_positions=[0], agg_specs=[("COUNT", None)],
        scan_consistency="request_plus")
    assert sorted((repr(values[0]), partials[0][0])
                  for values, partials in groups) \
        == [("-0.0", 1), ("0.0", 1), ("1", 3), ("1.0", 2)]
