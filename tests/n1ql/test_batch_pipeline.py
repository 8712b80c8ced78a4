"""Batch pipeline properties.

The operator pipeline exchanges batches of rows; across the whole
operator vocabulary -- including the parallel scatter-gather scan over a
partitioned index -- it must return exactly the rows an independent
plain-Python evaluation of the fixture data gives, in the access path's
order, with the pinned ``n1ql.*`` operator metrics, and a down index
node must fail the query rather than drop its rows.
"""

import pytest

from repro import Cluster
from repro.common.errors import NodeDownError
from repro.gsi import manager as gsi_manager
from repro.n1ql import operators

#: Per-row operator counters pinned per query.  Compile and plan-cache
#: counters are excluded on purpose: they depend on whether the query
#: text was seen before.
FLOW_METRICS = [
    "n1ql.keyscan",
    "n1ql.indexscan",
    "n1ql.primaryscan",
    "n1ql.viewscan",
    "n1ql.aggscan",
    "n1ql.fetch",
    "n1ql.sorted_rows",
    "n1ql.result_rows",
]


def flow_counters(cluster) -> dict[str, int]:
    totals = dict.fromkeys(FLOW_METRICS, 0)
    for node in cluster.manager.nodes.values():
        for name in FLOW_METRICS:
            totals[name] += node.metrics.counter_value(name)
    return totals


PROFILES = {
    f"u{i:03d}": {
        "name": f"user{i:03d}",
        "age": 20 + i % 13,
        "city": ["SF", "NY", "LA"][i % 3],
        "order_ids": [f"o{i:03d}a", f"o{i:03d}b"],
        "categories": [f"c{i % 4}", "all"],
    }
    for i in range(150)
}
ORDERS = {
    f"o{i:03d}{suffix}": {"total": unit * i}
    for i in range(150) for suffix, unit in (("a", 10), ("b", 5))
}

#: Profiles in primary-index (document key) order and in ``by_age``
#: index order; a query without ORDER BY returns its access path's order.
BY_KEY = [PROFILES[key] for key in sorted(PROFILES)]
BY_AGE = sorted(BY_KEY, key=lambda p: (p["age"], p["name"]))


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster(nodes=4, vbuckets=16)
    cluster.create_bucket("profiles")
    cluster.create_bucket("orders")
    client = cluster.connect()
    for key, doc in PROFILES.items():
        client.upsert("profiles", key, doc)
    for key, doc in ORDERS.items():
        client.upsert("orders", key, doc)
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_age ON profiles(age, name) USING GSI '
                  'WITH {"num_partitions": 3}')
    cluster.query("CREATE PRIMARY INDEX ON profiles USING GSI")
    cluster.query("CREATE PRIMARY INDEX ON orders USING GSI")
    return cluster


def _grouped(profiles, key):
    groups: dict = {}
    for p in profiles:
        groups.setdefault(p[key], []).append(p)
    return groups


#: ``(statement, expected rows computed from the fixture data in plain
#: Python, expected non-zero FLOW_METRICS deltas)``.
CORPUS = [
    ('SELECT p.name FROM profiles p USE KEYS ["u001", "u002", "u001"]',
     [{"name": "user001"}, {"name": "user002"}, {"name": "user001"}],
     {"n1ql.keyscan": 1, "n1ql.fetch": 3}),
    ("SELECT name, age FROM profiles p WHERE p.age >= 22 AND p.age < 26",
     [{"name": p["name"], "age": p["age"]}
      for p in BY_AGE if 22 <= p["age"] < 26],
     {"n1ql.indexscan": 1}),
    ("SELECT p.city FROM profiles p WHERE p.age = 24",
     [{"city": p["city"]} for p in BY_AGE if p["age"] == 24],
     {"n1ql.indexscan": 1, "n1ql.fetch": 12}),
    ("SELECT name FROM profiles p WHERE p.city = 'SF'",
     [{"name": p["name"]} for p in BY_KEY if p["city"] == "SF"],
     {"n1ql.primaryscan": 1, "n1ql.fetch": 150}),
    # ORDER BY + LIMIT + OFFSET over the partitioned index.
    ("SELECT name, age FROM profiles p WHERE p.age >= 20 "
     "ORDER BY p.name DESC LIMIT 7 OFFSET 3",
     [{"name": p["name"], "age": p["age"]}
      for p in sorted(BY_KEY, key=lambda p: p["name"], reverse=True)[3:10]],
     {"n1ql.indexscan": 1, "n1ql.sorted_rows": 150}),
    # Sort elimination + LIMIT pushdown: index order, parallel merge.
    # The exclusive bound on a key prefix must not let the pushed LIMIT
    # spend itself on the age = 21 entries.
    ("SELECT age, name FROM profiles p WHERE p.age > 21 "
     "ORDER BY p.age LIMIT 10",
     [{"age": p["age"], "name": p["name"]}
      for p in BY_AGE if p["age"] > 21][:10],
     {"n1ql.indexscan": 1}),
    ("SELECT RAW p.age FROM profiles p WHERE p.age BETWEEN 21 AND 23",
     [p["age"] for p in BY_AGE if 21 <= p["age"] <= 23],
     {"n1ql.indexscan": 1}),
    ("SELECT DISTINCT city FROM profiles p WHERE p.age >= 20",
     [{"city": city} for city in dict.fromkeys(p["city"] for p in BY_AGE)],
     {"n1ql.indexscan": 1, "n1ql.fetch": 150}),
    ("SELECT city, COUNT(*) AS n, AVG(p.age) AS mean FROM profiles p "
     "WHERE p.city != '' GROUP BY city",
     [{"city": city, "n": len(members),
       "mean": sum(p["age"] for p in members) / len(members)}
      for city, members in _grouped(BY_KEY, "city").items()],
     {"n1ql.primaryscan": 1, "n1ql.fetch": 150}),
    # Partial-aggregate pushdown shape (IndexAggregateScan).
    ("SELECT age, COUNT(*) AS n, MIN(p.name) AS lo FROM profiles p "
     "WHERE p.age >= 21 GROUP BY age",
     [{"age": age, "n": len(members),
       "lo": min(p["name"] for p in members)}
      for age, members in _grouped(BY_AGE, "age").items() if age >= 21],
     {"n1ql.aggscan": 1}),
    # Pushed aggregate under an exclusive bound on a key prefix.
    ("SELECT age, COUNT(*) AS n FROM profiles p WHERE p.age > 21 "
     "GROUP BY age",
     [{"age": age, "n": len(members)}
      for age, members in _grouped(BY_AGE, "age").items() if age > 21],
     {"n1ql.aggscan": 1}),
    ("SELECT COUNT(*) AS n FROM profiles p WHERE p.age > 999",
     [{"n": 0}],
     {"n1ql.aggscan": 1}),
    ("SELECT p.name, o.total FROM profiles p "
     "JOIN orders o ON KEYS p.order_ids WHERE p.age = 23",
     [{"name": p["name"], "total": ORDERS[order_id]["total"]}
      for p in BY_AGE if p["age"] == 23 for order_id in p["order_ids"]],
     {"n1ql.indexscan": 1, "n1ql.fetch": 12}),
    ("SELECT p.name, os FROM profiles p "
     "NEST orders os ON KEYS p.order_ids WHERE p.age = 21",
     [{"name": p["name"],
       "os": [ORDERS[order_id] for order_id in p["order_ids"]]}
      for p in BY_AGE if p["age"] == 21],
     {"n1ql.indexscan": 1, "n1ql.fetch": 12}),
    ("SELECT p.name, c FROM profiles p UNNEST p.categories AS c "
     "WHERE p.age = 22",
     [{"name": p["name"], "c": category}
      for p in BY_AGE if p["age"] == 22 for category in p["categories"]],
     {"n1ql.indexscan": 1, "n1ql.fetch": 12}),
    ("SELECT 1+1 AS two",
     [{"two": 2}],
     {}),
    ("SELECT s.name FROM system:indexes s",
     [{"name": "#primary_orders"}, {"name": "#primary_profiles"},
      {"name": "by_age"}],
     {}),
    ("SELECT meta(p).id AS id FROM profiles p WHERE meta(p).id >= 'u140'",
     [{"id": key} for key in sorted(PROFILES) if key >= "u140"],
     {"n1ql.indexscan": 1}),
]


@pytest.mark.parametrize("text, expected_rows, expected_flow", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_corpus_matches_oracle(cluster, text, expected_rows, expected_flow):
    """Same rows, same order, same operator metrics as the fixture data
    evaluated in plain Python."""
    before = flow_counters(cluster)
    rows = cluster.query(text, scan_consistency="request_plus").rows
    after = flow_counters(cluster)
    assert rows == expected_rows
    expected = dict.fromkeys(FLOW_METRICS, 0)
    expected.update(expected_flow)
    expected["n1ql.result_rows"] = len(expected_rows)
    assert {name: after[name] - before[name]
            for name in FLOW_METRICS} == expected


def test_duplicate_keys_across_fetch_chunks(monkeypatch):
    """A key repeated past a BATCH_SIZE boundary is fetched once, and
    the duplicate row gets its own copy of the document."""
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b")
    client = cluster.connect()
    for i in range(8):
        client.upsert("b", f"k{i}", {"v": i, "tags": ["a", "b"]})
    cluster.run_until_idle()

    monkeypatch.setattr(operators, "BATCH_SIZE", 4)
    fetched: list[list[str]] = []
    original = operators.ExecutionContext.fetch_docs

    def spying_fetch_docs(self, bucket, keys):
        fetched.append(list(keys))
        return original(self, bucket, keys)

    monkeypatch.setattr(operators.ExecutionContext, "fetch_docs",
                        spying_fetch_docs)

    keys = ["k0", "k1", "k2", "k3", "k4", "k5", "k0", "k2"]
    rows = cluster.query(
        "SELECT x FROM b x USE KEYS ["
        + ", ".join(f'"{k}"' for k in keys) + "]").rows
    assert [r["x"]["v"] for r in rows] == [0, 1, 2, 3, 4, 5, 0, 2]
    # Duplicates are equal but independent objects: mutating one row
    # must not reach through to the other.
    assert rows[0]["x"] == rows[6]["x"] and rows[0]["x"] is not rows[6]["x"]
    assert rows[2]["x"] == rows[7]["x"] and rows[2]["x"] is not rows[7]["x"]
    # The duplicates sit in the second chunk, yet every unique key is
    # fetched exactly once.
    assert len(fetched) == 2
    requested = [key for chunk in fetched for key in chunk]
    assert sorted(requested) == sorted(set(keys))


def _partitioned_cluster():
    cluster = Cluster(
        nodes=[("d1", {"data"}), ("q1", {"query"}),
               ("i1", {"index"}), ("i2", {"index"}), ("i3", {"index"})],
        vbuckets=8,
    )
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(90):
        client.upsert("b", f"k{i:03d}", {"v": i % 9, "w": i})
    cluster.run_until_idle()
    cluster.query('CREATE INDEX by_v ON b(v, w) USING GSI '
                  'WITH {"num_partitions": 3}')
    return cluster


def test_index_node_down_propagates():
    """A down partition must fail the scan -- and the pushed aggregate
    scan -- never silently drop its rows."""
    cluster = _partitioned_cluster()
    cluster.network.set_down("i2")
    with pytest.raises(NodeDownError):
        cluster.query("SELECT v, w FROM b x WHERE x.v >= 0")
    with pytest.raises(NodeDownError):
        cluster.query("SELECT v, COUNT(*) AS n FROM b x WHERE x.v >= 0 "
                      "GROUP BY v")


def test_limit_short_circuit_bounds_partition_drain(monkeypatch):
    """With LIMIT k pushed into a parallel scatter-gather scan, each
    partition drains at most k + one page of rows: the merge frontier
    stops pulling once k rows are out."""
    monkeypatch.setattr(gsi_manager, "SCAN_PAGE_SIZE", 8)
    cluster = _partitioned_cluster()
    limit = 5
    index_nodes = ["i1", "i2", "i3"]
    before = {n: cluster.node(n).metrics.counter_value("gsi.scan_page_rows")
              for n in index_nodes}
    rows = cluster.query(
        f"SELECT v, w FROM b x WHERE x.v >= 0 ORDER BY x.v LIMIT {limit}",
        scan_consistency="request_plus").rows
    assert len(rows) == limit
    for name in index_nodes:
        drained = (cluster.node(name).metrics.counter_value(
            "gsi.scan_page_rows") - before[name])
        assert drained <= limit + gsi_manager.SCAN_PAGE_SIZE
