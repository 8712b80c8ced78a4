"""A value is copied only where it leaves for an application.

Services hand each other their stored values to be read in place: the
data service its documents, the index service its key lists, the view
service its keys and values.  The smart client's read calls, its view
queries and the query service's result values are the caller's own
copies.  These tests change everything an application gets back --
KV reads, N1QL rows (also those an index covers or folds) and view rows
and reductions -- and check that no stored document changed, read
through a fresh client, through the stored objects themselves, and
after every node crashed and came back from its disk, and that no index
or view answers differently.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.n1ql.collation import collate_key
from repro.views import ViewDefinition

from .test_stored_documents_are_immutable import StoredDocuments

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                     st.sampled_from([0.5, -0.0, 2.0]),
                     st.text(alphabet="ab", max_size=2))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from("xyz"), inner,
                                            max_size=3)),
    max_leaves=6)
_ITEM = st.fixed_dictionaries({"sku": st.sampled_from(["s1", "s2", "s3"]),
                               "qty": st.integers(1, 4), "tags": _JSON})
_ORDER = st.fixed_dictionaries({
    "items": st.lists(_ITEM, min_size=1, max_size=3),
    "total": st.integers(0, 99), "extra": _JSON})

#: Statements whose rows carry stored values: whole documents, their
#: nested arrays and objects, a key repeated in USE KEYS, UNNEST rows,
#: GROUP BY groups and their MIN/MAX/ARRAY_AGG of containers.
STATEMENTS = (
    "SELECT * FROM b o USE KEYS {keys}",
    "SELECT o FROM b o USE KEYS {keys}",
    "SELECT o.* FROM b o USE KEYS {keys}",
    "SELECT o.items, o.extra FROM b o USE KEYS {keys}",
    "SELECT RAW o.items[0] FROM b o USE KEYS {keys}",
    "SELECT i, i.tags FROM b o USE KEYS {keys} UNNEST o.items AS i",
    "SELECT i.sku, ARRAY_AGG(i) AS every_item, MIN(i.tags) AS least, "
    "MAX(o.extra) AS most FROM b o USE KEYS {keys} UNNEST o.items AS i "
    "GROUP BY i.sku",
    "SELECT i.tags, COUNT(*) AS n FROM b o USE KEYS {keys} "
    "UNNEST o.items AS i GROUP BY i.tags",
    "SELECT DISTINCT o.extra FROM b o USE KEYS {keys}",
    "SELECT o.items, c.extra FROM b o USE KEYS {keys} JOIN b c ON KEYS "
    "META(o).id",
    "SELECT o.total, n FROM b o USE KEYS {keys} NEST b n ON KEYS META(o).id",
)

#: Statements the ``by_extra(extra, total)`` index serves, whose rows
#: carry its container keys: a covered scan, GROUP BY over it, and
#: pushed aggregates (``IndexAggregateScan``) with MIN/MAX of them.
INDEX_STATEMENTS = (
    ("SELECT o.extra, o.total FROM b o WHERE o.extra >= []", "IndexScan"),
    ("SELECT o.total, MIN(o.extra) AS least, MAX(o.extra) AS most FROM b o "
     "WHERE o.extra >= [] GROUP BY o.total", "IndexScan"),
    ("SELECT o.extra, MIN(o.extra) AS least, MAX(o.extra) AS most, "
     "COUNT(*) AS n FROM b o WHERE o.extra >= [] GROUP BY o.extra",
     "IndexAggregateScan"),
    ("SELECT MIN(o.extra) AS least, MAX(o.extra) AS most FROM b o "
     "WHERE o.extra >= []", "IndexAggregateScan"),
)


def emit_extra(doc, meta, emit):
    emit(doc["extra"], doc["items"])


def greatest(values, rereduce):
    """One of its inputs: the collation-greatest."""
    return max(values, key=collate_key, default=None)


#: View queries: rows, the reduction and one per group.
VIEW_QUERIES = ({"reduce": False}, {}, {"group": True})


def vandalize(value) -> None:
    """Change every container reachable from ``value``, in place."""
    if isinstance(value, dict):
        for name, item in list(value.items()):
            vandalize(item)
            value[name] = ["vandalized", item]
        value["vandalized"] = True
    elif isinstance(value, list):
        for item in value:
            vandalize(item)
        value.append("vandalized")
        value.reverse()


def stored_values(cluster, keys) -> dict:
    return {key: doc.value
            for key, doc in cluster.connect().multi_get("b", keys).items()}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_ORDER, min_size=2, max_size=4))
def test_nothing_a_caller_changes_reaches_a_stored_document(monkeypatch,
                                                            orders):
    with monkeypatch.context() as patch:
        stored = StoredDocuments(patch)
        check_every_read(stored, orders)


def check_every_read(stored: StoredDocuments, orders: list) -> None:
    cluster = Cluster(nodes=2, vbuckets=8)
    stored.clusters = (cluster,)
    cluster.create_bucket("b", replicas=1)
    client = cluster.connect()
    cluster.query("CREATE INDEX by_extra ON b(extra, total) USING GSI")
    cluster.define_view("b", ViewDefinition("dd", "extra", emit_extra,
                                            greatest))
    keys = [f"o{i}" for i in range(len(orders))]
    written = {key: json.loads(json.dumps(order))
               for key, order in zip(keys, orders)}
    client.multi_upsert("b", written).require_ok()
    cluster.run_until_idle()
    expected = json.loads(json.dumps(written))

    vandalize(client.get("b", keys[0]).value)
    for doc in client.multi_get("b", keys).values():
        vandalize(doc.value)
    for doc in client.multi_get_batch("b", keys).results.values():
        vandalize(doc.value)
    locked = client.get_and_lock("b", keys[1])
    vandalize(locked.value)
    client.unlock("b", keys[1], locked.meta.cas)
    vandalize(client.lookup_in("b", keys[0], ["items", "extra"]))
    use_keys = json.dumps(keys + keys[:1])  # one key twice
    first_rows = {}
    for statement in STATEMENTS:
        text = statement.format(keys=use_keys)
        rows = cluster.query(text).rows
        first_rows[text] = json.loads(json.dumps(rows))
        vandalize(rows)
    for text, operator in INDEX_STATEMENTS:
        plan = cluster.query(f"EXPLAIN {text}").rows[0]["~children"]
        assert (plan[0]["#operator"], plan[0]["index"]) == (operator,
                                                             "by_extra")
        rows = cluster.query(text, scan_consistency="request_plus").rows
        first_rows[text] = json.loads(json.dumps(rows))
        vandalize(rows)
    first_views = []
    for params in VIEW_QUERIES:
        result = client.view_query("b", "dd", "extra", stale="false",
                                   **params)
        first_views.append(json.loads(json.dumps([result.rows,
                                                  result.value])))
        vandalize(result.rows)
        vandalize(result.value)
    assert stored_values(cluster, keys) == expected
    stored.check()
    for text, rows in first_rows.items():
        assert cluster.query(text).rows == rows
    for params, first in zip(VIEW_QUERIES, first_views):
        result = client.view_query("b", "dd", "extra", stale="ok", **params)
        assert [result.rows, result.value] == first

    for node in cluster.nodes():
        cluster.crash_node(node.name)
        cluster.restart_node(node.name)
    cluster.run_until_idle()
    assert stored_values(cluster, keys) == expected
    for text, rows in first_rows.items():
        assert cluster.query(text).rows == rows
