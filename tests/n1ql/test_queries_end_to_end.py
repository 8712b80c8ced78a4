"""End-to-end N1QL tests against a live cluster: access paths, joins,
NEST/UNNEST, grouping, DML, DDL, covering indexes, scan consistency, and
EXPLAIN."""

import pytest

from repro import Cluster
from repro.common.errors import (
    IndexNotFoundError,
    N1qlRuntimeError,
    N1qlSemanticError,
    NoSuitableIndexError,
)


@pytest.fixture(scope="class")
def cluster():
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("profiles")
    cluster.create_bucket("orders")
    client = cluster.connect()
    for i in range(40):
        client.upsert("profiles", f"u{i:02d}", {
            "doc_type": "user_profile",
            "name": f"user{i:02d}",
            "age": 20 + i % 10,
            "city": ["SF", "NY", "LA"][i % 3],
            "order_ids": [f"o{i:02d}a", f"o{i:02d}b"],
            "categories": [f"c{i % 4}", "all"],
        })
        client.upsert("orders", f"o{i:02d}a",
                      {"doc_type": "order", "total": 10 * i, "sku": f"s{i % 5}"})
        client.upsert("orders", f"o{i:02d}b",
                      {"doc_type": "order", "total": 5 * i, "sku": f"s{i % 3}"})
    cluster.run_until_idle()
    cluster.query("CREATE INDEX by_age ON profiles(age) USING GSI")
    cluster.query("CREATE PRIMARY INDEX ON profiles USING GSI")
    cluster.query("CREATE PRIMARY INDEX ON orders USING GSI")
    return cluster


@pytest.fixture
def client(cluster):
    return cluster.connect()


RP = {"scan_consistency": "request_plus"}


class TestAccessPaths:
    def test_use_keys_single(self, client):
        rows = client.query(
            'SELECT p.name FROM profiles p USE KEYS "u07"').rows
        assert rows == [{"name": "user07"}]

    def test_use_keys_multiple(self, client):
        rows = client.query(
            'SELECT p.name FROM profiles p USE KEYS ["u01", "u02"]').rows
        assert len(rows) == 2

    def test_use_keys_missing_key_skipped(self, client):
        rows = client.query(
            'SELECT p.name FROM profiles p USE KEYS ["u01", "ghost"]').rows
        assert len(rows) == 1

    def test_index_scan_equality(self, client):
        rows = client.query(
            "SELECT name FROM profiles p WHERE p.age = 25", **RP).rows
        assert len(rows) == 4
        assert all(r["name"] for r in rows)

    def test_index_scan_range(self, client):
        rows = client.query(
            "SELECT age FROM profiles p WHERE p.age >= 27 AND p.age < 29",
            **RP).rows
        assert {r["age"] for r in rows} == {27, 28}

    def test_primary_scan_fallback(self, client):
        rows = client.query(
            "SELECT name FROM profiles p WHERE p.city = 'SF'", **RP).rows
        assert len(rows) == 14

    def test_meta_id_range_uses_primary_index(self, client):
        """The YCSB workload-E query shape (appendix 10.1.2)."""
        rows = client.query(
            "SELECT meta(p).id AS id FROM profiles p "
            "WHERE meta(p).id >= $1 LIMIT $2",
            params={"1": "u30", "2": 5}, **RP).rows
        assert [r["id"] for r in rows] == ["u30", "u31", "u32", "u33", "u34"]

    def test_no_index_no_use_keys_fails(self, cluster):
        cluster.create_bucket("bare")
        with pytest.raises(NoSuitableIndexError):
            cluster.query("SELECT x FROM bare")

    def test_unknown_keyspace(self, client):
        with pytest.raises(N1qlSemanticError):
            client.query("SELECT * FROM nonexistent")


class TestProjection:
    def test_star_wraps_alias(self, client):
        rows = client.query('SELECT * FROM profiles p USE KEYS "u01"').rows
        assert rows[0]["p"]["name"] == "user01"

    def test_alias_star_splices(self, client):
        rows = client.query('SELECT p.* FROM profiles p USE KEYS "u01"').rows
        assert rows[0]["name"] == "user01"

    def test_raw(self, client):
        rows = client.query(
            'SELECT RAW p.name FROM profiles p USE KEYS "u01"').rows
        assert rows == ["user01"]

    def test_expression_projection(self, client):
        rows = client.query(
            'SELECT p.age * 2 AS double_age FROM profiles p USE KEYS "u01"'
        ).rows
        assert rows[0]["double_age"] == 42

    def test_missing_field_omitted_from_result(self, client):
        rows = client.query(
            'SELECT p.name, p.ghost FROM profiles p USE KEYS "u01"').rows
        assert "ghost" not in rows[0]

    def test_select_without_from(self, client):
        rows = client.query("SELECT 1 + 1 AS two").rows
        assert rows == [{"two": 2}]

    def test_distinct(self, client):
        rows = client.query(
            "SELECT DISTINCT p.city FROM profiles p", **RP).rows
        assert len(rows) == 3


class TestOrderingAndPagination:
    def test_order_by(self, client):
        rows = client.query(
            "SELECT name FROM profiles p WHERE p.age = 25 ORDER BY name",
            **RP).rows
        names = [r["name"] for r in rows]
        assert names == sorted(names)

    def test_order_desc(self, client):
        rows = client.query(
            "SELECT name FROM profiles p WHERE p.age = 25 "
            "ORDER BY name DESC", **RP).rows
        names = [r["name"] for r in rows]
        assert names == sorted(names, reverse=True)

    def test_order_by_projection_alias(self, client):
        rows = client.query(
            "SELECT p.age AS years FROM profiles p WHERE p.age > 26 "
            "ORDER BY years DESC LIMIT 3", **RP).rows
        assert [r["years"] for r in rows] == [29, 29, 29]

    def test_limit_offset(self, client):
        everything = client.query(
            "SELECT meta(p).id AS id FROM profiles p ORDER BY meta(p).id",
            **RP).rows
        window = client.query(
            "SELECT meta(p).id AS id FROM profiles p ORDER BY meta(p).id "
            "LIMIT 5 OFFSET 10", **RP).rows
        assert window == everything[10:15]

    def test_limit_zero(self, client):
        assert client.query(
            "SELECT name FROM profiles p LIMIT 0", **RP).rows == []

    def test_mixed_type_order(self, client):
        rows = client.query(
            "SELECT p.age FROM profiles p WHERE p.age >= 20 "
            "ORDER BY p.age LIMIT 1", **RP).rows
        assert rows[0]["age"] == 20


class TestJoins:
    def test_inner_join_on_keys(self, client):
        rows = client.query(
            'SELECT p.name, o.total FROM profiles p USE KEYS "u05" '
            "JOIN orders o ON KEYS p.order_ids").rows
        assert len(rows) == 2
        assert {r["total"] for r in rows} == {50, 25}

    def test_left_outer_join(self, client):
        client.upsert("profiles", "loner",
                      {"name": "loner", "age": 99, "order_ids": ["ghost"]})
        rows = client.query(
            'SELECT p.name, o.total FROM profiles p USE KEYS "loner" '
            "LEFT JOIN orders o ON KEYS p.order_ids").rows
        assert len(rows) == 1
        assert rows[0] == {"name": "loner"}
        client.remove("profiles", "loner")

    def test_inner_join_drops_unmatched(self, client):
        client.upsert("profiles", "loner2",
                      {"name": "loner2", "order_ids": ["ghost"]})
        rows = client.query(
            'SELECT p.name FROM profiles p USE KEYS "loner2" '
            "JOIN orders o ON KEYS p.order_ids").rows
        assert rows == []
        client.remove("profiles", "loner2")

    def test_nest_collects_array(self, client):
        """The paper's NEST example shape (section 3.2.3)."""
        rows = client.query(
            'SELECT p.name, os FROM profiles p USE KEYS "u05" '
            "NEST orders os ON KEYS p.order_ids").rows
        assert len(rows) == 1
        assert sorted(o["total"] for o in rows[0]["os"]) == [25, 50]

    def test_nest_with_array_comprehension_keys(self, client):
        rows = client.query(
            'SELECT p.name, os FROM profiles p USE KEYS "u05" '
            "NEST orders os ON KEYS ARRAY oid FOR oid IN p.order_ids END"
        ).rows
        assert len(rows[0]["os"]) == 2

    def test_unnest(self, client):
        """The paper's UNNEST example (section 3.2.3)."""
        rows = client.query(
            "SELECT DISTINCT categories FROM profiles p "
            "UNNEST p.categories AS categories", **RP).rows
        values = {r["categories"] for r in rows}
        assert values == {"c0", "c1", "c2", "c3", "all"}

    def test_unnest_repeats_parent(self, client):
        rows = client.query(
            'SELECT p.name, c FROM profiles p USE KEYS "u01" '
            "UNNEST p.categories AS c").rows
        assert len(rows) == 2
        assert all(r["name"] == "user01" for r in rows)

    def test_join_after_index_scan(self, client):
        rows = client.query(
            "SELECT p.name, o.total FROM profiles p "
            "JOIN orders o ON KEYS p.order_ids WHERE p.age = 25", **RP).rows
        assert len(rows) == 8  # 4 profiles x 2 orders


class TestGrouping:
    def test_group_count(self, client):
        rows = client.query(
            "SELECT p.city, COUNT(*) AS n FROM profiles p "
            "GROUP BY p.city ORDER BY p.city", **RP).rows
        assert rows == [{"city": "LA", "n": 13}, {"city": "NY", "n": 13},
                        {"city": "SF", "n": 14}]

    def test_aggregates(self, client):
        rows = client.query(
            "SELECT MIN(p.age) AS lo, MAX(p.age) AS hi, AVG(p.age) AS mean, "
            "SUM(p.age) AS total FROM profiles p", **RP).rows
        row = rows[0]
        assert row["lo"] == 20 and row["hi"] == 29
        assert row["total"] == sum(20 + i % 10 for i in range(40))

    def test_count_distinct(self, client):
        rows = client.query(
            "SELECT COUNT(DISTINCT p.city) AS cities FROM profiles p",
            **RP).rows
        assert rows[0]["cities"] == 3

    def test_having(self, client):
        rows = client.query(
            "SELECT p.city, COUNT(*) AS n FROM profiles p GROUP BY p.city "
            "HAVING COUNT(*) > 13", **RP).rows
        assert rows == [{"city": "SF", "n": 14}]

    def test_aggregate_over_empty_input(self, client):
        rows = client.query(
            "SELECT COUNT(*) AS n, SUM(p.age) AS s FROM profiles p "
            "WHERE p.age = 999", **RP).rows
        # COUNT over nothing is 0; SUM over nothing is NULL.
        assert rows == [{"n": 0, "s": None}]

    @pytest.mark.parametrize("statement", [
        # WHERE runs per row, before any grouping operator has bound
        # the aggregate's value.
        "SELECT p.name FROM profiles p WHERE SUM(p.age) > 1",
        "SELECT p.city FROM profiles p GROUP BY SUM(p.age)",
        "UPDATE profiles p SET p.age = MAX(p.age)",
    ])
    def test_aggregate_outside_group_by_context_fails(self, client,
                                                      statement):
        with pytest.raises(N1qlSemanticError,
                           match="used outside GROUP BY context"):
            client.query(statement, **RP)


class TestDml:
    def test_insert_and_select(self, client):
        client.query(
            'INSERT INTO profiles (KEY, VALUE) '
            'VALUES ("dml1", {"name": "dml", "age": 77})')
        rows = client.query(
            'SELECT p.name FROM profiles p USE KEYS "dml1"').rows
        assert rows == [{"name": "dml"}]
        client.query('DELETE FROM profiles p USE KEYS "dml1"')

    def test_insert_duplicate_fails(self, client):
        client.query('INSERT INTO profiles (KEY, VALUE) VALUES ("dml2", 1)')
        with pytest.raises(N1qlRuntimeError):
            client.query('INSERT INTO profiles (KEY, VALUE) VALUES ("dml2", 2)')
        client.query('DELETE FROM profiles p USE KEYS "dml2"')

    def test_upsert_overwrites(self, client):
        client.query('UPSERT INTO profiles (KEY, VALUE) VALUES ("dml3", {"v": 1})')
        client.query('UPSERT INTO profiles (KEY, VALUE) VALUES ("dml3", {"v": 2})')
        rows = client.query('SELECT p.v FROM profiles p USE KEYS "dml3"').rows
        assert rows == [{"v": 2}]
        client.query('DELETE FROM profiles p USE KEYS "dml3"')

    def test_update_with_use_keys(self, client):
        client.query('UPSERT INTO profiles (KEY, VALUE) VALUES ("dml4", {"a": 1})')
        result = client.query(
            'UPDATE profiles p USE KEYS "dml4" SET p.a = 9, p.b.c = 2')
        assert result.mutation_count == 1
        rows = client.query('SELECT p.a, p.b FROM profiles p USE KEYS "dml4"').rows
        assert rows == [{"a": 9, "b": {"c": 2}}]
        client.query('DELETE FROM profiles p USE KEYS "dml4"')

    def test_update_where(self, client):
        result = client.query(
            "UPDATE profiles p SET p.adult = TRUE WHERE p.age >= 28")
        assert result.mutation_count == 8
        rows = client.query(
            "SELECT COUNT(*) AS n FROM profiles p WHERE p.adult = TRUE",
            **RP).rows
        assert rows[0]["n"] == 8

    def test_update_unset(self, client):
        client.query("UPDATE profiles p UNSET p.adult WHERE p.adult = TRUE")
        rows = client.query(
            "SELECT COUNT(*) AS n FROM profiles p WHERE p.adult = TRUE",
            **RP).rows
        assert rows[0]["n"] == 0

    def test_delete_where_with_returning(self, client):
        client.query('UPSERT INTO profiles (KEY, VALUE) '
                     'VALUES ("dml5", {"name": "bye", "age": 101})')
        result = client.query(
            "DELETE FROM profiles p WHERE p.age = 101 RETURNING p.name",
            **RP)
        assert result.mutation_count == 1
        assert result.rows == [{"name": "bye"}]

    def test_update_limit(self, client):
        result = client.query(
            "UPDATE profiles p SET p.touched = 1 WHERE p.age = 25 LIMIT 2")
        assert result.mutation_count == 2
        client.query("UPDATE profiles p UNSET p.touched WHERE p.touched = 1")

    def test_insert_returning(self, client):
        result = client.query(
            'INSERT INTO profiles (KEY, VALUE) '
            'VALUES ("dml6", {"name": "r"}) RETURNING name')
        assert result.rows == [{"name": "r"}]
        client.query('DELETE FROM profiles p USE KEYS "dml6"')


class TestCoveringIndex:
    def test_covered_query_skips_fetch(self, cluster, client):
        """Section 5.1.2: covered queries avoid the fetch step."""
        cluster.query("CREATE INDEX cover_age_name ON profiles(age, name)")
        explain = cluster.query(
            "EXPLAIN SELECT p.name FROM profiles p WHERE p.age = 25")
        ops = [c["#operator"] for c in explain.rows[0]["~children"]]
        assert "Fetch" not in ops
        scan = explain.rows[0]["~children"][0]
        assert scan["index"] == "cover_age_name"
        assert scan["covers"]

        rows = client.query(
            "SELECT p.name FROM profiles p WHERE p.age = 25 ORDER BY p.name",
            **RP).rows
        assert len(rows) == 4
        assert all(r["name"].startswith("user") for r in rows)
        cluster.query("DROP INDEX cover_age_name")

    def test_uncovered_query_fetches(self, cluster):
        explain = cluster.query(
            "EXPLAIN SELECT p.city FROM profiles p WHERE p.age = 25")
        ops = [c["#operator"] for c in explain.rows[0]["~children"]]
        assert "Fetch" in ops


class TestExplain:
    def test_keyscan_plan(self, cluster):
        explain = cluster.query('EXPLAIN SELECT * FROM profiles USE KEYS "x"')
        assert explain.rows[0]["~children"][0]["#operator"] == "KeyScan"

    def test_indexscan_plan(self, cluster):
        explain = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE age = 25")
        scan = explain.rows[0]["~children"][0]
        assert scan["#operator"] == "IndexScan"
        assert scan["index"] == "by_age"

    def test_primaryscan_plan(self, cluster):
        explain = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE city = 'SF'")
        assert explain.rows[0]["~children"][0]["#operator"] == "PrimaryScan"

    def test_order_and_limit_in_plan(self, cluster):
        explain = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE age = 1 "
            "ORDER BY name LIMIT 2")
        ops = [c["#operator"] for c in explain.rows[0]["~children"]]
        assert "Order" in ops and "Limit" in ops


class TestScanConsistency:
    def test_not_bounded_may_lag(self, cluster):
        engine = cluster.node("node1").engines["profiles"]
        vb = engine.owned_vbuckets()[0]
        engine.upsert(vb, "lagged", {"age": 888})
        rows = cluster.query(
            "SELECT name FROM profiles p WHERE p.age = 888").rows
        assert rows == []

    def test_request_plus_sees_everything(self, cluster):
        rows = cluster.query(
            "SELECT meta(p).id AS id FROM profiles p WHERE p.age = 888",
            scan_consistency="request_plus").rows
        assert [r["id"] for r in rows] == ["lagged"]
        cluster.query('DELETE FROM profiles p USE KEYS "lagged"')

    def test_invalid_consistency(self, cluster):
        with pytest.raises(N1qlSemanticError):
            cluster.query("SELECT 1", scan_consistency="bogus")


class TestDdlThroughN1ql:
    def test_create_and_drop_gsi(self, cluster):
        cluster.query("CREATE INDEX tmp_city ON profiles(city) USING GSI")
        explain = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE city = 'SF'")
        assert explain.rows[0]["~children"][0]["index"] == "tmp_city"
        cluster.query("DROP INDEX tmp_city")
        explain = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE city = 'SF'")
        assert explain.rows[0]["~children"][0]["#operator"] == "PrimaryScan"

    def test_partial_index_used_when_implied(self, cluster):
        cluster.query(
            "CREATE INDEX over25 ON profiles(age) WHERE age > 25 USING GSI")
        used = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE age > 27")
        # by_age also qualifies; both are single-key, either is valid, but
        # the partial index must at least be *usable*:
        rows = cluster.query(
            "SELECT COUNT(*) AS n FROM profiles p WHERE p.age > 27",
            **RP).rows
        assert rows[0]["n"] == 8
        not_implied = cluster.query(
            "EXPLAIN SELECT name FROM profiles WHERE age > 20")
        assert not_implied.rows[0]["~children"][0]["index"] != "over25"
        cluster.query("DROP INDEX over25")

    def test_deferred_build_via_n1ql(self, cluster):
        cluster.query(
            'CREATE INDEX deferred_city ON profiles(city) USING GSI '
            'WITH {"defer_build": true}')
        meta = cluster.manager.index_registry.require("deferred_city")
        assert meta.state == "deferred"
        cluster.query("BUILD INDEX ON profiles(deferred_city)")
        assert meta.state == "ready"
        cluster.query("DROP INDEX deferred_city")

    def test_array_index_via_n1ql(self, cluster):
        cluster.query(
            "CREATE INDEX by_cat ON profiles"
            "(DISTINCT ARRAY c FOR c IN categories END) USING GSI")
        rows = cluster.gsi.scan("by_cat", low=["all"], high=["all"],
                                scan_consistency="request_plus")
        assert len(rows) == 40
        cluster.query("DROP INDEX by_cat")

    def test_any_satisfies_scans_the_array_index(self, cluster):
        """``ANY c IN p.categories SATISFIES c = <constant> END`` is an
        equality span of the array index over ``categories``; a plain
        comparison of the whole array is not, since its elements are
        the index's keys."""
        cluster.query(
            "CREATE INDEX by_cat ON profiles"
            "(DISTINCT ARRAY c FOR c IN categories END) USING GSI")
        query = ("SELECT META(p).id AS id FROM profiles p WHERE "
                 "ANY c IN p.categories SATISFIES {} = c END")
        try:
            for value, expected in (("'c1'", 10), ("'all'", 40), ("'c9'", 0)):
                text = query.format(value)
                plan = cluster.query(f"EXPLAIN {text}").rows[0]["~children"]
                assert plan[0]["index"] == "by_cat"
                rows = cluster.query(text, **RP).rows
                assert len(rows) == expected == len({r["id"] for r in rows})
            whole = cluster.query(
                "EXPLAIN SELECT META(p).id FROM profiles p "
                "WHERE p.categories = 'c1'").rows[0]["~children"]
            assert whole[0]["index"] != "by_cat"
        finally:
            cluster.query("DROP INDEX by_cat")

    def test_view_index_via_n1ql(self, cluster):
        cluster.query("CREATE INDEX v_city ON profiles(city) USING VIEW")
        rows = cluster.query(
            "SELECT name FROM profiles p WHERE p.city = 'NY'", **RP).rows
        assert len(rows) == 13
        cluster.query("DROP INDEX v_city")

    def test_primary_index_via_view(self, cluster):
        cluster.create_bucket("viewonly")
        client2 = cluster.connect()
        for i in range(5):
            client2.upsert("viewonly", f"d{i}", {"x": i})
        cluster.query("CREATE PRIMARY INDEX ON viewonly USING VIEW")
        rows = cluster.query(
            "SELECT v.x FROM viewonly v", scan_consistency="request_plus").rows
        assert len(rows) == 5

    def test_drop_unknown_index(self, cluster):
        with pytest.raises(IndexNotFoundError):
            cluster.query("DROP INDEX ghost_index")
