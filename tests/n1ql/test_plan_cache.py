"""Tests for the ad-hoc plan cache, DDL epoch invalidation, and the
unified SELECT request accounting.

The paper notes that "query parsing and planning are done serially" per
request (section 4.5.3); the plan cache gives repeated ad-hoc statements
the prepared-statement treatment automatically, and the catalog epoch
makes sure neither cached nor prepared plans survive index/keyspace DDL.
"""

import pytest

from repro import Cluster
from repro.common.services import Service
from repro.n1ql.planner import referenced_paths
from repro.n1ql.parser import parse


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=2, vbuckets=16)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(20):
        client.upsert("b", f"u{i:02d}", {"age": 20 + i % 5, "name": f"n{i:02d}"})
    cluster.run_until_idle()
    cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
    return cluster


def query_service(cluster):
    return cluster.service_node(Service.QUERY).query_service


class TestPlanCache:
    def test_repeat_statement_hits_cache(self, cluster):
        service = query_service(cluster)
        metrics = service.node.metrics
        text = "SELECT x.name FROM b x WHERE x.age = 22"
        first = cluster.query(text, scan_consistency="request_plus").rows
        assert metrics.counter_value("n1ql.plan_cache.miss") >= 1
        hits_before = metrics.counter_value("n1ql.plan_cache.hit")
        second = cluster.query(text, scan_consistency="request_plus").rows
        assert metrics.counter_value("n1ql.plan_cache.hit") == hits_before + 1
        assert first == second
        assert text in service.plan_cache

    def test_cached_plan_serves_new_params(self, cluster):
        """One cached plan serves every parameterization: params live on
        the per-execution evaluator, not in the compiled closures."""
        text = "SELECT COUNT(*) AS n FROM b x WHERE x.age >= $lo"
        n24 = cluster.query(text, params={"lo": 24},
                            scan_consistency="request_plus").rows[0]["n"]
        n0 = cluster.query(text, params={"lo": 0},
                           scan_consistency="request_plus").rows[0]["n"]
        assert n24 == 4
        assert n0 == 20
        metrics = query_service(cluster).node.metrics
        assert metrics.counter_value("n1ql.plan_cache.hit") >= 1

    def test_create_index_invalidates_cache(self, cluster):
        service = query_service(cluster)
        text = "SELECT x.name FROM b x WHERE x.age = 22"
        cluster.query(text, scan_consistency="request_plus")
        entry = service.plan_cache.get(text, service.catalog.current_epoch())
        assert type(entry.plan.operators[0]).__name__ == "PrimaryScan"
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        # The epoch moved: the stale entry is discarded at lookup and the
        # re-planned statement picks the new index.
        hits_before = service.node.metrics.counter_value("n1ql.plan_cache.hit")
        rows = cluster.query(text, scan_consistency="request_plus").rows
        assert len(rows) == 4
        assert service.node.metrics.counter_value(
            "n1ql.plan_cache.hit") == hits_before
        entry = service.plan_cache.get(text, service.catalog.current_epoch())
        scan = entry.plan.operators[0]
        assert type(scan).__name__ == "IndexScan"
        assert scan.index_name == "by_age"

    def test_drop_index_invalidates_cache(self, cluster):
        service = query_service(cluster)
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        text = "SELECT x.name FROM b x WHERE x.age = 21"
        cluster.query(text, scan_consistency="request_plus")
        entry = service.plan_cache.get(text, service.catalog.current_epoch())
        assert type(entry.plan.operators[0]).__name__ == "IndexScan"
        cluster.query("DROP INDEX by_age")
        # Re-running the cached statement must not scan the dead index.
        rows = cluster.query(text, scan_consistency="request_plus").rows
        assert len(rows) == 4
        entry = service.plan_cache.get(text, service.catalog.current_epoch())
        assert type(entry.plan.operators[0]).__name__ == "PrimaryScan"

    def test_lru_eviction(self, cluster):
        service = query_service(cluster)
        service.plan_cache.clear()
        service.plan_cache.capacity = 3
        statements = [f"SELECT x.name FROM b x WHERE x.age = 2{i}"
                      for i in range(5)]
        for text in statements:
            cluster.query(text)
        assert len(service.plan_cache) == 3
        # Oldest two were evicted, newest three survive.
        assert statements[0] not in service.plan_cache
        assert statements[1] not in service.plan_cache
        for text in statements[2:]:
            assert text in service.plan_cache

    def test_serial_front_half_runs_only_for_a_cold_statement(self, cluster):
        """Section 4.5.3: "query parsing and planning are done serially"
        per request -- pure overhead for a hot statement.  A cold ad-hoc
        statement is parsed once and planned once; the same text again is
        neither; ``EXECUTE`` parses only its own short text and never
        plans.  Counted as observations of the two phase timers, so no
        duration is compared."""
        service = query_service(cluster)
        histograms = service.node.metrics.histograms

        def phases(statement, **kwargs):
            parsed = histograms["n1ql.parse_seconds"].count
            planned = histograms["n1ql.plan_seconds"].count
            rows = cluster.query(statement, **kwargs).rows
            return (rows,
                    histograms["n1ql.parse_seconds"].count - parsed,
                    histograms["n1ql.plan_seconds"].count - planned)

        text = "SELECT x.name FROM b x WHERE x.age = $1"
        cluster.query(f"PREPARE hot FROM {text}")
        service.plan_cache.clear()

        cold_rows, cold_parses, cold_plans = phases(text, params={"1": 22})
        assert (cold_parses, cold_plans) == (1, 1)
        cached_rows, cached_parses, cached_plans = phases(
            text, params={"1": 22})
        assert (cached_parses, cached_plans) == (0, 0)
        prepared_rows, _parses, prepared_plans = phases(
            "EXECUTE hot", params={"1": 22})
        assert prepared_plans == 0
        assert cold_rows == cached_rows == prepared_rows
        assert len(cold_rows) == 4

    def test_non_select_statements_not_cached(self, cluster):
        service = query_service(cluster)
        service.plan_cache.clear()
        cluster.query("EXPLAIN SELECT x.name FROM b x WHERE x.age = 22")
        assert len(service.plan_cache) == 0


class TestPreparedInvalidation:
    def test_execute_after_drop_index_replans(self, cluster):
        """Regression for the stale-plan bug: PREPARE against an index,
        DROP the index, EXECUTE must succeed via a fresh plan instead of
        running a dead IndexScan."""
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        cluster.query("PREPARE byage FROM SELECT x.name FROM b x "
                      "WHERE x.age = 22")
        service = query_service(cluster)
        assert type(service.prepared["byage"].plan.operators[0]).__name__ \
            == "IndexScan"
        cluster.query("DROP INDEX by_age")
        rows = cluster.query("EXECUTE byage",
                             scan_consistency="request_plus").rows
        assert sorted(r["name"] for r in rows) == ["n02", "n07", "n12", "n17"]
        assert type(service.prepared["byage"].plan.operators[0]).__name__ \
            == "PrimaryScan"
        assert service.node.metrics.counter_value("n1ql.prepared.replan") == 1

    def test_execute_accounting_matches_select(self, cluster):
        """Satellite: _execute_prepared and _select share one accounting
        path — both bump n1ql.selects and report resultCount."""
        service = query_service(cluster)
        metrics = service.node.metrics
        cluster.query("PREPARE acct FROM SELECT x.name FROM b x "
                      "WHERE x.age = 22")
        selects_before = metrics.counter_value("n1ql.selects")
        rows_before = metrics.counter_value("n1ql.result_rows")
        result = cluster.query("EXECUTE acct",
                               scan_consistency="request_plus")
        assert metrics.counter_value("n1ql.selects") == selects_before + 1
        assert metrics.counter_value("n1ql.result_rows") \
            == rows_before + len(result.rows)
        assert result.metrics["resultCount"] == len(result.rows)


class TestCoverageAnalysis:
    def test_join_disables_coverage(self):
        """Satellite: statements with JOINs reference whole documents, so
        coverage analysis must bail out (return None)."""
        statement = parse(
            "SELECT x.name FROM b x JOIN b y ON KEYS x.ref")
        assert referenced_paths(statement, "x") is None

    def test_plain_statement_reports_paths(self):
        statement = parse(
            "SELECT x.name FROM b x WHERE x.age > 21 ORDER BY x.city")
        assert referenced_paths(statement, "x") == {"name", "age", "city"}
