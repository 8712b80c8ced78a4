"""Tests for the ad-hoc plan cache, DDL epoch invalidation, and the
unified SELECT request accounting.

The paper notes that "query parsing and planning are done serially" per
request (section 4.5.3); the plan cache gives repeated ad-hoc statements
the prepared-statement treatment automatically -- keyed by the
statement's shape, so statements that differ only in their literals
share one entry -- and the catalog epoch makes sure neither cached nor
prepared plans survive index/keyspace DDL.
"""

import pytest

from repro import Cluster
from repro.common.services import Service
from repro.n1ql import service as service_module
from repro.n1ql.lexer import tokenize
from repro.n1ql.planner import referenced_paths
from repro.n1ql.parser import parse, statement_shape


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


def shape_of(text: str) -> tuple:
    """The plan-cache key of a statement with a lifted form."""
    return statement_shape(tokenize(text))[0]


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
        assert shape_of(text) in service.plan_cache
        # A sibling differing only in its literal hits the shape's entry.
        sibling = "SELECT x.name FROM b x WHERE x.age = 23"
        assert shape_of(sibling) == shape_of(text)
        rows = cluster.query(sibling, scan_consistency="request_plus").rows
        assert metrics.counter_value("n1ql.plan_cache.hit") == hits_before + 2
        assert sorted(row["name"] for row in rows) \
            == ["n03", "n08", "n13", "n18"]
        assert len(service.plan_cache) == 1

    def test_a_text_seen_before_is_not_lexed(self, cluster, monkeypatch):
        service = query_service(cluster)
        lexed = []
        monkeypatch.setattr(service_module, "tokenize",
                            lambda text: lexed.append(text) or tokenize(text))
        text = "SELECT x.name FROM b x WHERE x.age = 22"
        sibling = "SELECT x.name FROM b x WHERE x.age = 23"
        for statement in (text, text, sibling, sibling, text):
            cluster.query(statement)
        assert lexed == [text, sibling]

    def test_remembered_texts_are_bounded_by_the_capacity(
            self, cluster, monkeypatch):
        """The text -> shape LRU holds ``capacity`` texts: five texts of
        one shape under a capacity of three share one plan, and the two
        oldest texts are lexed again while the newest is not."""
        service = query_service(cluster)
        service.plan_cache.clear()
        service.plan_cache.capacity = 3
        statements = [f"SELECT x.name FROM b x WHERE x.age = 2{i}"
                      for i in range(5)]
        for text in statements:
            cluster.query(text)
        assert len(service.plan_cache) == 1
        lexed = []
        monkeypatch.setattr(service_module, "tokenize",
                            lambda text: lexed.append(text) or tokenize(text))
        for text in statements[4:] + statements[:2]:
            cluster.query(text)
        assert lexed == statements[:2]

    def test_more_statements_than_half_the_capacity_all_stay_cached(
            self, cluster):
        """``capacity`` counts plans, one per statement shape: 200
        statements of 200 shapes, each with a literal, all fit in 256
        and the second round hits every one -- as 200 texts did when a
        text was the only key.  Their 200 texts are remembered beside
        the plans, not in their place."""
        service = query_service(cluster)
        metrics = service.node.metrics
        service.plan_cache.clear()
        statements = [f"SELECT x.name AS f{i} FROM b x WHERE x.age = {i}"
                      for i in range(200)]
        assert len({shape_of(text) for text in statements}) == 200
        for text in statements:
            cluster.query(text)
        hits = metrics.counter_value("n1ql.plan_cache.hit")
        misses = metrics.counter_value("n1ql.plan_cache.miss")
        for text in statements:
            cluster.query(text)
        assert metrics.counter_value("n1ql.plan_cache.hit") == hits + 200
        assert metrics.counter_value("n1ql.plan_cache.miss") == misses
        assert len(service.plan_cache) == 200

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
        entry = service.plan_cache.get(shape_of(text),
                                       service.catalog.epoch)
        assert type(entry.plan.operators[0]).__name__ == "PrimaryScan"
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        # The epoch moved: the stale entry is discarded at lookup and the
        # re-planned statement picks the new index.
        hits_before = service.node.metrics.counter_value("n1ql.plan_cache.hit")
        rows = cluster.query(text, scan_consistency="request_plus").rows
        assert len(rows) == 4
        assert service.node.metrics.counter_value(
            "n1ql.plan_cache.hit") == hits_before
        entry = service.plan_cache.get(shape_of(text),
                                       service.catalog.epoch)
        scan = entry.plan.operators[0]
        assert type(scan).__name__ == "IndexScan"
        assert scan.index_name == "by_age"

    def test_drop_index_invalidates_cache(self, cluster):
        service = query_service(cluster)
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        text = "SELECT x.name FROM b x WHERE x.age = 21"
        cluster.query(text, scan_consistency="request_plus")
        entry = service.plan_cache.get(shape_of(text),
                                       service.catalog.epoch)
        assert type(entry.plan.operators[0]).__name__ == "IndexScan"
        cluster.query("DROP INDEX by_age")
        # Re-running the cached statement must not scan the dead index.
        rows = cluster.query(text, scan_consistency="request_plus").rows
        assert len(rows) == 4
        entry = service.plan_cache.get(shape_of(text),
                                       service.catalog.epoch)
        assert type(entry.plan.operators[0]).__name__ == "PrimaryScan"

    def test_lru_eviction(self, cluster):
        service = query_service(cluster)
        service.plan_cache.clear()
        service.plan_cache.capacity = 3
        # Five shapes: the literals alone would make one shape.
        statements = [f"SELECT {projection} FROM b x WHERE x.age = 2{i}"
                      for i, projection in enumerate(
                          ["x.name", "x.age", "x.name, x.age",
                           "x.age, x.name", "x"])]
        for text in statements:
            cluster.query(text)
        assert len(service.plan_cache) == 3
        # Oldest two were evicted, newest three survive.
        assert shape_of(statements[0]) not in service.plan_cache
        assert shape_of(statements[1]) not in service.plan_cache
        for text in statements[2:]:
            assert shape_of(text) in service.plan_cache

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

    def test_a_cold_statement_with_literals_is_parsed_and_planned_once(
            self, cluster):
        """Only the lifted form is parsed and planned; a sibling of its
        shape is then neither.  A LIKE prefix needs the literal's value,
        so that statement is parsed and planned a second time, as
        written."""
        service = query_service(cluster)
        histograms = service.node.metrics.histograms
        service.plan_cache.clear()

        def phases(statement):
            parsed = histograms["n1ql.parse_seconds"].count
            planned = histograms["n1ql.plan_seconds"].count
            rows = cluster.query(statement).rows
            return (rows,
                    histograms["n1ql.parse_seconds"].count - parsed,
                    histograms["n1ql.plan_seconds"].count - planned)

        rows, parses, plans = phases("SELECT x.name FROM b x WHERE x.age = 22")
        assert (len(rows), parses, plans) == (4, 1, 1)
        rows, parses, plans = phases("SELECT x.name FROM b x WHERE x.age = 23")
        assert (len(rows), parses, plans) == (4, 0, 0)
        like = 'SELECT x.name FROM b x WHERE x.name LIKE "n1%"'
        rows, parses, plans = phases(like)
        assert (len(rows), parses, plans) == (10, 2, 2)
        assert like in service.plan_cache

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

    def test_anonymous_prepare_never_replaces_a_named_statement(self, cluster):
        """An anonymous PREPARE takes the first unused ``p<n>``; counting
        the prepared statements named it ``p2`` here and silently
        replaced the statement the caller had named ``p2``."""
        def prepare(text):
            return cluster.query(text).rows[0]["name"]

        def execute(name):
            return cluster.query(f"EXECUTE {name}").rows

        select = "SELECT x.name FROM b x USE KEYS"
        assert prepare(f'PREPARE p2 FROM {select} ["u01"]') == "p2"
        assert prepare(f'PREPARE {select} ["u03"]') == "p1"
        assert prepare(f'PREPARE {select} ["u04"]') == "p3"
        assert execute("p2") == [{"name": "n01"}]
        assert execute("p1") == [{"name": "n03"}]
        assert execute("p3") == [{"name": "n04"}]


class TestExecuteText:
    """A repeated ``EXECUTE <name>`` text is not lexed or parsed again,
    and its name is still looked up in ``prepared`` on every call, so a
    re-PREPARE or a catalog change reaches the next EXECUTE."""

    SCAN = "SELECT meta().id AS id FROM b WHERE meta().id >= $1 LIMIT $2"

    @pytest.fixture
    def lexed(self, monkeypatch):
        texts = []
        monkeypatch.setattr(service_module, "tokenize",
                            lambda text: texts.append(text) or tokenize(text))
        return texts

    def test_two_executes_lex_the_text_once(self, cluster, lexed):
        cluster.query(f"PREPARE ycsb_scan FROM {self.SCAN}")
        first = cluster.query("EXECUTE ycsb_scan", {"1": "u05", "2": 3})
        second = cluster.query("EXECUTE ycsb_scan", {"1": "u10", "2": 2})
        assert lexed.count("EXECUTE ycsb_scan") == 1
        assert first.rows == [{"id": "u05"}, {"id": "u06"}, {"id": "u07"}]
        assert second.rows == [{"id": "u10"}, {"id": "u11"}]

    def test_a_re_prepare_takes_effect_on_the_next_execute(self, cluster,
                                                           lexed):
        cluster.query(f"PREPARE ycsb_scan FROM {self.SCAN}")
        params = {"1": "u05", "2": 2}
        assert cluster.query("EXECUTE ycsb_scan", params).rows \
            == [{"id": "u05"}, {"id": "u06"}]
        cluster.query("PREPARE ycsb_scan FROM SELECT x.name FROM b x "
                      "WHERE meta(x).id >= $1 LIMIT $2")
        assert cluster.query("EXECUTE ycsb_scan", params).rows \
            == [{"name": "n05"}, {"name": "n06"}]
        assert lexed.count("EXECUTE ycsb_scan") == 1

    def test_a_create_index_takes_effect_on_the_next_execute(self, cluster,
                                                             lexed):
        service = query_service(cluster)
        metrics = service.node.metrics
        cluster.query("PREPARE byage FROM SELECT x.name FROM b x "
                      "WHERE x.age = 22")
        before = cluster.query("EXECUTE byage",
                               scan_consistency="request_plus").rows
        assert type(service.prepared["byage"].plan.operators[0]).__name__ \
            == "PrimaryScan"
        cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
        replans = metrics.counter_value("n1ql.prepared.replan")
        after = cluster.query("EXECUTE byage",
                              scan_consistency="request_plus").rows
        assert metrics.counter_value("n1ql.prepared.replan") == replans + 1
        assert service.prepared["byage"].plan.operators[0].index_name \
            == "by_age"
        assert sorted(row["name"] for row in after) \
            == sorted(row["name"] for row in before) \
            == ["n02", "n07", "n12", "n17"]
        assert lexed.count("EXECUTE byage") == 1


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
