"""Tests for prepared statements (plan caching) and view-index file
compaction."""

import pytest

from repro import Cluster
from repro.common.errors import N1qlSemanticError
from repro.common.disk import SimulatedDisk
from repro.views.mapreduce import ViewDefinition
from repro.views.viewindex import ViewIndex, ViewQueryParams


@pytest.fixture
def cluster():
    cluster = Cluster(nodes=2, vbuckets=16)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for i in range(30):
        client.upsert("b", f"u{i:02d}", {"age": 20 + i % 5, "name": f"n{i:02d}"})
    cluster.run_until_idle()
    cluster.query("CREATE INDEX by_age ON b(age) USING GSI")
    return cluster


class TestPreparedStatements:
    def test_prepare_and_execute(self, cluster):
        prepared = cluster.query(
            "PREPARE hot FROM SELECT x.name FROM b x WHERE x.age = $1")
        assert prepared.rows[0]["name"] == "hot"
        rows = cluster.query("EXECUTE hot", params={"1": 22},
                             scan_consistency="request_plus").rows
        assert len(rows) == 6
        assert all(r["name"].startswith("n") for r in rows)

    def test_execute_with_different_params(self, cluster):
        cluster.query("PREPARE q FROM SELECT COUNT(*) AS n FROM b x "
                      "WHERE x.age >= $lo")
        low = cluster.query("EXECUTE q", params={"lo": 24},
                            scan_consistency="request_plus").rows[0]["n"]
        all_of_them = cluster.query("EXECUTE q", params={"lo": 0},
                                    scan_consistency="request_plus").rows[0]["n"]
        assert low == 6
        assert all_of_them == 30

    def test_auto_named(self, cluster):
        result = cluster.query("PREPARE SELECT 1 AS one")
        name = result.rows[0]["name"]
        assert cluster.query(f"EXECUTE {name}").rows == [{"one": 1}]

    def test_execute_unknown(self, cluster):
        with pytest.raises(N1qlSemanticError):
            cluster.query("EXECUTE nonesuch")

    def test_prepare_non_select_rejected(self, cluster):
        with pytest.raises(N1qlSemanticError):
            cluster.query('PREPARE p2 FROM DELETE FROM b x USE KEYS "u01"')

    def test_prepared_plan_stable_without_ddl(self, cluster):
        """With no DDL in between, EXECUTE reuses the exact plan object
        built at PREPARE time (no silent re-planning per request)."""
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        cluster.query("PREPARE stable FROM SELECT x.name FROM b x "
                      "WHERE x.name = 'n01'")
        from repro.common.services import Service
        service = cluster.service_node(Service.QUERY).query_service
        plan_before = service.prepared["stable"].plan
        assert type(plan_before.operators[0]).__name__ == "PrimaryScan"
        for _ in range(3):
            rows = cluster.query("EXECUTE stable",
                                 scan_consistency="request_plus").rows
            assert rows == [{"name": "n01"}]
        assert service.prepared["stable"].plan is plan_before

    def test_prepared_plan_replanned_after_ddl(self, cluster):
        """Index DDL moves the catalog epoch, so the next EXECUTE
        re-plans from the stored AST — the stale-plan bug where a
        prepared IndexScan silently survived DROP INDEX is gone, and a
        better index created after PREPARE gets picked up too."""
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        cluster.query("PREPARE hotpath FROM SELECT x.name FROM b x "
                      "WHERE x.name = 'n01'")
        from repro.common.services import Service
        service = cluster.service_node(Service.QUERY).query_service
        plan_before = service.prepared["hotpath"].plan
        assert type(plan_before.operators[0]).__name__ == "PrimaryScan"
        cluster.query("CREATE INDEX by_name ON b(name) USING GSI")
        rows = cluster.query("EXECUTE hotpath",
                             scan_consistency="request_plus").rows
        assert rows == [{"name": "n01"}]
        plan_after = service.prepared["hotpath"].plan
        assert plan_after is not plan_before
        scan = plan_after.operators[0]
        assert type(scan).__name__ == "IndexScan"
        assert scan.index_name == "by_name"

    def test_prepared_faster_than_adhoc(self, cluster):
        """Skipping parse+plan must not be slower than re-doing it.

        Ad-hoc statements now hit the plan cache too, which would make
        both sides identical -- clear it each round so the ad-hoc loop
        really pays for parse+plan."""
        import time
        from repro.common.services import Service
        service = cluster.service_node(Service.QUERY).query_service
        cluster.query("PREPARE speed FROM SELECT x.name FROM b x "
                      "WHERE x.age = $1")
        n = 50
        start = time.perf_counter()
        for _ in range(n):
            service.plan_cache.clear()
            cluster.query("SELECT x.name FROM b x WHERE x.age = $1",
                          params={"1": 22})
        adhoc = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            cluster.query("EXECUTE speed", params={"1": 22})
        prepared = time.perf_counter() - start
        assert prepared < adhoc * 1.1  # at worst comparable, usually faster


class TestViewIndexCompaction:
    def make_index(self):
        definition = ViewDefinition("dd", "v", lambda d, m, e: None)
        return ViewIndex(definition, SimulatedDisk(), "v.view")

    def test_manual_compaction_shrinks_file(self):
        index = self.make_index()
        for round_number in range(200):
            index.update_docs([("hot", 0, [(round_number, None)])])
        before = index.log.size
        index.compact()
        assert index.log.size < before
        rows = list(index.scan(ViewQueryParams()))
        assert [r["key"] for r in rows] == [199]

    def test_compaction_preserves_reduce(self):
        definition = ViewDefinition("dd", "v", lambda d, m, e: None, "_count")
        index = ViewIndex(definition, SimulatedDisk(), "v.view")
        for i in range(50):
            index.update_docs([(f"d{i}", 0, [(i, None)])])
        index.compact()
        assert index.reduce(ViewQueryParams()) == 50

    def test_auto_compaction_after_threshold(self):
        index = self.make_index()
        index.COMPACT_EVERY = 100
        for round_number in range(250):
            index.update_docs([("hot", 0, [(round_number, None)])])
        assert index.compactions >= 2
        assert list(index.scan(ViewQueryParams()))[0]["key"] == 249

    def test_back_index_survives_compaction(self):
        index = self.make_index()
        index.update_docs([("d1", 0, [("a", 1)])])
        for i in range(30):
            index.update_docs([("d2", 0, [(f"k{i}", i)])])
        index.compact()
        index.update_docs([("d1", 0, [("z", 2)])])  # replaces the old row
        rows = list(index.scan(ViewQueryParams()))
        keys = [r["key"] for r in rows]
        assert "a" not in keys and "z" in keys

    def test_vbucket_masking_survives_compaction(self):
        index = self.make_index()
        index.update_docs([("d1", 0, [("a", 1)])])
        index.update_docs([("d2", 1, [("b", 2)])])
        index.compact()
        rows = list(index.scan(ViewQueryParams(), active_vbuckets={0}))
        assert [r["id"] for r in rows] == ["d1"]
