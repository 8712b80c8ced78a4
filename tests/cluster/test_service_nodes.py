"""The manager keeps one node list per service, recomputed on each change
of membership, and a query goes to the first live query node by name."""

from __future__ import annotations

from repro import Cluster
from repro.common.services import Service
from repro.n1ql.service import QueryService


def test_queries_route_through_membership_changes(monkeypatch):
    cluster = Cluster(nodes=[("d1", {"data", "index"}),
                             ("d2", {"data", "index"}),
                             ("q2", {"query"}), ("q3", {"query"})],
                      vbuckets=8)
    cluster.create_bucket("b", replicas=1)
    cluster.connect().upsert("b", "k", {"v": 1})
    cluster.run_until_idle()
    served: list[str] = []
    query = QueryService.query

    def recorded(self, *args, **kwargs):
        served.append(self.node.name)
        return query(self, *args, **kwargs)

    monkeypatch.setattr(QueryService, "query", recorded)

    def route() -> str:
        served.clear()
        rows = cluster.query('SELECT b.v FROM b USE KEYS "k"').rows
        assert rows == [{"v": 1}]
        assert len(served) == 1
        return served[0]

    assert route() == "q2"
    cluster.add_node("q1", services=("query",))
    assert route() == "q1"
    cluster.failover("q1")
    assert route() == "q2"
    cluster.crash_node("q2")
    assert route() == "q3"
    cluster.restart_node("q2")
    assert route() == "q2"
    cluster.remove_node("q2")
    assert route() == "q3"
    manager = cluster.manager
    assert manager.nodes_with_service(Service.QUERY) == ["q3"]
    assert manager.data_nodes() == ["d1", "d2"]
    assert manager.nodes_with_service(Service.INDEX) == ["d1", "d2"]
