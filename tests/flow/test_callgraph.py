"""Call-graph builder edge cases: scheduler pumps and timers,
``functools.partial``, fabric dispatch-by-string (direct and through a
forwarder), ``__init__`` re-exports (eager and ``_LAZY``), and property
loads."""

from __future__ import annotations

from repro.analysis import build_callgraph
from tests.analysis.support import build_tree


def _build(tmp_path, files: dict[str, str]):
    """Write a mini ``repro`` tree and build its call graph."""
    return build_callgraph(build_tree(tmp_path, files))


def _edges(graph, kind: str) -> set[tuple[str, str]]:
    return {(e.caller, e.callee) for e in graph.edges if e.kind == kind}


class TestPumpsAndTimers:
    def test_scheduler_register_records_a_pump(self, tmp_path):
        graph = _build(tmp_path, {"cluster/manager.py": """
            class Manager:
                def __init__(self, scheduler):
                    self.scheduler = scheduler
                    self.scheduler.register("heartbeat", self._pump)

                def _pump(self):
                    return True
            """})
        assert [(p.kind, p.name, p.target) for p in graph.pumps] == [
            ("pump", "heartbeat", "repro.cluster.manager.Manager._pump"),
        ]
        # Registration is reachability, not invocation: a pump edge, not
        # a call edge.
        assert ("repro.cluster.manager.Manager.__init__",
                "repro.cluster.manager.Manager._pump") in _edges(graph, "pump")
        assert _edges(graph, "call") == set()

    def test_call_later_records_a_timer(self, tmp_path):
        graph = _build(tmp_path, {"cluster/manager.py": """
            class Manager:
                def __init__(self, scheduler):
                    self.scheduler = scheduler

                def arm(self):
                    self.scheduler.call_later(5.0, self._fire)

                def _fire(self):
                    return True
            """})
        assert [(p.kind, p.target) for p in graph.pumps] == [
            ("timer", "repro.cluster.manager.Manager._fire"),
        ]


class TestFunctoolsPartial:
    def test_partial_creates_a_partial_edge(self, tmp_path):
        graph = _build(tmp_path, {"cluster/worker.py": """
            import functools


            def work(bucket, key):
                return (bucket, key)


            def bind(bucket):
                return functools.partial(work, bucket)
            """})
        assert ("repro.cluster.worker.bind",
                "repro.cluster.worker.work") in _edges(graph, "partial")
        # partial() over-approximates reachability but is not a call.
        assert _edges(graph, "call") == set()

    def test_bare_partial_import_is_recognized(self, tmp_path):
        graph = _build(tmp_path, {"cluster/worker.py": """
            from functools import partial


            def work(key):
                return key


            def bind():
                return partial(work, "k")
            """})
        assert ("repro.cluster.worker.bind",
                "repro.cluster.worker.work") in _edges(graph, "partial")


class TestRpcDispatchByString:
    def test_direct_network_call_resolves_to_endpoint_method(self, tmp_path):
        graph = _build(tmp_path, {
            "cluster/node.py": """
            class Node:
                def __init__(self, network):
                    self.network = network
                    self.network.register("node1", self)

                def kv_get(self, bucket, key):
                    return (bucket, key)
            """,
            "client/basic.py": """
            class BasicClient:
                def __init__(self, network):
                    self.network = network

                def get(self, bucket, key):
                    return self.network.call("c", "node1", "kv_get",
                                             bucket, key)
            """,
        })
        assert ("repro.client.basic.BasicClient.get",
                "repro.cluster.node.Node.kv_get") in _edges(graph, "rpc")
        assert "repro.cluster.node.Node.kv_get" in \
            graph.rpc_handlers.get("kv_get", [])

    def test_forwarded_method_name_resolves_at_the_literal_site(
            self, tmp_path):
        """The smart-client pattern: ``_call`` forwards its ``method``
        parameter to ``network.call``; the rpc edge lands on the caller
        that passes the string literal."""
        graph = _build(tmp_path, {
            "cluster/node.py": """
            class Node:
                def __init__(self, network):
                    self.network = network
                    self.network.register("node1", self)

                def kv_get(self, bucket, key):
                    return (bucket, key)

                def kv_delete(self, bucket, key):
                    return None
            """,
            "client/smart.py": """
            class SmartClient:
                def __init__(self, network):
                    self.network = network

                def _call(self, method, bucket, key):
                    return self.network.call("c", "node1", method,
                                             bucket, key)

                def get(self, bucket, key):
                    return self._call("kv_get", bucket, key)
            """,
        })
        assert graph.forwarders == {
            "repro.client.smart.SmartClient._call": "method",
        }
        rpc = _edges(graph, "rpc")
        assert ("repro.client.smart.SmartClient.get",
                "repro.cluster.node.Node.kv_get") in rpc
        # No literal ever names kv_delete: no rpc edge reaches it.
        assert all(callee != "repro.cluster.node.Node.kv_delete"
                   for _caller, callee in rpc)

    def test_dynamically_attached_handler_resolves(self, tmp_path):
        """``node.gsi_apply = self.indexer.apply`` makes ``gsi_apply``
        dispatchable even though Node has no such method."""
        graph = _build(tmp_path, {
            "cluster/node.py": """
            class Node:
                def __init__(self, network):
                    self.network = network
                    self.network.register("node1", self)
            """,
            "gsi/indexer.py": """
            class Indexer:
                def apply(self, kv):
                    return kv


            class IndexService:
                def __init__(self, node):
                    self.indexer = Indexer()
                    node.gsi_apply = self.indexer.apply
            """,
            "gsi/coordinator.py": """
            class Coordinator:
                def __init__(self, network):
                    self.network = network

                def push(self, kv):
                    return self.network.call("co", "node1", "gsi_apply", kv)
            """,
        })
        assert ("repro.gsi.coordinator.Coordinator.push",
                "repro.gsi.indexer.Indexer.apply") in _edges(graph, "rpc")


class TestInitReexports:
    def test_eager_reexport_resolves_through_the_package(self, tmp_path):
        graph = _build(tmp_path, {
            "kv/__init__.py": "from .engine import KVEngine\n",
            "kv/engine.py": """
            class KVEngine:
                def get(self, key):
                    return key
            """,
            "cluster/node.py": """
            from ..kv import KVEngine


            class Node:
                def __init__(self):
                    self.engine = KVEngine()

                def read(self, key):
                    return self.engine.get(key)
            """,
        })
        assert ("repro.cluster.node.Node.read",
                "repro.kv.engine.KVEngine.get") in _edges(graph, "method")

    def test_lazy_reexport_resolves_through_the_package(self, tmp_path):
        graph = _build(tmp_path, {
            "n1ql/__init__.py": """
            _LAZY = {
                "Evaluator": ("expressions", "Evaluator"),
            }


            def __getattr__(name):
                module_name, attr = _LAZY[name]
                return None
            """,
            "n1ql/expressions.py": """
            class Evaluator:
                def evaluate(self, expr):
                    return expr
            """,
            "cluster/runner.py": """
            from ..n1ql import Evaluator


            class Runner:
                def __init__(self):
                    self.evaluator = Evaluator()

                def run(self, expr):
                    return self.evaluator.evaluate(expr)
            """,
        })
        assert ("repro.cluster.runner.Runner.run",
                "repro.n1ql.expressions.Evaluator.evaluate") in \
            _edges(graph, "method")


class TestPropertyLoads:
    def test_property_load_is_a_method_edge(self, tmp_path):
        """Reading a property executes its body: exception flow must
        cross the attribute load."""
        graph = _build(tmp_path, {"cluster/facade.py": """
            class Inner:
                def connect(self):
                    return self


            class Facade:
                def __init__(self):
                    self.inner = Inner()

                @property
                def client(self):
                    return self.inner.connect()

                def use(self):
                    return self.client
            """})
        assert ("repro.cluster.facade.Facade.use",
                "repro.cluster.facade.Facade.client") in \
            _edges(graph, "method")
