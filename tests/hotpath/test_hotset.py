"""Hot-set derivation: roots, closure, edge-kind scoping, provenance.

The analyzer's precision hinges on the hot set being exactly the code
that executes on behalf of a declared root -- decorated functions and
scheduler pumps in, reference-only bindings and cold helpers out.
"""

from __future__ import annotations

from repro.analysis import analyze, build_callgraph, select_checks
from repro.analysis.reach import derive_hot_set
from tests.analysis.support import CONTRACTS_STUB, build_tree


def _build(tmp_path, files: dict[str, str]):
    project = build_tree(tmp_path,
                         {"common/contracts.py": CONTRACTS_STUB, **files})
    return project, derive_hot_set(build_callgraph(project))


def _hotpath(project):
    """The hotpath family's strict findings plus the run's hot set."""
    run = analyze(project, select_checks("hotpath"), profile="strict")
    return run.findings, run.context.hot_set


def _member(hotset, suffix: str) -> str | None:
    return next((f for f in hotset.members if f.endswith(suffix)), None)


class TestRootsAndClosure:
    def test_decorated_root_pulls_in_its_callees(self, tmp_path):
        _, hotset = _build(tmp_path, {"kv/engine.py": """
            from ..common.contracts import hot_path


            def encode(doc):
                return repr(doc)


            @hot_path
            def get(store, key):
                return encode(store[key])


            def cold_admin_sweep(stores):
                return [s for s in stores]
            """})
        assert _member(hotset, "engine.get")
        assert _member(hotset, "engine.encode")
        assert _member(hotset, "engine.cold_admin_sweep") is None
        root = _member(hotset, "engine.get")
        assert hotset.roots[root] == "@hot_path"

    def test_pump_registration_is_a_root(self, tmp_path):
        _, hotset = _build(tmp_path, {"kv/flusher.py": """
            class Flusher:
                def __init__(self, scheduler):
                    scheduler.register("kv.flusher", self._pump)

                def _pump(self):
                    return self._drain()

                def _drain(self):
                    return []
            """})
        pump = _member(hotset, "Flusher._pump")
        assert pump is not None
        assert hotset.roots[pump].startswith("pump:")
        # The pump's callees ride along without any decorator.
        assert _member(hotset, "Flusher._drain")

    def test_reference_only_binding_stays_cold(self, tmp_path):
        _, hotset = _build(tmp_path, {"kv/engine.py": """
            from ..common.contracts import hot_path


            class Engine:
                @hot_path
                def start(self):
                    self.on_close = self.cold_sweep
                    return True

                def cold_sweep(self):
                    return list(self.__dict__)
            """})
        assert _member(hotset, "Engine.start")
        # Storing a bound method is not running it: ``ref`` edges do
        # not extend the hot set.
        assert _member(hotset, "Engine.cold_sweep") is None

    def test_why_chain_traces_back_to_the_root(self, tmp_path):
        _, hotset = _build(tmp_path, {"kv/engine.py": """
            from ..common.contracts import hot_path


            def inner(doc):
                return doc


            def outer(doc):
                return inner(doc)


            @hot_path
            def get(store, key):
                return outer(store[key])
            """})
        why = hotset.why(_member(hotset, "engine.inner"))
        assert "@hot_path root" in why
        assert "get" in why and "outer" in why


class TestRuleScoping:
    def test_cold_code_is_not_scanned(self, tmp_path):
        project, _ = _build(tmp_path, {"tools/offline.py": """
            def rebuild_report(entries):
                lines = []
                while entries:
                    lines.append(entries.pop(0))
                return lines
            """})
        findings, hotset = _hotpath(project)
        assert findings == []
        assert hotset.members == set()

    def test_same_defect_in_hot_code_is_flagged(self, tmp_path):
        project, _ = _build(tmp_path, {"tools/online.py": """
            from ..common.contracts import hot_path


            @hot_path
            def rebuild_report(entries):
                lines = []
                while entries:
                    lines.append(entries.pop(0))
                return lines
            """})
        findings, _ = _hotpath(project)
        assert [f.check for f in findings] == ["list-shift"]
        # Findings carry the provenance of why the function is hot.
        assert "@hot_path root" in findings[0].message

    def test_defect_in_pulled_in_callee_is_flagged(self, tmp_path):
        project, _ = _build(tmp_path, {"tools/chain.py": """
            from ..common.contracts import hot_path


            def helper(entries):
                out = ""
                for entry in entries:
                    out += str(entry)
                return out


            @hot_path
            def render(entries):
                return helper(entries)
            """})
        findings, _ = _hotpath(project)
        assert [f.check for f in findings] == ["str-concat-in-loop"]
        assert "@hot_path root chain.render via" in findings[0].message
