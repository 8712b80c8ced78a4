"""Per-rule self-tests of the lint family: each rule gets at least one
inline source that must fire and one clean source that must not.

Sources are handed to :func:`tests.analysis.support.analyze_sources`
under an explicit dotted module name so package-scoped rules
(missing-null) see the module they would in the tree.
"""

from __future__ import annotations

from tests.analysis.support import analyze_sources


def run(source: str, module: str = "repro.kv.fixture",
        profile: str = "strict", check: str = "lint"):
    return analyze_sources({module: source}, check=check, profile=profile)


def rule_names(findings):
    return sorted({f.check for f in findings})


# -- no-wall-clock ----------------------------------------------------------


def test_wall_clock_module_call_fires():
    violations = run("""
        import time

        def stamp():
            return time.time()
    """)
    assert rule_names(violations) == ["no-wall-clock"]
    assert violations[0].line == 5


def test_wall_clock_aliased_import_fires():
    violations = run("""
        import time as wall

        def nap():
            wall.sleep(1)
    """)
    assert rule_names(violations) == ["no-wall-clock"]


def test_wall_clock_from_import_fires():
    violations = run("""
        from time import perf_counter
    """)
    assert rule_names(violations) == ["no-wall-clock"]


def test_wall_clock_datetime_now_fires():
    violations = run("""
        import datetime

        def today():
            return datetime.datetime.now()
    """)
    assert rule_names(violations) == ["no-wall-clock"]


def test_wall_clock_clean_clock_use():
    violations = run("""
        def stamp(clock):
            return clock.now()
    """)
    assert violations == []


# -- no-unseeded-random -----------------------------------------------------


def test_unseeded_module_function_fires():
    violations = run("""
        import random

        def pick():
            return random.random()
    """)
    assert rule_names(violations) == ["no-unseeded-random"]


def test_unseeded_random_instance_fires():
    violations = run("""
        import random

        rng = random.Random()
    """)
    assert rule_names(violations) == ["no-unseeded-random"]


def test_from_import_random_function_fires():
    violations = run("""
        from random import choice
    """)
    assert rule_names(violations) == ["no-unseeded-random"]


def test_seeded_random_is_clean():
    violations = run("""
        import random

        rng = random.Random(42)
    """)
    assert violations == []


# -- layer-restricted --------------------------------------------------------
#
# The known-bad and known-good sources of the retired lint rule
# ``no-cross-service-reach-through``: flow's ``layer-restricted`` forbids
# the same importers of ``repro.kv.engine`` (and exempts
# ``TYPE_CHECKING`` the same way), so the same inputs pin it.

KV_STUBS = {
    "repro.kv.engine": "class KVEngine:\n    pass\n",
    "repro.kv.types": "class MutationResult:\n    pass\n\n\n"
                      "class VBucketState:\n    pass\n",
}


def run_layers(source: str, module: str):
    return analyze_sources({**KV_STUBS, module: source},
                           check="layer-restricted,layer-violation")


def test_client_importing_kv_engine_fires():
    violations = run_layers("""
        from ..kv.engine import KVEngine
    """, module="repro.client.fixture")
    assert rule_names(violations) == ["layer-restricted"]


def test_absolute_engine_import_fires():
    violations = run_layers("""
        from repro.kv.engine import KVEngine
    """, module="repro.n1ql.fixture")
    assert rule_names(violations) == ["layer-restricted"]


def test_kv_types_import_is_clean():
    violations = run_layers("""
        from ..kv.types import MutationResult, VBucketState
    """, module="repro.client.fixture")
    assert violations == []


def test_engine_import_inside_kv_is_clean():
    violations = run_layers("""
        from .engine import KVEngine
    """, module="repro.kv.fixture")
    assert violations == []


def test_type_checking_engine_import_is_clean():
    violations = run_layers("""
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from ..kv.engine import KVEngine
    """, module="repro.views.fixture")
    assert violations == []


# -- error-taxonomy ---------------------------------------------------------


def test_bare_value_error_fires():
    violations = run("""
        def lookup(key):
            raise ValueError(f"bad key {key}")
    """)
    assert rule_names(violations) == ["error-taxonomy"]


def test_bare_runtime_error_fires():
    violations = run("""
        def drive():
            raise RuntimeError("stuck")
    """)
    assert rule_names(violations) == ["error-taxonomy"]


def test_constructor_validation_is_allowed():
    violations = run("""
        class Config:
            def __init__(self, replicas):
                if replicas < 0:
                    raise ValueError("replicas must be >= 0")
    """)
    assert violations == []


def test_taxonomy_error_is_clean():
    violations = run("""
        from ..common.errors import InvalidArgumentError

        def lookup(key):
            raise InvalidArgumentError(f"bad key {key}")
    """)
    assert violations == []


# -- pump-contract ----------------------------------------------------------


def test_unannotated_pump_fires():
    violations = run("""
        class Flusher:
            def pump(self):
                return True
    """)
    assert rule_names(violations) == ["pump-contract"]


def test_unbounded_drain_fires():
    violations = run("""
        class Flusher:
            def pump(self) -> bool:
                while True:
                    self.queue.pop()
    """)
    assert rule_names(violations) == ["pump-contract"]


def test_bounded_pump_is_clean():
    violations = run("""
        class Flusher:
            def pump(self) -> bool:
                batch = self.queue[:10]
                for item in batch:
                    self.write(item)
                return bool(batch)
    """)
    assert violations == []


# -- metrics-naming ---------------------------------------------------------


def test_computed_metric_name_fires():
    violations = run("""
        def record(metrics, name):
            metrics.inc(name)
    """)
    assert rule_names(violations) == ["metrics-naming"]


def test_badly_cased_metric_name_fires():
    violations = run("""
        def record(metrics):
            metrics.observe("N1QL.ParseSeconds", 0.1)
    """)
    assert rule_names(violations) == ["metrics-naming"]


def test_undotted_metric_name_fires():
    violations = run("""
        def record(metrics):
            metrics.inc("requests")
    """)
    assert rule_names(violations) == ["metrics-naming"]


def test_dotted_literal_metric_name_is_clean():
    violations = run("""
        class Service:
            def record(self):
                self.node.metrics.inc("n1ql.plan_cache.hit")
    """)
    assert violations == []


# -- missing-null-discipline ------------------------------------------------


def test_eq_none_in_n1ql_fires():
    violations = run("""
        def project(row):
            return row == None
    """, module="repro.n1ql.fixture")
    assert rule_names(violations) == ["missing-null-discipline"]


def test_eq_none_outside_n1ql_is_ignored():
    violations = run("""
        def project(row):
            return row == None  # noqa: E711
    """, module="repro.kv.fixture")
    assert violations == []


# -- no-pump-reentrancy -----------------------------------------------------


def test_pump_calling_run_until_idle_fires():
    violations = run("""
        class Flusher:
            def pump(self) -> bool:
                self.node.scheduler.run_until_idle()
                return True
    """, check="no-pump-reentrancy")
    assert rule_names(violations) == ["no-pump-reentrancy"]


def test_pump_calling_step_or_advance_fires():
    violations = run("""
        def _pump() -> bool:
            scheduler.step()
            clock_owner.advance(1.0)
            return False
    """, check="no-pump-reentrancy")
    assert len(violations) == 2
    assert rule_names(violations) == ["no-pump-reentrancy"]


def test_pump_draining_its_queue_is_clean():
    violations = run("""
        class Views:
            def pump(self) -> bool:
                for message in self.stream.take(64):
                    self.apply(message)
                return True
    """, check="no-pump-reentrancy")
    assert violations == []


def test_drive_calls_outside_pumps_are_fine():
    violations = run("""
        def settle(cluster):
            cluster.scheduler.run_until_idle()
    """, check="no-pump-reentrancy")
    assert violations == []


# -- declared-shared-state --------------------------------------------------


def test_undeclared_module_counter_fires():
    violations = run("""
        import itertools

        _ids = itertools.count(1)
    """, check="declared-shared-state")
    assert rule_names(violations) == ["declared-shared-state"]


def test_declared_module_counter_is_clean():
    violations = run("""
        import itertools

        __shared_state__ = ("_ids",)
        _ids = itertools.count(1)
    """, check="declared-shared-state")
    assert violations == []


def test_undeclared_global_statement_fires():
    violations = run("""
        TOTAL = 0

        def bump():
            global TOTAL
            TOTAL += 1
    """, check="declared-shared-state")
    assert rule_names(violations) == ["declared-shared-state"]


def test_declared_global_statement_is_clean():
    violations = run("""
        __shared_state__ = ("TOTAL",)
        TOTAL = 0

        def bump():
            global TOTAL
            TOTAL += 1
    """, check="declared-shared-state")
    assert violations == []


def test_lowercase_mutable_display_fires():
    violations = run("""
        _registry = {}
    """, check="declared-shared-state")
    assert rule_names(violations) == ["declared-shared-state"]


def test_constant_case_display_is_treated_as_frozen():
    violations = run("""
        KNOWN_KINDS = ["kv", "views", "gsi"]
        _TABLE = {"a": 1}
    """, check="declared-shared-state")
    assert violations == []


def test_function_local_state_is_not_module_state():
    violations = run("""
        import itertools

        def make():
            ids = itertools.count(1)
            seen = {}
            return ids, seen
    """, check="declared-shared-state")
    assert violations == []


def test_suppression_comment_still_works():
    violations = run("""
        _cache = {}  # repro: disable=declared-shared-state
    """, check="declared-shared-state")
    assert violations == []
