"""Protocol coverage for the circuit breaker: the declared CircuitBreaker
lifecycle must be picked up by the proto family's inventory, and the inventory
must find exactly the breaker's real transition sites -- no more (no
unrelated ``state`` fields dragged in), no fewer (no invisible writes)."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.contracts import collect_protocols
from repro.analysis.project import Project
from repro.analysis.protocols import ProtoInventory

BREAKER = Path(repro.__file__).resolve().parent / "admission" / "breaker.py"


def breaker_inventory():
    project = Project.build([BREAKER])
    specs = collect_protocols(project)
    return specs, ProtoInventory(project, specs)


class TestBreakerProtocolCoverage:
    def test_declaration_is_discovered(self):
        specs, _inventory = breaker_inventory()
        assert "CircuitBreaker" in specs
        spec = specs["CircuitBreaker"]
        assert spec.kind == "field"
        assert spec.field == "state"
        assert spec.states == {"CLOSED", "OPEN", "HALF_OPEN"}
        assert ("CLOSED", "OPEN") in spec.transitions
        # The defect the proto checks found: OPEN->CLOSED is *not* declared.
        assert ("OPEN", "CLOSED") not in spec.transitions

    def test_binding_is_the_breakers_state_field(self):
        _specs, inventory = breaker_inventory()
        bindings = [b for b in inventory.bindings
                    if b.spec.name == "CircuitBreaker"]
        assert len(bindings) == 1
        assert bindings[0].attr == "state"
        assert bindings[0].owner.endswith("CircuitBreaker")

    def test_inventory_finds_exactly_the_transition_sites(self):
        _specs, inventory = breaker_inventory()
        sites = [s for s in inventory.sites
                 if s.binding.spec.name == "CircuitBreaker"]
        by_kind = {}
        for site in sites:
            by_kind.setdefault(site.kind, set()).add(
                site.func.rsplit(".", 1)[-1])
        # Establishment in __init__, one literal write per transition
        # method -- and nothing else touches the field.
        assert by_kind == {
            "init": {"__init__"},
            "write": {"_open", "_to_half_open", "_close"},
        }
        assert len(sites) == 4
        dsts = {s.func.rsplit(".", 1)[-1]: s.dst
                for s in sites if s.kind == "write"}
        assert dsts == {
            "_open": "OPEN",
            "_to_half_open": "HALF_OPEN",
            "_close": "CLOSED",
        }
