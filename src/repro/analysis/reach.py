"""The hot set and the bounds scope: two closures over one call graph.

The **hot set** answers "which functions are performance-critical?".
It is the transitive closure of the tree's declared hot roots:

* functions carrying the ``@hot_path`` decorator
  (:mod:`repro.common.contracts`) -- KV engine ops, the smart client's
  RPC senders, the N1QL operator bodies, DCP stream steps;
* every pump or timer callable registered on the
  :class:`~repro.common.scheduler.Scheduler` (read off the call graph's
  :class:`~repro.analysis.callgraph.PumpRegistration` records, so a pump
  does not need a decorator to be guarded).

The **bounds scope** answers "which code runs forever or on behalf of
peers?".  A container that grows only during setup (wiring a cluster,
loading a fixture) is somebody's one-shot problem; a container that
grows on a path the scheduler or the RPC fabric re-enters indefinitely
is a leak.  Its roots are the hot set's plus every RPC handler reachable
through the fabric (``graph.rpc_handlers``) -- code a remote peer can
drive as often as it likes.  ``@hot_path`` roots stay in because the
smart client's senders sit *upstream* of the fabric, so pump/RPC
reachability alone would miss their retry loops.

Both close over ``call``/``method``/``rpc``/``partial``/``pump``/
``timer`` edges -- everything that can actually execute on behalf of a
root.  ``ref`` edges (a bound method stored without being called) are
excluded: storing a reference is not running it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import CallGraph
from .contracts import is_hot_root

#: Edge kinds that transfer execution to the callee.  ``ref`` is
#: reachability-only and would drag cold helper code into the hot set.
EXECUTING_KINDS = frozenset({"call", "method", "rpc", "partial", "pump",
                             "timer"})


@dataclass
class HotSet:
    """A derived function set plus enough provenance to explain it."""

    #: root fqn -> why it is a root ("@hot_path", "pump:<name>", "rpc:<name>").
    roots: dict[str, str] = field(default_factory=dict)
    #: member fqn -> the caller that pulled it in (None for roots);
    #: following this chain reaches a root, which is the explanation a
    #: finding prints ("hot via KVEngine.multi_get <- SmartClient._call").
    pulled_in_by: dict[str, str | None] = field(default_factory=dict)

    @property
    def members(self):
        """Every function in the set, roots included."""
        return self.pulled_in_by.keys()

    def __contains__(self, fqn: str) -> bool:
        return fqn in self.pulled_in_by

    def why(self, fqn: str, limit: int = 4) -> str:
        """Short provenance chain from ``fqn`` back to its root."""
        chain = [fqn]
        seen = {fqn}
        while True:
            parent = self.pulled_in_by.get(chain[-1])
            if parent is None or parent in seen:
                break
            chain.append(parent)
            seen.add(parent)
        root = chain[-1]
        reason = self.roots.get(root, "@hot_path")
        shown = chain[:limit]
        tail = " <- ".join(name.rsplit(".", 1)[-1] for name in shown[1:])
        origin = f"{reason} root {_short(root)}"
        if len(chain) == 1:
            return origin
        return f"{origin} via {tail}" if tail else origin


def _short(fqn: str) -> str:
    parts = fqn.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else fqn


def _pump_roots(graph: CallGraph, roots: dict[str, str]) -> None:
    for registration in graph.pumps:
        if registration.target in graph.project.functions:
            roots.setdefault(
                registration.target,
                f"{registration.kind}:{registration.name or '<dynamic>'}",
            )


def _hot_path_roots(graph: CallGraph, roots: dict[str, str]) -> None:
    for fqn, func in graph.project.functions.items():
        if is_hot_root(func):
            roots.setdefault(fqn, "@hot_path")


def _close(graph: CallGraph, roots: dict[str, str]) -> HotSet:
    return HotSet(roots=roots,
                  pulled_in_by=graph.closure(roots, EXECUTING_KINDS))


def derive_hot_set(graph: CallGraph) -> HotSet:
    """``@hot_path`` and pump/timer roots, closed over executing edges."""
    roots: dict[str, str] = {}
    _hot_path_roots(graph, roots)
    _pump_roots(graph, roots)
    return _close(graph, roots)


def derive_bounds_scope(graph: CallGraph) -> HotSet:
    """Pump/timer, RPC-handler and ``@hot_path`` roots, closed over
    executing edges.  Root provenance prefers the first family that
    claims a function, in that order."""
    roots: dict[str, str] = {}
    _pump_roots(graph, roots)
    for rpc_name, handlers in graph.rpc_handlers.items():
        for handler in handlers:
            if handler in graph.project.functions:
                roots.setdefault(handler, f"rpc:{rpc_name}")
    _hot_path_roots(graph, roots)
    return _close(graph, roots)
