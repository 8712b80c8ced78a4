"""The write-race tracker.

During a sanitized run the scheduler reports pump entry/exit, the
network fabric reports mediated dispatch, and the instrumented choke
points (:mod:`repro.common.tracing`) report shared-structure writes and
queue takes.  From those events this tracker flags two shapes of race:

* **unmediated cross-pump write** -- a pump mutated a structure it does
  not own without going through the network fabric.  Ownership is by
  naming convention: the pumps of a KV engine ``kv/<node>/<bucket>`` are
  its flusher and compactor; a view index ``views/<node>/<bucket>`` is
  owned by that node's view pump; GSI storage ``gsi/<node>/<index>`` is
  owned by that node's indexer pump ``indexer/<node>``, which commits
  held key versions (everything else reaches it over RPC: the projector
  routes key versions, the coordinator's barrier registers a wait).
  Everything else must either run on the frontend (no pump active) or
  arrive via :meth:`repro.common.transport.Network.call`.

* **queue theft** -- a DCP stream is a single-consumer queue: the first
  pump to ``take()`` from it claims it, and any other pump taking from
  the same stream later races the owner for messages (each message is
  delivered once, so whoever loses silently misses mutations).

Frontend code (no pump active -- test drivers, timer callbacks, client
calls) is never flagged: interleaving only exists between pumps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RaceFinding:
    """One detected violation of the pump-ownership discipline."""

    kind: str  # "unmediated-write" | "queue-theft"
    pump: str  # scheduler-qualified pump name, e.g. "east:xdcr/b->b"
    target: str  # ownership tag or stream id
    detail: str

    def format(self) -> str:
        return f"{self.kind}: pump {self.pump!r} -> {self.target}: {self.detail}"


def allowed_writers(tag: str) -> frozenset[str]:
    """Pump names (local to their scheduler) allowed to mutate ``tag``
    directly, derived from the registration naming convention."""
    kind, _, rest = tag.partition("/")
    if kind == "kv":
        return frozenset({f"flusher/{rest}", f"compactor/{rest}"})
    if kind == "views":
        return frozenset({f"views/{rest}"})
    if kind == "gsi":
        return frozenset({f"indexer/{rest.partition('/')[0]}"})
    return frozenset()


class WriteRaceTracker:
    """Collects :class:`RaceFinding` objects for one sanitized run.

    Implements the :class:`repro.common.tracing.Tracker` protocol; the
    sanitizer installs one instance per scenario execution.
    """

    def __init__(self) -> None:
        self.findings: list[RaceFinding] = []
        self.writes_seen = 0
        self.takes_seen = 0
        self._pump_stack: list[str] = []
        self._mediation_depth = 0
        #: stream id -> scheduler-qualified name of the claiming pump.
        self._stream_owners: dict[str, str] = {}
        self._reported: set[tuple[str, str, str]] = set()

    # -- scheduler / network hooks ---------------------------------------------

    def enter_pump(self, name: str) -> None:
        self._pump_stack.append(name)

    def exit_pump(self) -> None:
        if self._pump_stack:
            self._pump_stack.pop()

    def enter_mediated(self) -> None:
        self._mediation_depth += 1

    def exit_mediated(self) -> None:
        if self._mediation_depth:
            self._mediation_depth -= 1

    # -- choke-point events -----------------------------------------------------

    def record_write(self, tag: str) -> None:
        self.writes_seen += 1
        if not self._pump_stack or self._mediation_depth:
            return  # frontend/timer code, or a declared RPC hand-off
        pump = self._pump_stack[-1]
        local = pump.split(":", 1)[-1]
        if local in allowed_writers(tag):
            return
        self._report(
            "unmediated-write", pump, tag,
            f"wrote {tag} directly; only {sorted(allowed_writers(tag)) or 'RPC'}"
            " may touch it outside the network fabric",
        )

    def record_take(self, stream_id: str) -> None:
        self.takes_seen += 1
        if not self._pump_stack or self._mediation_depth:
            return  # frontend consumers (rebalance movers, tests) are fine
        pump = self._pump_stack[-1]
        owner = self._stream_owners.setdefault(stream_id, pump)
        if owner == pump:
            return
        self._report(
            "queue-theft", pump, stream_id,
            f"took from a stream owned by {owner!r}; DCP streams are "
            "single-consumer queues",
        )

    # -- internals ---------------------------------------------------------------

    def _report(self, kind: str, pump: str, target: str, detail: str) -> None:
        key = (kind, pump, target)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(RaceFinding(kind, pump, target, detail))
