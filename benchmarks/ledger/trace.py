"""Benchmark-owned tracing: spans around each layer's public entry points.

A :class:`Tracer` installs class-level wrappers *before* a cluster is
built (pumps, the fabric's admission filter and the index service's RPC
surface capture bound methods at construction, so a later install would
miss them) and removes them afterwards.  A span is ``(name, start, end,
parent, op_id, value)`` held in parallel lists; nothing is written out
until the run ends.  A layer is a module name under ``src/repro/``.

The tracing-off run never constructs a :class:`Tracer`, so it pays for
no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Iterator

LAYERS = ("client", "admission", "transport", "node", "kv", "storage",
          "disk", "dcp", "replication", "gsi", "views", "n1ql", "scheduler")

#: Pump kinds, the first ``/``-segment of a registered pump's name;
#: ``cluster-manager`` is reported as ``manager``.
PUMP_KINDS = ("flusher", "replicator", "projector", "compactor", "views",
              "manager")


def _items_in(position: int) -> Callable[[tuple, Any], int]:
    return lambda args, _result: len(args[position])


def _items_out(_args: tuple, result: Any) -> int:
    return len(result)


#: ``(layer, module, class, method names, value reader)``.  ``"kv_*"``
#: expands to every RPC method of the node; a ``None`` class names
#: module-level functions, patched in every ``repro`` module that
#: imported them by name.  The value reader gives a span's ``value``, one
#: number read off the call (a batch size, a byte count); ``"iterator"``
#: marks a callee that returns a lazy iterator.
ENTRY_POINTS: tuple[tuple[str, str, str | None, tuple[str, ...], Any], ...] = (
    ("client", "repro.client.smart_client", "SmartClient",
     ("get", "upsert", "insert", "remove", "multi_get", "multi_upsert",
      "query", "_refresh_map"), None),
    ("admission", "repro.admission.controller", "AdmissionController",
     ("acquire", "fabric_filter", "admit_query", "backoff"), None),
    ("transport", "repro.common.transport", "Network", ("call",), None),
    ("transport", "repro.common.transport", "Network", ("call_fanout",),
     _items_in(2)),
    ("node", "repro.cluster.node", "Node", ("kv_*",), None),
    ("kv", "repro.kv.engine", "KVEngine",
     ("get", "upsert", "insert", "delete", "multi_get", "multi_mutate",
      "observe", "apply_replicated_batch", "flush", "run_compactor",
      "run_item_pager"), None),
    ("storage", "repro.storage.couchstore", "VBucketStore",
     ("save_docs",), _items_in(1)),
    ("storage", "repro.storage.couchstore", "VBucketStore",
     ("write_header", "get"), None),
    ("storage", "repro.storage.btree", "BTree",
     ("lookup", "batch_update"), None),
    ("storage", "repro.storage.btree", "BTree", ("range",), "iterator"),
    ("storage", "repro.storage.compaction", "Compactor", ("compact",), None),
    ("disk", "repro.common.disk", "SimulatedFile", ("append",), _items_in(1)),
    ("disk", "repro.common.disk", "SimulatedFile", ("read", "sync"), None),
    ("dcp", "repro.dcp.producer", "DcpStream", ("take",), _items_out),
    ("replication", "repro.replication.intra", "IntraReplicator",
     ("pump",), None),
    ("gsi", "repro.gsi.projector", "Projector", ("pump",), None),
    ("gsi", "repro.gsi.projector", "Router", ("route",), None),
    ("gsi", "repro.gsi.indexer", "Indexer",
     ("apply", "scan", "scan_page", "scan_aggregate"), None),
    ("gsi", "repro.gsi.manager", "GsiCoordinator",
     ("scan", "scan_aggregate"), None),
    ("views", "repro.views.engine", "ViewEngine", ("pump",), None),
    ("n1ql", "repro.n1ql.parser", None, ("parse",), None),
    ("n1ql", "repro.n1ql.planner", "Planner", ("plan_select",), None),
    ("n1ql", "repro.n1ql.pipeline", None, ("execute_plan",), "iterator"),
    ("n1ql", "repro.n1ql.service", "QueryService", ("query",), None),
    ("scheduler", "repro.common.scheduler", "Scheduler", ("step",), None),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.values: list[int] = []
        #: Index of the innermost open span, -1 outside any span.
        self.current = -1
        #: Identifier shared by the spans of one request; the driver sets
        #: it per op and resets it to -1 for background slices.
        self.op_id = -1
        #: Wrappers record only while this is set (the timed phase), so
        #: the traced run's set-up costs what an untraced one does.
        self.recording = False
        self.layer_of: dict[str, str] = {
            f"pump.{kind}": "scheduler" for kind in PUMP_KINDS
        }
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self.current)
        self.op_ids.append(self.op_id)
        self.values.append(0)
        self.ends.append(0.0)
        self.current = index
        self.starts.append(self.clock())
        return index

    def exit(self, index: int, value: int = 0) -> None:
        self.ends[index] = self.clock()
        self.values[index] = value
        self.current = self.parents[index]

    def _traced(self, name: str, fn: Callable, read_value) -> Callable:
        enter, exit_ = self.enter, self.exit

        if read_value == "iterator":
            # The callee hands back a lazy iterator (a generator, or the
            # N1QL pipeline): the work happens in the consumer's next()
            # calls, so each resumption is its own span.
            def resume(iterator: Iterator) -> Iterator:
                while True:
                    index = enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_(index)
                    yield item

            @functools.wraps(fn)
            def traced_iterator(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                return resume(iter(fn(*args, **kwargs)))

            return traced_iterator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = enter(name)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if read_value is not None:
                    value = read_value(args, result)
                return result
            finally:
                exit_(index, value)

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call before the cluster is built."""
        # Load every module first: the module-level functions are patched
        # wherever they were imported by name (the query service, DML).
        modules = {entry[1]: importlib.import_module(entry[1])
                   for entry in ENTRY_POINTS}
        for layer, module_name, class_name, methods, read_value in ENTRY_POINTS:
            module = modules[module_name]
            if class_name is None:
                for method in methods:
                    self.layer_of[method] = layer
                    self._patch_function(getattr(module, method), method,
                                         read_value)
                continue
            owner = getattr(module, class_name)
            for method in methods:
                if method.endswith("*"):
                    expanded = sorted(n for n in vars(owner)
                                      if n.startswith(method[:-1]))
                else:
                    expanded = [method]
                for attr in expanded:
                    name = f"{class_name}.{attr}"
                    self.layer_of[name] = layer
                    self._patch(owner, attr,
                                self._traced(name, vars(owner)[attr],
                                             read_value))
        self._patch_register()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, original: Callable, name: str,
                        read_value) -> None:
        # ``from .parser import parse`` copies the function into the
        # importer's namespace, so patch every module that holds it.
        replacement = self._traced(name, original, read_value)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro."):
                continue
            if vars(module).get(name) is original:
                self._patch(module, name, replacement)

    def _patch_register(self) -> None:
        """Time every pump registered from now on under its kind, through
        the scheduler's public ``register`` (no scheduler privates)."""
        from repro.common.scheduler import Scheduler
        original = vars(Scheduler)["register"]

        def pump_progressed(_args: tuple, result: Any) -> int:
            return 1 if result else 0

        @functools.wraps(original)
        def register(scheduler, name: str, pump: Callable) -> None:
            kind = name.split("/", 1)[0]
            kind = "manager" if kind == "cluster-manager" else kind
            span_name = f"pump.{kind}"
            self.layer_of.setdefault(span_name, "scheduler")
            original(scheduler, name,
                     self._traced(span_name, pump, pump_progressed))

        self._patch(Scheduler, "register", register)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- arithmetic ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans.  Children of
        one parent run one after another on one thread, so the covered
        time is the sum of the direct children's durations."""
        self_times = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_times[parent] -= self.ends[index] - self.starts[index]
        return self_times

    def by_layer(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, spans)``."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for name, own in zip(self.names, self.self_times()):
            entry = totals[self.layer_of[name]]
            entry[0] += own
            entry[1] += 1
        return {layer: (own, calls) for layer, (own, calls) in totals.items()}

    def by_name(self) -> dict[str, tuple[int, float, int]]:
        """``span name -> (spans, total seconds, total value)``."""
        totals: dict[str, list] = {}
        for name, start, end, value in zip(self.names, self.starts,
                                           self.ends, self.values):
            entry = totals.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += value
        return {name: tuple(entry) for name, entry in totals.items()}

    def under(self, ancestor: str) -> list[bool]:
        """Per span: does it have an ancestor span named ``ancestor``?
        Parents are recorded before their children, so one pass does."""
        flags: list[bool] = []
        for parent in self.parents:
            flags.append(parent >= 0 and (self.names[parent] == ancestor
                                          or flags[parent]))
        return flags

    def sum_under(self, name: str, ancestor: str) -> tuple[int, int]:
        """``(spans, total value)`` of spans ``name`` below ``ancestor``."""
        flags = self.under(ancestor)
        count = total = 0
        for index, span_name in enumerate(self.names):
            if span_name == name and flags[index]:
                count += 1
                total += self.values[index]
        return count, total

    def first_descendant_delays(self, ancestor: str,
                                descendants: tuple[str, ...]
                                ) -> dict[int, float]:
        """For each ``ancestor`` span that has a descendant named in
        ``descendants``: seconds from its start to the first one's start,
        keyed by the ancestor's span index."""
        delays: dict[int, float] = {}
        for index, name in enumerate(self.names):
            if name not in descendants:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != ancestor:
                parent = self.parents[parent]
            if parent >= 0 and parent not in delays:
                delays[parent] = self.starts[index] - self.starts[parent]
        return delays

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent, op, value."""
        with open(path, "w", encoding="utf-8") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.op_ids, self.values):
                out.write(json.dumps(row))
                out.write("\n")
