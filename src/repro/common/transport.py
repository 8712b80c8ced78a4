"""In-process network fabric.

The real cluster is shared-nothing nodes on a LAN; here every node lives
in one Python process and "RPC" is a method call routed through a
:class:`Network`.  Routing through a central object buys three things:

* **fault injection** -- nodes can be marked down and node pairs can be
  partitioned, and every call re-checks reachability, which is what the
  failure-detection and failover tests exercise (section 4.3.1);
* **latency accounting** -- every wave of calls is charged a configurable
  virtual latency, used by the YCSB cost model (appendix 10.1): a
  :meth:`Network.call` is one wave, and so is a :meth:`Network.call_fanout`
  or :meth:`Network.scatter` however many nodes it reaches; and
* **observability** -- a per-(service, method) call counter that tests use
  to assert, e.g., that a key-value get touched exactly one node
  (section 3.1.1: "only the cluster node hosting the data with that key
  will be contacted").
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from . import tracing
from .errors import InvalidArgumentError, NodeDownError


class Network:
    """Registry of endpoints plus fault state."""

    def __init__(self, default_latency: float = 0.0):
        self._endpoints: dict[str, Any] = {}
        self._down: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        self.default_latency = default_latency
        self.calls: Counter[tuple[str, str]] = Counter()
        #: Total virtual seconds of latency charged so far.
        self.latency_charged = 0.0
        #: Optional admission hook ``(src, dst, method) -> None`` run
        #: before every dispatch.  Duck-typed so ``common`` does not
        #: depend on the admission layer; the cluster facade installs
        #: the controller's filter.
        self.call_filter = None

    # -- membership ----------------------------------------------------------

    def register(self, name: str, endpoint: Any) -> None:
        self._endpoints[name] = endpoint

    def unregister(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def endpoint(self, name: str) -> Any:
        """Raw access to an endpoint (bypasses fault simulation); only
        test code and the cluster bootstrapper should use this."""
        return self._endpoints[name]

    def names(self) -> list[str]:
        return sorted(self._endpoints)

    # -- fault injection -------------------------------------------------------

    def set_down(self, name: str, down: bool = True) -> None:
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def is_down(self, name: str) -> bool:
        return name in self._down

    def partition(self, a: str, b: str) -> None:
        """Sever connectivity between ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str | None = None, b: str | None = None) -> None:
        """Heal partitions: ``heal()`` clears every partition,
        ``heal(a)`` removes *all* partitions involving node ``a``, and
        ``heal(a, b)`` removes just that pair."""
        if a is None:
            if b is not None:
                raise InvalidArgumentError(
                    "heal(None, node) is ambiguous; pass the node as the "
                    "first argument or call heal() to clear everything"
                )
            self._partitions.clear()
        elif b is None:
            self._partitions = {
                pair for pair in self._partitions if a not in pair
            }
        else:
            self._partitions.discard(frozenset((a, b)))

    def reachable(self, src: str, dst: str) -> bool:
        if dst in self._down or src in self._down:
            return False
        return frozenset((src, dst)) not in self._partitions

    # -- calls ---------------------------------------------------------------

    def call(self, src: str, dst: str, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``method`` on the endpoint named ``dst`` on behalf of
        ``src``.  Raises :class:`NodeDownError` if unreachable."""
        self._admit(src, dst, method)
        self.latency_charged += self.default_latency
        return self._deliver(dst, method, args, kwargs)

    def call_fanout(self, src: str, dsts: list[str], method: str,
                    *args: Any) -> list[Any]:
        """Send ``method`` with the same ``args`` to every endpoint in
        ``dsts`` as one parallel wave; returns the results in ``dsts``
        order.

        All or nothing: the first destination that fails -- unreachable
        or raising -- raises to the caller (a partial scatter-gather
        would silently drop that node's rows).  Dispatch happens in list
        order, so the sanitizer sees identical merge inputs under any pump
        schedule."""
        return self._wave(src, method, [(dst, args) for dst in dsts],
                          all_or_nothing=True)

    def scatter(self, src: str, dsts: list[str], method: str,
                args_per_dst: list[tuple]) -> list[Any]:
        """Send ``method`` to every endpoint in ``dsts``, each with its
        own arguments (``args_per_dst[i]`` goes to ``dsts[i]``), as one
        parallel wave.

        Unlike :meth:`call_fanout` a failed destination does not abort
        the wave: each slot of the returned list holds that call's return
        value or the exception its dispatch raised, in ``dsts`` order, and
        what a failed slot means is the caller's to decide (the smart
        client's batch path retries just that node's keys)."""
        return self._wave(src, method, zip(dsts, args_per_dst, strict=True),
                          all_or_nothing=False)

    def _wave(self, src: str, method: str,
              requests: Iterable[tuple[str, tuple]], *,
              all_or_nothing: bool) -> list[Any]:
        """Dispatch ``(dst, args)`` requests in order as one wave.

        The calls overlap in virtual time, so the wave is charged one
        ``default_latency`` in total, at the first dispatch that reaches
        its endpoint -- a wave no destination received costs nothing --
        while the per-(node, method) counters tick for every delivered
        call."""
        outcomes: list[Any] = []
        charged = False
        for dst, args in requests:
            try:
                self._admit(src, dst, method)
                if not charged:
                    self.latency_charged += self.default_latency
                    charged = True
                outcomes.append(self._deliver(dst, method, args, {}))
            except Exception as error:
                if all_or_nothing:
                    raise
                outcomes.append(error)
        return outcomes

    def _admit(self, src: str, dst: str, method: str) -> None:
        """Reachability and the admission hook, before anything is
        delivered or charged."""
        if dst not in self._endpoints or not self.reachable(src, dst):
            raise NodeDownError(dst)
        if self.call_filter is not None:
            self.call_filter(src, dst, method)

    def _deliver(self, dst: str, method: str, args: tuple,
                 kwargs: dict) -> Any:
        self.calls[(dst, method)] += 1
        # An RPC is a *declared* hand-off point: whatever the endpoint
        # mutates while serving it was mediated by the fabric, which the
        # write-race tracker treats as legitimate cross-pump
        # communication.
        tracker = tracing.current()
        if tracker is None:
            return getattr(self._endpoints[dst], method)(*args, **kwargs)
        tracker.enter_mediated()
        try:
            return getattr(self._endpoints[dst], method)(*args, **kwargs)
        finally:
            tracker.exit_mediated()

    def reset_counters(self) -> None:
        self.calls.clear()
        self.latency_charged = 0.0
