"""Declared contracts the static analyzer checks: hot roots, raises,
bounds, protocols.

The paper's architecture rests on properties Python does not enforce:
the managed cache serves KV traffic at memcached-like speed with query
processing layered on top (sections 2 and 5), every queue and cache
lives under a finite memory quota (sections 2 and 4.2), and vBucket /
stream lifecycles are small state machines (section 4.3.1).  This module
is the declaration side of those contracts; ``repro.analysis`` is the
analyzer that enforces them (its ``contracts`` module is the static
mirror of this one).

All of them are **zero-overhead at runtime**: each decorator validates
its arguments once, attaches an attribute, and returns the function or
class unwrapped, so decorated hot paths pay nothing per call.  The
analyzer reads the decorators statically (by name, off the AST) --
importability is not required, which is why fixture trees can stub this
module.

**Hot roots.**  ``@hot_path`` marks a function as a hot-set *root*:
everything it (transitively) calls is checked for accidental per-call
blowups (quadratic loops, defensive copies, loop-invariant work, N+1
RPC fan-out).

**Raises.**  ``@declared_raises("KeyNotFoundError", ...)`` on a service
entry point names the ``common.errors`` taxonomy exceptions it may
raise; the exception-flow check verifies that every exception that can
escape the entry point is covered (a declared base class covers its
subclasses).

**Bounds.**  Any container that grows on a pump- or RPC-reachable path
must either be structurally bounded (a ``maxlen`` deque, an evicting
cache, a queue with a registered consumer pump) or carry a written
justification.  ``@bounded(kind, reason)`` marks a growth site's
function as *deliberately* bounded by a mechanism the analyzer cannot
see structurally; ``kind`` names the mechanism:

- ``"maxlen"``: a hard size cap enforced elsewhere (config knob, fixed
  key space, construction-time limit);
- ``"evicted"``: an eviction/expiry policy reclaims entries (LRU sweep,
  epoch invalidation, idle-entry reaping);
- ``"consumer-drained"``: a consumer outside the class (another pump,
  an RPC peer) drains the container, so local growth is transient.

``__bounds__`` declares the same thing for containers whose growth and
draining sites are too spread out for a decorator: a tuple of attribute
names in a class body, or of ``"Class.attribute"`` strings at module
level.  Use the decorator where possible -- it sits next to the growth
site; ``__bounds__`` is for shared state mutated from many functions.

**Protocols.**  Every lifecycle state machine is "just an attribute
assignment" at the write site, which is exactly why regressions slip in
silently.  ``@protocol("A->B", "B->C", ...)`` on an :class:`~enum.Enum`
declares the machine on the *state type*: every field that holds
members of the enum is a state field of this protocol, wherever it
lives.  ``@protocol("A->B", ..., field="state")`` on an ordinary class
declares the machine on the *owning class* for fields whose states are
plain named constants (the circuit breaker's ``CLOSED`` / ``OPEN`` /
``HALF_OPEN`` strings); ``__protocol__ = ("field", "A->B", ...)`` in a
class body is the tuple form of the same declaration.  The declared
pairs are the *only* legal transitions (self-transitions ``A->A`` are
implicitly allowed as no-ops); a state with no outgoing pairs is
terminal (``DEAD`` never resurrects); ``order=("PENDING", "ACTIVE",
"DEAD")`` additionally declares a handoff sequence that multi-step
operations (a vBucket move) must follow in program order; and writes
are only legal inside the module that owns the state field -- the
static analog of the sanitizer's write-ownership choke points.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, TypeVar

from .errors import InvalidArgumentError

F = TypeVar("F", bound=Callable)
C = TypeVar("C", bound=type)

#: The declarable bounding mechanisms.  Anything that fits none of these
#: is not bounded -- fix the container instead of inventing a kind.
BOUND_KINDS = ("maxlen", "evicted", "consumer-drained")

#: Attribute ``@protocol`` attaches: ``(field_or_None, transitions,
#: order)`` -- the runtime mirror of what the analyzer reads statically.
PROTOCOL_ATTR = "__protocol_spec__"


def hot_path(fn: F) -> F:
    """Mark ``fn`` as a hot-set root.

    Returns ``fn`` unchanged (no wrapper): the marker must not add a
    frame to the very paths it declares performance-critical.
    """
    fn.__hot_path__ = True
    return fn


def declared_raises(*exception_names: str):
    """Declare the taxonomy exceptions a service entry point may raise.

    The declaration is data, not behavior: it sets ``__raises__`` on the
    function.  Names are strings so declaring does not force imports
    across layers::

        @declared_raises("KeyNotFoundError", "NodeDownError")
        def get(self, bucket, key):
            ...

    Run ``python -m repro.analysis --report raises`` to generate the
    declaration for a new entry point.
    """

    def decorate(func):
        func.__raises__ = tuple(exception_names)
        return func

    return decorate


def bounded(kind: str, reason: str) -> Callable[[F], F]:
    """Declare that the containers this function grows are bounded.

    ``kind`` must be one of :data:`BOUND_KINDS` and ``reason`` must say
    *what* enforces the bound (one line, specific: "capped at
    FAILOVER_LOG_LIMIT entries", not "small in practice").  Returns the
    function unchanged; the analyzer reads the declaration statically
    and exempts the function's growth sites.
    """
    if kind not in BOUND_KINDS:
        raise InvalidArgumentError(
            f"bound kind must be one of {BOUND_KINDS}, got {kind!r}"
        )
    if not reason or not reason.strip():
        raise InvalidArgumentError("bounded() requires a non-empty reason")

    def mark(fn: F) -> F:
        fn.__bounded__ = (kind, reason)
        return fn

    return mark


def parse_transition(raw: str) -> tuple[str, str]:
    """Split one ``"A->B"`` declaration, validating its shape."""
    if not isinstance(raw, str) or "->" not in raw:
        raise InvalidArgumentError(
            f"protocol transitions are 'FROM->TO' strings, got {raw!r}"
        )
    src, _, dst = raw.partition("->")
    src, dst = src.strip(), dst.strip()
    if not src or not dst:
        raise InvalidArgumentError(
            f"protocol transition {raw!r} needs both endpoints"
        )
    return src, dst


def protocol(*transitions: str, field: str | None = None,
             order: tuple[str, ...] = ()) -> Callable[[C], C]:
    """Declare the allowed state transitions of a state machine.

    On an :class:`~enum.Enum`, every endpoint must name a member; on an
    ordinary class, ``field`` must name the state attribute and the
    endpoints define the state vocabulary.  ``order`` names the handoff
    sequence multi-step operations must respect (a subset of the
    states, in required program order).  Returns the class unchanged.
    """
    if not transitions:
        raise InvalidArgumentError("protocol() needs at least one transition")
    pairs = tuple(parse_transition(raw) for raw in transitions)
    states = {name for pair in pairs for name in pair}
    for step in order:
        if step not in states:
            raise InvalidArgumentError(
                f"order step {step!r} is not a state of this protocol"
            )

    def mark(cls: C) -> C:
        if isinstance(cls, type) and issubclass(cls, Enum):
            if field is not None:
                raise InvalidArgumentError(
                    "field= is for non-enum protocols; an enum protocol "
                    "binds every field holding its members"
                )
            members = set(cls.__members__)
            unknown = states - members
            if unknown:
                raise InvalidArgumentError(
                    f"protocol on {cls.__name__} names non-members: "
                    f"{sorted(unknown)}"
                )
        elif field is None:
            raise InvalidArgumentError(
                f"protocol on non-enum {cls.__name__} requires field="
            )
        setattr(cls, PROTOCOL_ATTR, (field, pairs, tuple(order)))
        return cls

    return mark
