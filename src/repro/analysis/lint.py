"""The lint family: per-module AST invariants.

The architecture the paper implies rests on invariants nothing in the
Python language enforces: all time flows through ``VirtualClock``, all
background work runs as bounded deterministic pumps, and N1QL honors
the MISSING/NULL value discipline.  Each rule here judges one module at
a time over the already-parsed :class:`~repro.analysis.project.
ModuleInfo` and keeps those invariants from silently eroding -- one
careless ``time.time()`` away from nondeterministic tests.

A rule is a generator ``rule(module)`` yielding ``(node, message)`` for
each offence, decorated with :func:`_rule`, which registers it to run
over every indexed module and turns what it yields into findings.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .framework import Finding, register
from .project import ModuleInfo

Offence = tuple[ast.AST, str]


def _rule(name: str, invariant: str, strict_only: bool = False):
    """Register ``check(module)`` as a lint-family check that runs over
    every module of the project."""
    def add(check):
        def run(context):
            for module in context.project.modules.values():
                for node, message in check(module):
                    yield Finding(
                        check=name,
                        path=module.path,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0) + 1,
                        message=message,
                    )
        register("lint", {name: invariant},
                 strict_only={name} if strict_only else ())(run)
        return check
    return add


def _module_in(module: ModuleInfo, prefix: str) -> bool:
    return module.name == prefix or module.name.startswith(prefix + ".")


# -- no-wall-clock -----------------------------------------------------------------
#
# Wall-clock reads make TTL expiry, lock timeouts, and failure detection
# nondeterministic -- the exact failure mode the shared ``VirtualClock``
# exists to prevent.  Production code takes a ``Clock``; only the metrics
# layer's profiling stopwatch (one audited, suppressed site) touches
# ``time.perf_counter``.  Strict-only: harness code legitimately measures
# wall-clock time.

#: ``time`` module functions that read or block on the wall clock.
_TIME_FUNCTIONS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})

#: ``datetime.datetime`` / ``datetime.date`` constructors that read it.
_DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})


@_rule("no-wall-clock",
       "all time flows through an injected Clock/VirtualClock; no "
       "time.time/monotonic/perf_counter/sleep or datetime.now/utcnow",
       strict_only=True)
def no_wall_clock(module: ModuleInfo) -> Iterator[Offence]:
    time_aliases: set[str] = set()
    datetime_aliases: set[str] = set()      # the datetime *module*
    datetime_classes: set[str] = set()      # datetime/date classes
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
                elif alias.name == "datetime":
                    datetime_aliases.add(alias.asname or "datetime")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_FUNCTIONS:
                        yield node, (
                            f"importing time.{alias.name} reads the "
                            f"wall clock; inject a Clock instead")
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_classes.add(alias.asname or alias.name)
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        receiver = func.value
        if (isinstance(receiver, ast.Name)
                and receiver.id in time_aliases
                and func.attr in _TIME_FUNCTIONS):
            yield node, (
                f"time.{func.attr}() reads the wall clock; use the "
                f"injected Clock (common/clock.py)")
        if func.attr in _DATETIME_FUNCTIONS:
            if isinstance(receiver, ast.Name) and \
                    receiver.id in datetime_classes:
                yield node, (
                    f"datetime.{func.attr}() reads the wall clock; "
                    f"use the injected Clock")
            elif (isinstance(receiver, ast.Attribute)
                  and isinstance(receiver.value, ast.Name)
                  and receiver.value.id in datetime_aliases
                  and receiver.attr in ("datetime", "date")):
                yield node, (
                    f"datetime.{receiver.attr}.{func.attr}() reads the "
                    f"wall clock; use the injected Clock")


# -- no-unseeded-random ------------------------------------------------------------
#
# The module-level ``random.*`` functions share one process-global,
# OS-seeded generator: two runs of the same test interleave differently
# and YCSB key streams stop being reproducible.  Construct
# ``random.Random(seed)`` with an explicit seed and thread it through.

#: Constructors that are fine when explicitly seeded (Random) or
#: intentionally nondeterministic by contract (SystemRandom is still
#: flagged: nothing in this repo should want it).
_ALLOWED_RANDOM_ATTRS = frozenset({"Random"})


@_rule("no-unseeded-random",
       "no module-level random.* calls or unseeded random.Random(); "
       "every RNG is constructed with an explicit seed")
def no_unseeded_random(module: ModuleInfo) -> Iterator[Offence]:
    random_aliases: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in _ALLOWED_RANDOM_ATTRS:
                    yield node, (
                        f"random.{alias.name} uses the process-global "
                        f"RNG; construct random.Random(seed) instead")
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in random_aliases):
            continue
        attr = node.func.attr
        if attr == "Random":
            if not node.args and not node.keywords:
                yield node, (
                    "random.Random() without a seed is OS-seeded; "
                    "pass an explicit seed argument")
        elif attr not in _ALLOWED_RANDOM_ATTRS:
            yield node, (
                f"random.{attr}() uses the process-global RNG; "
                f"use a seeded random.Random instance")


# -- error-taxonomy ----------------------------------------------------------------
#
# Applications catch ``ReproError`` (or a specific subclass) at the public
# API; a bare ``ValueError`` escaping the stack bypasses that contract and
# can't carry protocol metadata (key, vbucket, CAS).

_BANNED_RAISES = frozenset({"ValueError", "KeyError", "RuntimeError"})

#: Raises directly inside these functions are constructor argument
#: validation -- rejecting a nonsense config object at build time is a
#: programming error, not a service response, so they may stay builtin.
_VALIDATION_FUNCTIONS = frozenset({"__init__", "__post_init__"})


@_rule("error-taxonomy",
       "service-layer code raises common.errors types (every public "
       "failure is a ReproError); bare ValueError/KeyError/RuntimeError "
       "only in constructor argument validation")
def error_taxonomy(module: ModuleInfo) -> Iterator[Offence]:
    def walk(node: ast.AST, enclosing: str | None) -> Iterator[Offence]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            elif isinstance(child, ast.Raise):
                raised = _raised_name(child)
                if raised in _BANNED_RAISES \
                        and enclosing not in _VALIDATION_FUNCTIONS:
                    yield child, (
                        f"raise {raised} from service-layer code; raise a "
                        f"common.errors type (or subclass one from "
                        f"{raised} if callers catch the builtin)")
                yield from walk(child, enclosing)
            else:
                yield from walk(child, enclosing)

    yield from walk(module.tree, None)


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


# -- pump-contract / no-pump-reentrancy --------------------------------------------
#
# ``Scheduler.run_until_idle`` terminates only because every pump (a) does
# a *bounded* batch of work per invocation and (b) returns ``bool`` so the
# scheduler can detect quiescence.  A pump that loops ``while True`` until
# its queue drains starves every other pump and defeats the livelock
# safety valve; a pump without a ``-> bool`` annotation is one refactor
# away from returning ``None`` (falsy) and silently ending rounds early.
#
# A pump also runs *inside* ``Scheduler.step``; calling ``run_until_idle``
# / ``step`` / ``run_until`` / ``advance`` from a pump body recursively
# drives the other pumps from an arbitrary point in the current round.
# That nests rounds (quiescence detection sees a mix of two rounds'
# progress), reorders pumps behind the schedule policy's back, and raises
# ``SchedulerReentrancyError`` at runtime.  The lint catches it at review
# time instead: pumps return and let the scheduler call them again.
#
# Both rules check the conventionally named pump entry points (``pump`` /
# ``_pump``) that ``Scheduler.register`` call sites hand over.

_PUMP_NAMES = frozenset({"pump", "_pump"})
_DRIVE_METHODS = frozenset({"run_until_idle", "step", "run_until", "advance"})


def _pumps(module: ModuleInfo):
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in _PUMP_NAMES:
            yield node


@_rule("pump-contract",
       "every Scheduler pump returns bool (annotated -> bool) and drains "
       "a bounded batch per call; no unbounded `while True` drain loops")
def pump_contract(module: ModuleInfo) -> Iterator[Offence]:
    for node in _pumps(module):
        returns = node.returns
        if not (isinstance(returns, ast.Name) and returns.id == "bool"):
            yield node, (
                f"pump {node.name}() must be annotated `-> bool` so the "
                f"scheduler can detect quiescence")
        for loop in ast.walk(node):
            if isinstance(loop, ast.While) and _is_true(loop.test) \
                    and not _has_break(loop):
                yield loop, (
                    f"unbounded `while True` drain inside pump "
                    f"{node.name}(); drain a bounded batch and return "
                    f"True to be re-invoked")


def _is_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and test.value is True


def _has_break(loop: ast.While) -> bool:
    # A break inside a nested loop doesn't exit this one, but nested
    # loops inside an unbounded drain are rare enough that the coarse
    # check keeps the rule simple; suppress if it misfires.
    return any(isinstance(node, ast.Break) for node in ast.walk(loop))


@_rule("no-pump-reentrancy",
       "pump bodies never call the scheduler drive loop (run_until_idle/"
       "step/run_until/advance); pumps return and get re-invoked")
def no_pump_reentrancy(module: ModuleInfo) -> Iterator[Offence]:
    for node in _pumps(module):
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if callee in _DRIVE_METHODS:
                yield call, (
                    f"pump {node.name}() calls {callee}(), re-entering "
                    f"the scheduler drive loop mid-round; return instead "
                    f"and let the scheduler re-invoke the pump")


# -- metrics-naming ----------------------------------------------------------------
#
# Dashboards and the ablation benches select series by exact name
# (``n1ql.plan_cache.hit``); a dynamically built or oddly cased name is a
# series nobody ever graphs.

_METRIC_METHODS = frozenset({"inc", "observe", "timer"})

#: n1ql.plan_cache.hit, kv.multi_gets, rebalance.vbuckets_out, ...
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@_rule("metrics-naming",
       "every metrics counter/timer name is a dotted lowercase literal "
       "(`n1ql.plan_cache.hit` convention) so dashboards never chase "
       "dynamic names")
def metrics_naming(module: ModuleInfo) -> Iterator[Offence]:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and _receiver_is_metrics(node.func.value)):
            continue
        if not node.args:
            continue
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield node, (
                f"metrics.{node.func.attr}() name must be a string "
                f"literal, not a computed value; dashboards select "
                f"series by exact name")
        elif not _METRIC_NAME_RE.match(name_arg.value):
            yield node, (
                f"metric name {name_arg.value!r} does not match the "
                f"dotted lowercase convention (like "
                f"'n1ql.plan_cache.hit')")


def _receiver_is_metrics(receiver: ast.expr) -> bool:
    """True for ``metrics.inc`` / ``self.metrics.inc`` /
    ``self.node.metrics.observe`` -- the chain ends in ``metrics``."""
    if isinstance(receiver, ast.Name):
        return receiver.id == "metrics"
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "metrics"
    return False


# -- missing-null-discipline -------------------------------------------------------
#
# Section 3.2.1's value space has *two* absent values: MISSING (the field
# is not there) and NULL (it is there and null), and they propagate
# differently through every operator.  Python code that compares a value
# with ``== None`` silently collapses the two (and is a Python style bug
# besides).  The rule fires only inside ``repro.n1ql``.


@_rule("missing-null-discipline",
       "n1ql code never conflates MISSING with NULL: no `== None` / "
       "`!= None` comparisons")
def missing_null_discipline(module: ModuleInfo) -> Iterator[Offence]:
    if not _module_in(module, "repro.n1ql"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    _is_none(left) or _is_none(right)):
                yield node, (
                    "`== None` conflates NULL with MISSING (and is "
                    "never identity-safe); use `is None` after an "
                    "explicit `is MISSING` check")


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# -- declared-shared-state ---------------------------------------------------------
#
# Module-level mutable state (a counter, a registry dict, a cached
# singleton) is shared by every cluster, test, and sanitizer run in the
# process.  Undeclared, it is exactly the kind of hidden channel the
# schedule sanitizer cannot reason about: two scenario replays observe
# each other through it and digests stop being functions of the schedule
# alone.
#
# The rule does not ban such state -- some is legitimate (the tracing
# hook, the vBucket UUID counter) -- it forces each module to *declare*
# it in a module-level ``__shared_state__`` tuple naming the globals that
# intentionally outlive a single run:
#
#     __shared_state__ = ("_tracker",)
#     _tracker: Tracker | None = None
#
# Flagged unless declared (or suppressed):
#
# * module-level bindings of stateful constructors (``itertools.count``,
#   ``Counter``, ``defaultdict``, ``deque``, ``OrderedDict``, ``cycle``);
# * module-level mutable displays/comprehensions (``= []``, ``= {}``)
#   bound to lowercase names -- CONSTANT_CASE bindings are treated as
#   frozen by convention;
# * ``global NAME`` statements, the tell that a function rebinds module
#   state.
#
# Strict-only: benchmark modules accumulate module-level result tables
# across test functions.

_DECLARATION = "__shared_state__"
_STATEFUL_CONSTRUCTORS = frozenset({
    "count", "cycle", "Counter", "defaultdict", "deque", "OrderedDict",
})
_CONSTANT_STYLE = re.compile(r"^_{0,2}[A-Z0-9_]+$")
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)


@_rule("declared-shared-state",
       "module-level mutable state is declared in __shared_state__ "
       "(or suppressed) so shared-across-runs channels are explicit",
       strict_only=True)
def declared_shared_state(module: ModuleInfo) -> Iterator[Offence]:
    declared = _declared_names(module.tree)
    for statement in module.tree.body:
        bound = _module_binding(statement)
        if bound is None:
            continue
        targets, value = bound
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        names = [n for n in names
                 if n not in declared and not _is_dunder(n)]
        if not names:
            continue
        constructor = _stateful_constructor(value)
        if constructor is not None:
            yield statement, (
                f"module-level {constructor}() is process-wide mutable "
                f"state; declare {', '.join(repr(n) for n in names)} in "
                f"{_DECLARATION} if the sharing is intentional")
            continue
        mutable_names = [n for n in names if not _CONSTANT_STYLE.match(n)]
        if mutable_names and isinstance(value, _MUTABLE_DISPLAYS):
            yield statement, (
                f"module-level mutable "
                f"{type(value).__name__.lower().removesuffix('comp')} "
                f"bound to {', '.join(repr(n) for n in mutable_names)}; "
                f"declare in {_DECLARATION}, or use CONSTANT_CASE and "
                f"treat it as frozen")
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            for global_name in node.names:
                if global_name not in declared:
                    yield node, (
                        f"`global {global_name}` rebinds module state from "
                        f"a function; declare {global_name!r} in "
                        f"{_DECLARATION} if the sharing is intentional")


def _module_binding(statement: ast.stmt):
    """(targets, value) of a module-level ``x = v`` / ``x: T = v``."""
    if isinstance(statement, ast.Assign):
        return statement.targets, statement.value
    if isinstance(statement, ast.AnnAssign) and statement.value:
        return [statement.target], statement.value
    return None


def _declared_names(tree: ast.Module) -> set[str]:
    for statement in tree.body:
        bound = _module_binding(statement)
        if bound is None:
            continue
        targets, value = bound
        if not any(isinstance(t, ast.Name) and t.id == _DECLARATION
                   for t in targets):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            return {element.value for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)}
    return set()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _stateful_constructor(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    return name if name in _STATEFUL_CONSTRUCTORS else None
