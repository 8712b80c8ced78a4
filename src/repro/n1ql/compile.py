"""The N1QL expression compiler.

Section 4.5.3 observes that "query parsing and planning are done
serially" per request; the same would be true of expression evaluation
if it re-walked the AST for every row.  This module lowers an expression
AST **once per plan** into a chain of Python closures, so the per-row
work collapses to direct calls:

* constant sub-expressions are folded at compile time (scalar results
  only -- folded containers would be shared across rows);
* dotted field paths (``x.address.city``) become a single closure doing
  direct dict-chain access instead of one dispatch per AST node;
* scalar functions are resolved against :data:`~repro.n1ql.functions.SCALARS`
  at compile time instead of per row;
* aggregate references pre-compute their canonical ``$agg:`` lookup key;
* comparison operators bind their comparator once.

A compiled expression is called as ``fn(env, ev)`` where ``env`` is the
row :class:`~repro.n1ql.expressions.Env` and ``ev`` the per-execution
:class:`~repro.n1ql.expressions.Evaluator` (which carries query
parameters, so one compiled plan serves every parameterization).  The
closures must agree *exactly* with the tree-walking reference evaluator
kept under ``tests/n1ql/reference_evaluator.py``, MISSING/NULL
discipline included -- ``tests/n1ql/test_query_model_property.py``
checks that on randomized expressions.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from ..common.errors import N1qlSemanticError
from .collation import MISSING, compare, sort_key
from .functions import SCALARS, is_aggregate
from .printer import print_expr
from .syntax import (
    ArrayComprehension,
    ArrayLiteral,
    Between,
    Binary,
    CaseExpr,
    CollectionPredicate,
    ElementAccess,
    Expr,
    FieldAccess,
    FunctionCall,
    Identifier,
    InList,
    IsPredicate,
    Literal,
    MissingLiteral,
    ObjectLiteral,
    Parameter,
    Unary,
)

#: Total top-level compilations performed (mirrored into the per-node
#: ``n1ql.compile.count`` counter by the callers that have a registry).
__shared_state__ = ("COMPILE_COUNT",)
COMPILE_COUNT = 0

Compiled = Callable[[Any, Any], Any]


def compile_expr(expr: Expr, default_alias: str | None) -> Compiled:
    """Lower ``expr`` to a closure ``fn(env, evaluator) -> value``.

    ``default_alias`` is the keyspace alias unqualified identifiers fall
    back to (the plan's default alias); it is fixed at compile time
    because a plan is always executed with the alias it was built for.
    """
    global COMPILE_COUNT
    COMPILE_COUNT += 1
    return _compile(expr, default_alias)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _const(value: Any) -> Compiled:
    def fn(env, ev):
        return value

    fn.is_const = True  # type: ignore[attr-defined]
    return fn


def _dynamic(fn: Compiled) -> Compiled:
    fn.is_const = False  # type: ignore[attr-defined]
    return fn


class _FoldEvaluator:
    """Stand-in evaluator for compile-time folding of constant
    sub-expressions (no parameters, no aggregates in scope)."""

    params: dict = {}


_FOLD_EV = _FoldEvaluator()
_FOLD_ENV = None  # constant closures never touch the env


def _fold(fn: Compiled) -> Compiled:
    """Evaluate a closure over constants once.  Container results are
    NOT folded: each row gets a fresh list/object, because callers may
    mutate what a query returns."""
    value = fn(_FOLD_ENV, _FOLD_EV)
    if isinstance(value, (list, dict)):
        return _dynamic(fn)
    return _const(value)


def _all_const(fns) -> bool:
    return all(getattr(f, "is_const", False) for f in fns)


def _compile(expr: Expr, alias: str | None) -> Compiled:
    handler = _HANDLERS.get(type(expr))
    if handler is None:
        raise N1qlSemanticError(
            f"no compiler for expression node {type(expr).__name__}"
        )
    return handler(expr, alias)


# -- leaves -----------------------------------------------------------------


def _c_literal(expr: Literal, alias):
    return _const(expr.value)


def _c_missing(expr: MissingLiteral, alias):
    return _const(MISSING)


def _c_parameter(expr: Parameter, alias):
    name = expr.name

    def fn(env, ev):
        try:
            return ev.params[name]
        except KeyError:
            raise N1qlSemanticError(
                f"no value supplied for parameter ${name}"
            ) from None

    return _dynamic(fn)


def _c_identifier(expr: Identifier, alias):
    name = expr.name
    if alias is None:
        def fn(env, ev):
            _found, value = env.lookup(name)
            return value

        return _dynamic(fn)

    def fn(env, ev):
        found, value = env.lookup(name)
        if found:
            return value
        found, doc = env.lookup(alias)
        if found and isinstance(doc, dict):
            return doc.get(name, MISSING)
        return MISSING

    return _dynamic(fn)


# -- structure access --------------------------------------------------------


def _c_field_access(expr: FieldAccess, alias):
    # Flatten a dotted chain rooted at an Identifier into one closure:
    # resolve the root, then run the dict gets in a tight loop.
    fields: list[str] = []
    node: Expr = expr
    while isinstance(node, FieldAccess):
        fields.append(node.field)
        node = node.base
    fields.reverse()
    if isinstance(node, Identifier):
        root = _c_identifier(node, alias)
        path = tuple(fields)

        def fn(env, ev):
            value = root(env, ev)
            for field in path:
                if isinstance(value, dict):
                    value = value.get(field, MISSING)
                else:
                    return MISSING
            return value

        return _dynamic(fn)
    base = _compile(expr.base, alias)
    field = expr.field

    def fn(env, ev):
        value = base(env, ev)
        if isinstance(value, dict):
            return value.get(field, MISSING)
        return MISSING

    return _dynamic(fn)


def _c_element_access(expr: ElementAccess, alias):
    base = _compile(expr.base, alias)
    index_fn = _compile(expr.index, alias)

    def fn(env, ev):
        base_value = base(env, ev)
        index = index_fn(env, ev)
        if isinstance(base_value, list) and isinstance(index, (int, float)) \
                and not isinstance(index, bool):
            i = int(index)
            if -len(base_value) <= i < len(base_value):
                return base_value[i]
            return MISSING
        if isinstance(base_value, dict) and isinstance(index, str):
            return base_value.get(index, MISSING)
        return MISSING

    if _all_const((base, index_fn)):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


# -- operators ---------------------------------------------------------------


def _c_unary(expr: Unary, alias):
    operand = _compile(expr.operand, alias)
    if expr.op == "NOT":
        def fn(env, ev):
            value = operand(env, ev)
            if value is MISSING:
                return MISSING
            if value is None:
                return None
            if isinstance(value, bool):
                return not value
            return None
    elif expr.op == "-":
        def fn(env, ev):
            value = operand(env, ev)
            if value is MISSING:
                return MISSING
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return -value
            return None
    else:
        raise N1qlSemanticError(f"unknown unary operator {expr.op}")
    if _all_const((operand,)):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


_COMPARISONS = {
    "=": lambda order: order == 0,
    "!=": lambda order: order != 0,
    "<": lambda order: order < 0,
    "<=": lambda order: order <= 0,
    ">": lambda order: order > 0,
    ">=": lambda order: order >= 0,
}


def _c_binary(expr: Binary, alias):
    op = expr.op
    left = _compile(expr.left, alias)
    right = _compile(expr.right, alias)
    if op == "AND":
        def fn(env, ev):
            a = left(env, ev)
            if a is False:
                return False
            b = right(env, ev)
            if b is False:
                return False
            if a is True and b is True:
                return True
            if a is MISSING or b is MISSING:
                return MISSING
            return None
    elif op == "OR":
        def fn(env, ev):
            a = left(env, ev)
            if a is True:
                return True
            b = right(env, ev)
            if b is True:
                return True
            if a is None or b is None:
                return None
            if a is MISSING or b is MISSING:
                return MISSING
            return False
    elif op in _COMPARISONS:
        verdict = _COMPARISONS[op]

        def fn(env, ev):
            a = left(env, ev)
            b = right(env, ev)
            if a is MISSING or b is MISSING:
                return MISSING
            if a is None or b is None:
                return None
            return verdict(compare(a, b))
    elif op in ("LIKE", "NOT LIKE"):
        negated = op == "NOT LIKE"
        # A constant pattern compiles its regex once.
        pattern_regex = None
        if getattr(right, "is_const", False):
            pattern = right(_FOLD_ENV, _FOLD_EV)
            if isinstance(pattern, str):
                pattern_regex = re.compile(
                    re.escape(pattern).replace("%", ".*").replace("_", "."),
                    flags=re.DOTALL,
                )

        def fn(env, ev):
            a = left(env, ev)
            b = right(env, ev)
            if a is MISSING or b is MISSING:
                return MISSING
            if not isinstance(a, str) or not isinstance(b, str):
                return None
            if pattern_regex is not None:
                matched = pattern_regex.fullmatch(a) is not None
            else:
                regex = re.escape(b).replace("%", ".*").replace("_", ".")
                matched = re.fullmatch(regex, a, flags=re.DOTALL) is not None
            return (not matched) if negated else matched
    elif op == "||":
        def fn(env, ev):
            a = left(env, ev)
            b = right(env, ev)
            if a is MISSING or b is MISSING:
                return MISSING
            if isinstance(a, str) and isinstance(b, str):
                return a + b
            return None
    elif op in ("+", "-", "*", "/", "%"):
        arith = _ARITHMETIC[op]

        def fn(env, ev):
            a = left(env, ev)
            b = right(env, ev)
            if a is MISSING or b is MISSING:
                return MISSING
            if not _is_number(a) or not _is_number(b):
                return None
            return arith(a, b)
    else:
        raise N1qlSemanticError(f"unknown binary operator {op}")
    if _all_const((left, right)):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _c_between(expr: Between, alias):
    operand = _compile(expr.operand, alias)
    low = _compile(expr.low, alias)
    high = _compile(expr.high, alias)
    negated = expr.negated

    def fn(env, ev):
        value = operand(env, ev)
        lo = low(env, ev)
        hi = high(env, ev)
        if value is MISSING or lo is MISSING or hi is MISSING:
            return MISSING
        if value is None or lo is None or hi is None:
            return None
        inside = compare(value, lo) >= 0 and compare(value, hi) <= 0
        return (not inside) if negated else inside

    if _all_const((operand, low, high)):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


def _c_in_list(expr: InList, alias):
    operand = _compile(expr.operand, alias)
    items = _compile(expr.items, alias)
    negated = expr.negated

    def fn(env, ev):
        value = operand(env, ev)
        pool = items(env, ev)
        if value is MISSING or pool is MISSING:
            return MISSING
        if not isinstance(pool, list):
            return None
        found = any(compare(value, item) == 0 for item in pool)
        return (not found) if negated else found

    return _dynamic(fn)


def _c_is_predicate(expr: IsPredicate, alias):
    operand = _compile(expr.operand, alias)
    what = expr.what
    negated = expr.negated

    def fn(env, ev):
        value = operand(env, ev)
        if what == "NULL":
            if value is MISSING:
                return MISSING
            answer = value is None
        elif what == "MISSING":
            answer = value is MISSING
        else:  # VALUED
            answer = value is not MISSING and value is not None
        return (not answer) if negated else answer

    if _all_const((operand,)):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


# -- composites --------------------------------------------------------------


def _c_array_literal(expr: ArrayLiteral, alias):
    item_fns = tuple(_compile(item, alias) for item in expr.items)

    def fn(env, ev):
        out = []
        for item_fn in item_fns:
            value = item_fn(env, ev)
            out.append(None if value is MISSING else value)
        return out

    return _dynamic(fn)


def _c_object_literal(expr: ObjectLiteral, alias):
    pair_fns = tuple(
        (key, _compile(value, alias)) for key, value in expr.pairs
    )

    def fn(env, ev):
        out = {}
        for key, value_fn in pair_fns:
            value = value_fn(env, ev)
            if value is not MISSING:
                out[key] = value
        return out

    return _dynamic(fn)


def _c_case(expr: CaseExpr, alias):
    whens = tuple(
        (_compile(condition, alias), _compile(result, alias))
        for condition, result in expr.whens
    )
    otherwise = (
        _compile(expr.else_result, alias)
        if expr.else_result is not None else None
    )

    def fn(env, ev):
        for condition_fn, result_fn in whens:
            if condition_fn(env, ev) is True:
                return result_fn(env, ev)
        if otherwise is not None:
            return otherwise(env, ev)
        return None

    return _dynamic(fn)


def _c_collection_predicate(expr: CollectionPredicate, alias):
    collection = _compile(expr.collection, alias)
    condition = _compile(expr.condition, alias)
    variable = expr.variable
    is_any = expr.quantifier == "ANY"

    def fn(env, ev):
        pool = collection(env, ev)
        if pool is MISSING:
            return MISSING
        if not isinstance(pool, list):
            return None
        child = env.child()
        if is_any:
            for item in pool:
                child.values[variable] = item
                if condition(child, ev) is True:
                    return True
            return False
        for item in pool:
            child.values[variable] = item
            if condition(child, ev) is not True:
                return False
        return len(pool) > 0

    return _dynamic(fn)


def _c_array_comprehension(expr: ArrayComprehension, alias):
    collection = _compile(expr.collection, alias)
    output = _compile(expr.output, alias)
    condition = (
        _compile(expr.condition, alias)
        if expr.condition is not None else None
    )
    variable = expr.variable
    distinct = expr.distinct

    def fn(env, ev):
        pool = collection(env, ev)
        if pool is MISSING:
            return MISSING
        if not isinstance(pool, list):
            return None
        child = env.child()
        out: list = []
        for item in pool:
            child.values[variable] = item
            if condition is not None and condition(child, ev) is not True:
                continue
            value = output(child, ev)
            if value is MISSING:
                continue
            if distinct and any(compare(value, v) == 0 for v in out):
                continue
            out.append(value)
        return out

    return _dynamic(fn)


# -- functions ---------------------------------------------------------------


def _c_function_call(expr: FunctionCall, alias):
    name = expr.name
    if name == "META":
        return _c_meta(expr, alias)
    if is_aggregate(name):
        agg_key = "$agg:" + print_expr(expr)

        def fn(env, ev):
            found, value = env.lookup(agg_key)
            if found:
                return value
            raise N1qlSemanticError(
                f"aggregate {name} used outside GROUP BY context"
            )

        return _dynamic(fn)
    scalar = SCALARS.get(name)
    if scalar is None:
        raise N1qlSemanticError(f"unknown function {name}()")
    arg_fns = tuple(_compile(arg, alias) for arg in expr.args)

    def fn(env, ev):
        return scalar([arg_fn(env, ev) for arg_fn in arg_fns])

    if _all_const(arg_fns):
        return _fold(_dynamic(fn))
    return _dynamic(fn)


def _c_meta(expr: FunctionCall, alias):
    fixed_alias: str | None = None
    if expr.args:
        if not isinstance(expr.args[0], Identifier):
            raise N1qlSemanticError("META() takes a keyspace alias")
        fixed_alias = expr.args[0].name
    elif alias is not None:
        fixed_alias = alias
    default_alias = alias

    def fn(env, ev):
        if fixed_alias is not None:
            target = fixed_alias
        else:
            aliases = env.aliases()
            if len(aliases) != 1:
                raise N1qlSemanticError(
                    "META() without an alias is ambiguous here"
                )
            target = aliases[0]
        meta = env.lookup_meta(target)
        if meta is not None:
            return meta
        bound, _value = env.lookup(target)
        if not bound and (default_alias is None or target != default_alias):
            raise N1qlSemanticError(
                f"META(): unknown keyspace alias {target!r}"
            )
        return MISSING

    return _dynamic(fn)


_HANDLERS = {
    Literal: _c_literal,
    MissingLiteral: _c_missing,
    Parameter: _c_parameter,
    Identifier: _c_identifier,
    FieldAccess: _c_field_access,
    ElementAccess: _c_element_access,
    Unary: _c_unary,
    Binary: _c_binary,
    Between: _c_between,
    InList: _c_in_list,
    IsPredicate: _c_is_predicate,
    ArrayLiteral: _c_array_literal,
    ObjectLiteral: _c_object_literal,
    CaseExpr: _c_case,
    CollectionPredicate: _c_collection_predicate,
    ArrayComprehension: _c_array_comprehension,
    FunctionCall: _c_function_call,
}


# ---------------------------------------------------------------------------
# Sort-key extraction (ORDER BY)
# ---------------------------------------------------------------------------


class _Reversed:
    """Descending wrapper over a collation sort key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def compile_sort_key(terms, default_alias: str | None) -> Compiled:
    """Lower ORDER BY terms into one ``fn(env, ev) -> tuple`` sort-key
    extractor (expression closures plus pre-bound direction wrappers)."""
    compiled = tuple(
        (compile_expr(term.expr, default_alias), term.descending)
        for term in terms
    )

    def key_for(env, ev):
        parts = []
        for fn, descending in compiled:
            key = sort_key(fn(env, ev))
            parts.append(_Reversed(key) if descending else key)
        return tuple(parts)

    return key_for
