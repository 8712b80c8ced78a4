"""Tree-walking reference evaluator for N1QL expressions.

The product evaluates expressions only through the closures of
:mod:`repro.n1ql.compile`.  This module is the independent oracle the
tests compare those closures against: a direct AST walk honoring the
non-first-normal-form value discipline (section 3.2.1):

* A reference to an absent field yields **MISSING** (not an error).
* Comparisons involving MISSING yield MISSING; involving NULL yield
  NULL.  WHERE keeps a row only when the predicate is exactly TRUE.
* Arithmetic on non-numbers yields NULL.
"""

from __future__ import annotations

import re
from typing import Any

from repro.common.errors import N1qlRuntimeError, N1qlSemanticError
from repro.n1ql.collation import MISSING, compare
from repro.n1ql.expressions import Env, Evaluator
from repro.n1ql.functions import SCALARS, is_aggregate
from repro.n1ql.printer import print_expr
from repro.n1ql.syntax import (
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


class ReferenceEvaluator(Evaluator):
    """Evaluates an expression AST by re-walking it for every row."""

    # -- entry points -----------------------------------------------------------------

    def evaluate(self, expr: Expr, env: Env) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise N1qlRuntimeError(
                f"no evaluator for {type(expr).__name__}"
            )
        return method(expr, env)

    def truthy(self, expr: Expr, env: Env) -> bool:
        """WHERE/HAVING semantics: keep the row only on exact TRUE."""
        return self.evaluate(expr, env) is True

    # -- leaves ------------------------------------------------------------------------

    def _eval_Literal(self, expr: Literal, env: Env) -> Any:
        return expr.value

    def _eval_MissingLiteral(self, expr: MissingLiteral, env: Env) -> Any:
        return MISSING

    def _eval_Parameter(self, expr: Parameter, env: Env) -> Any:
        if expr.name not in self.params:
            raise N1qlSemanticError(f"no value supplied for parameter ${expr.name}")
        return self.params[expr.name]

    def _eval_Identifier(self, expr: Identifier, env: Env) -> Any:
        found, value = env.lookup(expr.name)
        if found:
            return value
        if self.default_alias is not None:
            found, doc = env.lookup(self.default_alias)
            if found and isinstance(doc, dict):
                return doc.get(expr.name, MISSING)
        return MISSING

    # -- structure access ---------------------------------------------------------------

    def _eval_FieldAccess(self, expr: FieldAccess, env: Env) -> Any:
        base = self.evaluate(expr.base, env)
        if isinstance(base, dict):
            return base.get(expr.field, MISSING)
        return MISSING

    def _eval_ElementAccess(self, expr: ElementAccess, env: Env) -> Any:
        base = self.evaluate(expr.base, env)
        index = self.evaluate(expr.index, env)
        if isinstance(base, list) and isinstance(index, (int, float)) \
                and not isinstance(index, bool):
            i = int(index)
            if -len(base) <= i < len(base):
                return base[i]
            return MISSING
        if isinstance(base, dict) and isinstance(index, str):
            return base.get(index, MISSING)
        return MISSING

    # -- operators ------------------------------------------------------------------------

    def _eval_Unary(self, expr: Unary, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        if expr.op == "NOT":
            if value is MISSING:
                return MISSING
            if value is None:
                return None
            if isinstance(value, bool):
                return not value
            return None
        if expr.op == "-":
            if value is MISSING:
                return MISSING
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return -value
            return None
        raise N1qlRuntimeError(f"unknown unary operator {expr.op}")

    def _eval_Binary(self, expr: Binary, env: Env) -> Any:
        op = expr.op
        if op == "AND":
            left = self.evaluate(expr.left, env)
            if left is False:
                return False
            right = self.evaluate(expr.right, env)
            if right is False:
                return False
            if left is True and right is True:
                return True
            if left is MISSING or right is MISSING:
                return MISSING
            return None
        if op == "OR":
            left = self.evaluate(expr.left, env)
            if left is True:
                return True
            right = self.evaluate(expr.right, env)
            if right is True:
                return True
            if left is None or right is None:
                return None
            if left is MISSING or right is MISSING:
                return MISSING
            return False
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            if left is MISSING or right is MISSING:
                return MISSING
            if left is None or right is None:
                return None
            order = compare(left, right)
            return {
                "=": order == 0,
                "!=": order != 0,
                "<": order < 0,
                "<=": order <= 0,
                ">": order > 0,
                ">=": order >= 0,
            }[op]
        if op in ("LIKE", "NOT LIKE"):
            if left is MISSING or right is MISSING:
                return MISSING
            if not isinstance(left, str) or not isinstance(right, str):
                return None
            matched = _like_match(right, left)
            return (not matched) if op == "NOT LIKE" else matched
        if op == "||":
            if left is MISSING or right is MISSING:
                return MISSING
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return None
        if op in ("+", "-", "*", "/", "%"):
            if left is MISSING or right is MISSING:
                return MISSING
            if not _is_number(left) or not _is_number(right):
                return None
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right if right != 0 else None
            return left % right if right != 0 else None
        raise N1qlRuntimeError(f"unknown binary operator {op}")

    def _eval_Between(self, expr: Between, env: Env) -> Any:
        operand = self.evaluate(expr.operand, env)
        low = self.evaluate(expr.low, env)
        high = self.evaluate(expr.high, env)
        if MISSING in (operand, low, high):
            return MISSING
        if None in (operand, low, high):
            return None
        inside = compare(operand, low) >= 0 and compare(operand, high) <= 0
        return (not inside) if expr.negated else inside

    def _eval_InList(self, expr: InList, env: Env) -> Any:
        operand = self.evaluate(expr.operand, env)
        items = self.evaluate(expr.items, env)
        if operand is MISSING or items is MISSING:
            return MISSING
        if not isinstance(items, list):
            return None
        found = any(compare(operand, item) == 0 for item in items)
        return (not found) if expr.negated else found

    def _eval_IsPredicate(self, expr: IsPredicate, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        if expr.what == "NULL":
            if value is MISSING:
                return MISSING
            answer = value is None
        elif expr.what == "MISSING":
            answer = value is MISSING
        else:  # VALUED
            answer = value is not MISSING and value is not None
        return (not answer) if expr.negated else answer

    # -- composites -----------------------------------------------------------------------

    def _eval_ArrayLiteral(self, expr: ArrayLiteral, env: Env) -> Any:
        out = []
        for item in expr.items:
            value = self.evaluate(item, env)
            out.append(None if value is MISSING else value)
        return out

    def _eval_ObjectLiteral(self, expr: ObjectLiteral, env: Env) -> Any:
        out = {}
        for key, value_expr in expr.pairs:
            value = self.evaluate(value_expr, env)
            if value is not MISSING:
                out[key] = value
        return out

    def _eval_CaseExpr(self, expr: CaseExpr, env: Env) -> Any:
        for condition, result in expr.whens:
            if self.evaluate(condition, env) is True:
                return self.evaluate(result, env)
        if expr.else_result is not None:
            return self.evaluate(expr.else_result, env)
        return None

    def _eval_CollectionPredicate(self, expr: CollectionPredicate,
                                  env: Env) -> Any:
        collection = self.evaluate(expr.collection, env)
        if collection is MISSING:
            return MISSING
        if not isinstance(collection, list):
            return None
        child = env.child()
        if expr.quantifier == "ANY":
            for item in collection:
                child.values[expr.variable] = item
                if self.evaluate(expr.condition, child) is True:
                    return True
            return False
        for item in collection:
            child.values[expr.variable] = item
            if self.evaluate(expr.condition, child) is not True:
                return False
        return len(collection) > 0

    def _eval_ArrayComprehension(self, expr: ArrayComprehension,
                                 env: Env) -> Any:
        collection = self.evaluate(expr.collection, env)
        if collection is MISSING:
            return MISSING
        if not isinstance(collection, list):
            return None
        child = env.child()
        out: list = []
        for item in collection:
            child.values[expr.variable] = item
            if expr.condition is not None and \
                    self.evaluate(expr.condition, child) is not True:
                continue
            value = self.evaluate(expr.output, child)
            if value is MISSING:
                continue
            if expr.distinct and any(compare(value, v) == 0 for v in out):
                continue
            out.append(value)
        return out

    # -- functions -----------------------------------------------------------------------

    def _eval_FunctionCall(self, expr: FunctionCall, env: Env) -> Any:
        name = expr.name
        if name == "META":
            return self._eval_meta(expr, env)
        if is_aggregate(name):
            canonical = "$agg:" + print_expr(expr)
            found, value = env.lookup(canonical)
            if found:
                return value
            raise N1qlSemanticError(
                f"aggregate {name} used outside GROUP BY context"
            )
        fn = SCALARS.get(name)
        if fn is None:
            raise N1qlSemanticError(f"unknown function {name}()")
        args = [self.evaluate(a, env) for a in expr.args]
        return fn(args)

    def _eval_meta(self, expr: FunctionCall, env: Env) -> Any:
        if expr.args:
            if not isinstance(expr.args[0], Identifier):
                raise N1qlSemanticError("META() takes a keyspace alias")
            alias = expr.args[0].name
        elif self.default_alias is not None:
            alias = self.default_alias
        else:
            aliases = env.aliases()
            if len(aliases) != 1:
                raise N1qlSemanticError(
                    "META() without an alias is ambiguous here"
                )
            alias = aliases[0]
        meta = env.lookup_meta(alias)
        if meta is not None:
            return meta
        bound, _value = env.lookup(alias)
        if not bound and (self.default_alias is None
                          or alias != self.default_alias):
            raise N1qlSemanticError(f"META(): unknown keyspace alias {alias!r}")
        return MISSING


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _like_match(pattern: str, text: str) -> bool:
    """SQL LIKE: % = any run, _ = any single character."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, text, flags=re.DOTALL) is not None
