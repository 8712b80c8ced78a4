"""N1QL built-in functions.

The scalar library (string, numeric, array, object, type, and
conditional functions) plus the aggregate registry the grouping operator
consults.  Scalar functions follow N1QL's MISSING/NULL discipline: a
MISSING argument generally yields MISSING, a NULL argument yields NULL,
and a wrongly-typed argument yields NULL.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..common.errors import N1qlRuntimeError
from .collation import MISSING, compare

AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "ARRAY_AGG"}


def is_aggregate(name: str) -> bool:
    return name in AGGREGATES


def _propagate(*args: Any):
    """Standard argument discipline: MISSING dominates, then NULL."""
    for arg in args:
        if arg is MISSING:
            return MISSING
    for arg in args:
        if arg is None:
            return None
    return _OK


_OK = object()


def _number(value: Any) -> float | int | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def _string(value: Any) -> str | None:
    return value if isinstance(value, str) else None


# -- scalar implementations ---------------------------------------------------

def fn_lower(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    return text.lower() if text is not None else None


def fn_upper(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    return text.upper() if text is not None else None


def fn_length(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    return len(text) if text is not None else None


def fn_substr(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    start = _number(args[1])
    if text is None or start is None:
        return None
    start = int(start)
    if len(args) >= 3:
        length = _number(args[2])
        if length is None:
            return None
        return text[start:start + int(length)]
    return text[start:]

def fn_trim(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    return text.strip() if text is not None else None


def fn_contains(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text, needle = _string(args[0]), _string(args[1])
    if text is None or needle is None:
        return None
    return needle in text


def fn_split(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    text = _string(args[0])
    if text is None:
        return None
    if len(args) >= 2:
        sep = _string(args[1])
        if sep is None:
            return None
        return text.split(sep)
    return text.split()


def fn_abs(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    number = _number(args[0])
    return abs(number) if number is not None else None


def fn_round(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    number = _number(args[0])
    if number is None:
        return None
    digits = 0
    if len(args) >= 2:
        d = _number(args[1])
        if d is None:
            return None
        digits = int(d)
    return round(number, digits)


def fn_floor(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    number = _number(args[0])
    return math.floor(number) if number is not None else None


def fn_ceil(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    number = _number(args[0])
    return math.ceil(number) if number is not None else None


def fn_sqrt(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    number = _number(args[0])
    if number is None or number < 0:
        return None
    return math.sqrt(number)


def fn_power(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    base, exponent = _number(args[0]), _number(args[1])
    if base is None or exponent is None:
        return None
    return base ** exponent


def fn_array_length(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    return len(args[0]) if isinstance(args[0], list) else None


def fn_array_contains(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    if not isinstance(args[0], list):
        return None
    return any(compare(item, args[1]) == 0 for item in args[0])


def fn_array_append(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    if not isinstance(args[0], list):
        return None
    return list(args[0]) + [args[1]]


def fn_array_distinct(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    if not isinstance(args[0], list):
        return None
    out = []
    for item in args[0]:
        if not any(compare(item, existing) == 0 for existing in out):
            out.append(item)
    return out


def fn_object_names(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    return sorted(args[0]) if isinstance(args[0], dict) else None


def fn_object_values(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    if not isinstance(args[0], dict):
        return None
    return [args[0][key] for key in sorted(args[0])]


def fn_type(args):
    value = args[0]
    if value is MISSING:
        return "missing"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    return "object"


def fn_ifmissing(args):
    for arg in args:
        if arg is not MISSING:
            return arg
    return MISSING


def fn_ifnull(args):
    for arg in args:
        if arg is not None and arg is not MISSING:
            return arg
    return None


def fn_ifmissingornull(args):
    for arg in args:
        if arg is not MISSING and arg is not None:
            return arg
    return None


def fn_tostring(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    value = args[0]
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        import json
        return json.dumps(value)
    return None


def fn_tonumber(args):
    check = _propagate(*args)
    if check is not _OK:
        return check
    value = args[0]
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def fn_least(args):
    present = [a for a in args if a is not MISSING and a is not None]
    if not present:
        return None
    best = present[0]
    for value in present[1:]:
        if compare(value, best) < 0:
            best = value
    return best


def fn_greatest(args):
    present = [a for a in args if a is not MISSING and a is not None]
    if not present:
        return None
    best = present[0]
    for value in present[1:]:
        if compare(value, best) > 0:
            best = value
    return best


SCALARS: dict[str, Callable[[list], Any]] = {
    "LOWER": fn_lower,
    "UPPER": fn_upper,
    "LENGTH": fn_length,
    "SUBSTR": fn_substr,
    "TRIM": fn_trim,
    "CONTAINS": fn_contains,
    "SPLIT": fn_split,
    "ABS": fn_abs,
    "ROUND": fn_round,
    "FLOOR": fn_floor,
    "CEIL": fn_ceil,
    "SQRT": fn_sqrt,
    "POWER": fn_power,
    "ARRAY_LENGTH": fn_array_length,
    "ARRAY_CONTAINS": fn_array_contains,
    "ARRAY_APPEND": fn_array_append,
    "ARRAY_DISTINCT": fn_array_distinct,
    "OBJECT_NAMES": fn_object_names,
    "OBJECT_VALUES": fn_object_values,
    "TYPE": fn_type,
    "IFMISSING": fn_ifmissing,
    "IFNULL": fn_ifnull,
    "IFMISSINGORNULL": fn_ifmissingornull,
    "TOSTRING": fn_tostring,
    "TONUMBER": fn_tonumber,
    "LEAST": fn_least,
    "GREATEST": fn_greatest,
}


# -- aggregate accumulators ------------------------------------------------------


class Accumulator:
    """Streaming aggregate state for one (group, aggregate expr)."""

    __slots__ = ("name", "distinct", "count", "total", "best", "items",
                 "_seen")

    def __init__(self, name: str, distinct: bool):
        self.name = name
        self.distinct = distinct
        self.count = 0
        self.total = 0
        self.best: Any = MISSING
        self.items: list = []
        self._seen: list = []

    def add(self, value: Any) -> None:
        if self.name == "COUNT" and value is _COUNT_STAR:
            self.count += 1
            return
        if value is MISSING or value is None:
            return  # aggregates ignore MISSING and NULL inputs
        if self.distinct:
            if any(compare(value, seen) == 0 for seen in self._seen):
                return
            self._seen.append(value)
        self.count += 1
        if self.name in ("SUM", "AVG") and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            self.total += value
        if self.name == "MIN":
            if self.best is MISSING or compare(value, self.best) < 0:
                self.best = value
        if self.name == "MAX":
            if self.best is MISSING or compare(value, self.best) > 0:
                self.best = value
        if self.name == "ARRAY_AGG":
            self.items.append(value)

    def result(self) -> Any:
        if self.name == "COUNT":
            return self.count
        if self.name == "SUM":
            return self.total if self.count else None
        if self.name == "AVG":
            return self.total / self.count if self.count else None
        if self.name in ("MIN", "MAX"):
            return None if self.best is MISSING else self.best
        if self.name == "ARRAY_AGG":
            return self.items if self.items else None
        raise N1qlRuntimeError(f"unknown aggregate {self.name}")


#: Marker fed to COUNT(*) accumulators: counts rows, not values.
_COUNT_STAR = object()
