"""JSON value ordering (collation).

N1QL and the view engine both need a total order over heterogeneous
JSON values -- for ORDER BY, for index key ordering, and for range
predicates.  Both use the same type-bracketed collation (the SQL++ /
CouchDB order the paper's systems implement):

    MISSING < NULL < FALSE < TRUE < numbers < strings < arrays < objects

* Numbers compare numerically (ints and floats interchangeably).
* Strings compare by unicode code points.
* Arrays compare element-wise, shorter-is-smaller on ties.
* Objects compare by sorted (key, value) pairs.

``MISSING`` is a sentinel distinct from JSON ``null``: the absence of a
field in a document.  It is what makes N1QL's semantics "non-first
normal form": expressions over absent fields yield MISSING, which sorts
before everything and is excluded from index entries for leading keys.
"""

from __future__ import annotations

from typing import Any


class _Missing:
    """Singleton sentinel for an absent field."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


MISSING = _Missing()


def type_rank(value: Any) -> int:
    """The collation bracket of a value.  Lower ranks sort first."""
    if value is MISSING:
        return 0
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2 if not value else 3
    if isinstance(value, (int, float)):
        return 4
    if isinstance(value, str):
        return 5
    if isinstance(value, (list, tuple)):
        return 6
    if isinstance(value, dict):
        return 7
    raise TypeError(f"not a collatable value: {value!r}")


def compare(a: Any, b: Any) -> int:
    """Three-way comparison under JSON collation: -1, 0, or +1."""
    # Fast path for like-typed scalars, the bulk of index-key
    # comparisons.  type() is exact, so bools (rank 2/3, not
    # numerically compared) fall through to the ranked path.
    kind = type(a)
    if kind is type(b) and (kind is str or kind is int or kind is float):
        if a == b:
            return 0
        return -1 if a < b else 1
    rank_a, rank_b = type_rank(a), type_rank(b)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if rank_a in (0, 1, 2, 3):  # MISSING, NULL, FALSE, TRUE: singletons
        return 0
    if rank_a == 4:
        if a == b:
            return 0
        return -1 if a < b else 1
    if rank_a == 5:
        if a == b:
            return 0
        return -1 if a < b else 1
    if rank_a == 6:
        for item_a, item_b in zip(a, b):
            order = compare(item_a, item_b)
            if order != 0:
                return order
        return (len(a) > len(b)) - (len(a) < len(b))
    # Objects: compare as sorted key/value pair lists.
    pairs_a = sorted(a.items())
    pairs_b = sorted(b.items())
    for (key_a, val_a), (key_b, val_b) in zip(pairs_a, pairs_b):
        if key_a != key_b:
            return -1 if key_a < key_b else 1
        order = compare(val_a, val_b)
        if order != 0:
            return order
    return (len(pairs_a) > len(pairs_b)) - (len(pairs_a) < len(pairs_b))


def collate_key(value: Any) -> tuple:
    """The collation key of a JSON value (or MISSING): a tuple that
    Python's ``<`` and ``==`` order exactly as :func:`compare` does, so
    ``sorted``, ``bisect`` and ``heapq`` order values in C.  The
    bracket rank leads; a number or string follows as itself (``1``,
    ``1.0`` and ``-0.0 == 0.0`` tie as they do in :func:`compare`), an
    array as the tuple of its elements' keys (shorter is smaller on a
    tie), an object as its ``(name, key)`` pairs sorted by name."""
    kind = type(value)
    if kind is str:
        return (5, value)
    if kind is int or kind is float:
        return (4, value)
    rank = type_rank(value)
    if rank == 6:
        return (6, tuple([collate_key(item) for item in value]))
    if rank == 7:
        return (7, tuple([(name, collate_key(value[name]))
                          for name in sorted(value)]))
    if rank >= 4:
        return (rank, value)
    return (rank,)  # MISSING, NULL, FALSE, TRUE: singletons


#: Private tags of :func:`value_key`: no JSON value's key equals them.
_FLOAT, _TRUE, _FALSE, _MISSING_VALUE = object(), object(), object(), object()


def value_key(value: Any) -> Any:
    """The identity of a JSON value (or MISSING) as one hashable key:
    two values get equal keys exactly when their JSON texts with sorted
    object names are equal.  So ``1``, ``1.0`` and ``true`` differ, as
    do ``0.0`` and ``-0.0`` (a float keys by its exact ``hex``) and
    MISSING and NULL, while an object's name order does not matter.  A
    string, an integer and NULL are their own key, the common case.
    GROUP BY, DISTINCT and the index's partial folds key rows by it."""
    kind = type(value)
    if kind is str or kind is int or value is None:
        return value
    if kind is float:
        return (_FLOAT, value.hex())
    if kind is bool:
        return _TRUE if value else _FALSE
    if kind is list:
        return tuple([value_key(item) for item in value])
    if kind is dict:
        return frozenset([(name, value_key(item))
                          for name, item in value.items()])
    if value is MISSING:
        return _MISSING_VALUE
    raise TypeError(f"not a JSON value: {value!r}")


def equal(a: Any, b: Any) -> bool:
    return compare(a, b) == 0


def less(a: Any, b: Any) -> bool:
    return compare(a, b) < 0

