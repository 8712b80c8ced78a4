"""GROUP BY, DISTINCT and the index's partial folds key a row by
:func:`value_key`; two values share a key exactly when their JSON
tokens -- the keys those operators used before, ``json.dumps`` with
sorted object names -- are equal."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.n1ql.collation import MISSING, value_key

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1, 2]),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, float("inf"), float("-inf"),
                     float("nan"), 1e20]),
    st.sampled_from(["", "1", "a", "true", "null", "é"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "1"]), inner,
                        max_size=3)),
    max_leaves=8)
_VALUES = st.one_of(st.just(MISSING), _JSON)


def group_token(value) -> str:
    """``run_group``'s token of one group value before value keys."""
    return json.dumps(None if value is MISSING else ["$", value],
                      sort_keys=True)


def distinct_token(value) -> str:
    """``run_distinct``'s token of one result value before value keys."""
    return json.dumps(value, sort_keys=True, default=str)


def _twin(draw, value, top: bool = True):
    """A value likely to share ``value``'s token or to differ from it
    only by a type: the same value with its objects rebuilt in another
    name order, a number or a boolean sometimes swapped for one that
    Python calls equal (``1``, ``1.0``, ``True``; ``0.0``, ``-0.0``),
    and a top-level NULL for MISSING (which occurs nowhere else)."""
    if isinstance(value, dict):
        names = draw(st.permutations(list(value)))
        return {name: _twin(draw, value[name], False) for name in names}
    if isinstance(value, list):
        return [_twin(draw, item, False) for item in value]
    swaps = {1: [1, 1.0, True], 0: [0, 0.0, -0.0, False]}
    if value is not MISSING and value is not None \
            and not isinstance(value, str) and value in swaps:
        return draw(st.sampled_from(swaps[value] + [value]))
    if value is None and top:
        return draw(st.sampled_from([None, MISSING]))
    return value


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_equal_keys_exactly_when_equal_tokens(data):
    first = data.draw(_VALUES)
    if data.draw(st.booleans()):
        second = _twin(data.draw, first)
    else:
        second = data.draw(_VALUES)
    same_key = value_key(first) == value_key(second)
    assert same_key == (group_token(first) == group_token(second))
    if first is not MISSING and second is not MISSING:
        assert same_key == (distinct_token(first) == distinct_token(second))
    if same_key:
        assert hash(value_key(first)) == hash(value_key(second))


def test_the_named_distinctions():
    distinct = [1, 1.0, True, 0, 0.0, -0.0, False, None, MISSING, "1",
                [1], [1.0], [True], [], {}, {"a": 1}, {"a": 1.0}]
    keys = [value_key(value) for value in distinct]
    assert len(set(keys)) == len(distinct)
    assert value_key({"a": 1, "b": [2, {"c": 3}]}) \
        == value_key({"b": [2, {"c": 3}], "a": 1})
    assert value_key(float("nan")) == value_key(float("nan"))
