"""Tests for JSON value helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.jsonval import (
    decode,
    deep_copy,
    encode_canonical,
    get_path,
    is_json_value,
    set_path,
    sizeof,
    unset_path,
    validate_json_value,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestIsJsonValue:
    def test_scalars(self):
        for value in (None, True, False, 0, 1.5, "s"):
            assert is_json_value(value)

    def test_containers(self):
        assert is_json_value([1, {"a": [None]}])

    def test_rejects_non_json(self):
        assert not is_json_value(object())
        assert not is_json_value({1: "int key"})
        assert not is_json_value([set()])

    def test_validate_raises(self):
        with pytest.raises(TypeError):
            validate_json_value({"x": object()})


class TestEncoding:
    def test_canonical_is_key_order_independent(self):
        assert encode_canonical({"a": 1, "b": 2}) == encode_canonical({"b": 2, "a": 1})

    @given(json_values)
    def test_roundtrip(self, value):
        assert decode(encode_canonical(value)) == value


class TestDeepCopy:
    def test_no_aliasing(self):
        original = {"a": [1, 2], "b": {"c": 3}}
        copy = deep_copy(original)
        copy["a"].append(99)
        copy["b"]["c"] = 99
        assert original == {"a": [1, 2], "b": {"c": 3}}

    @given(json_values)
    def test_equality(self, value):
        assert deep_copy(value) == value

    @given(json_values)
    def test_copies_every_container_and_plain_types(self, value):
        """Equal to the input; no dict or list of the input is shared at
        any depth (scalars may be: they are immutable); and a dict
        subclass comes back as a plain ``dict``."""
        class Tagged(dict):
            pass

        def containers(node):
            if isinstance(node, (dict, list)):
                yield node
                for child in (node.values() if isinstance(node, dict)
                              else node):
                    yield from containers(child)

        wrapped = Tagged(root=value)
        copied = deep_copy(wrapped)
        assert copied == wrapped and type(copied) is dict
        originals = {id(node) for node in containers(wrapped)}
        assert not originals & {id(node) for node in containers(copied)}
        assert all(type(node) in (dict, list) for node in containers(copied))


class TestSizeof:
    def test_monotone_in_content(self):
        assert sizeof({"a": "x" * 100}) > sizeof({"a": "x"})

    def test_list_sums_members(self):
        assert sizeof([1, 2, 3]) > sizeof([1])

    @given(json_values)
    def test_positive(self, value):
        assert sizeof(value) > 0

    def test_rejects_non_json(self):
        with pytest.raises(TypeError):
            sizeof(object())


class TestPaths:
    def setup_method(self):
        self.doc = {
            "name": "Dipti",
            "billing": {"address": {"zip": "94040"}},
            "orders": [{"sku": "a1"}, {"sku": "b2"}],
        }

    def test_get_nested(self):
        assert get_path(self.doc, "billing.address.zip") == (True, "94040")

    def test_get_through_array(self):
        assert get_path(self.doc, "orders.1.sku") == (True, "b2")

    def test_get_negative_index(self):
        assert get_path(self.doc, "orders.-1.sku") == (True, "b2")

    def test_get_missing(self):
        found, value = get_path(self.doc, "billing.phone")
        assert not found and value is None

    def test_get_through_scalar_fails(self):
        found, _ = get_path(self.doc, "name.first")
        assert not found

    def test_get_array_out_of_range(self):
        found, _ = get_path(self.doc, "orders.9.sku")
        assert not found

    def test_get_empty_path_returns_root(self):
        assert get_path(self.doc, "") == (True, self.doc)

    def test_set_creates_intermediates(self):
        set_path(self.doc, "contact.phone.home", "555")
        assert self.doc["contact"]["phone"]["home"] == "555"

    def test_set_overwrites(self):
        set_path(self.doc, "billing.address.zip", "10001")
        assert self.doc["billing"]["address"]["zip"] == "10001"

    def test_set_array_element(self):
        set_path(self.doc, "orders.0.sku", "z9")
        assert self.doc["orders"][0]["sku"] == "z9"

    def test_set_empty_path_rejected(self):
        with pytest.raises(ValueError):
            set_path(self.doc, "", 1)

    def test_unset_removes(self):
        assert unset_path(self.doc, "billing.address.zip")
        assert get_path(self.doc, "billing.address.zip") == (False, None)

    def test_unset_missing_returns_false(self):
        assert not unset_path(self.doc, "nope.nope")

    def test_unset_array_element(self):
        assert unset_path(self.doc, "orders.0")
        assert len(self.doc["orders"]) == 1
