"""Tests for JSON collation and N1QL expression evaluation (MISSING and
NULL semantics, operators, functions)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gsi.storage import HIGH_BOUND, LOW_BOUND
from repro.n1ql.collation import (
    MISSING,
    collate_key,
    compare,
    equal,
    less,
    type_rank,
)
from repro.common.errors import N1qlSemanticError
from repro.n1ql import syntax
from repro.n1ql.compile import _HANDLERS, compile_expr
from repro.n1ql.expressions import Env, Evaluator
from repro.n1ql.parser import Parser

from .reference_evaluator import ReferenceEvaluator

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _compiled(expr, params, default_alias, env):
    return compile_expr(expr, default_alias)(
        env, Evaluator(params, default_alias))


def _reference(expr, params, default_alias, env):
    return ReferenceEvaluator(params, default_alias).evaluate(expr, env)


@pytest.fixture(params=[_compiled, _reference],
                ids=["compiled", "reference"])
def eval_expr(request):
    """The shipped compiled closures and the tree-walking reference
    evaluator must both satisfy every semantic case below."""
    def run(text, env=None, params=None, default_alias=None):
        expr = Parser(text).parse_expr()
        return request.param(expr, params or {}, default_alias, env or Env())

    return run


class TestCollation:
    def test_type_bracket_order(self):
        """MISSING < NULL < FALSE < TRUE < number < string < array < object."""
        ladder = [MISSING, None, False, True, 0, "", [], {}]
        for i in range(len(ladder) - 1):
            assert compare(ladder[i], ladder[i + 1]) < 0

    def test_numbers_numeric(self):
        assert less(2, 10)
        assert equal(1, 1.0)

    def test_strings_codepoint(self):
        assert less("a", "b")
        assert less("Z", "a")  # uppercase before lowercase in unicode

    def test_arrays_elementwise(self):
        assert less([1, 2], [1, 3])
        assert less([1], [1, 0])
        assert equal([1, [2]], [1, [2]])

    def test_objects_by_sorted_pairs(self):
        assert equal({"a": 1, "b": 2}, {"b": 2, "a": 1})
        assert less({"a": 1}, {"a": 2})
        assert less({"a": 1}, {"b": 0})

    def test_bools_not_numbers(self):
        assert less(True, 0)

    @given(json_values, json_values)
    def test_antisymmetry(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(json_values, json_values, json_values)
    @settings(max_examples=60)
    def test_transitivity_via_sorting(self, a, b, c):
        ordered = sorted([a, b, c], key=collate_key)
        for i in range(2):
            assert compare(ordered[i], ordered[i + 1]) <= 0

    @given(json_values)
    def test_reflexive(self, a):
        assert compare(a, a) == 0

    def test_type_rank_rejects_garbage(self):
        with pytest.raises(TypeError):
            type_rank(object())
        with pytest.raises(TypeError):
            collate_key([object()])


def sign(number: int) -> int:
    return (number > 0) - (number < 0)


#: Values whose JSON differs but which collate equal or close: ``1`` /
#: ``1.0`` / ``True``, ``-0.0`` / ``0.0``, and the scan sentinels.
TRICKY = [1, 1.0, True, False, 0, -0.0, 0.0, "", "\uffff", LOW_BOUND,
          HIGH_BOUND, {"\uffff": "\uffff"}, {"\uffff": "\uffff", "a": 1}]

collatable = st.recursive(
    st.sampled_from([MISSING, None] + TRICKY)
    | st.integers(-3, 3) | st.floats(allow_nan=False, width=32)
    | st.text("ab\uffff", max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.tuples(children, children)
    | st.dictionaries(st.text("ab\uffff", max_size=2), children, max_size=3),
    max_leaves=10,
)


class TestCollateKey:
    """``collate_key`` orders values exactly as ``compare`` does, so
    every sort, bisect and merge can use Python's native ``<``."""

    @settings(max_examples=400)
    @given(collatable, collatable)
    @example(1, 1.0)
    @example(1, True)
    @example(-0.0, 0.0)
    @example([1, [2, {"a": MISSING}]], [1.0, [2, {"a": None}]])
    @example({"a": [1]}, {"a": [1], "b": 0})
    @example({"b": 1}, {"a": 1, "c": 1})
    @example(["x"], HIGH_BOUND)
    @example("zz", LOW_BOUND)
    @example([MISSING], [])
    def test_the_key_orders_like_the_comparator(self, a, b):
        key_a, key_b = collate_key(a), collate_key(b)
        assert sign(compare(a, b)) == (key_a > key_b) - (key_a < key_b)
        assert (key_a == key_b) == (compare(a, b) == 0)

    @settings(max_examples=200)
    @given(collatable)
    def test_the_doc_id_sentinels_bracket_every_doc_id(self, value):
        """``LOW_BOUND`` is before every string and ``HIGH_BOUND`` after
        every scalar and array, as they are under ``compare``."""
        if isinstance(value, str):
            assert collate_key(LOW_BOUND) <= collate_key(value)
        if not isinstance(value, dict):
            assert collate_key(value) < collate_key(HIGH_BOUND)


class TestLiteralsAndParams:
    def test_literals(self, eval_expr):
        assert eval_expr("42") == 42
        assert eval_expr("'hi'") == "hi"
        assert eval_expr("TRUE") is True
        assert eval_expr("NULL") is None
        assert eval_expr("MISSING") is MISSING

    def test_array_object_literals(self, eval_expr):
        assert eval_expr("[1, 'a', [2]]") == [1, "a", [2]]
        assert eval_expr('{"a": 1, "b": {"c": 2}}') == {"a": 1, "b": {"c": 2}}

    def test_object_literal_drops_missing(self, eval_expr):
        assert eval_expr('{"a": MISSING, "b": 1}') == {"b": 1}

    def test_params(self, eval_expr):
        assert eval_expr("$x", params={"x": 9}) == 9
        assert eval_expr("$1 + $2", params={"1": 1, "2": 2}) == 3

    def test_missing_param_raises(self, eval_expr):
        from repro.common.errors import N1qlSemanticError
        with pytest.raises(N1qlSemanticError):
            eval_expr("$nope")


class TestFieldAccess:
    def make_env(self):
        env = Env()
        env.bind("p", {"name": "Dipti", "address": {"zip": "94040"},
                       "tags": ["a", "b"]}, {"id": "u1", "cas": 7})
        return env

    def test_field(self, eval_expr):
        assert eval_expr("p.name", self.make_env()) == "Dipti"

    def test_nested(self, eval_expr):
        assert eval_expr("p.address.zip", self.make_env()) == "94040"

    def test_absent_is_missing(self, eval_expr):
        assert eval_expr("p.ghost", self.make_env()) is MISSING
        assert eval_expr("p.ghost.deeper", self.make_env()) is MISSING

    def test_element_access(self, eval_expr):
        assert eval_expr("p.tags[1]", self.make_env()) == "b"
        assert eval_expr("p.tags[-1]", self.make_env()) == "b"
        assert eval_expr("p.tags[9]", self.make_env()) is MISSING

    def test_default_alias_resolution(self, eval_expr):
        assert eval_expr("name", self.make_env(), default_alias="p") == "Dipti"

    def test_meta(self, eval_expr):
        assert eval_expr("meta(p).id", self.make_env()) == "u1"
        assert eval_expr("meta().cas", self.make_env(),
                         default_alias="p") == 7


class TestOperators:
    def test_arithmetic(self, eval_expr):
        assert eval_expr("2 + 3 * 4") == 14
        assert eval_expr("10 / 4") == 2.5
        assert eval_expr("10 % 3") == 1
        assert eval_expr("-(2 + 3)") == -5

    def test_division_by_zero_is_null(self, eval_expr):
        assert eval_expr("1 / 0") is None
        assert eval_expr("1 % 0") is None

    def test_arithmetic_on_non_numbers_is_null(self, eval_expr):
        assert eval_expr("'a' + 1") is None
        assert eval_expr("TRUE + 1") is None

    def test_arithmetic_missing_propagates(self, eval_expr):
        assert eval_expr("MISSING + 1") is MISSING

    def test_comparisons(self, eval_expr):
        assert eval_expr("1 < 2") is True
        assert eval_expr("'a' != 'b'") is True
        assert eval_expr("[1,2] = [1,2]") is True

    def test_comparison_null_missing(self, eval_expr):
        assert eval_expr("1 = NULL") is None
        assert eval_expr("1 = MISSING") is MISSING
        assert eval_expr("NULL = MISSING") is MISSING

    def test_and_or_truth_tables(self, eval_expr):
        assert eval_expr("TRUE AND FALSE") is False
        assert eval_expr("FALSE AND MISSING") is False
        assert eval_expr("TRUE AND MISSING") is MISSING
        assert eval_expr("TRUE AND NULL") is None
        assert eval_expr("FALSE OR TRUE") is True
        assert eval_expr("NULL OR MISSING") is None
        assert eval_expr("MISSING OR MISSING") is MISSING
        assert eval_expr("FALSE OR FALSE") is False

    def test_not(self, eval_expr):
        assert eval_expr("NOT TRUE") is False
        assert eval_expr("NOT NULL") is None
        assert eval_expr("NOT MISSING") is MISSING

    def test_concat(self, eval_expr):
        assert eval_expr("'a' || 'b'") == "ab"
        assert eval_expr("'a' || 1") is None

    def test_like(self, eval_expr):
        assert eval_expr("'Dipti' LIKE 'Di%'") is True
        assert eval_expr("'Dipti' LIKE 'D_pti'") is True
        assert eval_expr("'Dipti' NOT LIKE 'x%'") is True
        assert eval_expr("'a.b' LIKE 'a.b'") is True
        assert eval_expr("'axb' LIKE 'a.b'") is False  # dot is literal

    def test_between(self, eval_expr):
        assert eval_expr("5 BETWEEN 1 AND 10") is True
        assert eval_expr("5 NOT BETWEEN 6 AND 10") is True

    def test_in(self, eval_expr):
        assert eval_expr("2 IN [1, 2, 3]") is True
        assert eval_expr("9 NOT IN [1, 2]") is True
        assert eval_expr("1 IN 'notarray'") is None

    def test_is_family(self, eval_expr):
        assert eval_expr("NULL IS NULL") is True
        assert eval_expr("MISSING IS MISSING") is True
        assert eval_expr("MISSING IS NULL") is MISSING
        assert eval_expr("1 IS VALUED") is True
        assert eval_expr("NULL IS NOT VALUED") is True

    def test_case(self, eval_expr):
        assert eval_expr("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END") == "b"
        assert eval_expr("CASE WHEN FALSE THEN 1 END") is None
        assert eval_expr("CASE WHEN FALSE THEN 1 ELSE 9 END") == 9


class TestCollectionConstructs:
    def make_env(self):
        env = Env()
        env.bind("doc", {"tags": ["red", "urgent", "red"],
                         "items": [{"sku": "a", "qty": 2},
                                   {"sku": "b", "qty": 0}]})
        return env

    def test_any_satisfies(self, eval_expr):
        env = self.make_env()
        assert eval_expr("ANY t IN doc.tags SATISFIES t = 'urgent' END", env) is True
        assert eval_expr("ANY t IN doc.tags SATISFIES t = 'green' END", env) is False

    def test_every_satisfies(self, eval_expr):
        env = self.make_env()
        assert eval_expr(
            "EVERY i IN doc.items SATISFIES i.qty >= 0 END", env) is True
        assert eval_expr(
            "EVERY i IN doc.items SATISFIES i.qty > 0 END", env) is False

    def test_every_empty_collection_false(self, eval_expr):
        env = Env()
        env.bind("doc", {"xs": []})
        assert eval_expr("EVERY x IN doc.xs SATISFIES TRUE END", env) is False

    def test_array_comprehension(self, eval_expr):
        env = self.make_env()
        assert eval_expr("ARRAY i.sku FOR i IN doc.items END", env) == ["a", "b"]

    def test_array_comprehension_when(self, eval_expr):
        env = self.make_env()
        assert eval_expr(
            "ARRAY i.sku FOR i IN doc.items WHEN i.qty > 0 END", env) == ["a"]

    def test_distinct_array(self, eval_expr):
        env = self.make_env()
        assert eval_expr("DISTINCT ARRAY t FOR t IN doc.tags END", env) == [
            "red", "urgent",
        ]

    def test_comprehension_over_non_array(self, eval_expr):
        env = self.make_env()
        assert eval_expr("ARRAY x FOR x IN doc.absent END", env) is MISSING
        assert eval_expr("ARRAY x FOR x IN 5 END", env) is None


class TestFunctions:
    def test_string_functions(self, eval_expr):
        assert eval_expr("LOWER('AbC')") == "abc"
        assert eval_expr("UPPER('abc')") == "ABC"
        assert eval_expr("LENGTH('abcd')") == 4
        assert eval_expr("SUBSTR('hello', 1, 3)") == "ell"
        assert eval_expr("TRIM('  x ')") == "x"
        assert eval_expr("CONTAINS('hello', 'ell')") is True
        assert eval_expr("SPLIT('a,b', ',')") == ["a", "b"]

    def test_numeric_functions(self, eval_expr):
        assert eval_expr("ABS(-3)") == 3
        assert eval_expr("ROUND(2.567, 1)") == 2.6
        assert eval_expr("FLOOR(2.9)") == 2
        assert eval_expr("CEIL(2.1)") == 3
        assert eval_expr("SQRT(16)") == 4
        assert eval_expr("POWER(2, 10)") == 1024

    def test_array_functions(self, eval_expr):
        assert eval_expr("ARRAY_LENGTH([1,2,3])") == 3
        assert eval_expr("ARRAY_CONTAINS([1,2], 2)") is True
        assert eval_expr("ARRAY_APPEND([1], 2)") == [1, 2]
        assert eval_expr("ARRAY_DISTINCT([1,1,2])") == [1, 2]

    def test_type_functions(self, eval_expr):
        assert eval_expr("TYPE(1)") == "number"
        assert eval_expr("TYPE('x')") == "string"
        assert eval_expr("TYPE(MISSING)") == "missing"
        assert eval_expr("TOSTRING(12)") == "12"
        assert eval_expr("TONUMBER('3.5')") == 3.5
        assert eval_expr("TONUMBER('zz')") is None

    def test_conditional_functions(self, eval_expr):
        assert eval_expr("IFMISSING(MISSING, 2)") == 2
        assert eval_expr("IFNULL(NULL, 3)") == 3
        assert eval_expr("IFMISSINGORNULL(MISSING, NULL, 4)") == 4
        assert eval_expr("LEAST(3, 1, 2)") == 1
        assert eval_expr("GREATEST(3, 1, 2)") == 3

    def test_missing_propagation_in_functions(self, eval_expr):
        assert eval_expr("LOWER(MISSING)") is MISSING
        assert eval_expr("LOWER(NULL)") is None
        assert eval_expr("LOWER(5)") is None

    def test_unknown_function(self, eval_expr):
        from repro.common.errors import N1qlSemanticError
        with pytest.raises(N1qlSemanticError):
            eval_expr("FROBNICATE(1)")

    def test_aggregate_outside_group_raises(self, eval_expr):
        from repro.common.errors import N1qlSemanticError
        with pytest.raises(N1qlSemanticError):
            eval_expr("SUM(x)")


class TestCompilerCoverage:
    """No interpreter stands behind the compiler, so a gap must fail at
    compile time, never evaluate to something."""

    def test_every_expr_node_has_a_handler(self):
        node_types = {
            cls for cls in vars(syntax).values()
            if isinstance(cls, type) and issubclass(cls, syntax.Expr)
            and cls is not syntax.Expr
        }
        assert len(node_types) >= 17
        assert node_types == set(_HANDLERS)

    def test_unknown_node_type_raises(self):
        class Mystery(syntax.Expr):
            pass

        with pytest.raises(N1qlSemanticError, match="Mystery"):
            compile_expr(Mystery(), None)

    def test_unknown_operators_raise(self):
        one = syntax.Literal(1)
        with pytest.raises(N1qlSemanticError, match="unary operator ~"):
            compile_expr(syntax.Unary("~", one), None)
        with pytest.raises(N1qlSemanticError, match="binary operator XOR"):
            compile_expr(syntax.Binary("XOR", one, one), None)
