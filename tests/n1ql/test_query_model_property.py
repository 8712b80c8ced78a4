"""Property-based N1QL tests against an independent Python model.

For random documents and random WHERE predicates, the N1QL engine must
return exactly the rows a straightforward Python evaluation of the same
predicate returns -- and it must return the *same* rows no matter which
access path the planner picks (primary scan vs. secondary index scan),
since index selection is supposed to be invisible to correctness.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.n1ql.collation import MISSING
from repro.n1ql.compile import compile_expr
from repro.n1ql.expressions import Env
from repro.n1ql.parser import parse

from .reference_evaluator import ReferenceEvaluator

# -- document and predicate generators ---------------------------------------

documents = st.lists(
    st.fixed_dictionaries(
        {"a": st.integers(0, 20)},
        optional={
            "b": st.sampled_from(["red", "green", "blue"]),
            "c": st.integers(-5, 5),
        },
    ),
    min_size=0,
    max_size=12,
)


@st.composite
def leaf_predicates(draw):
    field = draw(st.sampled_from(["a", "b", "c"]))
    if field == "b":
        op = draw(st.sampled_from(["=", "!="]))
        value = draw(st.sampled_from(["red", "green", "blue"]))
        literal = f"'{value}'"
    else:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        value = draw(st.integers(-6, 21))
        literal = str(value)
    return {"kind": "cmp", "field": field, "op": op, "value": value,
            "n1ql": f"x.{field} {op} {literal}"}


@st.composite
def predicates(draw):
    shape = draw(st.sampled_from(["leaf", "and", "or", "missing"]))
    if shape == "leaf":
        return draw(leaf_predicates())
    if shape == "missing":
        field = draw(st.sampled_from(["b", "c"]))
        negated = draw(st.booleans())
        word = "IS NOT MISSING" if negated else "IS MISSING"
        return {"kind": "missing", "field": field, "negated": negated,
                "n1ql": f"x.{field} {word}"}
    left = draw(leaf_predicates())
    right = draw(leaf_predicates())
    word = shape.upper()
    return {"kind": shape, "left": left, "right": right,
            "n1ql": f"({left['n1ql']}) {word} ({right['n1ql']})"}


# -- the independent model ------------------------------------------------------

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def model_matches(predicate, doc) -> bool:
    """Ground truth: N1QL keeps a row only when the predicate is exactly
    TRUE; a comparison against an absent field is MISSING (not true)."""
    kind = predicate["kind"]
    if kind == "cmp":
        if predicate["field"] not in doc:
            return False
        actual = doc[predicate["field"]]
        expected = predicate["value"]
        if isinstance(actual, str) != isinstance(expected, str):
            return False  # cross-type comparisons never match here
        return _OPS[predicate["op"]](actual, expected)
    if kind == "missing":
        absent = predicate["field"] not in doc
        return (not absent) if predicate["negated"] else absent
    left = model_matches(predicate["left"], doc)
    right = model_matches(predicate["right"], doc)
    return (left and right) if kind == "and" else (left or right)


def build_cluster(docs):
    cluster = Cluster(nodes=2, vbuckets=8)
    cluster.create_bucket("b", replicas=0)
    client = cluster.connect()
    for index, doc in enumerate(docs):
        client.upsert("b", f"doc{index:03d}", doc)
    cluster.run_until_idle()
    return cluster


class TestWherePredicates:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents, predicates())
    def test_matches_model_via_primary_scan(self, docs, predicate):
        cluster = build_cluster(docs)
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        rows = cluster.query(
            f"SELECT meta(x).id AS id FROM b x WHERE {predicate['n1ql']}",
            scan_consistency="request_plus",
        ).rows
        got = {row["id"] for row in rows}
        expected = {
            f"doc{index:03d}" for index, doc in enumerate(docs)
            if model_matches(predicate, doc)
        }
        assert got == expected

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents, leaf_predicates())
    def test_access_path_independence(self, docs, predicate):
        """The same query answered via PrimaryScan and via a secondary
        IndexScan must return identical rows."""
        cluster = build_cluster(docs)
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        query = (f"SELECT meta(x).id AS id FROM b x "
                 f"WHERE {predicate['n1ql']}")
        via_primary = {
            r["id"] for r in cluster.query(
                query, scan_consistency="request_plus").rows
        }
        # Now add the secondary index; equality/range conjuncts on the
        # field become index scans.
        cluster.query(
            f"CREATE INDEX sec ON b({predicate['field']}) USING GSI")
        explain = cluster.query("EXPLAIN " + query)
        scan_op = explain.rows[0]["~children"][0]
        via_secondary = {
            r["id"] for r in cluster.query(
                query, scan_consistency="request_plus").rows
        }
        assert via_primary == via_secondary
        # Sanity: sargable operators actually switched the access path.
        if predicate["op"] in ("=", "<", "<=", ">", ">="):
            assert scan_op["#operator"] == "IndexScan"
            assert scan_op["index"] == "sec"

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents)
    def test_count_star_matches_len(self, docs):
        cluster = build_cluster(docs)
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        rows = cluster.query(
            "SELECT COUNT(*) AS n FROM b x",
            scan_consistency="request_plus",
        ).rows
        assert rows[0]["n"] == len(docs)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents, st.integers(0, 5), st.integers(0, 5))
    def test_order_limit_offset_window(self, docs, limit, offset):
        cluster = build_cluster(docs)
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        everything = cluster.query(
            "SELECT meta(x).id AS id, x.a FROM b x ORDER BY x.a, meta(x).id",
            scan_consistency="request_plus",
        ).rows
        window = cluster.query(
            "SELECT meta(x).id AS id, x.a FROM b x ORDER BY x.a, meta(x).id "
            f"LIMIT {limit} OFFSET {offset}",
            scan_consistency="request_plus",
        ).rows
        assert window == everything[offset:offset + limit]
        model = sorted(
            (doc.get("a"), f"doc{i:03d}") for i, doc in enumerate(docs)
        )
        assert [row["id"] for row in everything] == [key for _a, key in model]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents)
    def test_group_by_matches_model(self, docs):
        cluster = build_cluster(docs)
        cluster.query("CREATE PRIMARY INDEX ON b USING GSI")
        rows = cluster.query(
            "SELECT x.a, COUNT(*) AS n FROM b x GROUP BY x.a ORDER BY x.a",
            scan_consistency="request_plus",
        ).rows
        from collections import Counter
        model = Counter(doc["a"] for doc in docs)
        assert {(r["a"], r["n"]) for r in rows} == set(model.items())


# -- compiled vs. reference expression evaluation ------------------------------
#
# The expression compiler (n1ql/compile.py) lowers ASTs into closures
# once per plan.  It must be *observationally identical* to the tree-
# walking ReferenceEvaluator, including the MISSING/NULL discipline and
# exact result types (True is not 1; 2 is not 2.0).

@st.composite
def scalar_expressions(draw, depth=0):
    """Random N1QL scalar expression strings over fields of alias x.

    ``x.a`` is always an int, ``x.b``/``x.c`` are sometimes absent, and
    ``x.d`` never exists -- so MISSING propagation is exercised
    constantly, not just at the fringes.
    """
    # No negative literals: "-3" under a NOT/negation shape would lex
    # "--" as a line comment.  Negative values come from the neg shape.
    leaves = ["x.a", "x.b", "x.c", "x.d", "7", "3", "2.5", "'red'",
              "'zz'", "NULL", "TRUE", "FALSE"]
    if depth >= 3:
        return draw(st.sampled_from(leaves))
    shape = draw(st.sampled_from(
        ["leaf", "leaf", "arith", "cmp", "and", "or", "not", "neg",
         "is", "between", "in", "concat", "case"]))
    if shape == "leaf":
        return draw(st.sampled_from(leaves))
    sub = scalar_expressions(depth=depth + 1)
    if shape == "arith":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        return f"({draw(sub)} {op} {draw(sub)})"
    if shape == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return f"({draw(sub)} {op} {draw(sub)})"
    if shape in ("and", "or"):
        return f"({draw(sub)} {shape.upper()} {draw(sub)})"
    if shape == "not":
        return f"(NOT {draw(sub)})"
    if shape == "neg":
        return f"(-{draw(sub)})"
    if shape == "is":
        word = draw(st.sampled_from(
            ["IS MISSING", "IS NOT MISSING", "IS NULL", "IS NOT NULL",
             "IS VALUED"]))
        return f"({draw(sub)} {word})"
    if shape == "between":
        return f"({draw(sub)} BETWEEN {draw(sub)} AND {draw(sub)})"
    if shape == "in":
        items = ", ".join(draw(st.lists(sub, min_size=1, max_size=3)))
        return f"({draw(sub)} IN [{items}])"
    if shape == "concat":
        return f"({draw(sub)} || {draw(sub)})"
    when = draw(sub)
    then = draw(sub)
    otherwise = draw(sub)
    return f"(CASE WHEN {when} THEN {then} ELSE {otherwise} END)"


expression_documents = st.fixed_dictionaries(
    {"a": st.integers(-5, 20)},
    optional={
        "b": st.sampled_from(["red", "green", "blue"]),
        "c": st.integers(-5, 5),
    },
)


class TestCompiledMatchesReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(expression_documents, scalar_expressions())
    def test_compiled_equals_reference(self, doc, text):
        statement = parse(f"SELECT {text} AS v FROM b x")
        expr = statement.projections[0].expr
        evaluator = ReferenceEvaluator({}, default_alias="x")

        def fresh_env():
            env = Env()
            env.bind("x", dict(doc), {"id": "d1"})
            return env

        expected = evaluator.evaluate(expr, fresh_env())
        compiled = compile_expr(expr, "x")
        got = compiled(fresh_env(), evaluator)
        # MISSING must stay the sentinel (never collapse to None), and
        # result types must match exactly (bool vs int, int vs float).
        assert (got is MISSING) == (expected is MISSING)
        if expected is not MISSING:
            assert type(got) is type(expected)
            assert got == expected

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(expression_documents, scalar_expressions())
    def test_compiled_predicate_verdict_matches(self, doc, text):
        """WHERE keeps a row only on exact TRUE; the compiled predicate
        must reach the same verdict as the reference for every
        expression, including non-boolean and MISSING results."""
        statement = parse(f"SELECT x.a FROM b x WHERE {text}")
        condition = statement.where
        evaluator = ReferenceEvaluator({}, default_alias="x")
        env = Env()
        env.bind("x", dict(doc), {"id": "d1"})
        expected = evaluator.evaluate(condition, env) is True
        compiled = compile_expr(condition, "x")
        assert (compiled(env, evaluator) is True) == expected
