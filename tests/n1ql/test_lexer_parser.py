"""Tests for the N1QL lexer and parser."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.errors import N1qlSyntaxError
from repro.n1ql.lexer import tokenize
from repro.n1ql.parser import parse
from repro.n1ql.syntax import (
    ArrayComprehension,
    Between,
    Binary,
    CaseExpr,
    CollectionPredicate,
    CreateIndexStatement,
    CreatePrimaryIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ExplainStatement,
    FieldAccess,
    FunctionCall,
    Identifier,
    InsertStatement,
    JoinClause,
    Literal,
    NestClause,
    Parameter,
    SelectStatement,
    UnnestClause,
    UpdateStatement,
)

#: Text from the characters the lexer gives meaning to, mixed with
#: arbitrary Unicode.
n1ql_text = st.lists(
    st.sampled_from(["'", '"', "`", "\\", "$", "?", "#", "@", "/*", "*/",
                     "--", "\n", " ", "1", ".", "e", "x"])
    | st.characters(),
    max_size=24,
).map("".join)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select SELECT SeLeCt")
        assert all(t.is_keyword("SELECT") for t in tokens[:3])

    def test_strings_both_quotes(self):
        tokens = tokenize("'single' \"double\"")
        assert tokens[0].value == "single"
        assert tokens[1].value == "double"

    def test_string_escapes(self):
        assert tokenize(r"'a\'b'")[0].value == "a'b"
        assert tokenize("'it''s'")[0].value == "it's"
        # A string doubles only its own quote.
        assert tokenize("'a\"\"b'")[0].value == 'a""b'
        assert tokenize('"a\'\'b"')[0].value == "a''b"

    def test_backtick_identifier(self):
        tokens = tokenize("`Profile Bucket`")
        assert tokens[0].kind == "ident"
        assert tokens[0].value == "Profile Bucket"

    def test_numbers(self):
        tokens = tokenize("42 3.25 1e3 2.5e-2")
        assert [t.value for t in tokens[:4]] == [42, 3.25, 1000.0, 0.025]

    def test_params(self):
        tokens = tokenize("$1 $name ?")
        assert [t.value for t in tokens[:3]] == ["1", "name", "?"]
        assert all(t.kind == "param" for t in tokens[:3])

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- line comment\n1 /* block */ + 2")
        values = [t.value for t in tokens if t.kind != "eof"]
        assert values == ["SELECT", 1, "+", 2]

    def test_line_column_tracking(self):
        tokens = tokenize("SELECT\n  name")
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_positions_after_a_multi_line_string_or_identifier(self):
        """A newline inside a string literal (or a backtick identifier)
        starts a new line for everything after it."""
        text = 'SELECT "a\nb" AS s\nFROM b x WHERE x.y = @'
        tokens = tokenize('SELECT "a\nb" AS s\nFROM b')
        assert tokens[1].value == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (1, 8)
        assert (tokens[2].value, tokens[2].line, tokens[2].column) \
            == ("AS", 2, 4)
        assert (tokens[4].value, tokens[4].line, tokens[4].column) \
            == ("FROM", 3, 1)
        with pytest.raises(N1qlSyntaxError) as raised:
            tokenize(text)
        assert (raised.value.line, raised.value.column) == (3, 22)
        tokens = tokenize("SELECT `a\nb` AS s")
        assert (tokens[2].value, tokens[2].line, tokens[2].column) \
            == ("AS", 2, 4)
        # An escaped \n is a newline in the value, not in the source.
        tokens = tokenize(r'SELECT "a\nb" AS s')
        assert tokens[1].value == "a\nb"
        assert (tokens[2].line, tokens[2].column) == (1, 15)
        # An escaped raw newline is a newline in the value and the source.
        tokens = tokenize('SELECT "a\\\nb" AS s')
        assert tokens[1].value == "a\nb"
        assert (tokens[2].line, tokens[2].column) == (2, 4)

    def test_errors(self):
        with pytest.raises(N1qlSyntaxError):
            tokenize("'unterminated")
        # An unterminated string is reported where the text ends.
        with pytest.raises(N1qlSyntaxError) as raised:
            tokenize("SELECT 'un\nterminated")
        assert (raised.value.line, raised.value.column) == (2, 11)
        with pytest.raises(N1qlSyntaxError):
            tokenize("`unterminated")
        with pytest.raises(N1qlSyntaxError):
            tokenize("$ ")
        with pytest.raises(N1qlSyntaxError):
            tokenize("@")
        with pytest.raises(N1qlSyntaxError, match="unterminated block comment"):
            tokenize("SELECT 1 /* open")
        # '²' is a digit to str.isdigit() but no decimal digit.
        with pytest.raises(N1qlSyntaxError,
                           match="unexpected character '²'") as raised:
            tokenize("SELECT ² FROM b")
        assert (raised.value.line, raised.value.column) == (1, 8)

    @given(n1ql_text)
    @example("SELECT ² FROM b")
    @example('SELECT "a\\\nb" AS s')
    def test_positions_map_to_source_offsets(self, text):
        """Text lexes or raises N1qlSyntaxError.  Each token's (line,
        column) is the offset its source starts at -- lexing the text from
        there yields the same token first -- and eof's is the text's end.
        The examples pin a non-decimal digit and an escaped raw newline,
        which random text rarely combines into a failing input."""
        try:
            tokens = tokenize(text)
        except N1qlSyntaxError:
            return
        assert [token.kind for token in tokens].count("eof") == 1
        assert tokens[-1].kind == "eof"
        lines = text.split("\n")

        def offset(token):
            assert 1 <= token.column <= len(lines[token.line - 1]) + 1
            return sum(len(line) + 1 for line in lines[:token.line - 1]) \
                + token.column - 1

        for token in tokens[:-1]:
            first = tokenize(text[offset(token):])[0]
            assert (first.kind, first.value) == (token.kind, token.value)
        assert offset(tokens[-1]) == len(text)


class TestSelectParsing:
    def test_minimal(self):
        statement = parse("SELECT 1")
        assert isinstance(statement, SelectStatement)
        assert statement.from_term is None

    def test_star(self):
        statement = parse("SELECT * FROM b")
        assert statement.projections[0].expr is None
        assert statement.from_term.keyspace == "b"
        assert statement.from_term.alias == "b"

    def test_alias_star(self):
        statement = parse("SELECT p.* FROM profiles p")
        assert statement.projections[0].star_of == "p"

    def test_aliases(self):
        statement = parse("SELECT name AS n, age a FROM bucket AS b")
        assert statement.projections[0].alias == "n"
        assert statement.projections[1].alias == "a"
        assert statement.from_term.alias == "b"

    def test_raw(self):
        statement = parse("SELECT RAW name FROM b")
        assert statement.raw
        with pytest.raises(N1qlSyntaxError):
            parse("SELECT RAW a, b FROM c")

    def test_distinct(self):
        assert parse("SELECT DISTINCT x FROM b").distinct

    def test_use_keys_single(self):
        """The paper's USE KEYS example (section 3.2.3)."""
        statement = parse(
            'SELECT * FROM profiles USE KEYS "acme-uuid-1234-5678"'
        )
        assert isinstance(statement.from_term.use_keys, Literal)

    def test_use_keys_array(self):
        statement = parse(
            'SELECT * FROM profiles USE KEYS ["k1", "k2"]'
        )
        assert statement.from_term.use_keys is not None

    def test_where_precedence(self):
        statement = parse("SELECT x FROM b WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(statement.where, Binary)
        assert statement.where.op == "OR"
        assert statement.where.right.op == "AND"

    def test_join_on_keys(self):
        statement = parse(
            "SELECT * FROM orders o INNER JOIN customer c ON KEYS o.o_c_id"
        )
        join = statement.joins[0]
        assert isinstance(join, JoinClause)
        assert join.keyspace == "customer"
        assert not join.outer

    def test_left_outer_join(self):
        statement = parse(
            "SELECT * FROM a LEFT OUTER JOIN b ON KEYS a.bid"
        )
        assert statement.joins[0].outer

    def test_general_join_rejected(self):
        """Section 3.2.4: general joins are not supported linguistically."""
        with pytest.raises(N1qlSyntaxError, match="ON KEYS"):
            parse("SELECT * FROM a JOIN b ON a.x = b.y")

    def test_nest(self):
        statement = parse(
            "SELECT po.personal_details, orders FROM profiles_orders po "
            "USE KEYS 'borkar123' "
            "NEST profiles_orders AS orders "
            "ON KEYS ARRAY s.order_id FOR s IN po.shipped_order_history END"
        )
        nest = statement.joins[0]
        assert isinstance(nest, NestClause)
        assert isinstance(nest.on_keys, ArrayComprehension)

    def test_unnest(self):
        statement = parse(
            "SELECT DISTINCT categories FROM product "
            "UNNEST product.categories AS categories"
        )
        unnest = statement.joins[0]
        assert isinstance(unnest, UnnestClause)
        assert unnest.alias == "categories"

    def test_group_having(self):
        statement = parse(
            "SELECT age, COUNT(*) FROM b GROUP BY age HAVING COUNT(*) > 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_limit_offset(self):
        statement = parse(
            "SELECT x FROM b ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5"
        )
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert isinstance(statement.limit, Literal)
        assert isinstance(statement.offset, Literal)

    def test_let(self):
        statement = parse("SELECT x FROM b LET y = a + 1 WHERE y > 2")
        assert statement.let_bindings[0][0] == "y"

    def test_ycsb_e_query(self):
        """The exact workload-E query from the appendix."""
        statement = parse(
            "SELECT meta().id AS id FROM `bucket` "
            "WHERE meta().id >= $1 LIMIT $2"
        )
        assert isinstance(statement.limit, Parameter)
        assert isinstance(statement.where, Binary)


class TestExpressionParsing:
    def where_of(self, condition):
        return parse(f"SELECT x FROM b WHERE {condition}").where

    def test_between(self):
        expr = self.where_of("age BETWEEN 20 AND 30")
        assert isinstance(expr, Between)

    def test_not_between(self):
        assert self.where_of("age NOT BETWEEN 1 AND 2").negated

    def test_in(self):
        expr = self.where_of("x IN [1, 2, 3]")
        assert not expr.negated

    def test_is_missing_family(self):
        assert self.where_of("x IS MISSING").what == "MISSING"
        assert self.where_of("x IS NOT NULL").negated
        assert self.where_of("x IS VALUED").what == "VALUED"

    def test_like(self):
        expr = self.where_of("name LIKE 'Di%'")
        assert expr.op == "LIKE"
        assert self.where_of("name NOT LIKE 'x%'").op == "NOT LIKE"

    def test_case(self):
        expr = self.where_of("CASE WHEN a > 1 THEN 'big' ELSE 'small' END = 'big'")
        assert isinstance(expr.left, CaseExpr)

    def test_any_satisfies(self):
        expr = self.where_of("ANY t IN tags SATISFIES t = 'urgent' END")
        assert isinstance(expr, CollectionPredicate)
        assert expr.quantifier == "ANY"

    def test_every_satisfies(self):
        expr = self.where_of("EVERY t IN tags SATISFIES t > 0 END")
        assert expr.quantifier == "EVERY"

    def test_nested_field_and_element(self):
        expr = self.where_of("a.b[0].c = 1")
        assert isinstance(expr.left, FieldAccess)

    def test_arithmetic_precedence(self):
        expr = parse("SELECT 1 + 2 * 3").projections[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_every_binary_level_is_left_associative(self):
        a, b, c = Identifier("a"), Identifier("b"), Identifier("c")
        for op in ("OR", "AND", "=", "LIKE", "||", "-", "/"):
            assert self.where_of(f"a {op} b {op} c") \
                == Binary(op, Binary(op, a, b), c)

    def test_comparison_spellings_normalised(self):
        assert self.where_of("a == 1").op == "="
        assert self.where_of("a <> 1").op == "!="

    def test_concat(self):
        expr = parse("SELECT a || b").projections[0].expr
        assert expr.op == "||"

    def test_function_calls(self):
        expr = parse("SELECT LOWER(name)").projections[0].expr
        assert isinstance(expr, FunctionCall)
        assert expr.name == "LOWER"

    def test_count_star_and_distinct(self):
        star = parse("SELECT COUNT(*)").projections[0].expr
        assert star.star
        distinct = parse("SELECT COUNT(DISTINCT a)").projections[0].expr
        assert distinct.distinct

    def test_meta_id(self):
        expr = parse("SELECT meta().id").projections[0].expr
        assert isinstance(expr, FieldAccess)
        assert expr.base.name == "META"

    def test_object_literal(self):
        expr = parse('SELECT {"a": 1, "b": [2, 3]}').projections[0].expr
        assert len(expr.pairs) == 2


class TestDmlParsing:
    def test_insert(self):
        statement = parse(
            'INSERT INTO b (KEY, VALUE) VALUES ("k1", {"a": 1})'
        )
        assert isinstance(statement, InsertStatement)
        assert not statement.upsert
        assert len(statement.values) == 1

    def test_insert_multiple_values(self):
        statement = parse(
            'INSERT INTO b (KEY, VALUE) VALUES ("k1", 1), ("k2", 2)'
        )
        assert len(statement.values) == 2

    def test_upsert(self):
        assert parse('UPSERT INTO b (KEY, VALUE) VALUES ("k", 1)').upsert

    def test_update(self):
        statement = parse(
            "UPDATE b SET a = 1, c.d = 2 UNSET e WHERE f = 3 LIMIT 2"
        )
        assert isinstance(statement, UpdateStatement)
        assert len(statement.sets) == 2
        assert len(statement.unsets) == 1

    def test_update_requires_set_or_unset(self):
        with pytest.raises(N1qlSyntaxError):
            parse("UPDATE b WHERE x = 1")

    def test_delete(self):
        statement = parse('DELETE FROM b USE KEYS "k"')
        assert isinstance(statement, DeleteStatement)
        assert statement.use_keys is not None

    def test_returning(self):
        statement = parse('DELETE FROM b WHERE x = 1 RETURNING meta(b).id')
        assert len(statement.returning) == 1


class TestDdlParsing:
    def test_create_index_gsi(self):
        """The paper's example (section 3.3.2)."""
        statement = parse("CREATE INDEX email ON `Profile` (email) USING GSI")
        assert isinstance(statement, CreateIndexStatement)
        assert statement.using == "gsi"
        assert statement.keyspace == "Profile"

    def test_create_index_view(self):
        statement = parse("CREATE INDEX email ON `Profile` (email) USING VIEW")
        assert statement.using == "view"

    def test_create_partial_index(self):
        """The over-21 example (section 3.3.4)."""
        statement = parse(
            "CREATE INDEX over21 ON `Profile`(age) WHERE age > 21 USING GSI"
        )
        assert statement.where is not None

    def test_create_index_with_options(self):
        statement = parse(
            'CREATE INDEX i ON b(x) USING GSI WITH {"defer_build": true}'
        )
        assert statement.with_options == {"defer_build": True}

    def test_create_composite(self):
        statement = parse("CREATE INDEX i ON b(country, city)")
        assert len(statement.keys) == 2

    def test_create_array_index(self):
        statement = parse(
            "CREATE INDEX tags ON b(DISTINCT ARRAY t FOR t IN tags END)"
        )
        assert isinstance(statement.keys[0], ArrayComprehension)
        assert statement.keys[0].distinct

    def test_create_primary(self):
        statement = parse("CREATE PRIMARY INDEX ON Profile USING VIEW")
        assert isinstance(statement, CreatePrimaryIndexStatement)
        assert statement.using == "view"
        assert statement.name is None

    def test_create_named_primary(self):
        statement = parse("CREATE PRIMARY INDEX profile_pk ON Profile USING GSI")
        assert statement.name == "profile_pk"

    def test_drop_index(self):
        statement = parse("DROP INDEX b.i")
        assert isinstance(statement, DropIndexStatement)
        assert statement.name == "i"

    def test_build_index(self):
        statement = parse("BUILD INDEX ON b(i1, i2)")
        assert statement.names == ["i1", "i2"]

    def test_explain(self):
        statement = parse("EXPLAIN SELECT title FROM catalog ORDER BY title")
        assert isinstance(statement, ExplainStatement)
        assert isinstance(statement.statement, SelectStatement)


class TestSyntaxErrors:
    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT FROM b",
        "FROM b SELECT x",
        "SELECT x FROM",
        "SELECT x FROM b WHERE",
        "SELECT x FROM b GROUP age",
        "INSERT INTO b VALUES (1, 2)",
        "CREATE INDEX ON b(x)",
        "SELECT x FROM b trailing garbage (",
        "SELECT x x x FROM b",
        "SELECT x FROM b WHERE a IS NULL || b",
        "SELECT x FROM b WHERE NOT a IS NULL || b",
        "SELECT x FROM b WHERE a = NOT b",
    ])
    def test_rejected(self, bad):
        with pytest.raises(N1qlSyntaxError):
            parse(bad)
