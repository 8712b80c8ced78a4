"""N1QL recursive-descent parser.

Covers the language surface of section 3.2: SELECT (with USE KEYS, JOIN
... ON KEYS, NEST, UNNEST, LET, GROUP BY/HAVING, ORDER/LIMIT/OFFSET,
DISTINCT, RAW), the DML statements (INSERT/UPSERT/UPDATE/DELETE), index
DDL (CREATE [PRIMARY] INDEX ... USING VIEW|GSI WITH {...}, DROP INDEX,
BUILD INDEX), and EXPLAIN.

The paper's join restriction (section 3.2.4) is enforced syntactically:
``JOIN ... ON`` must be ``ON KEYS`` -- a general ON predicate is a parse
error with a pointed message, exactly the "not supported linguistically"
stance the paper takes.
"""

from __future__ import annotations

from ..common.errors import N1qlSyntaxError
from .lexer import Token, tokenize
from .syntax import (
    ArrayComprehension,
    ArrayLiteral,
    Between,
    Binary,
    BuildIndexStatement,
    CaseExpr,
    CollectionPredicate,
    CreateIndexStatement,
    CreatePrimaryIndexStatement,
    DeleteStatement,
    DropIndexStatement,
    ElementAccess,
    ExecuteStatement,
    ExplainStatement,
    Expr,
    FieldAccess,
    FunctionCall,
    Identifier,
    InList,
    InsertStatement,
    IsPredicate,
    JoinClause,
    KeyspaceTerm,
    Literal,
    MissingLiteral,
    NestClause,
    ObjectLiteral,
    OrderTerm,
    Parameter,
    PrepareStatement,
    Projection,
    SelectStatement,
    Unary,
    UnnestClause,
    UpdateSet,
    UpdateStatement,
)

#: Binding powers, loosest first: prefix NOT's operand, the comparison
#: level, and prefix -/+'s operand, which binds tighter than any binary
#: operator.
_NOT, _COMPARISON, _UNARY = 3, 4, 8

#: Each binary operator's binding power.  Its right operand binds one
#: level tighter, so every level is left-associative.  The comparison
#: level's keyword forms ([NOT] LIKE / BETWEEN / IN, IS [NOT] ...) are
#: built by :meth:`Parser._comparison`.
_BINDING = {
    "OR": 1, "AND": 2,
    **dict.fromkeys(("=", "==", "!=", "<>", "<", "<=", ">", ">=", "LIKE",
                     "BETWEEN", "IN", "IS", "NOT"), _COMPARISON),
    "||": 5, "+": 6, "-": 6, "*": 7, "/": 7, "%": 7,
}

#: The spelling a comparison operator normalises to.
_SPELLING = {"==": "=", "<>": "!="}

_CONSTANTS = {"TRUE": True, "FALSE": False, "NULL": None}


def parse(text: str | list[Token]):
    """Parse one statement -- its text, or the tokens :func:`tokenize`
    made of it, for a caller that lexed it already -- and raise
    :class:`N1qlSyntaxError` on failure."""
    return Parser(text).parse_statement()


def parse_lifted(tokens: list[Token], shape: tuple):
    """The *lifted* form of a tokenized statement whose key is ``shape``
    (from :func:`statement_shape`): every string or number literal
    parses to its slot's hidden parameter (:func:`slot_parameter`)
    instead of a Literal, so the literals are bound per execution.
    None when some literal is not an expression (an object key) and so
    has no parameter to become."""
    parser = Parser(tokens, shape)
    statement = parser.parse_statement()
    if parser.literals != sum(type(part) is int for part in shape):
        return None
    return statement


def statement_shape(tokens: list[Token]) -> tuple[tuple, list]:
    """A tokenized statement's plan-cache key, and its literal values.

    The key is the token sequence with each string or number literal
    replaced by a slot number.  Literals of the same kind, type and value
    share a slot, so the slot pattern is part of the key and equal
    literals stay equal in the lifted form (``GROUP BY x + 1`` still
    prints like ``SELECT x + 1``); ``1`` and ``1.0`` are different
    slots.  ``values`` holds each slot's value, in slot order."""
    key: list = []
    slots: dict = {}
    values: list = []
    for token in tokens:
        kind, value = token.kind, token.value
        if kind == "string" or kind == "number":
            literal = (kind, type(value), value)
            slot = slots.get(literal)
            if slot is None:
                slot = slots[literal] = len(values)
                values.append(value)
            key.append(slot)
        else:
            key.append((kind, value))
    return tuple(key), values


def slot_parameter(slot: int) -> str:
    """The hidden parameter a lifted literal's slot becomes.  The lexer
    never puts ``#`` in a parameter name, so no statement can name one
    and a caller's parameters cannot collide with it."""
    return f"#{slot}"


def is_slot(expr: Expr) -> bool:
    """Whether ``expr`` is a lifted literal's hidden parameter."""
    return isinstance(expr, Parameter) and expr.name.startswith("#")


class Parser:
    def __init__(self, source: str | list[Token],
                 shape: tuple | None = None):
        self.tokens = tokenize(source) if isinstance(source, str) else source
        #: When set, literals parse to their slots' parameters (see
        #: :func:`parse_lifted`).
        self.shape = shape
        self.position = 0
        self._positional = 0
        #: String and number tokens parse_primary made expressions of.
        self.literals = 0

    # -- token plumbing ----------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def error(self, message: str) -> N1qlSyntaxError:
        token = self.current
        return N1qlSyntaxError(message, token.line, token.column)

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            raise self.error(f"expected {name}, found {self.current.value!r}")

    def accept_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}, found {self.current.value!r}")

    def expect_ident(self) -> str:
        token = self.current
        if token.kind == "ident":
            self.advance()
            return str(token.value)
        # Unreserved-ish words used as identifiers: allow keywords that
        # commonly appear as field names.
        if token.kind == "keyword" and token.value in ("KEY", "VALUE", "INDEX"):
            self.advance()
            return str(token.value).lower()
        raise self.error(f"expected identifier, found {token.value!r}")

    def _alias(self, default: str | None = None) -> str | None:
        """An optional ``[AS] alias``, else ``default``."""
        if self.accept_keyword("AS") or self.current.kind == "ident":
            return self.expect_ident()
        return default

    def _use_keys(self) -> Expr | None:
        if not self.accept_keyword("USE"):
            return None
        self.expect_keyword("KEYS")
        return self.parse_expr()

    def _comma_list(self, parse_item) -> list:
        """One or more ``parse_item()`` results separated by commas."""
        items = [parse_item()]
        while self.accept_op(","):
            items.append(parse_item())
        return items

    # -- statements -----------------------------------------------------------------

    def parse_statement(self):
        statement = self._statement()
        self.accept_op(";")
        if self.current.kind != "eof":
            raise self.error(
                f"unexpected trailing input: {self.current.value!r}"
            )
        return statement

    def _statement(self):
        if self.accept_keyword("EXPLAIN"):
            return ExplainStatement(self._statement())
        if self.current.is_keyword("SELECT"):
            return self.parse_select()
        if self.current.is_keyword("INSERT"):
            return self.parse_insert(upsert=False)
        if self.current.is_keyword("UPSERT"):
            return self.parse_insert(upsert=True)
        if self.current.is_keyword("UPDATE"):
            return self.parse_update()
        if self.current.is_keyword("DELETE"):
            return self.parse_delete()
        if self.current.is_keyword("CREATE"):
            return self.parse_create()
        if self.current.is_keyword("DROP"):
            return self.parse_drop_index()
        if self.current.is_keyword("BUILD"):
            return self.parse_build_index()
        if self.accept_keyword("PREPARE"):
            name = None
            if self.current.kind == "ident" and self.peek().is_keyword("FROM"):
                name = self.expect_ident()
                self.expect_keyword("FROM")
            return PrepareStatement(name, self._statement())
        if self.accept_keyword("EXECUTE"):
            return ExecuteStatement(self.expect_ident())
        raise self.error(f"expected a statement, found {self.current.value!r}")

    # -- SELECT -----------------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        if not distinct:
            self.accept_keyword("ALL")
        raw = self.accept_keyword("RAW")

        projections = [self.parse_projection(raw)]
        while self.accept_op(","):
            if raw:
                raise self.error("SELECT RAW takes a single expression")
            projections.append(self.parse_projection(raw))

        statement = SelectStatement(
            projections=projections, distinct=distinct, raw=raw
        )

        if self.accept_keyword("FROM"):
            statement.from_term = self.parse_keyspace_term()
            while (clause := self.parse_join_like()) is not None:
                statement.joins.append(clause)

        if self.accept_keyword("LET"):
            statement.let_bindings = self._comma_list(self._let_binding)

        if self.accept_keyword("WHERE"):
            statement.where = self.parse_expr()

        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            statement.group_by = self._comma_list(self.parse_expr)
            if self.accept_keyword("HAVING"):
                statement.having = self.parse_expr()

        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            statement.order_by = self._comma_list(self._order_term)

        if self.accept_keyword("LIMIT"):
            statement.limit = self.parse_expr()
        if self.accept_keyword("OFFSET"):
            statement.offset = self.parse_expr()
        return statement

    def _let_binding(self) -> tuple[str, Expr]:
        name = self.expect_ident()
        self.expect_op("=")
        return name, self.parse_expr()

    def _order_term(self) -> OrderTerm:
        expr = self.parse_expr()
        descending = self.accept_keyword("DESC")
        if not descending:
            self.accept_keyword("ASC")
        return OrderTerm(expr, descending)

    def parse_projection(self, raw: bool) -> Projection:
        if self.accept_op("*"):
            return Projection(expr=None, alias=None)
        expr = self.parse_expr()
        # alias.* projection parses as FieldAccess(base, "*")? The lexer
        # treats "*" as an op, so catch "ident.*" here.
        if (
            isinstance(expr, Identifier)
            and self.current.is_op(".")
            and self.peek().is_op("*")
        ):
            self.advance()
            self.advance()
            return Projection(expr=None, alias=None, star_of=expr.name)
        # SELECT RAW takes an alias only after AS.
        if raw and not self.current.is_keyword("AS"):
            return Projection(expr=expr, alias=None)
        return Projection(expr=expr, alias=self._alias())

    def parse_keyspace_term(self) -> KeyspaceTerm:
        keyspace = self.expect_ident()
        if keyspace == "system" and self.accept_op(":"):
            keyspace = f"system:{self.expect_ident()}"
        alias = self._alias(keyspace.split(":")[-1])
        return KeyspaceTerm(keyspace=keyspace, alias=alias,
                            use_keys=self._use_keys())

    def parse_join_like(self):
        outer = False
        checkpoint = self.position
        if self.accept_keyword("LEFT"):
            self.accept_keyword("OUTER")
            outer = True
        elif self.accept_keyword("INNER"):
            pass
        if self.current.is_keyword("JOIN", "NEST"):
            join = self.advance().is_keyword("JOIN")
            keyspace = self.expect_ident()
            alias = self._alias(keyspace)
            self.expect_keyword("ON")
            if not self.accept_keyword("KEYS"):
                raise self.error(
                    "N1QL joins require ON KEYS -- general join predicates "
                    "between secondary attributes are not supported "
                    "(section 3.2.4 of the paper)" if join
                    else "NEST requires ON KEYS"
                )
            clause = JoinClause if join else NestClause
            return clause(keyspace, alias, self.parse_expr(), outer)
        if self.accept_keyword("UNNEST"):
            expr = self.parse_expr()
            alias = self._alias()
            if alias is None:
                if isinstance(expr, FieldAccess):
                    alias = expr.field
                elif isinstance(expr, Identifier):
                    alias = expr.name
                else:
                    raise self.error("UNNEST of an expression needs an alias")
            return UnnestClause(expr, alias, outer)
        self.position = checkpoint
        return None

    # -- DML ---------------------------------------------------------------------------

    def parse_insert(self, upsert: bool) -> InsertStatement:
        self.advance()  # INSERT or UPSERT
        self.expect_keyword("INTO")
        keyspace = self.expect_ident()
        self.expect_op("(")
        self.expect_keyword("KEY")
        self.accept_op(",")
        self.expect_keyword("VALUE")
        self.expect_op(")")
        self.expect_keyword("VALUES")
        values = [self.parse_key_value_pair()]
        while self.accept_op(","):
            self.accept_keyword("VALUES")
            values.append(self.parse_key_value_pair())
        returning = self.parse_returning()
        return InsertStatement(keyspace=keyspace, values=values,
                               upsert=upsert, returning=returning)

    def parse_key_value_pair(self) -> tuple[Expr, Expr]:
        self.expect_op("(")
        key = self.parse_expr()
        self.expect_op(",")
        value = self.parse_expr()
        self.expect_op(")")
        return key, value

    def parse_returning(self) -> list[Projection]:
        if not self.accept_keyword("RETURNING"):
            return []
        return self._comma_list(lambda: self.parse_projection(raw=False))

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("UPDATE")
        keyspace = self.expect_ident()
        alias = self._alias(keyspace)
        use_keys = self._use_keys()
        sets: list[UpdateSet] = []
        unsets: list[Expr] = []
        if self.accept_keyword("SET"):
            sets = self._comma_list(self._update_set)
        if self.accept_keyword("UNSET"):
            unsets = self._comma_list(self.parse_path_expr)
        if not sets and not unsets:
            raise self.error("UPDATE requires SET and/or UNSET")
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        limit = self.parse_expr() if self.accept_keyword("LIMIT") else None
        returning = self.parse_returning()
        return UpdateStatement(keyspace, alias, use_keys, sets, unsets,
                               where, limit, returning)

    def _update_set(self) -> UpdateSet:
        path = self.parse_path_expr()
        self.expect_op("=")
        return UpdateSet(path, self.parse_expr())

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        keyspace = self.expect_ident()
        alias = self._alias(keyspace)
        use_keys = self._use_keys()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        limit = self.parse_expr() if self.accept_keyword("LIMIT") else None
        returning = self.parse_returning()
        return DeleteStatement(keyspace, alias, use_keys, where, limit,
                               returning)

    def parse_path_expr(self) -> Expr:
        """A dotted path (possibly with [n] steps) used by SET/UNSET."""
        expr: Expr = Identifier(self.expect_ident())
        while True:
            if self.accept_op("."):
                expr = FieldAccess(expr, self.expect_ident())
            elif self.accept_op("["):
                index = self.parse_expr()
                self.expect_op("]")
                expr = ElementAccess(expr, index)
            else:
                return expr

    # -- DDL ----------------------------------------------------------------------------

    def parse_create(self):
        self.expect_keyword("CREATE")
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("INDEX")
            name = None
            if self.current.kind == "ident":
                name = self.expect_ident()
            self.expect_keyword("ON")
            keyspace = self.expect_ident()
            using = self.parse_using()
            options = self.parse_with_options()
            return CreatePrimaryIndexStatement(name, keyspace, using, options)
        self.expect_keyword("INDEX")
        name = self.expect_ident()
        self.expect_keyword("ON")
        keyspace = self.expect_ident()
        self.expect_op("(")
        keys = self._comma_list(self._sourced_expr)
        self.expect_op(")")
        where = None
        where_source = None
        if self.accept_keyword("WHERE"):
            where, where_source = self._sourced_expr()
        using = self.parse_using()
        options = self.parse_with_options()
        return CreateIndexStatement(
            name=name, keyspace=keyspace, keys=[key for key, _ in keys],
            where=where, using=using, with_options=options,
            key_sources=[source for _, source in keys],
            where_source=where_source,
        )

    def _sourced_expr(self) -> tuple[Expr, str]:
        """An expression, and its tokens' values joined by spaces."""
        start = self.position
        expr = self.parse_expr()
        return expr, " ".join(
            str(token.value) for token in self.tokens[start:self.position]
        )

    def parse_using(self) -> str:
        if self.accept_keyword("USING"):
            token = self.current
            if token.kind == "ident" and token.value.upper() in ("GSI", "VIEW"):
                self.advance()
                return str(token.value).lower()
            raise self.error("USING must name GSI or VIEW")
        return "gsi"

    def parse_with_options(self) -> dict:
        if not self.accept_keyword("WITH"):
            return {}
        expr = self.parse_expr()
        options = _literal_object(expr)
        if options is None:
            raise self.error("WITH requires a literal JSON object")
        return options

    def parse_drop_index(self) -> DropIndexStatement:
        self.expect_keyword("DROP")
        self.expect_keyword("INDEX")
        first = self.expect_ident()
        if self.accept_op("."):
            return DropIndexStatement(first, self.expect_ident())
        return DropIndexStatement("", first)

    def parse_build_index(self) -> BuildIndexStatement:
        self.expect_keyword("BUILD")
        self.expect_keyword("INDEX")
        self.expect_keyword("ON")
        keyspace = self.expect_ident()
        self.expect_op("(")
        names = self._comma_list(self.expect_ident)
        self.expect_op(")")
        return BuildIndexStatement(keyspace, names)

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self, floor: int = 0) -> Expr:
        """An expression whose binary operators bind at least as tightly
        as ``floor`` (see ``_BINDING``); 0 parses any expression."""
        # What an operator builds is the left operand only of operators
        # binding no tighter than it: ``a IS NULL || b`` and
        # ``NOT a IS NULL || b`` end before ``||``.
        ceiling = _UNARY
        if floor <= _NOT and self.accept_keyword("NOT"):
            left = Unary("NOT", self.parse_expr(_NOT))
            ceiling = _NOT
        elif self.accept_op("-"):
            left = Unary("-", self.parse_expr(_UNARY))
        elif self.accept_op("+"):
            left = self.parse_expr(_UNARY)
        else:
            left = self.parse_postfix()
        while True:
            token = self.current
            op = str(token.value)
            power = _BINDING.get(op) if token.kind in ("op", "keyword") else None
            if power is None or not floor <= power <= ceiling or (
                op == "NOT"
                and not self.peek().is_keyword("LIKE", "BETWEEN", "IN")
            ):
                return left
            self.advance()
            ceiling = power
            if power == _COMPARISON:
                left = self._comparison(op, left)
            else:
                left = Binary(op, left, self.parse_expr(power + 1))

    def _comparison(self, op: str, left: Expr) -> Expr:
        """The comparison-level form ``op`` (just consumed) starts, with
        ``left`` as its left operand."""
        negated = op == "NOT"
        if negated:
            op = str(self.advance().value)  # LIKE, BETWEEN or IN
        if op == "IS":
            negated = self.accept_keyword("NOT")
            token = self.current
            if token.is_keyword("NULL", "MISSING") or (
                token.kind == "ident" and str(token.value).upper() == "VALUED"
            ):
                self.advance()
                return IsPredicate(left, str(token.value).upper(), negated)
            raise self.error("IS must be followed by NULL, MISSING, "
                             "or VALUED")
        right = self.parse_expr(_COMPARISON + 1)
        if op == "BETWEEN":
            self.expect_keyword("AND")
            high = self.parse_expr(_COMPARISON + 1)
            return Between(left, right, high, negated)
        if op == "IN":
            return InList(left, right, negated)
        if negated:
            return Binary("NOT LIKE", left, right)
        return Binary(_SPELLING.get(op, op), left, right)

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.current.is_op(".") and not self.peek().is_op("*"):
                self.advance()
                expr = FieldAccess(expr, self.expect_ident())
            elif self.accept_op("["):
                index = self.parse_expr()
                self.expect_op("]")
                expr = ElementAccess(expr, index)
            else:
                return expr

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "number" or token.kind == "string":
            self.literals += 1
            index = self.position
            self.advance()
            if self.shape is not None:
                return Parameter(slot_parameter(self.shape[index]))
            return Literal(token.value)
        if token.kind == "param":
            self.advance()
            name = str(token.value)
            if name == "?":
                self._positional += 1
                name = f"?{self._positional}"
            return Parameter(name)
        if token.kind == "keyword" and token.value in _CONSTANTS:
            self.advance()
            return Literal(_CONSTANTS[token.value])
        if token.is_keyword("MISSING"):
            self.advance()
            return MissingLiteral()
        if token.is_keyword("CASE"):
            return self.parse_case()
        if token.is_keyword("ANY", "EVERY"):
            return self.parse_collection_predicate()
        if token.is_keyword("ARRAY"):
            return self.parse_array_comprehension()
        if token.is_keyword("DISTINCT") and self.peek().is_keyword("ARRAY"):
            # DISTINCT ARRAY ... FOR ... END (array-index syntax, §6.1.2).
            self.advance()
            comprehension = self.parse_array_comprehension()
            comprehension.distinct = True
            return comprehension
        if self.accept_op("("):
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if self.accept_op("["):
            items = []
            if not self.current.is_op("]"):
                items = self._comma_list(self.parse_expr)
            self.expect_op("]")
            return ArrayLiteral(items)
        if self.accept_op("{"):
            pairs = []
            if not self.current.is_op("}"):
                pairs = self._comma_list(self._object_pair)
            self.expect_op("}")
            return ObjectLiteral(pairs)
        if token.kind == "ident" or token.kind == "keyword" and token.value in (
            "KEY", "VALUE", "LEFT",
        ):
            name = str(token.value)
            self.advance()
            if self.accept_op("("):
                return self.parse_function_tail(name)
            return Identifier(name)
        raise self.error(f"unexpected token {token.value!r} in expression")

    def _object_pair(self) -> tuple[str, Expr]:
        key_token = self.advance()
        if key_token.kind not in ("string", "ident"):
            raise self.error("object keys must be strings")
        self.expect_op(":")
        return str(key_token.value), self.parse_expr()

    def parse_function_tail(self, name: str) -> FunctionCall:
        upper = name.upper()
        if self.accept_op(")"):
            return FunctionCall(upper, [])
        if self.accept_op("*"):
            self.expect_op(")")
            return FunctionCall(upper, [], star=True)
        distinct = self.accept_keyword("DISTINCT")
        args = self._comma_list(self.parse_expr)
        self.expect_op(")")
        return FunctionCall(upper, args, distinct=distinct)

    def parse_case(self) -> CaseExpr:
        self.expect_keyword("CASE")
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_result = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return CaseExpr(whens, else_result)

    def parse_collection_predicate(self) -> CollectionPredicate:
        quantifier = str(self.advance().value)  # ANY / EVERY
        variable = self.expect_ident()
        self.expect_keyword("IN")
        collection = self.parse_expr()
        self.expect_keyword("SATISFIES")
        condition = self.parse_expr()
        self.expect_keyword("END")
        return CollectionPredicate(quantifier, variable, collection, condition)

    def parse_array_comprehension(self) -> ArrayComprehension:
        self.expect_keyword("ARRAY")
        distinct = self.accept_keyword("DISTINCT")
        output = self.parse_expr()
        self.expect_keyword("FOR")
        variable = self.expect_ident()
        self.expect_keyword("IN")
        collection = self.parse_expr()
        condition = None
        if self.accept_keyword("WHEN"):
            condition = self.parse_expr()
        self.expect_keyword("END")
        return ArrayComprehension(output, variable, collection, condition,
                                  distinct)


def _literal_object(expr: Expr) -> dict | None:
    """Fold a literal ObjectLiteral into a plain dict (WITH options)."""
    if not isinstance(expr, ObjectLiteral):
        return None
    out = {}
    for key, value in expr.pairs:
        if isinstance(value, Literal):
            out[key] = value.value
        elif isinstance(value, ArrayLiteral) and all(
            isinstance(i, Literal) for i in value.items
        ):
            out[key] = [i.value for i in value.items]
        else:
            return None
    return out
