"""N1QL lexer.

Tokenizes the SQL-inspired surface of section 3.2: keywords, plain and
backtick-quoted identifiers, single/double-quoted strings, numbers,
operators, and the positional (``$1``/``?``) and named (``$name``)
parameters the YCSB workload-E query uses
(``SELECT meta().id FROM bucket WHERE meta().id >= $1 LIMIT $2``).

One compiled pattern does the scanning, one match per token: each
match skips the whitespace and comments before its token, then tries
the token's alternatives, each a named group, in order; the last one
catches what no other group starts with, and the end of the text ends
the scan.  A token's line and column come from its offset and the
offsets where the text's lines start.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from ..common.errors import N1qlSyntaxError

KEYWORDS = {
    "ALL", "AND", "ANY", "ARRAY", "AS", "ASC", "BETWEEN", "BUILD", "BY",
    "CASE", "CREATE", "DELETE", "DESC", "DISTINCT", "DROP", "ELSE", "END",
    "EVERY", "EXISTS", "EXPLAIN", "FALSE", "FOR", "FROM", "GROUP", "HAVING",
    "IN", "INDEX", "INNER", "INSERT", "INTO", "IS", "JOIN", "KEY", "KEYS",
    "EXECUTE", "LEFT", "LET", "LIKE", "LIMIT", "MISSING", "NEST", "NOT",
    "NULL", "ON", "OFFSET", "OR", "ORDER", "OUTER", "PREPARE", "PRIMARY",
    "RAW", "RETURNING",
    "SATISFIES", "SELECT", "SET", "THEN", "TRUE", "UNNEST", "UNSET",
    "UPDATE", "UPSERT", "USE", "USING", "VALUE", "VALUES", "WHEN", "WHERE",
    "WITH",
}

#: The token grammar.  ``\s``, ``\d`` and ``\w`` are Python's Unicode
#: classes: ``str.isspace()``, ``str.isdecimal()``, and ``str.isalnum()``
#: or ``_``.  What precedes a token (whitespace, ``--`` and ``/* */``
#: comments) is skipped inside its match; after a greedy skip some
#: alternative always matches, so the skip never backtracks.  A string
#: body is runs of plain characters between escapes (``\\x`` or a
#: doubled quote), each run a span no escape can start inside, so an
#: unterminated string backtracks in linear time; its closing quote may
#: not be the first of a doubled pair, so it ends where a scan from left
#: to right would.  A ``/`` that opens a comment is no operator: an unclosed
#: comment is an error.  A number takes one fraction and one exponent,
#: each only when a digit follows, so ``1.x`` lexes as ``1`` ``.`` ``x``;
#: it is tried before the operators, so ``.5`` is a number.
_TOKEN = re.compile(r"""
    \s* (?: (?: --[^\n]* | /\*.*?\*/ ) \s* )*
    (?: (?P<word> [^\W\d]\w* )
      | (?P<number> (?:\d+(?:\.\d+)?|\.\d+) (?:[eE][+-]?\d+)? )
      | (?P<op> \|\| | [<>=!]= | <> | [-=<>+*%()\[\]{},.:;] | /(?!\*) )
      | (?P<string> '[^'\\]*(?:(?:\\.|'')[^'\\]*)*'(?!')
                  | "[^"\\]*(?:(?:\\.|"")[^"\\]*)*"(?!") )
      | (?P<param> \$\w+ | \? )
      | (?P<backtick> `[^`]*` )
      | (?P<error> /\* | . )
      | (?P<end> \Z ) )
""", re.VERBOSE | re.DOTALL)

#: The message for an error match that opens a token but cannot finish it.
_UNCLOSED = {
    "/*": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "`": "unterminated backtick identifier",
    "$": "bare '$' is not a valid parameter",
}

#: A string body's escapes: ``\x`` and the doubled quote of its own kind.
_STRING_ESCAPE = {quote: re.compile(rf"\\(.)|{quote}{quote}", re.DOTALL)
                  for quote in "'\""}
_ESCAPED = {"n": "\n", "t": "\t"}


@dataclass(slots=True)
class Token:
    kind: str  # "keyword" | "ident" | "string" | "number" | "op" | "param" | "eof"
    value: str | int | float
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.value in ops


def tokenize(text: str) -> list[Token]:
    line_starts = [0]
    newline = text.find("\n")
    while newline >= 0:
        line_starts.append(newline + 1)
        newline = text.find("\n", newline + 1)
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        line = bisect_right(line_starts, start)
        column = start - line_starts[line - 1] + 1
        if kind == "word":
            raw = match[kind]
            upper = raw.upper()
            if upper in KEYWORDS:
                append(Token("keyword", upper, line, column))
            elif raw[0].isalpha() or raw[0] == "_":
                append(Token("ident", raw, line, column))
            else:  # a numeral such as '²' starts no word
                raise _error(text, start,
                             f"unexpected character {raw[0]!r}")
        elif kind == "op":
            append(Token("op", match[kind], line, column))
        elif kind == "string":
            raw = match[kind]
            body = raw[1:-1]
            quote = raw[0]
            if "\\" in body or quote + quote in body:
                body = _STRING_ESCAPE[quote].sub(_unescape, body)
            append(Token("string", body, line, column))
        elif kind == "number":
            raw = match[kind]
            append(Token("number", int(raw) if raw.isdecimal()
                         else float(raw), line, column))
        elif kind == "param":
            raw = match[kind]
            append(Token("param", raw if raw == "?" else raw[1:],
                         line, column))
        elif kind == "backtick":
            append(Token("ident", match[kind][1:-1], line, column))
        elif kind == "end":
            append(Token("eof", "", line, column))
            return tokens
        else:
            raw = match[kind]
            # An unterminated string runs to the end of the text.
            at = len(text) if raw in ("'", '"') else start
            raise _error(text, at, _UNCLOSED.get(
                raw, f"unexpected character {raw!r}"))
    raise AssertionError("the end of the text always matches")


def _unescape(match: re.Match) -> str:
    escaped = match[1]
    return match[0][0] if escaped is None else _ESCAPED.get(escaped, escaped)


def _error(text: str, offset: int, message: str) -> N1qlSyntaxError:
    line_start = text.rfind("\n", 0, offset) + 1
    return N1qlSyntaxError(message, text.count("\n", 0, offset) + 1,
                           offset - line_start + 1)
