"""Reference N1QL lexer: the tokenizer as it was before it was made lean.

The product tokenizes through :func:`repro.n1ql.lexer.tokenize`.  This
module is the independent oracle the tests compare it against: one
master regex whose whitespace matches run through the same branches as
every token, and a string body always unescaped through ``re.sub``.
Its tokens are plain ``(kind, value, line, column)`` tuples, and its
errors are :class:`N1qlSyntaxError` with the product's message, line
and column.
"""

from __future__ import annotations

import re

from repro.common.errors import N1qlSyntaxError
from repro.n1ql.lexer import KEYWORDS

#: The token grammar.  ``\s``, ``\d`` and ``\w`` are Python's Unicode
#: classes: ``str.isspace()``, ``str.isdecimal()``, and ``str.isalnum()``
#: or ``_``.  A string body takes one character per step, never a run,
#: so an unterminated string backtracks in linear time; its closing
#: quote may not be the first of a doubled pair, so it ends where a
#: scan from left to right would.  A ``/`` that opens a comment is no
#: operator: an unclosed comment is an error.  A number takes one
#: fraction and one exponent, each only when a digit follows, so ``1.x``
#: lexes as ``1`` ``.`` ``x``.
_TOKEN = re.compile(r"""
    (?P<skip> \s+ | --[^\n]* | /\*.*?\*/ )
  | (?P<string> '(?:[^'\\]|\\.|'')*'(?!') | "(?:[^"\\]|\\.|"")*"(?!") )
  | (?P<backtick> `[^`]*` )
  | (?P<number> (?:\d+(?:\.\d+)?|\.\d+) (?:[eE][+-]?\d+)? )
  | (?P<param> \$\w+ | \? )
  | (?P<word> [^\W\d]\w* )
  | (?P<op> \|\| | [<>=!]= | <> | [-=<>+*%()\[\]{},.:;] | /(?!\*) )
  | (?P<error> /\* | . )
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


def Token(kind: str, value, line: int, column: int) -> tuple:
    return (kind, value, line, column)


def tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, raw, start = match.lastgroup, match[0], match.start()
        if kind == "word" and not (raw[0].isalpha() or raw[0] == "_"):
            kind, raw = "error", raw[0]  # a numeral such as '²' starts no word
        if kind == "error":
            # An unterminated string runs to the end of the text.
            at = len(text) if raw in ("'", '"') else start
            raise _error(text, at, _UNCLOSED.get(
                raw, f"unexpected character {raw!r}"))
        column = start - line_start + 1
        if kind == "string":
            body = _STRING_ESCAPE[raw[0]].sub(_unescape, raw[1:-1])
            tokens.append(Token("string", body, line, column))
        elif kind == "backtick":
            tokens.append(Token("ident", raw[1:-1], line, column))
        elif kind == "number":
            value = int(raw) if raw.isdecimal() else float(raw)
            tokens.append(Token("number", value, line, column))
        elif kind == "param":
            name = raw if raw == "?" else raw[1:]
            tokens.append(Token("param", name, line, column))
        elif kind == "word":
            upper = raw.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, line, column))
            else:
                tokens.append(Token("ident", raw, line, column))
        elif kind == "op":
            tokens.append(Token("op", raw, line, column))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = start + raw.rindex("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _unescape(match: re.Match) -> str:
    escaped = match[1]
    return match[0][0] if escaped is None else _ESCAPED.get(escaped, escaped)


def _error(text: str, offset: int, message: str) -> N1qlSyntaxError:
    line_start = text.rfind("\n", 0, offset) + 1
    return N1qlSyntaxError(message, text.count("\n", 0, offset) + 1,
                           offset - line_start + 1)
