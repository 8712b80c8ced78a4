"""The lexer against its reference (``reference_lexer.py``): the same
tokens, or the same error at the same line and column, over generated
statements with escapes, doubled quotes, comments, newlines and
non-ASCII text."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import N1qlSyntaxError
from repro.n1ql.lexer import tokenize

from .reference_lexer import tokenize as reference_tokenize

_PLAIN = st.text(alphabet=st.sampled_from(
    list("abcXYZ _019.,$`-/*'\"\\\n\téü²Ωß€")), max_size=6)


def _quoted(quote: str):
    piece = st.one_of(_PLAIN.filter(lambda text: quote not in text
                                    and "\\" not in text),
                      st.sampled_from(["\\n", "\\t", "\\\\", "\\" + quote,
                                       quote * 2, "\\x", "\\é", "\n"]))
    return st.lists(piece, max_size=4).map(
        lambda pieces: quote + "".join(pieces) + quote)


_FRAGMENT = st.one_of(
    st.sampled_from(["SELECT", "select", "FrOm", "WHERE", "meta", "ı", "ſelect",
                     "AND", "_x", "name1", "Ωmega", "é", "²", "Ⅻ"]),
    st.sampled_from(["=", "==", "!=", "<>", "<=", ">=", "||", "|", "!", "-",
                     "--", "/", "/*", "*/", ".", "(", ")", "[", "]", "{",
                     "}", ",", ":", ";", "%", "?", "$", "$1", "$name", "#",
                     "@", "~"]),
    st.sampled_from(["0", "42", "1.5", ".5", "1.", "1e3", "2.5E-2", "1e",
                     "1.x", "007", "٣", "3.25e+1"]),
    _quoted("'"), _quoted('"'),
    st.sampled_from(["`Profile Bucket`", "`a\nb`", "``", "`unclosed",
                     "-- a comment\n", "--tail", "/* block */",
                     "/* multi\nline */", "/* unclosed", "'unclosed",
                     '"unclosed']),
    _PLAIN,
)

_SEPARATOR = st.sampled_from(["", " ", "  ", "\n", "\t", " \n ", "\r\n"])


def _outcome(lex, text: str):
    try:
        return [(token[0], type(token[1]), token[1], token[2], token[3])
                for token in lex(text)]
    except N1qlSyntaxError as error:
        return ("error", str(error), error.line, error.column)


def _product(text: str):
    return [(token.kind, token.value, token.line, token.column)
            for token in tokenize(text)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_FRAGMENT, _SEPARATOR), max_size=12))
@example([("SELECT", " "), ("'it''s'", "\n"), ("\"a\\\"b\"", " ")])
@example([("'a'''", ""), ("''''", " "), ("'''", "")])
@example([("SELECT", "\n\n"), ("/* unclosed", "")])
@example([("²", ""), ("Ⅻ", " "), ("ſelect", "")])
def test_tokens_and_errors_match_the_reference(parts):
    text = "".join(fragment + separator for fragment, separator in parts)
    assert _outcome(_product, text) == _outcome(reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_any_text_matches_the_reference(text):
    assert _outcome(_product, text) == _outcome(reference_tokenize, text)
