"""SQL tokenizer for the front-end subset, and the statement-shape lifter.

Both are built from the same string / number / comment sub-patterns, so
they cannot disagree on what a literal is: :func:`tokenize` is one
compiled master regex producing ``Token`` objects for the parser, and
:func:`lift` is one compiled regex that pulls the literals *out* of a
statement without tokenizing the rest — the text that remains (with a
``?`` where each literal stood) plus each literal's kind is the
statement's *shape*, the key of its query bee.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
    "HAVING", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS",
    "NULL", "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "ON", "ASC", "DESC",
    "CREATE", "TABLE", "PRIMARY", "KEY", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "EXISTS", "EXPLAIN", "VACUUM",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "DATE", "CASE", "WHEN", "THEN",
    "ELSE", "END", "ANNOTATE", "DROP",
}

SYMBOLS = [
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-",
    "/", ".", ";",
]


def reserved_words() -> frozenset[str]:
    """Words the lexer treats as keywords — never usable as identifiers.

    Exposed so statement generators (the differential oracle's fuzzer) can
    guarantee the identifiers they invent stay lexable as plain idents.
    """
    return frozenset(KEYWORDS)


class SQLSyntaxError(ValueError):
    """Raised on malformed SQL text."""


class Token(NamedTuple):
    """One lexical token: kind is 'kw', 'ident', 'number', 'string',
    'symbol', or 'eof'."""

    kind: str
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}:{self.value})"


# -- the one token grammar ----------------------------------------------------

#: A quoted string; ``''`` inside is an escaped quote, so the closing
#: quote is one *not* followed by another.
_STRING = r"'(?:[^']|'')*'(?!')"
#: ASCII digits only (``str.isdigit`` would let ``²`` through to ``int``);
#: a dot belongs to the number only between digits or leading them, so
#: the qualifier dot of ``t.col`` stays a symbol.
_NUMBER = r"[0-9]+(?:\.[0-9]+)?|\.[0-9]+"
_COMMENT = r"--[^\n]*"
#: Identifier or keyword, maximal munch.  ``[^\W\d]`` also admits the
#: few word characters that are neither letters nor decimal digits
#: (``²``); :func:`tokenize` rejects a word that starts with one.
_WORD = r"[^\W\d]\w*"

#: Whitespace and comments, split one way only (see the lifter below).
_SKIP = rf"(?:\s|{_COMMENT}(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)
#: Where nothing else matches, the rest of the text in one piece: a
#: ``findall`` that met junk would otherwise retry from every later
#: offset, and a long statement with one bad character would cost its
#: length squared.
_JUNK = r"(?s:(.+))"
#: One token, with whatever whitespace and comments precede it; the
#: empty alternative takes trailing whitespace up to the end.
_TOKEN = re.compile(
    rf"({_SKIP})(?:({_STRING})|({_NUMBER})|({_WORD})"
    rf"|({'|'.join(re.escape(symbol) for symbol in SYMBOLS)})|\Z)|{_JUNK}"
)


def _unquote(literal: str) -> str:
    """The value of a quoted string literal as :data:`_STRING` matched it."""
    return literal[1:-1].replace("''", "'")


def tokenize(text: str) -> list[Token]:
    """Split SQL *text* into tokens; raises SQLSyntaxError on junk."""
    tokens: list[Token] = []
    append = tokens.append
    at = 0
    for skip, string, number, word, symbol, junk in _TOKEN.findall(text):
        if junk:
            break
        at += len(skip)
        if word:
            if not (word[0].isalpha() or word[0] == "_"):
                break
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token("kw", upper, at))
            else:
                append(Token("ident", word.lower(), at))
            at += len(word)
        elif symbol:
            append(Token("symbol", symbol, at))
            at += len(symbol)
        elif number:
            append(Token("number", number, at))
            at += len(number)
        elif string:
            append(Token("string", _unquote(string), at))
            at += len(string)
    if at != len(text):
        # Stopped at junk, or at a word no identifier starts like: the
        # offending character is past any whitespace and comments.
        at = _SKIP_RE.match(text, at).end()
        if text[at] == "'":
            raise SQLSyntaxError(f"unterminated string literal at {at}")
        raise SQLSyntaxError(f"unexpected character {text[at]!r} at {at}")
    append(Token("eof", "", at))
    return tokens


# -- the shape lifter ---------------------------------------------------------

#: Literals that never lower to a bindable constant stay in the shape
#: text: ``LIMIT n`` (a plan node's count), a ``LIKE`` pattern (compiled
#: to a regex, priced by its length), ``DATE '…'`` (converted at parse
#: time) and an ``IN (…)`` list (a frozenset, priced by its size).  A
#: form this misses (a comment between ``LIKE`` and its pattern) is
#: lifted instead and then has no bind target, which declines the
#: statement — never a silently frozen literal.
_FROZEN = (
    rf"(?=[LlDdIi])(?:(?i:LIMIT)\s+[0-9]+(?![\w.])"
    rf"|(?i:LIKE|DATE)\s*{_STRING}"
    rf"|(?i:IN)\s*\((?:{_STRING}|[^()'])*\))"
)
#: The non-literal tokens between two literals.  Every alternative is
#: written so that a stretch of text splits one way only (single
#: whitespace characters, maximal-munch words and comments, a word that
#: is not the head of a frozen form, two-character operators before
#: their prefixes' guarded forms): a statement with junk in it fails in
#: linear time instead of trying every split.
_BETWEEN_LITERALS = (
    rf"(?:\s|(?!{_FROZEN}){_WORD}(?!\w)|{_FROZEN}|{_COMMENT}(?![^\n])"
    r"|<=|>=|<>|!=|=|<(?![=>])|>(?!=)|\(|\)|,|\*|\+|-(?!-)|/|\.(?![0-9])|;)*"
)
_LIFT = re.compile(
    rf"({_BETWEEN_LITERALS})(?:({_STRING})|({_NUMBER})|\Z)|{_JUNK}"
)


class Lifted(NamedTuple):
    """A statement with its literals lifted out (:func:`lift`)."""

    #: The statement text with a ``?`` where each lifted literal stood.
    text: str
    #: One character per literal: ``i`` int, ``f`` float, ``s`` string.
    kinds: str
    values: list
    #: The offset in the statement each literal stood at (the parser
    #: maps token positions back to slots through them).
    positions: list[int]


def lift(sql: str) -> Lifted | None:
    """Lift the literals out of *sql* in one regex pass.

    Signs stay in the text — ``-5`` lifts ``5`` — and are folded at bind
    time the way ``Parser.primary`` folds them.  ``None`` when the text
    does not scan; the parser then says why.
    """
    texts: list[str] = []
    kinds: list[str] = []
    values: list = []
    positions: list[int] = []
    at = 0
    try:
        for prefix, string, number, junk in _LIFT.findall(sql):
            if junk:
                return None
            texts.append(prefix)
            at += len(prefix)
            if string:
                kinds.append("s")
                values.append(_unquote(string))
                positions.append(at)
                at += len(string)
            elif number:
                if "." in number:
                    kinds.append("f")
                    values.append(float(number))
                else:
                    kinds.append("i")
                    values.append(int(number))
                positions.append(at)
                at += len(number)
    except ValueError:      # more digits than int() converts
        return None
    # One text per literal plus the tail (a trailing empty match adds a
    # spare empty text when the statement does not end in a literal).
    return Lifted(
        "?".join(texts[: len(values) + 1]), "".join(kinds), values, positions
    )
