"""Tokenizer for the mini-language.

Produces a flat list of `(kind, text, line, column)` tuples; the parser
consumes it with one token of lookahead, and `tokenize` gives the same
tokens as `Token` records.  Each lexeme is one match of a compiled pattern,
blanks before it included; only a lexeme that starts with a non-ASCII
character (or an integer followed by one) is scanned a character at a time.
"""

from __future__ import annotations

import re

from ..errors import SourceSyntaxError
from ..records import Record

KEYWORDS = frozenset(
    {
        "class",
        "contract",
        "if",
        "else",
        "while",
        "return",
        "var",
        "new",
        "atomic",
        "thread",
        "cond",
    }
)

# Longer operators first so the scanner matches greedily.
PUNCT = (
    "++",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    ".",
    "=",
    "|",
    "?",
    ":",
    "+",
    "-",
    "*",
    "<",
    ">",
    "!",
)


class Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "ident" | "int" | "string" | "kw" | "punct" | "eof"
        self.text = text
        self.line = line
        self.column = column


# One alternative per lexeme, each after a run of blanks, and a last one for
# any other character but a newline, so that the matches cover the source
# (less its trailing blanks, where `_scan` stops) without gaps.  Each holds at
# most one run of a single character class, and nothing after the run can
# fail (a string's closing quote is optional), so no match backtracks over a
# run or the blanks before it.  `\w` is exactly `isalnum()` or `_`.  An
# integer takes the non-ASCII character after it, if there is one, so that
# the per-character branch can finish it: `isdigit()` accepts more than
# `[0-9]` and `\d` do (`²`).
_NEWLINE, _COMMENT, _IDENT, _PUNCT, _STRING, _INT = range(1, 7)
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"
    r"|(//[^\n]*)"
    r"|([A-Za-z_]\w*)"
    r"|(" + "|".join(map(re.escape, PUNCT)) + ")"
    r'|("[^"\n]*"?)'
    r"|([0-9]+[^\x00-\x7f]?)"
    r"|(.))"
)

_Lexeme = tuple[str, str, int, int]  # a `Token`'s fields


def _scan(source: str, filename: str) -> list[_Lexeme]:
    """The tokens of `source` as plain tuples, ending with the `eof` one."""
    tokens: list[_Lexeme] = []
    append = tokens.append
    n = len(source.rstrip(" \t\r"))  # trailing blanks hold no lexeme
    line = 1
    line_start = 0  # offset of the first character of `line`
    stop = len(source)  # offset of the end-of-input token: the end, or a last comment's start
    pos = 0
    while pos < n:
        for m in _LEXEME.finditer(source, pos, n):
            group = m.lastindex
            if group == _IDENT:
                text = m[_IDENT]
                kind = "kw" if text in KEYWORDS else "ident"
                append((kind, text, line, m.start(_IDENT) - line_start + 1))
            elif group == _PUNCT:
                append(("punct", m[_PUNCT], line, m.start(_PUNCT) - line_start + 1))
            elif group == _NEWLINE:
                line += 1
                line_start = m.end()
            elif group == _COMMENT:
                if m.end() == n:
                    stop = m.start(_COMMENT)
            elif group == _STRING:
                text = m[_STRING]
                column = m.start(_STRING) - line_start + 1
                if len(text) == 1 or text[-1] != '"':
                    raise SourceSyntaxError("unterminated string", filename, line, column)
                append(("string", text[1:-1], line, column))
            elif group == _INT and m[_INT][-1] <= "9":
                append(("int", m[_INT], line, m.start(_INT) - line_start + 1))
            else:  # a non-ASCII character, or one that starts no lexeme
                i = m.start(group)
                ch = source[i]
                j = i + 1
                if ch.isdigit():
                    while j < n and source[j].isdigit():
                        j += 1
                    append(("int", source[i:j], line, i - line_start + 1))
                elif ch.isalpha():
                    while j < n and (source[j].isalnum() or source[j] == "_"):
                        j += 1
                    append(("ident", source[i:j], line, i - line_start + 1))
                else:
                    message = f"unexpected character {ch!r}"
                    raise SourceSyntaxError(message, filename, line, i - line_start + 1)
                pos = j  # restart after the token: the pending matches may overlap it
                break
        else:
            break
    append(("eof", "", line, stop - line_start + 1))
    return tokens


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    return [Token(*t) for t in _scan(source, filename)]
