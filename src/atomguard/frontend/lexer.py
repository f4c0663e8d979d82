"""Tokenizer for the mini-language.

Produces a flat token list with source positions; the parser consumes it
with one token of lookahead.  Each lexeme is one match of a compiled
pattern; only a lexeme that starts with a non-ASCII character (or an integer
followed by one) is scanned a character at a time.
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


# One alternative per lexeme, and a last one for any other character but a
# newline, so that the matches cover the source without gaps.  Each holds at
# most one run of a single character class, and nothing after the run can
# fail (a string's closing quote is optional), so no match backtracks over a
# run.  `\w` is exactly `isalnum()` or `_`.  An integer takes the non-ASCII
# character after it, if there is one, so that the per-character branch can
# finish it: `isdigit()` accepts more than `[0-9]` and `\d` do (`²`).
_BLANK, _NEWLINE, _COMMENT, _IDENT, _PUNCT, _STRING, _INT = range(1, 8)
_LEXEME = re.compile(
    r"([ \t\r]+)"
    r"|(\n)"
    r"|(//[^\n]*)"
    r"|([A-Za-z_]\w*)"
    r"|(" + "|".join(map(re.escape, PUNCT)) + ")"
    r'|("[^"\n]*"?)'
    r"|([0-9]+[^\x00-\x7f]?)"
    r"|(.)"
)


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    n = len(source)
    line = 1
    line_start = 0  # offset of the first character of `line`
    stop = n  # offset of the end-of-input token: the end, or a last comment's start
    pos = 0
    while pos < n:
        for m in _LEXEME.finditer(source, pos):
            group = m.lastindex
            if group == _IDENT:
                text = m.group()
                kind = "kw" if text in KEYWORDS else "ident"
                append(Token(kind, text, line, m.start() - line_start + 1))
            elif group == _PUNCT:
                append(Token("punct", m.group(), line, m.start() - line_start + 1))
            elif group == _BLANK:
                pass
            elif group == _NEWLINE:
                line += 1
                line_start = m.end()
            elif group == _COMMENT:
                if m.end() == n:
                    stop = m.start()
            elif group == _STRING:
                text = m.group()
                column = m.start() - line_start + 1
                if len(text) == 1 or text[-1] != '"':
                    raise SourceSyntaxError("unterminated string", filename, line, column)
                append(Token("string", text[1:-1], line, column))
            elif group == _INT and m.group()[-1] <= "9":
                append(Token("int", m.group(), line, m.start() - line_start + 1))
            else:  # a non-ASCII character, or one that starts no lexeme
                i = m.start()
                ch = source[i]
                j = i + 1
                if ch.isdigit():
                    while j < n and source[j].isdigit():
                        j += 1
                    append(Token("int", source[i:j], line, i - line_start + 1))
                elif ch.isalpha():
                    while j < n and (source[j].isalnum() or source[j] == "_"):
                        j += 1
                    append(Token("ident", source[i:j], line, i - line_start + 1))
                else:
                    message = f"unexpected character {ch!r}"
                    raise SourceSyntaxError(message, filename, line, i - line_start + 1)
                pos = j  # restart after the token: the pending matches may overlap it
                break
        else:
            break
    tokens.append(Token("eof", "", line, stop - line_start + 1))
    return tokens
