"""Tokenizer for the mini-language.

Produces a flat list of `(kind, text, line, column)` tuples; the parser
consumes it with one token of lookahead, and `tokenize` gives the same
tokens as `Token` records.  Each lexeme is one string of a `findall` over
the source, blanks before it included, and its kind is looked up by the
whole lexeme or by its first character.  Only a lexeme that starts with a
non-ASCII character (or an integer followed by one), an unterminated string
or a stray character is scanned a character at a time.
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
# `[0-9]` and `\d` do (`²`).  The pattern has no groups: `findall` gives
# each lexeme as one string, blanks before it included.
_BLANKS = " \t\r"
_LEXEME = re.compile(
    r"[ \t\r]*(?:\n|//[^\n]*|[A-Za-z_]\w*|"
    + "|".join(map(re.escape, PUNCT))
    + r'|"[^"\n]*"?|[0-9]+[^\x00-\x7f]?|.)'
)
# A lexeme's kind, by the whole lexeme or else by its first character; the
# kinds in `_AS_IS` are tokens of the lexeme's text as it is.
_KINDS = {"\n": "newline", **dict.fromkeys(PUNCT, "punct"), **dict.fromkeys(KEYWORDS, "kw")}
_STARTS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", "ident"),
    **dict.fromkeys("0123456789", "int"),
    '"': "string",
    "/": "comment",
}
_AS_IS = frozenset({"ident", "punct", "kw"})

_Lexeme = tuple[str, str, int, int]  # a `Token`'s fields


def _scan(source: str, filename: str) -> list[_Lexeme]:
    """The tokens of `source` as plain tuples, ending with the `eof` one."""
    tokens: list[_Lexeme] = []
    append = tokens.append
    kinds = dict(_KINDS)  # grows by each identifier seen: a repeated name is one lookup
    n = len(source.rstrip(_BLANKS))  # trailing blanks hold no lexeme
    line = 1
    line_start = 0  # offset of the first character of `line`
    stop = len(source)  # offset of the end-of-input token: the end, or a last comment's start
    pos = 0
    while pos < n:
        end = pos
        for text in _LEXEME.findall(source, pos, n):
            i = end  # where the lexeme starts, once the blanks before it are off
            end += len(text)
            if text[0] in _BLANKS:
                text = text.lstrip(_BLANKS)
                i = end - len(text)
            kind = kinds.get(text)
            if kind is None:
                kind = _STARTS.get(text[0])
                if kind == "ident":
                    kinds[text] = kind
            if kind in _AS_IS:
                append((kind, text, line, i - line_start + 1))
            elif kind == "newline":
                line += 1
                line_start = end
            elif kind == "int" and text[-1] <= "9":
                append(("int", text, line, i - line_start + 1))
            elif kind == "string" and len(text) > 1 and text[-1] == '"':
                append(("string", text[1:-1], line, i - line_start + 1))
            elif kind == "comment" and len(text) > 1:
                if end == n:
                    stop = i
            else:  # a non-ASCII start, an integer before one, an unterminated string or a stray character
                ch = text[0]
                j = i + 1
                if ch.isdigit():
                    while j < n and source[j].isdigit():
                        j += 1
                    append(("int", source[i:j], line, i - line_start + 1))
                elif ch.isalpha():
                    while j < n and (source[j].isalnum() or source[j] == "_"):
                        j += 1
                    append(("ident", source[i:j], line, i - line_start + 1))
                elif ch == '"':
                    raise SourceSyntaxError("unterminated string", filename, line, i - line_start + 1)
                else:
                    message = f"unexpected character {ch!r}"
                    raise SourceSyntaxError(message, filename, line, i - line_start + 1)
                pos = j  # restart after the token: the pending lexemes may overlap it
                break
        else:
            break
    append(("eof", "", line, stop - line_start + 1))
    return tokens


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    return [Token(*t) for t in _scan(source, filename)]
