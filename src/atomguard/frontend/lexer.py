"""Tokenizer for the mini-language.

Produces a flat list of `(kind, text, line, column)` tuples; the parser
consumes it with one token of lookahead, and `tokenize` gives the same
tokens as `Token` records.  Each lexeme is one string of a `findall` over
the source, blanks before it included, and its kind is looked up by the
whole lexeme or by its first character.  Only a lexeme that starts with a
non-ASCII character (or an integer followed by one), an unterminated string
or a stray character is scanned a character at a time.

A call statement spelled exactly `x.m();` (no blanks or comments inside,
neither name a keyword) is one lexeme and one fused tuple
`("call", "x", line, column, "m")`, which the parser takes in one step;
`unfuse` gives the six tokens it stands for, and `tokenize` gives those.
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
# (less its trailing blanks, where `_scan` stops) without gaps.  Each holds
# at most one run of a single character class, and nothing after the run
# can fail (a string's closing quote is optional), with one exception: an
# identifier may go on into a whole call statement `x.m();`, a second run
# (the method name) and then `();`.  Where that tail fails, the engine gives
# the method name back one character at a time, each step failing at once
# (a `\w` is no `(`), and settles on the bare identifier; nothing else
# backtracks, so a match costs time linear in its length.  Python 3.10's
# `re` has no possessive quantifier or atomic group to avoid even that.  The
# tail is written `(?:...|)`: the same match as `(?:...)?`, and faster in
# CPython's `re`.  `\w` is exactly `isalnum()` or `_`.  An integer takes the
# non-ASCII character after it, if there is one, so that the per-character
# branch can finish it: `isdigit()` accepts more than `[0-9]` and `\d` do
# (`²`).  The pattern has no groups: `findall` gives each lexeme as one
# string, blanks before it included.
_BLANKS = " \t\r"
_LEXEME = re.compile(
    r"[ \t\r]*(?:\n|//[^\n]*|[A-Za-z_]\w*(?:\.[A-Za-z_]\w*\(\);|)|"
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

# a `Token`'s fields, or a fused call statement's: ("call", receiver, line,
# column, method)
_Lexeme = tuple[str, str, int, int] | tuple[str, str, int, int, str]


def unfuse(t: _Lexeme) -> list[_Lexeme]:
    """The six tokens of the call statement `t` stands for."""
    _, receiver, line, column, method = t
    dot = column + len(receiver)
    paren = dot + 1 + len(method)
    return [
        (_KINDS.get(receiver, "ident"), receiver, line, column),
        ("punct", ".", line, dot),
        (_KINDS.get(method, "ident"), method, line, dot + 1),
        ("punct", "(", line, paren),
        ("punct", ")", line, paren + 1),
        ("punct", ";", line, paren + 2),
    ]


def _scan(source: str, filename: str) -> list[_Lexeme]:
    """The tokens of `source` as plain tuples, ending with the `eof` one."""
    tokens: list[_Lexeme] = []
    append = tokens.append
    # grows by each identifier and call statement seen: a repeated one is one lookup
    kinds = dict(_KINDS)
    calls: dict[str, tuple[str, str]] = {}  # a call statement's receiver and method
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
                    if text[-1] == ";":  # a call statement `x.m();`
                        dot = text.index(".")
                        receiver, method = text[:dot], text[dot + 1 : -3]
                        if receiver in KEYWORDS or method in KEYWORDS:  # its six tokens
                            tokens += unfuse(("call", receiver, line, i - line_start + 1, method))
                            continue
                        kind = "call"
                        calls[text] = receiver, method
                    kinds[text] = kind
            if kind in _AS_IS:
                append((kind, text, line, i - line_start + 1))
            elif kind == "newline":
                line += 1
                line_start = end
            elif kind == "call":
                receiver, method = calls[text]
                append(("call", receiver, line, i - line_start + 1, method))
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
    tokens: list[Token] = []
    for t in _scan(source, filename):
        if t[0] == "call":
            tokens += [Token(*u) for u in unfuse(t)]
        else:
            tokens.append(Token(*t))
    return tokens
