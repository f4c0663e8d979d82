"""Tokenizer for the mini-language.

Produces a flat list of `(kind, text, line, column)` tuples; the parser
consumes it with one token of lookahead, and `tokenize` gives the same
tokens as `Token` records.  Each lexeme is one string of a `findall` over
the source, blanks before it included, and its kind is looked up by the
whole lexeme or by its first character.  Only a lexeme that starts with a
non-ASCII character (or an integer followed by one), an unterminated string
or a stray character is scanned a character at a time.

A call statement spelled exactly `x.m();` (no blanks or comments inside,
neither name a keyword) is one lexeme, with the newline and blanks before
it when it starts its line, and one fused tuple
`("call", "x", line, column, "m")`, which the parser takes in one step;
`unfuse` gives the six tokens it stands for, and `tokenize` gives those.
Any other newline lexeme takes the next line's blanks with it.
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
    # kind: "ident" | "int" | "string" | "kw" | "punct" | "eof"
    __slots__ = ("kind", "text", "line", "column")


# One alternative per lexeme, each after a run of blanks, and a last one for
# any other character but a newline, so that the matches cover the source
# (less its trailing blanks, where `_scan` stops) without gaps.  A newline
# takes the next line's blanks with it and, when the line goes on with a
# call statement `x.m();`, that too; an identifier may go on into `.m();`.
# Each alternative holds at most one run of a single character class, and
# nothing after the run can fail (a string's closing quote is optional),
# except such a call tail: where it fails, the engine gives its name runs
# back one character at a time, each step failing at once (a `\w` is no
# `.` or `(`), so a match still costs time linear in its length
# (Python 3.10's `re` has no possessive quantifier or atomic group to avoid
# even that).  A tail is written `(?:...|)`: the same match as `(?:...)?`,
# and faster in CPython's `re`.  `\w` is exactly `isalnum()` or `_`.  An
# integer takes the non-ASCII character after it, if there is one, so that
# the per-character branch can finish it: `isdigit()` accepts more than
# `[0-9]` and `\d` do (`²`).  The pattern has no groups: `findall` gives each
# lexeme as one string, blanks before it included.
_BLANKS = " \t\r"
_CALL = r"\.[A-Za-z_]\w*\(\);"  # a call statement's tail after its receiver
_LEXEME = re.compile(
    rf"[ \t\r]*(?:\n[ \t\r]*(?:[A-Za-z_]\w*{_CALL}|)|//[^\n]*|[A-Za-z_]\w*(?:{_CALL}|)|"
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
    "\n": "newline",
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
    # grows by each identifier, newline and call statement lexeme seen: a
    # repeated one is one lookup
    kinds = dict(_KINDS)
    # a call statement lexeme's receiver, method and, after a newline, column
    calls: dict[str, tuple[str, str, int]] = {}
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
                if text[-1] == ";" and (kind == "ident" or kind == "newline"):  # `x.m();`
                    stmt = text.lstrip("\n" + _BLANKS)
                    dot = stmt.index(".")
                    receiver, method = stmt[:dot], stmt[dot + 1 : -3]
                    if receiver in KEYWORDS or method in KEYWORDS:  # its six tokens
                        if kind == "newline":
                            line += 1
                            line_start = i + 1
                        column = end - len(stmt) - line_start + 1
                        tokens += unfuse(("call", receiver, line, column, method))
                        continue
                    kind = "call" if kind == "ident" else "line call"
                    calls[text] = receiver, method, len(text) - len(stmt)
                kinds[text] = kind
            if kind in _AS_IS:
                append((kind, text, line, i - line_start + 1))
            elif kind == "line call":  # a newline, the next line's blanks and its call
                line += 1
                line_start = i + 1
                receiver, method, column = calls[text]
                append(("call", receiver, line, column, method))
            elif kind == "newline":  # and the next line's blanks
                line += 1
                line_start = i + 1
            elif kind == "call":
                receiver, method, _ = calls[text]
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
