"""Contract clauses: call sequences that must execute atomically.

A contract is a list of clauses.  Each clause is a star-free expression over
the module's public methods, built from concatenation and alternation only,
so it always denotes a finite set of call sequences.  Atoms may bind call
arguments and results to variables for data-flow filtering:

    "a b"                 two calls in sequence
    "c (d | e)"           alternation
    "X=indexOf(_) set(X,_)"   result of indexOf feeds first argument of set
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import (
    ClauseTooLongError,
    ContractError,
    StarNotAllowedError,
    UnknownMethodError,
)
from .records import HashableRecord

__all__ = [
    "CallAtom",
    "CallSequence",
    "Clause",
    "parse_contract",
    "expand_clause",
]

WILDCARD = "_"
MAX_GROUP_NESTING = 100  # parenthesized groups inside one another
MAX_CLAUSE_LEN = 16  # default bound on the calls in one word
MAX_CLAUSE_WORDS = 65_536  # words one clause may denote, repeats counted


class CallAtom(HashableRecord):
    """One call pattern: optional result variable, method, argument patterns.

    args is None when the atom has no parenthesized argument list (no
    constraint on arguments); each entry is a variable name or the wildcard.
    Variables are uppercase-initial identifiers.
    """

    __slots__ = ("method", "result_var", "args")
    _defaults = {"result_var": None, "args": None}

    @property
    def is_parameterized(self) -> bool:
        return self.result_var is not None or self.args is not None


class _Group(HashableRecord):
    __slots__ = ("branches",)


class _Seq(HashableRecord):
    __slots__ = ("items",)


class CallSequence(HashableRecord):
    """One expanded word of a clause: a fixed sequence of call atoms."""

    __slots__ = ("atoms",)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(a.method for a in self.atoms)

    @property
    def is_parameterized(self) -> bool:
        return any(a.is_parameterized for a in self.atoms)


class Clause(HashableRecord):
    __slots__ = ("text", "seq")


# --------------------------------------------------------------------------
# clause tokenizer / parser


def _clause_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "*" or ch == "+":
            raise StarNotAllowedError(
                f"repetition {ch!r} is not allowed: clauses must denote finite call sets"
            )
        if ch in "()|,=":
            tokens.append(ch)
            i += 1
            continue
        if ch == WILDCARD and not (i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(WILDCARD)
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ContractError(f"unexpected character {ch!r} in clause {text!r}")
    return tokens


def _is_var(token: str) -> bool:
    return token[0].isupper() and token.replace("_", "").isalnum()


class _ClauseParser:
    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0  # open groups

    @property
    def cur(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        t = self.cur
        if t is None:
            raise ContractError(f"unexpected end of clause {self.text!r}")
        self.pos += 1
        return t

    def expect(self, token: str) -> None:
        t = self.take()
        if t != token:
            raise ContractError(f"expected {token!r}, found {t!r} in clause {self.text!r}")

    def parse_seq(self) -> _Seq:
        items: list[Union[CallAtom, _Group]] = []
        while self.cur is not None and self.cur not in (")", "|"):
            items.append(self.parse_item())
        if not items:
            raise ContractError(f"empty call sequence in clause {self.text!r}")
        return _Seq(items=tuple(items))

    def parse_item(self) -> Union[CallAtom, _Group]:
        if self.cur == "(":
            return self.parse_group()
        return self.parse_atom()

    def parse_group(self) -> _Group:
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_GROUP_NESTING:
            raise ContractError(
                f"groups nested deeper than {MAX_GROUP_NESTING} levels in clause {self.text!r}"
            )
        branches = [self.parse_seq()]
        while self.cur == "|":
            self.take()
            branches.append(self.parse_seq())
        self.expect(")")
        self.depth -= 1
        if len(branches) < 2:
            raise ContractError(
                f"parenthesized group needs at least two alternatives in clause {self.text!r}"
            )
        return _Group(branches=tuple(branches))

    def _paren_is_args(self) -> bool:
        # After a name, '(' opens an argument list only when the contents are
        # variables / wildcards separated by commas; otherwise it is a group.
        i = self.pos + 1
        expecting_pat = True
        while i < len(self.tokens):
            t = self.tokens[i]
            if t == ")":
                return not expecting_pat
            if expecting_pat:
                if t == WILDCARD or _is_var(t):
                    expecting_pat = False
                elif t not in ("(", "|", ","):
                    # lowercase identifier: reject later with a clear message
                    expecting_pat = False
                else:
                    return False
            else:
                if t != ",":
                    return False
                expecting_pat = True
            i += 1
        return False

    def parse_atom(self) -> CallAtom:
        name = self.take()
        if name in ("(", ")", "|", ",", "="):
            raise ContractError(f"expected call name, found {name!r} in clause {self.text!r}")
        result_var: Optional[str] = None
        if self.cur == "=":
            if name != WILDCARD and not _is_var(name):
                raise ContractError(
                    f"result variable {name!r} must start with an uppercase letter"
                )
            result_var = name
            self.take()
            name = self.take()
        args: Optional[tuple[str, ...]] = None
        if self.cur == "(" and self._paren_is_args():
            self.take()
            pats: list[str] = []
            while True:
                pat = self.take()
                if pat != WILDCARD and not _is_var(pat):
                    raise ContractError(
                        f"argument pattern {pat!r} must be a variable or {WILDCARD!r}"
                        f" (variables start with an uppercase letter)"
                    )
                pats.append(pat)
                if self.cur == ",":
                    self.take()
                    continue
                break
            self.expect(")")
            args = tuple(pats)
        return CallAtom(method=name, result_var=result_var, args=args)


def _validate_methods(seq: _Seq, module_methods: frozenset[str], text: str) -> None:
    for item in seq.items:
        if isinstance(item, CallAtom):
            if item.method not in module_methods:
                raise UnknownMethodError(
                    f"clause {text!r} names {item.method!r}, not a module method"
                )
        else:
            for b in item.branches:
                _validate_methods(b, module_methods, text)


def parse_clause(text: str, module_methods: frozenset[str] | set[str]) -> Clause:
    tokens = _clause_tokens(text)
    parser = _ClauseParser(tokens, text)
    seq = parser.parse_seq()
    if parser.cur is not None:
        raise ContractError(f"trailing {parser.cur!r} in clause {text!r}")
    _validate_methods(seq, frozenset(module_methods), text)
    return Clause(text=text, seq=seq)


def parse_contract(text: str, module_methods: frozenset[str] | set[str]) -> tuple[Clause, ...]:
    """The clauses of an annotation body: a `;`-separated list of quoted
    clauses."""
    clauses: list[Clause] = []
    rest = text.strip()
    while rest:
        if not rest.startswith('"'):
            raise ContractError(f"expected quoted clause, found {rest[:20]!r}")
        end = rest.find('"', 1)
        if end < 0:
            raise ContractError(f"unterminated clause string in {text!r}")
        clauses.append(parse_clause(rest[1:end], module_methods))
        rest = rest[end + 1 :].lstrip()
        if rest.startswith(";"):
            rest = rest[1:].lstrip()
        elif rest:
            raise ContractError(f"expected ';' between clauses, found {rest[:20]!r}")
    return tuple(clauses)


# --------------------------------------------------------------------------
# expansion


def _measure(seq: _Seq) -> tuple[int, int]:
    """The length of the longest word `seq` denotes, and how many words it
    denotes, repeats counted: each item adds its longest branch and
    multiplies by its branch count."""
    longest, count = 0, 1
    for item in seq.items:
        if isinstance(item, CallAtom):
            longest += 1
        else:
            sizes = [_measure(b) for b in item.branches]
            longest += max([n for n, _ in sizes])
            count *= sum([c for _, c in sizes])
    return longest, count


def _expand_seq(seq: _Seq) -> list[tuple[CallAtom, ...]]:
    words: list[tuple[CallAtom, ...]] = [()]
    for item in seq.items:
        if isinstance(item, CallAtom):
            suffixes = [(item,)]
        else:
            suffixes = []
            for b in item.branches:
                suffixes.extend(_expand_seq(b))
        words = [w + s for w in words for s in suffixes]
    return words


def expand_clause(clause: Clause, max_clause_len: int = MAX_CLAUSE_LEN) -> list[CallSequence]:
    """All call sequences the clause denotes, in source order, deduplicated.

    The clause is measured first, from its tree: one whose longest word has
    more than `max_clause_len` calls, or that denotes more than
    `MAX_CLAUSE_WORDS` words, raises `ClauseTooLongError` before any word
    is built."""
    longest, count = _measure(clause.seq)
    if longest > max_clause_len:
        raise ClauseTooLongError(
            f"clause {clause.text!r} expands past {max_clause_len} calls; "
            f"raise the word-length bound to allow it"
        )
    if count > MAX_CLAUSE_WORDS:
        raise ClauseTooLongError(
            f"clause {clause.text!r} expands to more than {MAX_CLAUSE_WORDS:,} words; "
            f"split it into smaller clauses"
        )
    seen: set[tuple[CallAtom, ...]] = set()
    out: list[CallSequence] = []
    for w in _expand_seq(clause.seq):
        if w not in seen:
            seen.add(w)
            out.append(CallSequence(atoms=w))
    return out
