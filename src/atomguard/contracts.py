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

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    ClauseTooLongError,
    ContractError,
    StarNotAllowedError,
    UnknownMethodError,
)

__all__ = [
    "CallAtom",
    "CallSequence",
    "Clause",
    "Contract",
    "parse_contract",
    "parse_parameterized_atom",
    "expand_clause",
    "clause_to_text",
]

WILDCARD = "_"
MAX_GROUP_NESTING = 100  # parenthesized groups inside one another


@dataclass(frozen=True, slots=True)
class CallAtom:
    """One call pattern: optional result variable, method, argument patterns.

    args is None when the atom has no parenthesized argument list (no
    constraint on arguments); each entry is a variable name or the wildcard.
    Variables are uppercase-initial identifiers.
    """

    method: str
    result_var: Optional[str] = None
    args: Optional[tuple[str, ...]] = None

    @property
    def is_parameterized(self) -> bool:
        return self.result_var is not None or self.args is not None

    def to_text(self) -> str:
        out = f"{self.result_var}=" if self.result_var else ""
        out += self.method
        if self.args is not None:
            out += "(" + ", ".join(self.args) + ")"
        return out


@dataclass(frozen=True, slots=True)
class _Group:
    branches: tuple["_Seq", ...]


@dataclass(frozen=True, slots=True)
class _Seq:
    items: tuple[Union[CallAtom, _Group], ...]


@dataclass(frozen=True, slots=True)
class CallSequence:
    """One expanded word of a clause: a fixed sequence of call atoms."""

    atoms: tuple[CallAtom, ...]

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(a.method for a in self.atoms)

    @property
    def is_parameterized(self) -> bool:
        return any(a.is_parameterized for a in self.atoms)

    def to_text(self) -> str:
        return " ".join(a.to_text() for a in self.atoms)


@dataclass(frozen=True, slots=True)
class Clause:
    text: str
    seq: _Seq

    def to_text(self) -> str:
        return clause_to_text(self)


@dataclass(frozen=True, slots=True)
class Contract:
    clauses: tuple[Clause, ...]

    def to_text(self) -> str:
        return "; ".join(f'"{c.to_text()}"' for c in self.clauses)


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


def parse_contract(text: str, module_methods: frozenset[str] | set[str]) -> Contract:
    """Parse an annotation body: a `;`-separated list of quoted clauses."""
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
    return Contract(clauses=tuple(clauses))


def parse_parameterized_atom(text: str) -> CallAtom:
    """Parse a single call pattern like `X=indexOf(_)`."""
    tokens = _clause_tokens(text)
    parser = _ClauseParser(tokens, text)
    atom = parser.parse_atom()
    if parser.cur is not None:
        raise ContractError(f"trailing {parser.cur!r} after call pattern {text!r}")
    return atom


# --------------------------------------------------------------------------
# printing and expansion


def _seq_to_text(seq: _Seq) -> str:
    parts: list[str] = []
    for item in seq.items:
        if isinstance(item, CallAtom):
            parts.append(item.to_text())
        else:
            parts.append("(" + " | ".join(_seq_to_text(b) for b in item.branches) + ")")
    return " ".join(parts)


def clause_to_text(clause: Clause) -> str:
    return _seq_to_text(clause.seq)


def _expand_seq(seq: _Seq, max_len: int, text: str) -> list[tuple[CallAtom, ...]]:
    words: list[tuple[CallAtom, ...]] = [()]
    for item in seq.items:
        if isinstance(item, CallAtom):
            suffixes = [(item,)]
        else:
            suffixes = []
            for b in item.branches:
                suffixes.extend(_expand_seq(b, max_len, text))
        words = [w + s for w in words for s in suffixes]
        for w in words:
            if len(w) > max_len:
                raise ClauseTooLongError(
                    f"clause {text!r} expands past {max_len} calls; "
                    f"raise the word-length bound to allow it"
                )
    return words


def expand_clause(clause: Clause, max_clause_len: int = 16) -> list[CallSequence]:
    """All call sequences the clause denotes, in source order, deduplicated."""
    seen: set[tuple[CallAtom, ...]] = set()
    out: list[CallSequence] = []
    for w in _expand_seq(clause.seq, max_clause_len, clause.text):
        if w not in seen:
            seen.add(w)
            out.append(CallSequence(atoms=w))
    return out

