"""Exception types shared across the analyzer."""

from __future__ import annotations

__all__ = [
    "AtomguardError",
    "SourceSyntaxError",
    "UnresolvedMethodError",
    "DuplicateMethodError",
    "NoEntryPointsError",
    "ContractError",
    "UnknownMethodError",
    "StarNotAllowedError",
    "ClauseTooLongError",
]


class AtomguardError(Exception):
    """Base class for all analyzer errors."""


class SourceSyntaxError(AtomguardError):
    """Malformed program text; carries the source position."""

    def __init__(self, message: str, filename: str, line: int, column: int):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.filename = filename
        self.line = line
        self.column = column


class UnresolvedMethodError(AtomguardError):
    """A call names a method that no class declares."""


class DuplicateMethodError(AtomguardError):
    """Two method declarations collide under the resolution rules."""


class NoEntryPointsError(AtomguardError):
    """Whole-program analysis found no thread entry method."""


class ContractError(AtomguardError):
    """Base class for contract clause errors."""


class UnknownMethodError(ContractError):
    """A clause names a method the module does not declare."""


class StarNotAllowedError(ContractError):
    """A clause uses repetition; clauses must denote finite sets."""


class ClauseTooLongError(ContractError):
    """A clause's longest word exceeds the word-length bound, or it denotes
    more words than `contracts.MAX_CLAUSE_WORDS`."""
