"""atomguard: static checking of atomic-execution contracts.

A module class declares, as part of its interface, which sequences of its
method calls clients must perform atomically.  The analyzer extracts each
thread's possible call sequences as a context-free grammar, locates every
occurrence of a contract word inside that behavior with a generalized LR
parser, and reports occurrences whose lowest common ancestor method is not
atomically executed.

The package exports the entry points: parse, check (whole or stage by
stage) and report.  Each layer's own names are public in the module that
defines them.
"""

from .errors import AtomguardError
from .frontend.parser import parse_program
from .verifier import (
    classify_stage,
    grammar_stage,
    render_report,
    search_stage,
    simplify_stage,
    verify,
    verify_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AtomguardError",
    "classify_stage",
    "grammar_stage",
    "parse_program",
    "render_report",
    "search_stage",
    "simplify_stage",
    "verify",
    "verify_with_stats",
]
