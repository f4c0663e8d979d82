"""atomguard: static checking of atomic-execution contracts.

A module class declares, as part of its interface, which sequences of its
method calls clients must perform atomically.  The analyzer extracts each
thread's possible call sequences as a context-free grammar, locates every
occurrence of a contract word inside that behavior with a generalized LR
parser, and reports occurrences whose lowest common ancestor method is not
atomically executed.
"""

from .contracts import (
    CallAtom,
    CallSequence,
    Clause,
    Contract,
    expand_clause,
    parse_contract,
)
from .errors import (
    AtomguardError,
    ClauseTooLongError,
    ContractError,
    DuplicateMethodError,
    NoEntryPointsError,
    SourceSyntaxError,
    StarNotAllowedError,
    UnknownMethodError,
    UnresolvedMethodError,
)
from .frontend.cfg import CfgNode, NodeKind, build_cfg
from .frontend.parser import parse_program
from .frontend.syntax import MethodDecl, Program
from .glr import (
    ParseStats,
    ParseTable,
    ParseTree,
    build_parse_table,
    dump_tree,
    parse_subword_until_lca,
    tree_sites,
)
from .grammar import (
    BehaviorGrammar,
    CallSite,
    Production,
    build_behavior_grammar,
    build_behavior_grammar_pointsto,
    build_class_scope_grammar,
    dump_grammar,
    simplify_grammar,
    symbol_method,
)
from .pointsto import (
    AllocationSite,
    PointsToResult,
    compute_pointsto,
    module_alloc_sites,
)
from .verifier import (
    Check,
    RunStats,
    Task,
    Violation,
    check_unification,
    classify_stage,
    compute_atomically_executed,
    find_thread_entries,
    grammar_stage,
    render_report,
    search_stage,
    simplify_stage,
    verify,
    verify_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationSite",
    "AtomguardError",
    "BehaviorGrammar",
    "CallAtom",
    "CallSequence",
    "CallSite",
    "CfgNode",
    "Check",
    "Clause",
    "ClauseTooLongError",
    "Contract",
    "ContractError",
    "DuplicateMethodError",
    "MethodDecl",
    "NoEntryPointsError",
    "NodeKind",
    "ParseStats",
    "ParseTable",
    "ParseTree",
    "PointsToResult",
    "Production",
    "Program",
    "RunStats",
    "SourceSyntaxError",
    "StarNotAllowedError",
    "Task",
    "UnknownMethodError",
    "UnresolvedMethodError",
    "Violation",
    "build_behavior_grammar",
    "build_behavior_grammar_pointsto",
    "build_cfg",
    "build_class_scope_grammar",
    "build_parse_table",
    "check_unification",
    "classify_stage",
    "compute_atomically_executed",
    "compute_pointsto",
    "dump_grammar",
    "dump_tree",
    "expand_clause",
    "find_thread_entries",
    "grammar_stage",
    "module_alloc_sites",
    "parse_contract",
    "parse_program",
    "parse_subword_until_lca",
    "render_report",
    "search_stage",
    "simplify_grammar",
    "simplify_stage",
    "symbol_method",
    "tree_sites",
    "verify",
    "verify_with_stats",
]
