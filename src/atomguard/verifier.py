"""Contract checking: drive grammar extraction and subword parsing, classify
each found occurrence by whether its lowest common ancestor method is
atomically executed, and render reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .contracts import CallSequence, Contract, expand_clause, parse_contract
from .errors import AtomguardError
from .frontend.analysis import compute_atomically_executed, require_thread_entries
from .frontend.syntax import ClassDecl, Program
from .glr import (
    ParseStats,
    ParseTree,
    build_parse_table,
    parse_subword_until_lca,
    tree_sites,
)
from .grammar import (
    BehaviorGrammar,
    CallSite,
    build_behavior_grammar,
    build_behavior_grammar_pointsto,
    build_class_scope_grammar,
    _reachable_methods,
    _shared_cfgs,
    simplify_grammar,
    symbol_method,
)
from .pointsto import compute_pointsto, module_alloc_sites

__all__ = [
    "Violation",
    "RunStats",
    "verify",
    "verify_with_stats",
    "check_unification",
    "render_report",
    "mark_atomic",
]


@dataclass(frozen=True, slots=True)
class Violation:
    clause: str
    word: tuple[str, ...]
    thread: str
    site: Optional[str]
    calls: tuple[CallSite, ...]
    lca_symbol: str
    lca_method: str
    suggestion: str

    @property
    def identity(self) -> tuple:
        locations = tuple((c.file, c.line) for c in self.calls)
        return (self.thread, self.word, self.lca_method, locations)


@dataclass(slots=True)
class RunStats:
    grammars: int = 0
    trees: int = 0
    branches: int = 0


def check_unification(sequence: CallSequence, tree: ParseTree) -> bool:
    """Match clause variables against the occurrence's program terms.

    Terms must match exactly (syntactically); `_` matches anything; a parse
    whose terms disagree with the clause bindings is discarded.
    """
    sites = tree_sites(tree)
    if len(sites) != len(sequence.atoms):
        return False
    bindings: dict[str, str] = {}

    def bind(var: str, value: str) -> bool:
        if var in bindings:
            return bindings[var] == value
        bindings[var] = value
        return True

    for atom, site in zip(sequence.atoms, sites):
        if atom.method != site.method:
            return False
        if atom.result_var is not None and atom.result_var != "_":
            if site.result is None:
                return False
            if not bind(atom.result_var, site.result):
                return False
        if atom.args is not None:
            if len(atom.args) != len(site.args):
                return False
            for pat, text in zip(atom.args, site.args):
                if pat == "_":
                    continue
                if not bind(pat, text):
                    return False
    return True


@dataclass(slots=True)
class _Unit:
    """One Alg.-style iteration scope: a thread entry or a client class."""

    label: str
    roots: list[str]
    scope: Optional[frozenset[str]]
    class_decl: Optional[ClassDecl]


def _units(program: Program, class_scope: bool) -> list[_Unit]:
    if class_scope:
        units = []
        for c in program.client_classes:
            if c.methods:
                units.append(
                    _Unit(
                        label=f"class:{c.name}",
                        roots=[m.name for m in c.methods],
                        scope=frozenset(m.name for m in c.methods),
                        class_decl=c,
                    )
                )
        if not units:
            raise AtomguardError("no client classes to analyze")
        return units
    entries = require_thread_entries(program)
    return [
        _Unit(label=m.name, roots=[m.name], scope=None, class_decl=None) for m in entries
    ]


def _unit_grammars(
    program: Program,
    module: ClassDecl,
    unit: _Unit,
    points_to: bool,
    pointsto_result,
) -> list[tuple[Optional[str], BehaviorGrammar]]:
    """(site label, grammar) pairs to check for one unit."""

    def plain() -> BehaviorGrammar:
        if unit.class_decl is not None:
            return build_class_scope_grammar(program, unit.class_decl, module)
        return build_behavior_grammar(program, unit.roots[0], module)

    if not points_to:
        return [(None, plain())]
    methods = _reachable_methods(program, unit.roots, unit.scope)
    sites = module_alloc_sites(program, methods, module, pointsto_result)
    if not sites:
        # Receivers that no tracked allocation reaches are opaque; fall back
        # to the pessimistic grammar rather than skipping the unit.
        return [(None, plain())]
    out: list[tuple[Optional[str], BehaviorGrammar]] = []
    for site in sites:
        if unit.class_decl is not None:
            g = build_class_scope_grammar(
                program, unit.class_decl, module, site=site, pointsto=pointsto_result
            )
        else:
            g = build_behavior_grammar_pointsto(
                program, unit.roots[0], module, site, pointsto_result
            )
        out.append((site.label, g))
    return out


def verify_with_stats(
    program: Program,
    module: Optional[ClassDecl | str] = None,
    contract: Optional[Contract] = None,
    *,
    class_scope: bool = False,
    points_to: bool = True,
    max_clause_len: int = 16,
) -> tuple[list[Violation], RunStats]:
    stats = RunStats()
    if module is None:
        modules = program.modules
        if not modules:
            raise AtomguardError("program declares no module with a contract")
    else:
        cls = program.class_named(module) if isinstance(module, str) else module
        if cls is None or not cls.is_module:
            raise AtomguardError(f"no module class named {module!r}")
        modules = [cls]

    ae = compute_atomically_executed(program)
    units = _units(program, class_scope)
    pointsto_result = compute_pointsto(program) if points_to else None

    # Every grammar is built and simplified before any search, so the CFGs
    # the builders share are dropped before the searches' memory peak.
    checks: list[tuple[list, str, Optional[str], BehaviorGrammar]] = []
    with _shared_cfgs():
        for mod in modules:
            if contract is not None and module is not None:
                mod_contract = contract
            else:
                mod_contract = parse_contract(
                    mod.contract_text or "", {m.name for m in mod.methods}
                )
            if not mod_contract.clauses:
                continue
            expanded = [
                (clause, expand_clause(clause, max_clause_len))
                for clause in mod_contract.clauses
            ]
            for unit in units:
                for site_label, grammar in _unit_grammars(
                    program, mod, unit, points_to, pointsto_result
                ):
                    checks.append(
                        (expanded, unit.label, site_label, simplify_grammar(grammar))
                    )

    found: list[Violation] = []
    for expanded, thread, site_label, grammar in checks:
        table = build_parse_table(grammar)
        stats.grammars += 1
        pstats = ParseStats()
        for clause, words in expanded:
            for word in words:
                trees = parse_subword_until_lca(table, word.methods, pstats)
                for tree in trees:
                    if word.is_parameterized and not check_unification(word, tree):
                        continue
                    method = symbol_method(tree.symbol)
                    if method is None or method in ae:
                        continue
                    found.append(
                        Violation(
                            clause=clause.text,
                            word=word.methods,
                            thread=thread,
                            site=site_label,
                            calls=tuple(tree_sites(tree)),
                            lca_symbol=tree.symbol,
                            lca_method=method,
                            suggestion=f"make {method} atomic",
                        )
                    )
        stats.trees += pstats.trees
        stats.branches += pstats.branches

    deduped: list[Violation] = []
    seen: set[tuple] = set()
    for v in found:
        if v.identity not in seen:
            seen.add(v.identity)
            deduped.append(v)
    deduped.sort(key=lambda v: (v.thread, v.clause, v.word, [c.line for c in v.calls]))
    return deduped, stats


def verify(
    program: Program,
    module: Optional[ClassDecl | str] = None,
    contract: Optional[Contract] = None,
    *,
    class_scope: bool = False,
    points_to: bool = True,
    max_clause_len: int = 16,
) -> list[Violation]:
    """All contract violations of the program, deduplicated and ordered."""
    violations, _ = verify_with_stats(
        program,
        module,
        contract,
        class_scope=class_scope,
        points_to=points_to,
        max_clause_len=max_clause_len,
    )
    return violations


def mark_atomic(program: Program, method_name: str) -> None:
    """Flip one client method to atomic (the fix a report suggests)."""
    decl = program.client_methods.get(method_name)
    if decl is None:
        raise AtomguardError(f"no client method named {method_name!r}")
    decl.is_atomic = True


# --------------------------------------------------------------------------
# reports

RED = "\x1b[31m"
GREEN = "\x1b[32m"
RESET = "\x1b[0m"


def render_report(
    violations: list[Violation],
    fmt: str = "text",
    stats: Optional[RunStats] = None,
    color: bool = False,
) -> str:
    if fmt == "json":
        payload = {
            "violations": [
                {
                    "clause": v.clause,
                    "word": list(v.word),
                    "thread": v.thread,
                    "site": v.site,
                    "calls": [
                        {"file": c.file, "line": c.line, "method": c.method}
                        for c in v.calls
                    ],
                    "lca": v.lca_method,
                    "suggestion": v.suggestion,
                }
                for v in violations
            ],
            "stats": {
                "grammars": stats.grammars if stats else 0,
                "trees": stats.trees if stats else 0,
                "branches": stats.branches if stats else 0,
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt != "text":
        raise AtomguardError(f"unknown report format {fmt!r}")

    if not violations:
        ok = "OK: contract respected"
        return (GREEN + ok + RESET if color else ok) + "\n"
    lines: list[str] = []
    for i, v in enumerate(violations, 1):
        head = f"VIOLATION {i}"
        lines.append(RED + head + RESET if color else head)
        lines.append(f'  clause:  "{v.clause}"')
        lines.append(f"  word:    {' '.join(v.word)}")
        lines.append(f"  thread:  {v.thread}")
        if v.site is not None:
            lines.append(f"  site:    {v.site}")
        lines.append("  calls:")
        for c in v.calls:
            lines.append(f"    {c.file}:{c.line}  {c.method}")
        lines.append(
            f"  lowest common ancestor: {v.lca_symbol} in method {v.lca_method}"
            " (not atomically executed)"
        )
        lines.append(f"  suggestion: {v.suggestion}")
        lines.append("")
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines) + "\n"
