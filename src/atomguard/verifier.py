"""Contract checking: drive grammar extraction and subword parsing, classify
each found occurrence by whether its lowest common ancestor method is
atomically executed, and render reports.

A check is one stream of records: `grammar_stage` yields a `Task` per
grammar, `simplify_stage` simplifies it, `search_stage` turns it into a
`Check` with every word's unfiltered trees, and `classify_stage` turns checks
into violations.  `verify_with_stats` composes them; the CLI dumps read them.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

from .contracts import CallSequence, Clause, Contract, expand_clause, parse_contract
from .errors import AtomguardError
from .frontend.analysis import compute_atomically_executed, require_thread_entries
from .frontend.syntax import ClassDecl, Program
from .glr import (
    ParseStats,
    ParseTable,
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
    _shared_lowering,
    SiteDrop,
    base_site,
    simplify_grammar,
    site_drops,
    site_restrictor,
    symbol_method,
)
from .pointsto import AllocationSite, PointsToResult, compute_pointsto, module_alloc_sites
from .records import HashableRecord, Record

__all__ = [
    "Violation",
    "RunStats",
    "Task",
    "Check",
    "grammar_stage",
    "simplify_stage",
    "search_stage",
    "classify_stage",
    "verify",
    "verify_with_stats",
    "check_unification",
    "render_report",
]


class Violation(HashableRecord):
    __slots__ = (
        "clause", "word", "thread", "site", "calls", "lca_symbol", "lca_method", "suggestion"
    )

    def __init__(self, clause: str, word: tuple[str, ...], thread: str, site: Optional[str],
                 calls: tuple[CallSite, ...], lca_symbol: str, lca_method: str, suggestion: str):
        self.clause = clause
        self.word = word
        self.thread = thread
        self.site = site
        self.calls = calls
        self.lca_symbol = lca_symbol
        self.lca_method = lca_method
        self.suggestion = suggestion

    @property
    def identity(self) -> tuple:
        return _identity(self.thread, self.word, self.lca_method, self.calls)


def _identity(thread: str, word: tuple[str, ...], lca_method: str,
              calls: tuple[CallSite, ...]) -> tuple:
    """What makes two violations the same report."""
    return (thread, word, lca_method, tuple([(c.file, c.line) for c in calls]))


class RunStats(Record):
    __slots__ = ("grammars", "trees", "branches")

    def __init__(self, grammars: int = 0, trees: int = 0, branches: int = 0):
        self.grammars = grammars
        self.trees = trees
        self.branches = branches


def check_unification(sequence: CallSequence, sites: Sequence[CallSite]) -> bool:
    """Match clause variables against the program terms of an occurrence's
    call sites (see `tree_sites`).

    Terms must match exactly (syntactically); `_` matches anything; a parse
    whose terms disagree with the clause bindings is discarded.
    """
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


class _Unit(Record):
    """One Alg.-style iteration scope: a thread entry or a client class."""

    __slots__ = ("label", "roots", "scope", "class_decl")

    def __init__(self, label: str, roots: list[str], scope: Optional[frozenset[str]],
                 class_decl: Optional[ClassDecl]):
        self.label = label
        self.roots = roots
        self.scope = scope
        self.class_decl = class_decl


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


def _grammar(
    program: Program,
    module: ClassDecl,
    unit: _Unit,
    site: Optional[AllocationSite],
    pointsto: Optional[PointsToResult],
) -> BehaviorGrammar:
    if unit.class_decl is not None:
        return build_class_scope_grammar(
            program, unit.class_decl, module, site=site, pointsto=pointsto
        )
    if site is None:
        return build_behavior_grammar(program, unit.roots[0], module)
    return build_behavior_grammar_pointsto(program, unit.roots[0], module, site, pointsto)


class Task(HashableRecord):
    """One grammar to search and the contract words to search it for."""

    __slots__ = ("module", "unit", "site", "grammar", "words", "drop")

    def __init__(self, module: str, unit: str, site: Optional[str], grammar: BehaviorGrammar,
                 words: tuple[tuple[Clause, tuple[CallSequence, ...]], ...],
                 drop: Optional[SiteDrop] = None):
        self.module = module
        self.unit = unit  # thread entry, or `class:NAME` under class scope
        self.site = site  # allocation site label; None without refinement
        self.grammar = grammar
        self.words = words
        # Set when `grammar` is the unit's base grammar, which its sites
        # share: the call terminals the site's grammar lacks (see
        # `site_drops`).  None when `grammar` is the task's own.
        self.drop = drop


class Check(HashableRecord):
    """A searched task (grammar simplified), its parse table, and each word's
    trees as the search found them, before unification and the atomicity
    filter.  The trees' call sites are read from `task.grammar`: the table,
    and the trees, may be those of an earlier task of the same shape."""

    __slots__ = ("task", "table", "trees", "stats")

    def __init__(self, task: Task, table: ParseTable,
                 trees: tuple[tuple[Clause, CallSequence, list[ParseTree]], ...],
                 stats: ParseStats):
        self.task = task
        self.table = table
        self.trees = trees
        self.stats = stats


def grammar_stage(
    program: Program,
    module: Optional[ClassDecl | str] = None,
    contract: Optional[Contract] = None,
    *,
    class_scope: bool = False,
    points_to: bool = True,
    max_clause_len: int = 16,
) -> Iterator[Task]:
    """One unsimplified grammar per (module, unit, allocation site), in
    report order; modules without contract clauses yield none.  `contract`,
    which needs `module`, replaces that module's own contract.  Each
    reachable method's CFG is built once and shared until the stream ends.

    A unit with several allocation sites gets one base grammar, and each
    site's task carries it with the terminals to drop from it; a site that
    some call shares with another site gets a grammar of its own instead,
    as does a unit's only site.  The base is built only if some site uses
    it."""
    if module is None:
        if contract is not None:
            raise AtomguardError("a contract needs the module it is for")
        modules = program.modules
        if not modules:
            raise AtomguardError("program declares no module with a contract")
    else:
        cls = program.class_named(module) if isinstance(module, str) else module
        if cls is None or not cls.is_module:
            raise AtomguardError(f"no module class named {module!r}")
        modules = [cls]

    units = _units(program, class_scope)
    pointsto = compute_pointsto(program) if points_to else None
    with _shared_lowering():
        for mod in modules:
            if contract is not None:
                mod_contract = contract
            else:
                mod_contract = parse_contract(
                    mod.contract_text or "", {m.name for m in mod.methods}
                )
            if not mod_contract.clauses:
                continue
            words = tuple(
                (clause, tuple(expand_clause(clause, max_clause_len)))
                for clause in mod_contract.clauses
            )
            for unit in units:
                sites = [None]
                if pointsto is not None:
                    methods = _reachable_methods(program, unit.roots, unit.scope)
                    # Receivers that no tracked allocation reaches are opaque;
                    # fall back to the pessimistic grammar, not to no grammar.
                    sites = module_alloc_sites(program, methods, mod, pointsto) or sites
                drops = [None]  # one site, or none: no grammar to share
                if len(sites) > 1:
                    drops = site_drops(program, mod, methods, sites, pointsto)
                    if any(drop is not None for drop in drops):
                        base = _grammar(program, mod, unit, *base_site(pointsto))
                for site, drop in zip(sites, drops):
                    label = site.label if site else None
                    if drop is None:
                        grammar = _grammar(program, mod, unit, site, pointsto)
                        yield Task(mod.name, unit.label, label, grammar, words)
                    else:
                        yield Task(mod.name, unit.label, label, base, words, drop)


def simplify_stage(tasks: Iterable[Task]) -> Iterator[Task]:
    """Each task with its own grammar simplified; only the caller keeps the
    raw one.  A base grammar is simplified and indexed once, and each of its
    sites' grammars is the simplified base restricted to the site."""
    base = restrict = None
    for task in tasks:
        drop = task.drop
        if drop is None:
            grammar = simplify_grammar(task.grammar)
        else:
            if task.grammar is not base:
                base = task.grammar
                restrict = site_restrictor(simplify_grammar(base), drop.tracked)
            grammar = restrict(drop.own)
        yield Task(task.module, task.unit, task.site, grammar, task.words)


def search_stage(tasks: Iterable[Task]) -> Iterator[Check]:
    """Build each task's parse table and search it for every word.

    The table and every branch of a search depend only on the grammar's
    shape: its start, terminals, and each rule's head and body; the trees
    hold no call sites.  So a run of consecutive tasks of one module and
    unit, with the same words and grammars of the same shape, shares the
    first task's table and searches: each further task's check holds the
    first check's trees as they are, and a copy of its counts, the ones its
    own search would have added."""
    first = first_shape = None  # the check whose table and searches the run shares
    for task in tasks:
        grammar = task.grammar
        shape = (task.module, task.unit, task.words, grammar.start, grammar.terminals,
                 [(p.head, p.body) for p in grammar.productions])
        if shape == first_shape:
            stats = ParseStats(first.stats.branches, first.stats.trees)
            yield Check(task, first.table, first.trees, stats)
            continue
        table = build_parse_table(grammar)
        stats = ParseStats()
        # bench/tracing.py wraps this name and reads `stats` as the third positional argument
        trees = tuple(
            (clause, word, parse_subword_until_lca(table, word.methods, stats))
            for clause, words in task.words
            for word in words
        )
        first, first_shape = Check(task, table, trees, stats), shape
        yield first


def classify_stage(
    program: Program, checks: Iterable[Check]
) -> tuple[list[Violation], RunStats]:
    """Violations (trees whose LCA method is not atomically executed and
    that unify with their word), deduplicated and ordered, and the run's
    counters.  Each tree's call sites are read from its check's grammar."""
    ae = compute_atomically_executed(program)
    stats = RunStats()
    deduped: list[Violation] = []
    seen: set[tuple] = set()
    for check in checks:
        stats.grammars += 1
        stats.trees += check.stats.trees
        stats.branches += check.stats.branches
        thread = check.task.unit
        grammar = check.task.grammar
        for clause, word, trees in check.trees:
            methods = word.methods
            parameterized = word.is_parameterized
            for tree in trees:
                method = symbol_method(tree.symbol)
                if method is None or method in ae:
                    continue
                calls = tuple(tree_sites(tree, grammar))
                if parameterized and not check_unification(word, calls):
                    continue
                identity = _identity(thread, methods, method, calls)
                if identity in seen:
                    continue
                seen.add(identity)
                deduped.append(
                    Violation(
                        clause=clause.text,
                        word=methods,
                        thread=thread,
                        site=check.task.site,
                        calls=calls,
                        lca_symbol=tree.symbol,
                        lca_method=method,
                        suggestion=f"make {method} atomic",
                    )
                )

    deduped.sort(key=lambda v: (v.thread, v.clause, v.word, [c.line for c in v.calls]))
    return deduped, stats


def verify_with_stats(
    program: Program,
    module: Optional[ClassDecl | str] = None,
    contract: Optional[Contract] = None,
    *,
    class_scope: bool = False,
    points_to: bool = True,
    max_clause_len: int = 16,
) -> tuple[list[Violation], RunStats]:
    options = dict(class_scope=class_scope, points_to=points_to, max_clause_len=max_clause_len)
    # Every grammar is built and simplified before any search, so the CFGs
    # the builders share are freed before the searches' memory peak, and no
    # unsimplified grammar outlives its simplification.
    tasks = list(simplify_stage(grammar_stage(program, module, contract, **options)))
    return classify_stage(program, search_stage(tasks))


def verify(program: Program, module=None, contract=None, **options) -> list[Violation]:
    """All contract violations of the program, deduplicated and ordered; takes
    the arguments of `verify_with_stats`."""
    return verify_with_stats(program, module, contract, **options)[0]


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
