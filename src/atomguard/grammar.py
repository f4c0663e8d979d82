"""Per-thread behavior extracted as a context-free grammar.

Nonterminals are control-flow nodes (`f.3`) and method symbols (`@f`);
terminals are the analyzed module's method names.  Each node contributes
productions by kind:

  * entry / plain node:    node -> successor            (one per successor)
  * module call `m.h()`:   node -> h successor
  * client call `g()`:     node -> @g successor
  * return:                node -> epsilon

The start symbol is the thread entry's method symbol, so the language is
exactly the set of module call sequences the thread can perform.

Each method is lowered to its call and skip productions once per check; a
grammar for one module, unit and allocation site selects among them.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .errors import AtomguardError
from .frontend.cfg import NodeKind, build_cfg
from .frontend.syntax import Call, ClassDecl, MethodDecl, Program, expr_text
from .pointsto import AllocationSite, PointsToResult

__all__ = [
    "CallSite",
    "Production",
    "BehaviorGrammar",
    "build_behavior_grammar",
    "build_behavior_grammar_pointsto",
    "build_class_scope_grammar",
    "simplify_grammar",
    "dump_grammar",
    "parse_dump",
    "bounded_language",
    "symbol_method",
]

EPSILON = "epsilon"
SCOPE_START_PREFIX = "$start:"


@dataclass(frozen=True, slots=True)
class CallSite:
    """Source information for one terminal occurrence in a production."""

    node: str
    method: str
    file: str
    line: int
    receiver: Optional[str]
    args: tuple[str, ...]
    result: Optional[str]


@dataclass(frozen=True, slots=True)
class Production:
    head: str
    body: tuple[str, ...]
    sites: tuple[Optional[CallSite], ...] = ()

    def __post_init__(self):
        if not self.sites:
            object.__setattr__(self, "sites", (None,) * len(self.body))
        if len(self.sites) != len(self.body):
            raise ValueError("sites must align with body")


@dataclass(frozen=True)
class BehaviorGrammar:
    start: str
    terminals: frozenset[str]
    productions: tuple[Production, ...]
    label: str = ""  # e.g. thread or class the grammar describes

    @cached_property
    def nonterminals(self) -> frozenset[str]:
        syms = {p.head for p in self.productions}
        for p in self.productions:
            for s in p.body:
                if s not in self.terminals:
                    syms.add(s)
        syms.add(self.start)
        return frozenset(syms)

    @cached_property
    def by_head(self) -> dict[str, tuple[Production, ...]]:
        out: dict[str, list[Production]] = {}
        for p in self.productions:
            out.setdefault(p.head, []).append(p)
        return {h: tuple(ps) for h, ps in out.items()}


def symbol_method(symbol: str) -> Optional[str]:
    """The client method a nonterminal belongs to, if any."""
    if symbol.startswith("@"):
        return symbol[1:]
    if symbol.startswith(SCOPE_START_PREFIX):
        return None
    if "." in symbol:
        name, idx = symbol.rsplit(".", 1)
        if idx.isdigit():
            return name
    return None


def _method_symbol(name: str) -> str:
    return f"@{name}"


def _node_symbol(method: str, index: int) -> str:
    return f"{method}.{index}"


def _reachable_methods(
    program: Program, roots: list[str], scope: Optional[frozenset[str]]
) -> list[str]:
    # Breadth-first from the sorted roots, callees in sorted order: this
    # visit order fixes the order of the grammar's productions.
    work = deque(sorted(set(roots)))
    queued = set(work)
    seen: list[str] = []
    while work:
        name = work.popleft()
        seen.append(name)
        callees = {call.method for call in program.calls[name] if call.receiver is None}
        for callee in sorted(callees):
            if callee in queued:
                continue
            if scope is not None and callee not in scope:
                continue
            queued.add(callee)
            work.append(callee)
    return seen


@dataclass(slots=True)
class _LoweredNode:
    """One CFG node as grammars select it: the node's call (None at entry,
    return and plain statements), its call productions (`n -> h succ` sharing
    one `CallSite`, or `n -> @g succ`) and its skip productions (`n -> succ`,
    or `n -> epsilon` at a return).  A call node builds its skips the first
    time a grammar selects them: most calls are only ever taken."""

    call: Optional[Call]
    calls: tuple[Production, ...]
    _skips: Optional[tuple[Production, ...]]

    def skips(self) -> tuple[Production, ...]:
        if self._skips is None:  # a call node: each call production minus its call
            self._skips = tuple(Production(p.head, p.body[1:]) for p in self.calls)
        return self._skips


# id(method) -> (method, its lowering) while `_shared_lowering` is active;
# holding the method keeps its id from being reused by another object.  A
# lowering is the method's rule `@f -> f.0` and its lowered CFG nodes.
# Grammars select among their productions and share them.
_Lowered = tuple[Production, tuple[_LoweredNode, ...]]
_LOWERED: ContextVar[Optional[dict[int, tuple[MethodDecl, _Lowered]]]] = ContextVar(
    "atomguard_lowered", default=None
)


@contextmanager
def _shared_lowering() -> Iterator[None]:
    """Within the block, the grammar builders lower each method once and
    share it, skip productions included once built; the lowered methods are
    dropped when the block ends."""
    token = _LOWERED.set({})
    try:
        yield
    finally:
        _LOWERED.reset(token)


def _lower(program: Program, method: MethodDecl) -> _Lowered:
    name = method.name
    nodes = []
    for node in build_cfg(method).nodes:
        sym = _node_symbol(name, node.index)
        succs = [_node_symbol(name, s) for s in node.succ]
        call, calls, skips = node.call, (), None
        if call is None:
            skips = tuple(Production(sym, (s,)) for s in succs)
            if node.kind is NodeKind.RETURN:
                skips = (Production(sym, ()),)
        else:
            first, cs = _method_symbol(call.method), None  # client call
            if call.receiver is not None:
                first = call.method
                cs = CallSite(
                    node=sym,
                    method=call.method,
                    file=program.source_name,
                    line=call.line,
                    receiver=call.receiver,
                    args=tuple(expr_text(a) for a in call.args),
                    result=node.result_var,
                )
            calls = tuple(Production(sym, (first, s), (cs, None)) for s in succs)
        nodes.append(_LoweredNode(call, calls, skips))
    return Production(_method_symbol(name), (_node_symbol(name, 0),)), tuple(nodes)


def _lowered(program: Program, method: MethodDecl) -> _Lowered:
    cache = _LOWERED.get()
    if cache is None:
        return _lower(program, method)
    hit = cache.get(id(method))
    if hit is None:
        hit = cache[id(method)] = (method, _lower(program, method))
    return hit[1]


def _resolve_module(program: Program, module) -> ClassDecl:
    if isinstance(module, ClassDecl):
        return module
    cls = program.class_named(module)
    if cls is None or not cls.is_module:
        raise AtomguardError(f"no module class named {module!r}")
    return cls


def _resolve_method(program: Program, method) -> MethodDecl:
    if isinstance(method, MethodDecl):
        return method
    decl = program.client_methods.get(method)
    if decl is None:
        raise AtomguardError(f"no client method named {method!r}")
    return decl


def _build(
    program: Program,
    module: ClassDecl,
    roots: list[MethodDecl],
    start: str,
    scope: Optional[frozenset[str]],
    site: Optional[AllocationSite],
    pointsto: Optional[PointsToResult],
    label: str,
) -> BehaviorGrammar:
    module_method_names = {m.name for m in module.methods}
    reach = _reachable_methods(program, [m.name for m in roots], scope)
    reached = set(reach)

    prods: list[Production] = []
    if start.startswith(SCOPE_START_PREFIX):
        for m in roots:
            prods.append(Production(start, (_method_symbol(m.name),)))

    for name in reach:
        rule, nodes = _lowered(program, program.client_methods[name])
        prods.append(rule)
        for node in nodes:
            call = node.call
            if call is None:  # entry, return, plain statement
                prods += node.skips()
            elif call.receiver is None:  # client call, opaque outside the scope
                prods += node.calls if call.method in reached else node.skips()
            elif call.method not in module_method_names:
                prods += node.skips()
            elif site is None or pointsto is None:
                prods += node.calls
            else:
                # Call if the receiver may be the site, or is unknown (no
                # tracked allocation reaches it, so it could be anything);
                # skip unless it must be the site.
                may = pointsto.may_sites(name, call.receiver)
                if site.index in may or not may:
                    prods += node.calls
                if may != {site.index}:
                    prods += node.skips()

    return BehaviorGrammar(
        start=start,
        terminals=frozenset(module_method_names),
        productions=tuple(prods),
        label=label,
    )


def build_behavior_grammar(program: Program, entry, module) -> BehaviorGrammar:
    """Grammar of the module call sequences one thread can perform."""
    return build_behavior_grammar_pointsto(program, entry, module, None, None)


def build_behavior_grammar_pointsto(
    program: Program,
    entry,
    module,
    site: Optional[AllocationSite],
    pointsto: Optional[PointsToResult],
) -> BehaviorGrammar:
    """Thread grammar restricted to calls whose receiver may be `site`.

    Calls whose receiver must point to the site keep only their call
    production; calls that may point there keep both the call and a skip
    production; calls that cannot point there are skipped entirely.  Without
    a site (or points-to result) every call is kept.
    """
    module_cls = _resolve_module(program, module)
    entry_decl = _resolve_method(program, entry)
    return _build(
        program,
        module_cls,
        [entry_decl],
        _method_symbol(entry_decl.name),
        scope=None,
        site=site,
        pointsto=pointsto,
        label=entry_decl.name,
    )


def build_class_scope_grammar(
    program: Program,
    cls,
    module,
    site: Optional[AllocationSite] = None,
    pointsto: Optional[PointsToResult] = None,
) -> BehaviorGrammar:
    """Grammar for one client class: any of its methods may start, and calls
    leaving the class are treated as opaque."""
    module_cls = _resolve_module(program, module)
    if not isinstance(cls, ClassDecl):
        found = program.class_named(cls)
        if found is None or found.is_module:
            raise AtomguardError(f"no client class named {cls!r}")
        cls = found
    if not cls.methods:
        raise AtomguardError(f"class {cls.name!r} has no methods")
    scope = frozenset(m.name for m in cls.methods)
    return _build(
        program,
        module_cls,
        list(cls.methods),
        f"{SCOPE_START_PREFIX}{cls.name}",
        scope=scope,
        site=site,
        pointsto=pointsto,
        label=f"class:{cls.name}",
    )


# --------------------------------------------------------------------------
# simplification


def _is_inlinable_symbol(symbol: str) -> bool:
    # Method symbols and scope starts stay: they carry the method attribution
    # that locates a violation, and collapsing them would move a call
    # sequence into its caller.
    return not symbol.startswith("@") and not symbol.startswith(SCOPE_START_PREFIX)


def simplify_grammar(grammar: BehaviorGrammar) -> BehaviorGrammar:
    """Inline single-production node nonterminals and drop unreachable rules.

    The language is unchanged; so is the method every remaining nonterminal
    belongs to, since only control-flow-node symbols are inlined.

    One pass over the heads in sorted order; a symbol-use index finds the
    rules to splice each inlined body into.  Inlining never changes how many
    rules a head has, and a rule that refers to its own head keeps doing so,
    so the heads that qualify when visited are exactly those that inlining
    the smallest qualifying head first, over and over, would pick.
    """
    prods = grammar.productions
    counts = Counter(p.head for p in prods)
    rule_of = {
        p.head: i
        for i, p in enumerate(prods)
        if counts[p.head] == 1
        and p.head != grammar.start
        and _is_inlinable_symbol(p.head)
    }
    uses: dict[str, list[int]] = {}  # symbol -> rules whose body has it
    for i, p in enumerate(prods):
        for sym in p.body:
            if sym in rule_of:
                uses.setdefault(sym, []).append(i)
    dead: set[int] = set()
    edited: dict[int, tuple[list[str], list[Optional[CallSite]]]] = {}

    for head in sorted(rule_of):
        rule = rule_of[head]
        body, body_sites = edited.get(rule) or (prods[rule].body, prods[rule].sites)
        if head in body:
            continue
        dead.add(rule)
        edited.pop(rule, None)
        for user in uses.pop(head, ()):
            if user in dead:
                continue
            if user not in edited:
                edited[user] = (list(prods[user].body), list(prods[user].sites))
            user_body, user_sites = edited[user]
            try:
                at = user_body.index(head)
            except ValueError:
                continue  # listed twice and already spliced
            while True:
                user_body[at : at + 1] = body
                user_sites[at : at + 1] = body_sites
                try:
                    at = user_body.index(head, at + len(body))
                except ValueError:
                    break
            for sym in body:
                if sym in rule_of:
                    uses.setdefault(sym, []).append(user)

    prods = [
        Production(p.head, tuple(edited[i][0]), tuple(edited[i][1])) if i in edited else p
        for i, p in enumerate(prods)
        if i not in dead
    ]

    # drop rules not reachable from the start symbol
    by_head2: dict[str, list[Production]] = {}
    for p in prods:
        by_head2.setdefault(p.head, []).append(p)
    reachable = {grammar.start}
    work = [grammar.start]
    while work:
        sym = work.pop()
        for p in by_head2.get(sym, ()):
            for s in p.body:
                if s not in grammar.terminals and s not in reachable:
                    reachable.add(s)
                    work.append(s)
    pruned = [p for p in prods if p.head in reachable]

    deduped: list[Production] = []
    seen: set[Production] = set()
    for p in pruned:
        if p not in seen:
            seen.add(p)
            deduped.append(p)
    return BehaviorGrammar(
        start=grammar.start,
        terminals=grammar.terminals,
        productions=tuple(deduped),
        label=grammar.label,
    )


# --------------------------------------------------------------------------
# dump format and bounded language checks


def dump_grammar(grammar: BehaviorGrammar) -> str:
    lines = [f"Start: {grammar.start}"]
    for p in grammar.productions:
        body = " ".join(p.body) if p.body else EPSILON
        lines.append(f"{p.head} -> {body}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> BehaviorGrammar:
    """Inverse of dump_grammar; terminals are the symbols never used as heads."""
    start: Optional[str] = None
    raw: list[tuple[str, tuple[str, ...]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("Start:"):
            start = line.split(":", 1)[1].strip()
            continue
        if "->" not in line:
            raise AtomguardError(f"bad grammar line {line!r}")
        head, body_text = line.split("->", 1)
        body = tuple(body_text.split())
        if body == (EPSILON,):
            body = ()
        raw.append((head.strip(), body))
    if start is None:
        raise AtomguardError("grammar dump lacks a Start: line")
    heads = {h for h, _ in raw}
    terminals = {s for _, body in raw for s in body if s not in heads}
    return BehaviorGrammar(
        start=start,
        terminals=frozenset(terminals),
        productions=tuple(Production(h, b) for h, b in raw),
    )


def bounded_language(grammar: BehaviorGrammar, max_len: int) -> frozenset[tuple[str, ...]]:
    """All words of the grammar up to max_len terminals, computed exactly.

    Fixpoint over per-nonterminal word sets; concatenations longer than the
    bound are discarded, which cannot lose any word within the bound.
    """
    words: dict[str, set[tuple[str, ...]]] = {nt: set() for nt in grammar.nonterminals}

    def seq_words(body: tuple[str, ...]) -> set[tuple[str, ...]]:
        acc: set[tuple[str, ...]] = {()}
        for sym in body:
            if sym in grammar.terminals:
                parts: set[tuple[str, ...]] = {(sym,)}
            else:
                parts = words[sym]
            acc = {
                w + p for w in acc for p in parts if len(w) + len(p) <= max_len
            }
            if not acc:
                return set()
        return acc

    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            new = seq_words(p.body)
            if not new.issubset(words[p.head]):
                words[p.head] |= new
                changed = True
    return frozenset(words.get(grammar.start, set()))
