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
grammar for one module, unit and allocation site selects among them.  The
checker builds one base grammar per module and unit and derives most site
grammars from it by deleting terminals (`site_drops`, `site_restrictor`);
a unit none of whose sites can be derived so builds no base.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from .errors import AtomguardError
from .frontend.cfg import NodeKind, build_cfg
from .frontend.syntax import Call, ClassDecl, MethodDecl, Program, expr_text
from .pointsto import AllocationSite, PointsToResult
from .records import HashableRecord, Record

__all__ = [
    "CallSite",
    "Production",
    "BehaviorGrammar",
    "build_behavior_grammar",
    "build_behavior_grammar_pointsto",
    "build_class_scope_grammar",
    "base_site",
    "SiteDrop",
    "site_drops",
    "site_restrictor",
    "simplify_grammar",
    "dump_grammar",
    "symbol_method",
]

EPSILON = "epsilon"
SCOPE_START_PREFIX = "$start:"


class CallSite(HashableRecord):
    """Source information for one terminal occurrence in a production."""

    __slots__ = ("node", "method", "file", "line", "receiver", "args", "result")

    def __init__(self, node: str, method: str, file: str, line: int, receiver: Optional[str],
                 args: tuple[str, ...], result: Optional[str]):
        self.node = node
        self.method = method
        self.file = file
        self.line = line
        self.receiver = receiver
        self.args = args
        self.result = result


class Production(HashableRecord):
    """`head -> body`, with the call site of each body symbol (None where
    the symbol is no call); sites default to all None."""

    __slots__ = ("head", "body", "sites")

    def __init__(self, head: str, body: tuple[str, ...],
                 sites: tuple[Optional[CallSite], ...] = ()):
        if not sites:
            sites = (None,) * len(body)
        elif len(sites) != len(body):
            raise ValueError("sites must align with body")
        self.head = head
        self.body = body
        self.sites = sites


class BehaviorGrammar(HashableRecord):
    """A grammar; `nonterminals` and `by_head` are computed on first read."""

    __slots__ = ("start", "terminals", "productions", "label", "_nonterminals", "_by_head")
    _fields = __slots__[:4]

    def __init__(self, start: str, terminals: frozenset[str], productions: tuple[Production, ...],
                 label: str = ""):
        self.start = start
        self.terminals = terminals
        self.productions = productions
        self.label = label  # e.g. thread or class the grammar describes
        self._nonterminals: Optional[frozenset[str]] = None
        self._by_head: Optional[dict[str, tuple[Production, ...]]] = None

    @property
    def nonterminals(self) -> frozenset[str]:
        if self._nonterminals is None:
            syms = {p.head for p in self.productions}
            for p in self.productions:
                for s in p.body:
                    if s not in self.terminals:
                        syms.add(s)
            syms.add(self.start)
            self._nonterminals = frozenset(syms)
        return self._nonterminals

    @property
    def by_head(self) -> dict[str, tuple[Production, ...]]:
        if self._by_head is None:
            out: dict[str, list[Production]] = {}
            for p in self.productions:
                out.setdefault(p.head, []).append(p)
            self._by_head = {h: tuple(ps) for h, ps in out.items()}
        return self._by_head


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


class _LoweredNode(Record):
    """One CFG node as grammars select it: the node's call (None at entry,
    return and plain statements), its call productions (`n -> h succ` sharing
    one `CallSite`, or `n -> @g succ`) and its skip productions (`n -> succ`,
    or `n -> epsilon` at a return).  A call node builds its skips the first
    time a grammar selects them: most calls are only ever taken."""

    __slots__ = ("call", "calls", "_skips")

    def __init__(self, call: Optional[Call], calls: tuple[Production, ...],
                 _skips: Optional[tuple[Production, ...]]):
        self.call = call
        self.calls = calls
        self._skips = _skips

    def skips(self) -> tuple[Production, ...]:
        if self._skips is None:  # a call node: each call production minus its call
            self._skips = tuple([Production(p.head, p.body[1:], (None,)) for p in self.calls])
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
    cfg_nodes = build_cfg(method).nodes
    syms = [_node_symbol(name, i) for i in range(len(cfg_nodes))]
    file = program.source_name
    nodes = []
    for node in cfg_nodes:
        sym = syms[node.index]
        call = node.call
        if call is None:
            if node.kind is NodeKind.RETURN:
                skips = (Production(sym, (), ()),)
            else:
                skips = tuple([Production(sym, (syms[s],), (None,)) for s in node.succ])
            nodes.append(_LoweredNode(None, (), skips))
            continue
        if call.receiver is None:  # client call
            first, cs = _method_symbol(call.method), None
        else:
            first = call.method
            args = tuple([expr_text(a) for a in call.args])
            cs = CallSite(sym, first, file, call.line, call.receiver, args, node.result_var)
        calls = tuple([Production(sym, (first, syms[s]), (cs, None)) for s in node.succ])
        nodes.append(_LoweredNode(call, calls, None))
    return Production(_method_symbol(name), (syms[0],), (None,)), tuple(nodes)


def _lowered(program: Program, method: MethodDecl) -> _Lowered:
    cache = _LOWERED.get()
    if cache is None:
        return _lower(program, method)
    hit = cache.get(id(method))
    if hit is None:
        hit = cache[id(method)] = (method, _lower(program, method))
    return hit[1]


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


def build_behavior_grammar(program: Program, entry: str, module: ClassDecl) -> BehaviorGrammar:
    """Grammar of the module call sequences one thread can perform."""
    return build_behavior_grammar_pointsto(program, entry, module, None, None)


def build_behavior_grammar_pointsto(
    program: Program,
    entry: str,
    module: ClassDecl,
    site: Optional[AllocationSite],
    pointsto: Optional[PointsToResult],
) -> BehaviorGrammar:
    """Thread grammar restricted to calls whose receiver may be `site`.

    Calls whose receiver must point to the site keep only their call
    production; calls that may point there keep both the call and a skip
    production; calls that cannot point there are skipped entirely.  Without
    a site (or points-to result) every call is kept.
    """
    entry_decl = program.client_methods.get(entry)
    if entry_decl is None:
        raise AtomguardError(f"no client method named {entry!r}")
    return _build(
        program,
        module,
        [entry_decl],
        _method_symbol(entry),
        scope=None,
        site=site,
        pointsto=pointsto,
        label=entry,
    )


def build_class_scope_grammar(
    program: Program,
    cls: ClassDecl,
    module: ClassDecl,
    site: Optional[AllocationSite] = None,
    pointsto: Optional[PointsToResult] = None,
) -> BehaviorGrammar:
    """Grammar for one client class: any of its methods may start, and calls
    leaving the class are treated as opaque."""
    if not cls.methods:
        raise AtomguardError(f"class {cls.name!r} has no methods")
    scope = frozenset(m.name for m in cls.methods)
    return _build(
        program,
        module,
        list(cls.methods),
        f"{SCOPE_START_PREFIX}{cls.name}",
        scope=scope,
        site=site,
        pointsto=pointsto,
        label=f"class:{cls.name}",
    )


# --------------------------------------------------------------------------
# per-site grammars by restriction


def base_site(pointsto: PointsToResult) -> tuple[AllocationSite, PointsToResult]:
    """A site and a points-to result in which every receiver that some
    tracked allocation reaches must point to that site.

    Given to any builder, they give a unit's base grammar: every module call
    takes its call productions, and a call whose receiver no allocation
    reaches also takes its skips.  `site_drops` derives each real site's
    grammar from it.
    """
    site = AllocationSite(-1, "", "", "", 0)
    one = frozenset((site.index,))
    may = {k: one for k, v in pointsto.may.items() if v}
    return site, PointsToResult([site], may, pointsto._locals)


class SiteDrop(HashableRecord):
    """What a site's grammar lacks from its unit's base grammar: the
    terminals of the `tracked` call nodes (those whose receiver some tracked
    allocation may reach) that are not the site's `own`."""

    __slots__ = ("tracked", "own")

    def __init__(self, tracked: frozenset[str], own: frozenset[str]):
        self.tracked = tracked  # shared by the unit's sites
        self.own = own


def site_drops(
    program: Program,
    module: ClassDecl,
    methods: list[str],
    sites: list[AllocationSite],
    pointsto: PointsToResult,
) -> list[Optional[SiteDrop]]:
    """For each site, what `site_restrictor` deletes from the unit's base
    grammar to give the site's grammar: the module calls whose receiver may
    point to other sites only.  `methods` are the unit's reachable methods,
    whose module calls the base takes.

    The site's own builder grammar takes the same rules as the base at every
    other node, and at these nodes a skip for each call, the call minus its
    terminal.  So it is the base less those terminals, and since each head
    keeps its number of rules, so is its simplification.  That fails where a
    call's receiver may point to the site and to another one (the site's
    grammar takes both the call and its skips there); such a site gets None
    and needs a grammar of its own.
    """
    module_method_names = {m.name for m in module.methods}
    tracked: list[str] = []
    own: dict[int, list[str]] = {}  # site index -> the call nodes whose receiver may be it
    shared: set[int] = set()
    for name in methods:
        for node in _lowered(program, program.client_methods[name])[1]:
            call = node.call
            if node.calls and call.receiver is not None and call.method in module_method_names:
                may = pointsto.may_sites(name, call.receiver)
                if may:
                    head = node.calls[0].head
                    tracked.append(head)
                    for i in may:
                        own.setdefault(i, []).append(head)
                    if len(may) > 1:
                        shared |= may
    unit_tracked = frozenset(tracked)
    return [
        None if site.index in shared
        else SiteDrop(unit_tracked, frozenset(own.get(site.index, ())))
        for site in sites
    ]


def site_restrictor(
    grammar: BehaviorGrammar, tracked: frozenset[str]
) -> Callable[[frozenset[str]], BehaviorGrammar]:
    """A function from a site's own call nodes to `grammar` without the
    terminal occurrences of the other `tracked` call nodes, then without
    repeated rules, as `simplify_grammar` drops them (a builder grammar has
    none, so a restricted base keeps every rule).  Only the rules that hold
    tracked terminals are rebuilt, from their untracked positions and the
    site's own, so a site costs the size of its grammar, not of `grammar`."""
    prods = grammar.productions
    held: list[tuple[int, list[int]]] = []  # (rule index, its untracked positions)
    occurs: dict[str, list[tuple[int, int]]] = {}  # tracked node -> (held rule, position)
    for i, p in enumerate(prods):
        untracked = []
        for pos, cs in enumerate(p.sites):
            if cs is not None and cs.node in tracked:
                occurs.setdefault(cs.node, []).append((len(held), pos))
            else:
                untracked.append(pos)
        if len(untracked) < len(p.sites):
            held.append((i, untracked))

    def restrict(own: frozenset[str]) -> BehaviorGrammar:
        kept: dict[int, list[int]] = {}  # held rule -> the site's own positions
        for node in own:
            for h, pos in occurs.get(node, ()):
                kept.setdefault(h, []).append(pos)
        out = list(prods)
        for h, (i, positions) in enumerate(held):
            if h in kept:
                positions = sorted(positions + kept[h])
            p = prods[i]
            out[i] = Production(p.head, tuple([p.body[k] for k in positions]),
                                tuple([p.sites[k] for k in positions]))
        return BehaviorGrammar(
            start=grammar.start,
            terminals=grammar.terminals,
            productions=_drop_repeated(out),
            label=grammar.label,
        )

    return restrict


# --------------------------------------------------------------------------
# simplification


# Method symbols and scope starts are never inlined: they carry the method
# attribution that locates a violation, and collapsing them would move a
# call sequence into its caller.
_KEPT_PREFIXES = ("@", SCOPE_START_PREFIX)


def _kept_on_cycles(rule_of: dict[str, Production]) -> set[str]:
    """The single-rule heads in `rule_of` that simplification keeps.

    Inlining the single-rule heads one at a time in sorted order, a head is
    kept when the heads inlined before it have made its rule refer to it:
    when some cycle of single-rule heads runs from it back to it through
    inlined heads that sort before it only.  Such a cycle stays inside the
    head's strongly connected component, so only heads on a cyclic component
    are tested, each by a walk of its component.
    """
    succ = {h: [s for s in p.body if s in rule_of] for h, p in rule_of.items()}
    # Tarjan's strongly connected components, with an explicit stack
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    path: list[str] = []
    on_path: set[str] = set()
    cyclic: list[list[str]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path.append(root)
        on_path.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    path.append(w)
                    on_path.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_path and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [path.pop()]
                    while comp[-1] != v:
                        comp.append(path.pop())
                    on_path.difference_update(comp)
                    if len(comp) > 1 or v in succ[v]:
                        cyclic.append(comp)

    kept: set[str] = set()
    for comp in cyclic:
        members = set(comp)
        for head in sorted(comp):
            seen: set[str] = set()
            todo = [head]
            while todo and head not in kept:
                for sym in succ[todo.pop()]:
                    if sym == head:
                        kept.add(head)
                        break
                    if sym in members and sym < head and sym not in kept and sym not in seen:
                        seen.add(sym)
                        todo.append(sym)
    return kept


_Expansion = tuple[list[str], list[Optional[CallSite]]]
_END = object()  # on `_expand`'s stack: a shared head's expansion ends here
_UNDER_WAY: _Expansion = ([], [])  # in its memo: a shared head being expanded


def _expand(
    body: tuple[str, ...],
    sites: tuple[Optional[CallSite], ...],
    inline: dict[str, Production],
    shared: set[str],
    memo: dict[str, _Expansion],
) -> Optional[_Expansion]:
    """`body` with each inlined symbol replaced by its rule's expanded body,
    depth first, and `sites` to match.  The expansion of a `shared` head is
    made once and kept in `memo`.  None if a shared head turns up inside its
    own expansion: the inlined heads form a cycle."""
    out_body: list[str] = []
    out_sites: list[Optional[CallSite]] = []
    # the symbols still to expand, last first, and their sites
    todo: list = list(reversed(body))
    todo_sites: list = list(reversed(sites))
    while todo:
        sym = todo.pop()
        site = todo_sites.pop()
        rule = inline.get(sym)
        if rule is None:
            if sym is _END:  # site holds the head and where its expansion starts
                head, at = site
                memo[head] = (out_body[at:], out_sites[at:])
            else:
                out_body.append(sym)
                out_sites.append(site)
            continue
        done = memo.get(sym)
        if done is None:
            if sym in shared:
                memo[sym] = _UNDER_WAY
                todo.append(_END)
                todo_sites.append((sym, len(out_body)))
            todo += rule.body[::-1]
            todo_sites += rule.sites[::-1]
        elif done is _UNDER_WAY:
            return None
        else:
            out_body += done[0]
            out_sites += done[1]
    return out_body, out_sites


def _inline(
    grammar: BehaviorGrammar,
    by_head: dict[str, list[Production]],
    inline: dict[str, Production],
) -> Optional[list[Production]]:
    """The rules the start symbol reaches once the heads in `inline` are
    inlined, in grammar order; None if those heads form a cycle."""
    terminals = grammar.terminals
    # The kept heads the start reaches through inlined ones; an inlined head
    # passed more than once is shared.
    reachable = {grammar.start}
    passed: set[str] = set()
    shared: set[str] = set()
    bodies = [p.body for p in by_head.get(grammar.start, ())]
    while bodies:
        for sym in bodies.pop():
            rule = inline.get(sym)
            if rule is None:
                if sym not in reachable and sym not in terminals:
                    reachable.add(sym)
                    bodies += [p.body for p in by_head.get(sym, ())]
            elif sym in passed:
                shared.add(sym)
            else:
                passed.add(sym)
                bodies.append(rule.body)

    memo: dict[str, _Expansion] = {}
    names = inline.keys()
    out: list[Production] = []
    for p in grammar.productions:
        if p.head not in reachable:
            continue
        if not names.isdisjoint(p.body):
            expansion = _expand(p.body, p.sites, inline, shared, memo)
            if expansion is None:
                return None
            p = Production(p.head, tuple(expansion[0]), tuple(expansion[1]))
        out.append(p)
    return out


def simplify_grammar(grammar: BehaviorGrammar) -> BehaviorGrammar:
    """Inline single-production node nonterminals and drop unreachable rules.

    The language is unchanged; so is the method every remaining nonterminal
    belongs to, since only control-flow-node symbols are inlined.

    The result is that of inlining the qualifying heads one at a time in
    sorted order, skipping a head whose rule refers to itself by then, and
    then dropping the rules the start symbol does not reach and repeated
    rules.  It is built directly: each kept rule the start reaches is
    expanded once, depth first, and the expansion of an inlined head used
    more than once is made once and copied.  That assumes the inlined heads
    form no cycle.  Builder grammars have none (such a cycle derives no
    finite word); when one turns up, `_kept_on_cycles` picks the heads to
    keep and the expansion runs again without them.
    """
    by_head: dict[str, list[Production]] = {}
    for p in grammar.productions:
        by_head.setdefault(p.head, []).append(p)
    inline = {
        head: rules[0]
        for head, rules in by_head.items()
        if len(rules) == 1 and not head.startswith(_KEPT_PREFIXES)
    }
    inline.pop(grammar.start, None)
    out = _inline(grammar, by_head, inline)
    if out is None:
        for head in _kept_on_cycles(inline):
            del inline[head]
        out = _inline(grammar, by_head, inline)
        assert out is not None, "the inlined heads still form a cycle"

    return BehaviorGrammar(
        start=grammar.start,
        terminals=grammar.terminals,
        productions=_drop_repeated(out),
        label=grammar.label,
    )


def _drop_repeated(productions: list[Production]) -> tuple[Production, ...]:
    """The productions less each repeat of an earlier one."""
    # Repeated rules are found by head and body; sites are compared only
    # between rules that share both, so no CallSite is hashed.
    sites_of: dict[tuple[str, tuple[str, ...]], list[tuple[Optional[CallSite], ...]]] = {}
    deduped: list[Production] = []
    for p in productions:
        twins = sites_of.setdefault((p.head, p.body), [])
        if p.sites not in twins:
            twins.append(p.sites)
            deduped.append(p)
    return tuple(deduped)


# --------------------------------------------------------------------------
# dump format


def dump_grammar(grammar: BehaviorGrammar) -> str:
    lines = [f"Start: {grammar.start}"]
    for p in grammar.productions:
        body = " ".join(p.body) if p.body else EPSILON
        lines.append(f"{p.head} -> {body}")
    return "\n".join(lines) + "\n"
