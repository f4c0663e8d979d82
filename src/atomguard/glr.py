"""Generalized LR(0) search for occurrences of a call word inside the
language of a behavior grammar.

The word is matched as a *subword*: an occurrence may start and end anywhere
inside a longer derived sequence.  Parsing therefore starts in every state
that can shift the first terminal, reduces through the stack bottom by
hypothesizing the unseen left part of a production, and at the end of the
word reduces items with the dot mid-body by hypothesizing the unseen right
part.  All reduction alternatives are explored with branching linear stacks.

A branch stops growing a parse upward as soon as one reduction covers every
terminal of the word: built bottom-up, that first covering node is the
lowest common ancestor of the word's occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .grammar import BehaviorGrammar, CallSite, Production

__all__ = [
    "ParseTable",
    "ParseTree",
    "ParseStats",
    "build_parse_table",
    "parse_subword",
    "parse_subword_until_lca",
    "tree_sites",
    "tree_word",
    "dump_tree",
]

AUGMENTED_HEAD = "$accept"


# --------------------------------------------------------------------------
# parse table


@dataclass(frozen=True)
class ParseTable:
    grammar: BehaviorGrammar
    productions: tuple[Production, ...]  # grammar productions + augmented rule
    states: tuple[frozenset[tuple[int, int]], ...]
    goto: dict[tuple[int, str], int]
    shift_states: dict[str, tuple[int, ...]]
    goto_sources: dict[str, tuple[tuple[int, int], ...]]
    complete: tuple[tuple[int, ...], ...]  # per state: completable productions
    partial: tuple[tuple[tuple[int, int], ...], ...]  # per state: (prod, dot>=1) mid-body


def build_parse_table(grammar: BehaviorGrammar) -> ParseTable:
    prods = tuple(grammar.productions) + (
        Production(AUGMENTED_HEAD, (grammar.start,)),
    )
    aug = len(prods) - 1
    by_head: dict[str, list[int]] = {}
    for i, p in enumerate(prods):
        by_head.setdefault(p.head, []).append(i)
    terminals = grammar.terminals

    def closure(items: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        out = set(items)
        work = list(items)
        while work:
            pi, dot = work.pop()
            body = prods[pi].body
            if dot >= len(body):
                continue
            sym = body[dot]
            if sym in terminals:
                continue
            for qi in by_head.get(sym, ()):
                item = (qi, 0)
                if item not in out:
                    out.add(item)
                    work.append(item)
        return frozenset(out)

    start_state = closure(frozenset({(aug, 0)}))
    states: list[frozenset[tuple[int, int]]] = [start_state]
    index = {start_state: 0}
    goto: dict[tuple[int, str], int] = {}
    pos = 0
    while pos < len(states):
        state = states[pos]
        moves: dict[str, set[tuple[int, int]]] = {}
        for pi, dot in state:
            body = prods[pi].body
            if dot < len(body):
                moves.setdefault(body[dot], set()).add((pi, dot + 1))
        for sym in sorted(moves):
            target = closure(frozenset(moves[sym]))
            if target not in index:
                index[target] = len(states)
                states.append(target)
            goto[(pos, sym)] = index[target]
        pos += 1

    shift_states: dict[str, list[int]] = {}
    goto_sources: dict[str, list[tuple[int, int]]] = {}
    for (s, sym), t in sorted(goto.items()):
        if sym in terminals:
            shift_states.setdefault(sym, []).append(s)
        else:
            goto_sources.setdefault(sym, []).append((s, t))

    complete: list[tuple[int, ...]] = []
    partial: list[tuple[tuple[int, int], ...]] = []
    for state in states:
        comp = sorted(pi for pi, dot in state if pi != aug and dot == len(prods[pi].body))
        mid = sorted(
            (pi, dot)
            for pi, dot in state
            if pi != aug and 0 < dot < len(prods[pi].body)
        )
        complete.append(tuple(comp))
        partial.append(tuple(mid))

    return ParseTable(
        grammar=grammar,
        productions=prods,
        states=tuple(states),
        goto=goto,
        shift_states={k: tuple(v) for k, v in shift_states.items()},
        goto_sources={k: tuple(v) for k, v in goto_sources.items()},
        complete=tuple(complete),
        partial=tuple(partial),
    )


# --------------------------------------------------------------------------
# parse trees


@dataclass(frozen=True, eq=False)
class ParseTree:
    """Node of a (possibly partial) parse.

    Terminal leaves have children None.  elided_left/right count body symbols
    hypothesized rather than materialized: they stand for derivations outside
    the matched word.  count is the number of word terminals in the subtree.
    """

    symbol: str
    count: int
    production: Optional[int] = None
    children: Optional[tuple["ParseTree", ...]] = None
    site: Optional[CallSite] = None
    elided_left: int = 0
    elided_right: int = 0
    eq_syms: frozenset[str] = frozenset()
    z_syms: frozenset[str] = frozenset()
    key: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _leaf(symbol: str, site: Optional[CallSite] = None) -> ParseTree:
    return ParseTree(
        symbol=symbol,
        count=1,
        site=site,
        key=("t", symbol, site.node if site else None, site.line if site else None),
    )


def _make_node(
    head: str,
    production: int,
    children: tuple[ParseTree, ...],
    elided_left: int,
    elided_right: int,
) -> Optional[ParseTree]:
    """Build a reduction node, or None when it would repeat a nonterminal
    on a path without covering any new terminal."""
    count = sum(ch.count for ch in children)
    if count > 0:
        eq_child = None
        for ch in children:
            if ch.count == count:
                eq_child = ch
                break
        if eq_child is not None and not eq_child.is_leaf:
            if head in eq_child.eq_syms:
                return None
            eq_syms = eq_child.eq_syms | {head}
        else:
            eq_syms = frozenset({head})
        z_syms: frozenset[str] = frozenset()
    else:
        merged: set[str] = set()
        for ch in children:
            merged |= ch.z_syms
        if head in merged:
            return None
        merged.add(head)
        z_syms = frozenset(merged)
        eq_syms = frozenset()
    return ParseTree(
        symbol=head,
        count=count,
        production=production,
        children=children,
        elided_left=elided_left,
        elided_right=elided_right,
        eq_syms=eq_syms,
        z_syms=z_syms,
        key=("n", production, elided_left, elided_right, tuple(ch.key for ch in children)),
    )


def tree_word(tree: ParseTree) -> tuple[str, ...]:
    """Frontier of materialized terminals, left to right."""
    if tree.is_leaf:
        return (tree.symbol,)
    out: tuple[str, ...] = ()
    for ch in tree.children:
        out += tree_word(ch)
    return out


def tree_sites(tree: ParseTree) -> list[CallSite]:
    """Call sites of the word terminals, in occurrence order."""
    if tree.is_leaf:
        return [tree.site] if tree.site is not None else []
    out: list[CallSite] = []
    for ch in tree.children:
        out.extend(tree_sites(ch))
    return out


def dump_tree(tree: ParseTree, table: Optional[ParseTable] = None, indent: str = "") -> str:
    if tree.is_leaf:
        where = f"  [{tree.site.file}:{tree.site.line}]" if tree.site else ""
        return f"{indent}{tree.symbol}{where}\n"
    rule = ""
    if table is not None and tree.production is not None:
        p = table.productions[tree.production]
        rule = f"  ({p.head} -> {' '.join(p.body) or 'epsilon'})"
    marks = ""
    if tree.elided_left or tree.elided_right:
        marks = f"  [context {tree.elided_left}|{tree.elided_right}]"
    out = f"{indent}{tree.symbol}{rule}{marks}\n"
    if not tree.children:
        out += f"{indent}  epsilon\n"
    for ch in tree.children:
        out += dump_tree(ch, table, indent + "  ")
    return out


# --------------------------------------------------------------------------
# subword parsing


@dataclass(slots=True)
class ParseStats:
    branches: int = 0
    trees: int = 0


@dataclass(slots=True)
class _Branch:
    stack: tuple[tuple[int, ParseTree], ...]  # (state, node)
    pos: int
    rec_depth: frozenset  # (under state, symbol, depth) seen since last shift
    rec_empty: frozenset  # (under state, symbol) of zero-count pushes since last shift


def _parse(
    table: ParseTable,
    word: tuple[str, ...],
    until_lca: bool,
    stats: Optional[ParseStats],
) -> list[ParseTree]:
    grammar = table.grammar
    n = len(word)
    if n == 0 or any(t not in grammar.terminals for t in word):
        return []
    local = stats if stats is not None else ParseStats()
    out: list[ParseTree] = []
    seen_keys: set[tuple] = set()

    def emit(node: ParseTree) -> None:
        if node.key not in seen_keys:
            seen_keys.add(node.key)
            out.append(node)
            local.trees += 1

    work: list[_Branch] = []
    for s in table.shift_states.get(word[0], ()):
        target = table.goto[(s, word[0])]
        work.append(
            _Branch(
                stack=((target, _leaf(word[0])),),
                pos=1,
                rec_depth=frozenset(),
                rec_empty=frozenset(),
            )
        )
        local.branches += 1

    while work:
        b = work.pop()
        top_state = b.stack[-1][0]

        # shift the next word terminal
        if b.pos < n:
            target = table.goto.get((top_state, word[b.pos]))
            if target is not None:
                work.append(
                    _Branch(
                        stack=b.stack + ((target, _leaf(word[b.pos])),),
                        pos=b.pos + 1,
                        rec_depth=frozenset(),
                        rec_empty=frozenset(),
                    )
                )
                local.branches += 1

        # reductions
        candidates: list[tuple[int, int]] = []
        if b.pos < n:
            for pi in table.complete[top_state]:
                candidates.append((pi, len(table.productions[pi].body)))
        else:
            for pi in table.complete[top_state]:
                body_len = len(table.productions[pi].body)
                if body_len > 0:  # epsilon subtrees right of the word are context
                    candidates.append((pi, body_len))
            candidates.extend(table.partial[top_state])

        for pi, dot in candidates:
            prod = table.productions[pi]
            m = len(b.stack)
            popped = min(dot, m)
            cells = b.stack[m - popped :]
            remaining = b.stack[: m - popped]
            elided_left = dot - popped
            children: list[ParseTree] = []
            for offset, (_, node) in enumerate(cells):
                body_pos = dot - popped + offset
                if node.is_leaf and node.site is None:
                    node = _leaf(node.symbol, prod.sites[body_pos])
                children.append(node)
            node = _make_node(
                head=prod.head,
                production=pi,
                children=tuple(children),
                elided_left=elided_left,
                elided_right=len(prod.body) - dot,
            )
            if node is None:
                continue

            if until_lca and node.count == n:
                emit(node)
                continue
            if not until_lca and node.count == n and prod.head == grammar.start and not remaining:
                emit(node)
                continue

            pushes: list[tuple[int, int]] = []  # (under state, target state)
            if remaining:
                under = remaining[-1][0]
                target = table.goto.get((under, prod.head))
                if target is not None:
                    pushes.append((under, target))
            else:
                pushes.extend(table.goto_sources.get(prod.head, ()))

            for under, target in pushes:
                base = remaining if remaining else ()
                depth = len(base) + 1
                key_d = (under, prod.head, depth)
                if key_d in b.rec_depth:
                    continue
                rec_depth = b.rec_depth | {key_d}
                rec_empty = b.rec_empty
                if node.count == 0:
                    key_e = (under, prod.head)
                    if key_e in rec_empty:
                        continue
                    rec_empty = rec_empty | {key_e}
                work.append(
                    _Branch(
                        stack=base + ((target, node),),
                        pos=b.pos,
                        rec_depth=rec_depth,
                        rec_empty=rec_empty,
                    )
                )
                local.branches += 1

    return out


def parse_subword(
    table: ParseTable,
    word: Iterable[str],
    stats: Optional[ParseStats] = None,
) -> list[ParseTree]:
    """All parses of the word as a subword, carried up to the start symbol.

    Every returned tree is rooted at the start symbol with unmatched context
    recorded as elided body parts; trees repeating a nonterminal on a path
    without covering new terminals are pruned.
    """
    return _parse(table, tuple(word), until_lca=False, stats=stats)


def parse_subword_until_lca(
    table: ParseTable,
    word: Iterable[str],
    stats: Optional[ParseStats] = None,
) -> list[ParseTree]:
    """Parses of the word stopped at the first reduction covering all of it.

    Reductions happen bottom-up, so each returned tree is rooted at the
    lowest common ancestor of one occurrence of the word.
    """
    return _parse(table, tuple(word), until_lca=True, stats=stats)
