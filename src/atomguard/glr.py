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

A tree is a derivation over the grammar's shape and holds no call sites:
a leaf's site is the one at its body position in its parent's production,
so the trees of one search serve every grammar of the same shape, and
`tree_sites` and `dump_tree` read the sites from the grammar they are given.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Optional

from .grammar import BehaviorGrammar, CallSite, Production
from .records import Record

__all__ = [
    "ParseTable",
    "ParseTree",
    "ParseStats",
    "build_parse_table",
    "parse_subword_until_lca",
    "tree_sites",
    "dump_tree",
]

AUGMENTED_HEAD = "$accept"


# --------------------------------------------------------------------------
# parse table


_Item = tuple[int, int]  # (production, dot)
_by_item = itemgetter(1, 2)  # of a reduction (production, index, dot)


class ParseTable(Record):
    """The LR(0) automaton of a grammar and the search's reductions per
    state.  The automaton depends only on the grammar's shape: its start,
    its terminals and each rule's head and body.  The trees searched over it
    hold no call sites, so a table and its trees serve every grammar of that
    shape, each reading the sites from its own productions."""

    # productions: the grammar's productions and the augmented rule
    # goto: (state, symbol) -> state
    # reduce_mid, reduce_end: per state, the search's reductions as
    # (production, index, dot): every complete item before the end of the
    # word; at its end the complete non-epsilon items, then the items with
    # the dot mid-body (their unseen right part is context)
    __slots__ = (
        "grammar", "productions", "states", "goto", "shift_states", "goto_sources",
        "reduce_mid", "reduce_end",
    )


def build_parse_table(grammar: BehaviorGrammar) -> ParseTable:
    """The LR(0) automaton of the grammar plus the augmented rule, its states
    numbered in breadth-first order, moves in symbol order.  A state is found
    by its kernel, the items its goto moved the dot over; its other items are
    those predicted by the nonterminals after the kernel's dots."""
    prods = tuple(grammar.productions) + (Production(AUGMENTED_HEAD, (grammar.start,), (None,)),)
    aug = len(prods) - 1
    bodies = [p.body for p in prods]
    lengths = [len(body) for body in bodies]
    terminals = grammar.terminals
    by_head: dict[str, list[int]] = {}
    for i, p in enumerate(prods):
        by_head.setdefault(p.head, []).append(i)

    predicted = {}  # nonterminal -> (its predicted items, their moves, its epsilon rules)

    def predict(sym: str) -> tuple[frozenset[_Item], dict[str, list[_Item]], list[int]]:
        hit = predicted.get(sym)
        if hit is None:
            seen = {sym}
            todo = [sym]
            items, moves, empty = [], {}, []
            while todo:
                for qi in by_head.get(todo.pop(), ()):
                    items.append((qi, 0))
                    if not lengths[qi]:
                        empty.append(qi)
                        continue
                    first = bodies[qi][0]
                    moves.setdefault(first, []).append((qi, 1))
                    if first not in terminals and first not in seen:
                        seen.add(first)
                        todo.append(first)
            hit = predicted[sym] = (frozenset(items), moves, empty)
        return hit

    kernels = [frozenset({(aug, 0)})]
    index = {kernels[0]: 0}
    states: list[frozenset[_Item]] = []
    goto: dict[tuple[int, str], int] = {}
    reduce_mid: list[tuple[tuple[Production, int, int], ...]] = []
    reduce_end: list[tuple[tuple[Production, int, int], ...]] = []
    for pos, kernel in enumerate(kernels):  # `kernels` grows as states are found
        if len(kernel) == 1:
            ((pi, dot),) = kernel
            if dot < lengths[pi] and bodies[pi][dot] in terminals:
                # One item before a terminal, as after each call of a long
                # thread: the state predicts nothing and has one move.
                states.append(kernel)
                target = frozenset(((pi, dot + 1),))
                t = index.get(target)
                if t is None:
                    t = index[target] = len(kernels)
                    kernels.append(target)
                goto[(pos, bodies[pi][dot])] = t
                reduce_mid.append(())
                reduce_end.append(((prods[pi], pi, dot),) if dot else ())
                continue
        moves: dict[str, list[_Item]] = {}
        complete: list[int] = []
        partial: list[tuple[Production, int, int]] = []
        before: list[str] = []  # the nonterminals after the kernel's dots
        for pi, dot in kernel:
            if dot < lengths[pi]:
                sym = bodies[pi][dot]
                moves.setdefault(sym, []).append((pi, dot + 1))
                if dot:
                    partial.append((prods[pi], pi, dot))
                if sym not in terminals:
                    before.append(sym)
            elif pi != aug:
                complete.append(pi)
        state = kernel
        if before:
            predictions = []
            for sym in set(before):
                items, more, empty = predict(sym)
                predictions.append(items)
                for first, targets in more.items():
                    moves.setdefault(first, []).extend(targets)
                complete += empty
            state = kernel.union(*predictions)
        states.append(state)
        for sym in sorted(moves):
            target = frozenset(moves[sym])
            t = index.get(target)
            if t is None:
                t = index[target] = len(kernels)
                kernels.append(target)
            goto[(pos, sym)] = t
        partial.sort(key=_by_item)
        if complete:  # see `ParseTable.reduce_mid` and `reduce_end`
            at_mid = tuple([(prods[pi], pi, lengths[pi]) for pi in sorted(set(complete))])
            reduce_mid.append(at_mid)
            reduce_end.append(tuple([r for r in at_mid if r[2]] + partial))
        else:
            reduce_mid.append(())
            reduce_end.append(tuple(partial))

    shift_states: dict[str, list[int]] = {}
    goto_sources: dict[str, list[tuple[int, int]]] = {}
    for (s, sym), t in goto.items():  # in (state, symbol) order
        if sym in terminals:
            shift_states.setdefault(sym, []).append(s)
        else:
            goto_sources.setdefault(sym, []).append((s, t))

    return ParseTable(
        grammar, prods, tuple(states), goto, {k: tuple(v) for k, v in shift_states.items()},
        {k: tuple(v) for k, v in goto_sources.items()}, tuple(reduce_mid), tuple(reduce_end),
    )


# --------------------------------------------------------------------------
# parse trees


class ParseTree:
    """Node of a (possibly partial) parse.

    Terminal leaves have children None and hold no call site: a leaf's site
    is the one at its body position in its parent's production (see
    `tree_sites`).  production indexes the searched grammar's productions.
    elided_left/right count body symbols hypothesized rather than
    materialized: they stand for derivations outside the matched word, and
    elided_left is the body position of the first child.  count is the
    number of word terminals in the subtree.
    syms, for a node covering word terminals, are the symbols on the path
    down from it through children covering the same terminals; for a node
    covering none, all the symbols of its subtree; for a leaf, none.  The
    search drops a reduction whose head is among the ones its children pass
    up.  Trees compare by identity.
    The search sets `_key` on each tree it returns and on their subtrees:
    `("t", symbol)` for a leaf, `("n", production, elided_left,
    elided_right, child keys)` for a node, its structural identity.
    """

    __slots__ = (
        "symbol", "count", "production", "children", "elided_left", "elided_right", "syms",
        "_key",
    )

    def __init__(self, symbol: str, count: int, production: Optional[int] = None,
                 children: Optional[tuple[ParseTree, ...]] = None, elided_left: int = 0,
                 elided_right: int = 0, syms: frozenset[str] = frozenset()):
        self.symbol = symbol
        self.count = count
        self.production = production
        self.children = children
        self.elided_left = elided_left
        self.elided_right = elided_right
        self.syms = syms
        self._key: Optional[tuple] = None

    def __repr__(self) -> str:
        # Shallow: a call chain makes trees thousands of levels deep.
        below = "leaf" if self.children is None else f"{len(self.children)} children"
        return (
            f"ParseTree({self.symbol!r}, count={self.count}, "
            f"production={self.production}, "
            f"elided={self.elided_left}/{self.elided_right}, {below})"
        )


def _fill_keys(tree: ParseTree, interned: dict[tuple, tuple]) -> None:
    """Key every unkeyed node of the tree, children before parents, without
    recursing: a call chain makes trees thousands of levels deep.

    `interned` maps each key made with it to one shared tuple, so that equal
    keys are the same object and comparing two keys never descends further
    than their first differing children (a deep descent would overflow the
    interpreter's recursion limit).  A node's entry is found by the ids of
    its children's interned keys."""
    order = []  # unkeyed nodes, parents before children
    todo = [tree]
    while todo:
        node = todo.pop()
        if node._key is None:
            order.append(node)
            if node.children:
                todo.extend(node.children)
    for node in reversed(order):
        if node._key is not None:  # a shared subtree, listed twice
            continue
        children = node.children
        if children is None:
            key = ("t", node.symbol)
            node._key = interned.setdefault(key, key)
            continue
        node._key = _node_key(node, tuple([ch._key for ch in children]), interned)


def _node_key(node: ParseTree, child_keys: tuple, interned: dict[tuple, tuple]) -> tuple:
    """The interned key of a node whose children have the interned keys
    `child_keys`."""
    entry = (node.production, node.elided_left, node.elided_right, *map(id, child_keys))
    key = interned.get(entry)
    if key is None:
        key = interned[entry] = ("n", node.production, node.elided_left, node.elided_right, child_keys)
    return key


_children = attrgetter("children")


def tree_sites(tree: ParseTree, grammar: BehaviorGrammar) -> list[CallSite]:
    """Call sites of the word terminals, in occurrence order, read from
    `grammar`, the searched grammar or one of its shape, without recursing.
    The sites of a node whose children are all leaves (or leafless
    epsilon nodes) are one slice of its production's sites."""
    productions = grammar.productions
    out = []
    todo = [] if tree.children is None else [tree]  # nodes, and leaf sites after them
    while todo:
        node = todo.pop()
        if node.__class__ is not ParseTree:
            out.append(node)
            continue
        children = node.children
        at = node.elided_left
        sites = productions[node.production].sites[at:at + len(children)]
        if not any(map(_children, children)):
            out += filter(None, sites)  # a `CallSite` is true
        else:
            todo += [
                site if child.children is None else child
                for child, site in zip(reversed(children), reversed(sites))
                if child.children is not None or site is not None
            ]
    return out


def dump_tree(tree: ParseTree, grammar: BehaviorGrammar) -> str:
    """The tree one node a line, each node with its rule and each leaf with
    its call site in `grammar`, the searched grammar or one of its shape."""
    productions = grammar.productions
    out: list[str] = []
    todo = [(tree, "", None)]
    while todo:
        node, pad, site = todo.pop()
        if node.children is None:
            where = f"  [{site.file}:{site.line}]" if site else ""
            out.append(f"{pad}{node.symbol}{where}\n")
            continue
        p = productions[node.production]
        rule = f"  ({p.head} -> {' '.join(p.body) or 'epsilon'})"
        marks = ""
        if node.elided_left or node.elided_right:
            marks = f"  [context {node.elided_left}|{node.elided_right}]"
        out.append(f"{pad}{node.symbol}{rule}{marks}\n")
        if not node.children:
            out.append(f"{pad}  epsilon\n")
        # the children, last first, each with the site at its body position
        sites = p.sites[node.elided_left:node.elided_left + len(node.children)]
        todo.extend(zip(reversed(node.children), repeat(pad + "  "), reversed(sites)))
    return "".join(out)


# --------------------------------------------------------------------------
# subword parsing


class ParseStats(Record):
    __slots__ = ("branches", "trees")
    _defaults = {"branches": 0, "trees": 0}


def parse_subword_until_lca(
    table: ParseTable,
    word: Iterable[str],
    stats: Optional[ParseStats] = None,
) -> list[ParseTree]:
    """Parses of the word stopped at the first reduction covering all of it.

    Reductions happen bottom-up, so each returned tree is rooted at the
    lowest common ancestor of one occurrence of the word.  Every branch of
    the search is explored, last pushed first.

    A branch is a tuple (stack, pos, guards).  The stack is a tuple of
    (state, node) cells; each word position has one leaf, which every
    branch that shifts it pushes and every reduction takes as it is.
    guards hold (under state, symbol, depth) of every push since the last
    shift, and also (under state, symbol) of the zero-count ones; a branch
    may repeat neither, so the search ends.
    """
    grammar = table.grammar
    word = tuple(word)
    n = len(word)
    if n == 0 or any(t not in grammar.terminals for t in word):
        return []
    goto = table.goto
    goto_sources = table.goto_sources
    reduce_mid = table.reduce_mid
    reduce_end = table.reduce_end
    empty = frozenset()
    out: list[ParseTree] = []
    seen_keys: set[tuple] = set()
    interned: dict[tuple, tuple] = {}

    leaves = [ParseTree(sym, 1) for sym in word]
    for leaf in leaves:  # keyed once: every emitted tree shares them
        key = ("t", leaf.symbol)
        leaf._key = interned.setdefault(key, key)
    first = word[0]
    work = [(((goto[(s, first)], leaves[0]),), 1, empty) for s in table.shift_states.get(first, ())]
    branches = len(work)

    while work:
        stack, pos, guards = work.pop()
        m = len(stack)
        if pos < n:
            target = goto.get((stack[-1][0], word[pos]))
            if target is not None:
                work.append((stack + ((target, leaves[pos]),), pos + 1, empty))
                branches += 1
            candidates = reduce_mid[stack[-1][0]]
        else:
            candidates = reduce_end[stack[-1][0]]

        for prod, pi, dot in candidates:
            # pop the dot's cells; a body part below the stack bottom is elided
            if dot <= m:
                cut = m - dot
                elided_left = 0
            else:
                cut = 0
                elided_left = dot - m
            children = []
            count = 0
            for _, child in stack[cut:]:
                children.append(child)
                count += child.count

            # no nonterminal may repeat on a path without covering a new terminal
            # (a leaf's syms are empty; a zero-count node's children all cover none)
            head = prod.head
            syms = empty
            if count:
                for child in children:
                    if child.count == count:
                        syms = child.syms
                        break
            else:
                for child in children:
                    syms = syms | child.syms
            if head in syms:
                continue
            node = ParseTree(
                head, count, pi, tuple(children), elided_left, len(prod.body) - dot,
                syms | {head},
            )

            if count == n:
                child_keys = tuple([child._key for child in children])
                if None in child_keys:  # a child built by a reduction
                    _fill_keys(node, interned)
                    key = node._key
                else:
                    node._key = key = _node_key(node, child_keys, interned)
                if key not in seen_keys:
                    seen_keys.add(key)
                    out.append(node)
                continue

            if cut:
                under = stack[cut - 1][0]
                target = goto.get((under, head))
                if target is None:
                    continue
                pushes = ((under, target),)
                base = stack[:cut]
            else:
                pushes = goto_sources.get(head, ())
                base = ()
            depth = cut + 1
            for under, target in pushes:
                key_d = (under, head, depth)
                if key_d in guards:
                    continue
                if count:
                    next_guards = guards | {key_d}
                else:
                    key_e = (under, head)
                    if key_e in guards:
                        continue
                    next_guards = guards | {key_d, key_e}
                work.append((base + ((target, node),), pos, next_guards))
                branches += 1

    if stats is not None:
        stats.branches += branches
        stats.trees += len(out)
    return out

