"""Independent oracles used by the test suite.

Everything in this module recomputes expected results from first principles,
without going through the grammar or parser pipelines under test: clause
expansion by direct enumeration, call traces by interpreting the statement
tree, atomically-executed methods by a standalone fixpoint, bounded grammar
languages by a fixpoint over word sets, and structural checks on parse
trees.  It also keeps the original character-at-a-time tokenizer, the
original parser, reading that tokenizer's tokens, with its statement-walking
resolver, a recursive statement walk for control-flow graphs, the original
per-grammar CFG walk, the original quadratic grammar simplification, the
original three-walk points-to analysis, the original item-by-item LR(0)
construction and the original subword search as the references the
pipeline's versions must reproduce.  That search also keeps the full-parse
mode (trees carried up to the start symbol), which the checker does not
ship.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from atomguard import AtomguardError
from atomguard.errors import DuplicateMethodError, SourceSyntaxError, UnresolvedMethodError
from atomguard.frontend.lexer import KEYWORDS, PUNCT
from atomguard.frontend.parser import MAX_NESTING, iter_method_statements, statement_call
from atomguard.frontend.syntax import (
    Assign,
    Binary,
    Block,
    Call,
    ClassDecl,
    CondExpr,
    Expr,
    ExprStmt,
    If,
    Increment,
    IntLit,
    MethodDecl,
    Name,
    New,
    Param,
    Program,
    Return,
    Stmt,
    Ternary,
    Unary,
    While,
    expr_text,
)
from atomguard.grammar import (
    EPSILON,
    SCOPE_START_PREFIX,
    BehaviorGrammar,
    CallSite,
    Production,
    _method_symbol,
    _reachable_methods,
)
from atomguard.glr import AUGMENTED_HEAD, ParseStats, ParseTable, ParseTree
from atomguard.pointsto import RETURN_SLOT, AllocationSite, PointsToResult


# ---------------------------------------------------------------------------
# Tokenizing one character at a time


class Token(NamedTuple):
    """A token; equal to the scanner's `(kind, text, line, column)` tuple."""

    kind: str  # "ident" | "int" | "string" | "kw" | "punct" | "eof"
    text: str
    line: int
    column: int


def reference_tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """The original scanner: one loop step per character, `str.startswith`
    per operator."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise SourceSyntaxError("unterminated string", filename, line, col)
            tokens.append(Token("string", source[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        for op in PUNCT:
            if source.startswith(op, i):
                tokens.append(Token("punct", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise SourceSyntaxError(f"unexpected character {ch!r}", filename, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Grammar dumps read back, and bounded languages


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


def nonterminals(grammar: BehaviorGrammar) -> frozenset[str]:
    """The start, every head and every body symbol that is no terminal."""
    syms = {grammar.start}
    for p in grammar.productions:
        syms.add(p.head)
        syms.update(s for s in p.body if s not in grammar.terminals)
    return frozenset(syms)


def rules_by_head(grammar: BehaviorGrammar) -> dict[str, list[Production]]:
    """Each head's productions, in grammar order."""
    out: dict[str, list[Production]] = {}
    for p in grammar.productions:
        out.setdefault(p.head, []).append(p)
    return out


def bounded_language(grammar: BehaviorGrammar, max_len: int) -> frozenset[tuple[str, ...]]:
    """All words of the grammar up to max_len terminals, computed exactly.

    Fixpoint over per-nonterminal word sets; concatenations longer than the
    bound are discarded, which cannot lose any word within the bound.
    """
    words: dict[str, set[tuple[str, ...]]] = {nt: set() for nt in nonterminals(grammar)}

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


# ---------------------------------------------------------------------------
# Grammar comparison modulo nonterminal renaming


def find_nonterminal_bijection(
    g1: BehaviorGrammar, g2: BehaviorGrammar
) -> dict[str, str] | None:
    """Search for a renaming of g1's nonterminals that yields exactly g2.

    Terminals must match verbatim; only nonterminals may be renamed, and the
    start symbols must map to each other.  Returns the mapping, or None.
    """
    if g1.terminals != g2.terminals:
        return None
    n1 = sorted(nonterminals(g1))
    n2 = sorted(nonterminals(g2))
    if len(n1) != len(n2):
        return None
    if len(g1.productions) != len(g2.productions):
        return None
    prods2 = {(p.head, p.body) for p in g2.productions}

    def signature(g: BehaviorGrammar, by_head: dict[str, list[Production]], nt: str) -> tuple:
        bodies = sorted(
            tuple(s if s in g.terminals else "?" for s in p.body)
            for p in by_head.get(nt, ())
        )
        uses = sum(p.body.count(nt) for p in g.productions)
        return (tuple(bodies), uses)

    heads1, heads2 = rules_by_head(g1), rules_by_head(g2)
    sig2: dict[tuple, list[str]] = {}
    for nt in n2:
        sig2.setdefault(signature(g2, heads2, nt), []).append(nt)
    candidates: dict[str, list[str]] = {}
    for nt in n1:
        candidates[nt] = sig2.get(signature(g1, heads1, nt), [])
        if not candidates[nt]:
            return None
    order = sorted(n1, key=lambda nt: len(candidates[nt]))

    def extend(i: int, mapping: dict[str, str], used: set[str]) -> dict[str, str] | None:
        if i == len(order):
            return dict(mapping)
        nt = order[i]
        if nt in mapping:
            return extend(i + 1, mapping, used)
        for cand in candidates[nt]:
            if cand in used or (cand == g2.start) != (nt == g1.start):
                continue
            mapping[nt] = cand
            used.add(cand)
            if _consistent(g1, g2, mapping, prods2):
                result = extend(i + 1, mapping, used)
                if result is not None:
                    return result
            del mapping[nt]
            used.discard(cand)
        return None

    return extend(0, {g1.start: g2.start}, {g2.start})


def _consistent(g1, g2, mapping, prods2) -> bool:
    for p in g1.productions:
        if p.head not in mapping:
            continue
        if any(s not in g1.terminals and s not in mapping for s in p.body):
            continue
        image = (
            mapping[p.head],
            tuple(s if s in g1.terminals else mapping[s] for s in p.body),
        )
        if image not in prods2:
            return False
    return True


# ---------------------------------------------------------------------------
# Grammar simplification, one inlined symbol per full rescan


def reference_simplify_grammar(grammar: BehaviorGrammar) -> BehaviorGrammar:
    """Repeatedly inline the smallest eligible head, then prune and dedup.

    A head is eligible when it is a control-flow-node symbol (not `@m`, not
    `$start:`, not the start symbol) with exactly one rule that does not
    mention it.  Every round regroups and rescans all productions.
    """
    prods = list(grammar.productions)
    while True:
        by_head: dict[str, list[Production]] = {}
        for p in prods:
            by_head.setdefault(p.head, []).append(p)
        candidate = None
        for head in sorted(by_head):
            if head == grammar.start or head.startswith(("@", "$start:")):
                continue
            rules = by_head[head]
            if len(rules) == 1 and head not in rules[0].body:
                candidate = rules[0]
                break
        if candidate is None:
            break
        next_prods: list[Production] = []
        for p in prods:
            if p is candidate:
                continue
            if candidate.head not in p.body:
                next_prods.append(p)
                continue
            body: list[str] = []
            sites: list = []
            for sym, site in zip(p.body, p.sites):
                if sym == candidate.head:
                    body.extend(candidate.body)
                    sites.extend(candidate.sites)
                else:
                    body.append(sym)
                    sites.append(site)
            next_prods.append(Production(p.head, tuple(body), tuple(sites)))
        prods = next_prods

    by_head = {}
    for p in prods:
        by_head.setdefault(p.head, []).append(p)
    reachable = {grammar.start}
    work = [grammar.start]
    while work:
        sym = work.pop()
        for p in by_head.get(sym, ()):
            for s in p.body:
                if s not in grammar.terminals and s not in reachable:
                    reachable.add(s)
                    work.append(s)
    kept: dict[Production, None] = {}
    for p in prods:
        if p.head in reachable:
            kept.setdefault(p)
    return BehaviorGrammar(
        start=grammar.start,
        terminals=grammar.terminals,
        productions=tuple(kept),
    )


# ---------------------------------------------------------------------------
# Control-flow graphs, by a recursive statement walk


class NodeKind(enum.Enum):
    ENTRY = "entry"
    RETURN = "return"
    MODULE_CALL = "module_call"
    CLIENT_CALL = "client_call"
    OTHER = "other"


@dataclass
class ReferenceCfgNode:
    index: int
    kind: NodeKind
    line: int
    call: Optional[Call]
    result_var: Optional[str]
    stmt: Optional[Stmt]
    succ: list[int] = field(default_factory=list)


def _reference_stmt_call(stmt: Stmt) -> Optional[Call]:
    if isinstance(stmt, ExprStmt):
        return stmt.call
    if isinstance(stmt, Assign):
        value = stmt.value
    elif isinstance(stmt, (If, While)):
        value = stmt.cond
    else:
        return None
    return value if isinstance(value, Call) else None


def reference_build_cfg(method: MethodDecl) -> list[ReferenceCfgNode]:
    """The nodes `build_cfg(method)` must give, from a recursive walk of the
    statements: nodes numbered in the order the walk meets them (the entry
    first, then each statement before the ones inside it, then the implicit
    return), and each node's successors in the order the walk makes its
    edges, without repeats."""
    nodes: list[ReferenceCfgNode] = []
    edges: list[tuple[int, int]] = []

    def node(kind: NodeKind, line: int, stmt: Optional[Stmt] = None) -> int:
        call = result = None
        if stmt is not None and kind is NodeKind.OTHER:
            call = _reference_stmt_call(stmt)
            if call is not None:
                kind = NodeKind.CLIENT_CALL if call.receiver is None else NodeKind.MODULE_CALL
                if isinstance(stmt, Assign):
                    result = stmt.target
        nodes.append(ReferenceCfgNode(len(nodes), kind, line, call, result, stmt))
        return len(nodes) - 1

    def walk(stmt: Stmt) -> tuple[Optional[int], list[int]]:
        """(the statement's first node, None for an empty block; the nodes
        that fall through to whatever follows it)"""
        if isinstance(stmt, Block):
            return walk_all(stmt.stmts)
        if isinstance(stmt, Return):
            return node(NodeKind.RETURN, stmt.line, stmt), []
        n = node(NodeKind.OTHER, stmt.line, stmt)
        if isinstance(stmt, If):
            falls: list[int] = []
            for branch in (stmt.then, stmt.orelse):
                first, exits = (None, []) if branch is None else walk(branch)
                if first is None:
                    falls.append(n)
                else:
                    edges.append((n, first))
                    falls += exits
            return n, falls
        if isinstance(stmt, While):
            first, exits = walk(stmt.body)
            edges.append((n, n if first is None else first))
            edges.extend((e, n) for e in exits)
        return n, [n]

    def walk_all(stmts: list[Stmt]) -> tuple[Optional[int], list[int]]:
        start: Optional[int] = None
        falls: list[int] = []
        for stmt in stmts:
            first, exits = walk(stmt)
            if first is None:
                continue
            if start is None:
                start = first
            edges.extend((e, first) for e in falls)
            falls = exits
        return start, falls

    entry = node(NodeKind.ENTRY, method.line)
    first, exits = walk_all(method.body.stmts)
    if first is None:
        edges.append((entry, node(NodeKind.RETURN, method.line)))
    else:
        edges.append((entry, first))
        if exits:
            end = node(NodeKind.RETURN, method.line)
            edges.extend((e, end) for e in exits)
    for a, b in edges:
        if b not in nodes[a].succ:
            nodes[a].succ.append(b)
    return nodes


# ---------------------------------------------------------------------------
# Grammar building, one CFG walk per grammar


def _node_symbol(method: str, index: int) -> str:
    return f"{method}.{index}"


def reference_build(
    program: Program,
    module: ClassDecl,
    roots: list[MethodDecl],
    start: str,
    scope: Optional[frozenset[str]],
    site: Optional[AllocationSite],
    pointsto: Optional[PointsToResult],
) -> BehaviorGrammar:
    """The grammar `atomguard.grammar._build` must produce for these
    arguments: walks every reachable method's CFG, as `reference_build_cfg`
    builds it, and builds each production
    and `CallSite` anew, deciding call, skip or both at each module call."""
    module_method_names = {m.name for m in module.methods}
    reach = _reachable_methods(program, [m.name for m in roots], scope)
    cfgs = {name: reference_build_cfg(program.client_methods[name]) for name in reach}

    prods: list[Production] = []
    if start.startswith(SCOPE_START_PREFIX):
        for m in roots:
            prods.append(Production(start, (_method_symbol(m.name),)))

    for name in reach:
        prods.append(Production(_method_symbol(name), (_node_symbol(name, 0),)))
        for node in cfgs[name]:
            sym = _node_symbol(name, node.index)
            succs = [_node_symbol(name, s) for s in node.succ]
            if node.kind is NodeKind.RETURN:
                prods.append(Production(sym, ()))
                continue
            if (
                node.kind is NodeKind.MODULE_CALL
                and node.call is not None
                and node.call.method in module_method_names
            ):
                emit_call, emit_skip = True, False
                if site is not None and pointsto is not None:
                    may = pointsto.may_sites(name, node.call.receiver)
                    if not may:
                        # Unknown receiver: no tracked allocation reaches it,
                        # so it could be anything.  Keep both alternatives.
                        emit_call, emit_skip = True, True
                    elif site.index in may:
                        emit_call, emit_skip = True, len(may) > 1
                    else:
                        emit_call, emit_skip = False, True
                if emit_call:
                    cs = CallSite(
                        node=sym,
                        method=node.call.method,
                        file=program.source_name,
                        line=node.call.line,
                        args=tuple(expr_text(a) for a in node.call.args),
                        result=node.result_var,
                    )
                    for s in succs:
                        prods.append(
                            Production(sym, (node.call.method, s), (cs, None))
                        )
                if emit_skip:
                    for s in succs:
                        prods.append(Production(sym, (s,)))
                continue
            if (
                node.kind is NodeKind.CLIENT_CALL
                and node.call is not None
                and node.call.method in reach
            ):
                callee = _method_symbol(node.call.method)
                for s in succs:
                    prods.append(Production(sym, (callee, s)))
                continue
            # entry, plain statements, calls outside the analyzed scope
            for s in succs:
                prods.append(Production(sym, (s,)))

    return BehaviorGrammar(
        start=start,
        terminals=frozenset(module_method_names),
        productions=tuple(prods),
    )


# ---------------------------------------------------------------------------
# Points-to, with separate walks for locals, allocation sites and value flows


def _method_locals(method: MethodDecl) -> frozenset[str]:
    names = {p.name for p in method.params}
    for stmt in iter_method_statements(method):
        if isinstance(stmt, Assign) and stmt.declares:
            names.add(stmt.target)
    return frozenset(names)


def _collect_sites(
    program: Program,
) -> tuple[list[AllocationSite], dict[int, AllocationSite]]:
    module_names = {c.name for c in program.modules}
    sites: list[AllocationSite] = []
    by_expr: dict[int, AllocationSite] = {}
    for c in program.client_classes:
        for m in c.methods:
            for stmt in iter_method_statements(m):
                line = getattr(stmt, "line", m.line)
                for e in _stmt_exprs(stmt):
                    for sub in _walk_expr(e):
                        if isinstance(sub, New) and sub.class_name in module_names:
                            site = AllocationSite(
                                index=len(sites),
                                class_name=sub.class_name,
                                method=m.name,
                                file=program.source_name,
                                line=line,
                            )
                            sites.append(site)
                            by_expr[id(sub)] = site
    return sites, by_expr


def _stmt_exprs(stmt):
    if isinstance(stmt, Assign):
        yield stmt.value
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield stmt.value
    else:
        call = statement_call(stmt)
        if call is not None:
            yield call


def _walk_expr(e: Expr):
    yield e
    if isinstance(e, Ternary):
        yield from _walk_expr(e.then)
        yield from _walk_expr(e.other)
    elif isinstance(e, Call):
        for a in e.args:
            yield from _walk_expr(a)


def _value_sources(e: Expr):
    """(site-expr | name) contributors to the value of e, ignoring opaque parts."""
    if isinstance(e, (New, Name, Call)):
        yield e
    elif isinstance(e, Ternary):
        yield from _value_sources(e.then)
        yield from _value_sources(e.other)


def reference_pointsto(program: Program) -> PointsToResult:
    """May-point-to sets per variable, as allocation-site indexes.

    Collects each method's locals, then the allocation sites, then the value
    flows, each in a walk of its own over every method body, and iterates the
    flows to a fixpoint.
    """
    locals_of = {name: _method_locals(m) for name, m in program.client_methods.items()}
    result = PointsToResult(sites=[], may={}, _locals=locals_of)
    sites, by_expr = _collect_sites(program)
    result.sites = sites

    seeds: list[tuple[str, int]] = []  # (var key, site index)
    copies: list[tuple[str, str]] = []  # (source key, dest key)

    def add_source(dest_key: str, method: MethodDecl, e: Expr) -> None:
        for src in _value_sources(e):
            if isinstance(src, New):
                site = by_expr.get(id(src))
                if site is not None:
                    seeds.append((dest_key, site.index))
            elif isinstance(src, Name):
                copies.append((result.var_key(method.name, src.id), dest_key))
            elif isinstance(src, Call) and src.receiver is None:
                copies.append((f"{src.method}:{RETURN_SLOT}", dest_key))

    for _, m in sorted(program.client_methods.items()):
        for stmt in iter_method_statements(m):
            if isinstance(stmt, Assign):
                add_source(result.var_key(m.name, stmt.target), m, stmt.value)
            elif isinstance(stmt, Return) and stmt.value is not None:
                add_source(f"{m.name}:{RETURN_SLOT}", m, stmt.value)
            call = statement_call(stmt)
            if call is not None and call.receiver is None:
                callee = program.client_methods[call.method]
                for param, arg in zip(callee.params, call.args):
                    dest = f"{callee.name}:{param.name}"
                    add_source(dest, m, arg)

    may: dict[str, set[int]] = {}
    for key, idx in seeds:
        may.setdefault(key, set()).add(idx)
    changed = True
    while changed:
        changed = False
        for src, dest in copies:
            src_set = may.get(src)
            if not src_set:
                continue
            dest_set = may.setdefault(dest, set())
            before = len(dest_set)
            dest_set |= src_set
            if len(dest_set) != before:
                changed = True
    result.may = {k: frozenset(v) for k, v in may.items()}
    return result


# ---------------------------------------------------------------------------
# Star-free clause expansion by direct enumeration


def clause_words(text: str) -> set[tuple[str, ...]]:
    """Expand a star-free clause into its word set, independently.

    Understands names, parenthesized alternation groups, and '|'.  Atom
    parameters are stripped; only method names survive.
    """
    tokens = _clause_tokens(text)
    words, rest = _expand_seq(tokens, 0)
    if rest != len(tokens):
        raise ValueError(f"trailing tokens in clause: {text!r}")
    return set(words)


def _clause_tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()|,=":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _expand_seq(tokens: list[str], i: int) -> tuple[list[tuple[str, ...]], int]:
    parts: list[list[tuple[str, ...]]] = []
    while i < len(tokens) and tokens[i] not in (")", "|"):
        alt, i = _expand_item(tokens, i)
        parts.append(alt)
    if not parts:
        return [()], i
    combos = [
        tuple(itertools.chain.from_iterable(pick))
        for pick in itertools.product(*parts)
    ]
    return combos, i


def _is_arg_list(tokens: list[str], i: int) -> bool:
    """True when the parenthesis at `i` opens an argument list.

    Argument lists hold only variables and wildcards separated by commas;
    anything else after a name is an alternation group in its own right.
    """
    j = i + 1
    expecting = True
    while j < len(tokens):
        t = tokens[j]
        if t == ")":
            return not expecting
        if expecting:
            if t != "_" and not t[:1].isupper():
                return False
            expecting = False
        else:
            if t != ",":
                return False
            expecting = True
        j += 1
    return False


def _expand_item(tokens: list[str], i: int) -> tuple[list[tuple[str, ...]], int]:
    if tokens[i] == "(":
        alts: list[tuple[str, ...]] = []
        i += 1
        while True:
            words, i = _expand_seq(tokens, i)
            alts.extend(words)
            if tokens[i] == "|":
                i += 1
                continue
            assert tokens[i] == ")"
            return alts, i + 1
    name = tokens[i]
    i += 1
    if i < len(tokens) and tokens[i] == "=":
        name = tokens[i + 1]
        i += 2
    if i < len(tokens) and tokens[i] == "(" and _is_arg_list(tokens, i):
        while tokens[i] != ")":
            i += 1
        i += 1
    return [(name,)], i


# ---------------------------------------------------------------------------
# Bounded execution traces by statement-tree interpretation


@dataclass(frozen=True)
class TraceEvent:
    """One module call in a bounded execution trace."""

    method: str
    frames: tuple[tuple[str, int], ...]
    line: int


@dataclass
class _TraceState:
    counter: int = 0
    module_methods: frozenset[str] = frozenset()
    methods: dict = field(default_factory=dict)
    loop_bound: int = 2


def bounded_traces(
    program: Program, entry: str, loop_bound: int = 2
) -> set[tuple[TraceEvent, ...]]:
    """All module-call traces of `entry`, loops unrolled 0..loop_bound times.

    Every if explores both branches and every while every unrolling, so the
    result is the exact trace set of the program restricted to bounded loop
    counts.  Client calls are inlined with fresh frame identities; recursion
    is rejected (callers must pass acyclic programs).
    """
    state = _TraceState(
        module_methods=frozenset(m.name for c in program.modules for m in c.methods),
        methods=dict(program.client_methods),
        loop_bound=loop_bound,
    )
    return set(_run_method(state, entry, (), 0))


def _run_method(
    state: _TraceState, name: str, stack: tuple[tuple[str, int], ...], depth: int
) -> list[tuple[TraceEvent, ...]]:
    if depth > 12:
        raise RecursionError(f"call chain too deep at {name}; traces need acyclic programs")
    state.counter += 1
    frames = stack + ((name, state.counter),)
    body = state.methods[name].body
    return [trace for trace, _ in _run_block(state, body.stmts, frames, depth)]


def _run_block(state, stmts, frames, depth):
    results: list[tuple[tuple[TraceEvent, ...], bool]] = [((), False)]
    for stmt in stmts:
        step = _run_stmt(state, stmt, frames, depth)
        results = [
            (prefix + suffix, stopped)
            for prefix, was_stopped in results
            if not was_stopped
            for suffix, stopped in step
        ] + [(prefix, True) for prefix, was_stopped in results if was_stopped]
    return results


def _call_traces(state, call: Call, frames, depth) -> list[tuple[TraceEvent, ...]]:
    if call.receiver is not None and call.method in state.module_methods:
        return [(TraceEvent(call.method, frames, call.line),)]
    if call.method in state.methods:
        return _run_method(state, call.method, frames, depth + 1)
    return [()]


def _run_stmt(state, stmt, frames, depth):
    if isinstance(stmt, Block):
        return _run_block(state, stmt.stmts, frames, depth)
    if isinstance(stmt, ExprStmt):
        return [(t, False) for t in _call_traces(state, stmt.call, frames, depth)]
    if isinstance(stmt, Assign):
        if isinstance(stmt.value, Call):
            return [(t, False) for t in _call_traces(state, stmt.value, frames, depth)]
        return [((), False)]
    if isinstance(stmt, Increment):
        return [((), False)]
    if isinstance(stmt, Return):
        return [((), True)]
    if isinstance(stmt, If):
        conds = (
            _call_traces(state, stmt.cond, frames, depth)
            if isinstance(stmt.cond, Call)
            else [()]
        )
        branches = _run_stmt(state, stmt.then, frames, depth)
        if stmt.orelse is not None:
            branches = branches + _run_stmt(state, stmt.orelse, frames, depth)
        else:
            branches = branches + [((), False)]
        return [(c + b, stopped) for c in conds for b, stopped in branches]
    if isinstance(stmt, While):
        conds = (
            _call_traces(state, stmt.cond, frames, depth)
            if isinstance(stmt.cond, Call)
            else [()]
        )
        finished: list[tuple[tuple[TraceEvent, ...], bool]] = []
        partials: list[tuple[tuple[TraceEvent, ...], bool]] = [((), False)]
        for _ in range(state.loop_bound + 1):
            finished.extend(
                (prefix + c, False)
                for prefix, stopped in partials
                if not stopped
                for c in conds
            )
            finished.extend(p for p in partials if p[1])
            # Re-enumerate the body each round so client calls in later
            # iterations carry fresh frame identities.
            bodies = _run_stmt(state, stmt.body, frames, depth)
            partials = [
                (prefix + c + body, stopped)
                for prefix, was_stopped in partials
                if not was_stopped
                for c in conds
                for body, stopped in bodies
            ]
        finished.extend(p for p in partials if p[1])
        return finished
    raise TypeError(f"unhandled statement {stmt!r}")


def oracle_atomically_executed(program: Program) -> set[str]:
    """Standalone greatest fixpoint of the atomically-executed property."""
    callers: dict[str, set[str]] = {name: set() for name in program.client_methods}
    for name, method in program.client_methods.items():
        for stmt in _all_statements([method.body]):
            for call in _stmt_calls(stmt):
                if call.receiver is None and call.method in callers:
                    callers[call.method].add(name)
    entries = {
        name
        for name, m in program.client_methods.items()
        if m.is_thread or name == "main"
    }
    ae = set(program.client_methods)
    changed = True
    while changed:
        changed = False
        for name, method in program.client_methods.items():
            if name not in ae or method.is_atomic:
                continue
            exposed = name in entries or not callers[name]
            if exposed or any(c not in ae for c in callers[name]):
                ae.discard(name)
                changed = True
    return ae


def _all_statements(stmts):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, Block):
            yield from _all_statements(stmt.stmts)
        elif isinstance(stmt, If):
            yield from _all_statements([stmt.then])
            if stmt.orelse is not None:
                yield from _all_statements([stmt.orelse])
        elif isinstance(stmt, While):
            yield from _all_statements([stmt.body])


def _stmt_calls(stmt):
    expr = None
    if isinstance(stmt, ExprStmt):
        expr = stmt.call
    elif isinstance(stmt, Assign):
        expr = stmt.value
    elif isinstance(stmt, (If, While)):
        expr = stmt.cond
    if isinstance(expr, Call):
        yield expr


def oracle_results(
    program: Program, entry: str, word: tuple[str, ...], loop_bound: int = 2
) -> set[tuple[str, bool]]:
    """The reference answer set for one thread and one word.

    Each element is (lca method, violation?): the deepest shared frame of
    every contiguous occurrence of `word` in every bounded trace, paired with
    whether that frame's method fails the atomically-executed check.
    """
    ae = oracle_atomically_executed(program)
    found: set[tuple[str, bool]] = set()
    for trace in bounded_traces(program, entry, loop_bound):
        for start in range(len(trace) - len(word) + 1):
            window = trace[start : start + len(word)]
            if tuple(e.method for e in window) != word:
                continue
            lca = _lca_method(window)
            found.add((lca, lca not in ae))
    return found


def oracle_receiver_violations(
    program: Program, entry: str, word: tuple[str, ...], loop_bound: int = 2
) -> set[tuple[tuple[str, ...], str, tuple[int, ...]]]:
    """(word, lca method, call lines) of every violation of `word` on one
    module object, for programs whose receivers each hold one allocation.

    Every bounded trace is projected onto each receiver's calls, a call's
    line naming its receiver (callers keep one call per line); each
    contiguous occurrence of `word` in a projection whose deepest shared
    frame's method is not atomically executed is a violation.
    """
    receiver_of = {
        call.line: call.receiver
        for method in program.client_methods.values()
        for stmt in _all_statements([method.body])
        for call in _stmt_calls(stmt)
        if call.receiver is not None
    }
    ae = oracle_atomically_executed(program)
    found: set[tuple[tuple[str, ...], str, tuple[int, ...]]] = set()
    for trace in bounded_traces(program, entry, loop_bound):
        for receiver in set(receiver_of.values()):
            calls = [e for e in trace if receiver_of[e.line] == receiver]
            for start in range(len(calls) - len(word) + 1):
                window = calls[start : start + len(word)]
                if tuple(e.method for e in window) != word:
                    continue
                lca = _lca_method(window)
                if lca not in ae:
                    found.add((word, lca, tuple(e.line for e in window)))
    return found


def _lca_method(window: Sequence[TraceEvent]) -> str:
    """The method of the deepest frame every event of the window shares."""
    chains = [e.frames for e in window]
    prefix = 0
    while all(len(c) > prefix for c in chains) and len({c[prefix] for c in chains}) == 1:
        prefix += 1
    return chains[0][prefix - 1][0]


# ---------------------------------------------------------------------------
# Structural invariant on parse trees


def tree_word(tree: ParseTree) -> tuple[str, ...]:
    """Frontier of materialized terminals, left to right."""
    if tree.children is None:
        return (tree.symbol,)
    return tuple(sym for child in tree.children for sym in tree_word(child))


def tree_word_count(tree: ParseTree) -> int:
    if tree.children is None:
        return 1
    return sum(tree_word_count(c) for c in tree.children)


def assert_tree_pruned(tree: ParseTree) -> None:
    """Check no root-to-leaf path repeats a symbol without a new terminal.

    Recomputes subtree terminal counts from the leaves; a node whose symbol
    and count both match one of its ancestors means the derivation looped
    without consuming anything.
    """
    _walk_pruned(tree, frozenset())


def _walk_pruned(tree: ParseTree, seen: frozenset[tuple[str, int]]) -> None:
    if tree.children is None:
        return
    key = (tree.symbol, tree_word_count(tree))
    assert key not in seen, f"unproductive repetition of {key[0]} (count {key[1]})"
    for child in tree.children:
        _walk_pruned(child, seen | {key})


# ---------------------------------------------------------------------------
# The subword search with a record per branch and eagerly keyed trees


@dataclass(frozen=True, eq=False)
class ReferenceTree:
    """Node of a (possibly partial) parse, frozen, with its key built eagerly.

    Terminal leaves have children None.  elided_left/right count body symbols
    hypothesized rather than materialized: they stand for derivations outside
    the matched word.  count is the number of word terminals in the subtree.
    """

    symbol: str
    count: int
    production: Optional[int] = None
    children: Optional[tuple["ReferenceTree", ...]] = None
    site: Optional[CallSite] = None
    elided_left: int = 0
    elided_right: int = 0
    eq_syms: frozenset[str] = frozenset()
    z_syms: frozenset[str] = frozenset()
    key: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _reference_leaf(symbol: str, site: Optional[CallSite] = None) -> ReferenceTree:
    return ReferenceTree(
        symbol=symbol,
        count=1,
        site=site,
        key=("t", symbol, site.node if site else None, site.line if site else None),
    )


def reference_sites(tree: ReferenceTree) -> list[CallSite]:
    """The call sites the reference search gave the tree's leaves, in
    occurrence order, leaving out leaves without one."""
    out = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if node.children is not None:
            todo.extend(reversed(node.children))
        elif node.site is not None:
            out.append(node.site)
    return out


def reference_key(tree: ParseTree) -> tuple:
    """The `_key` the search sets on a tree it returns, built from scratch,
    from the tree's fields alone: `("t", symbol)` for a leaf, `("n",
    production, elided_left, elided_right, child keys)` for a node.  Built
    without recursing, as `sited_key` is."""
    order = []
    todo = [tree]
    while todo:
        node = todo.pop()
        order.append(node)
        if node.children is not None:
            todo.extend(node.children)
    keys: list[tuple] = []  # keys of the nodes met whose parent is not yet met
    for node in reversed(order):
        if node.children is None:
            keys.append(("t", node.symbol))
            continue
        first = len(keys) - len(node.children)
        children = tuple(keys[first:])
        del keys[first:]
        keys.append(("n", node.production, node.elided_left, node.elided_right, children))
    return keys[0]


def reference_leaf_sites(tree: ParseTree, grammar: BehaviorGrammar) -> list[CallSite]:
    """The call sites of the tree's leaves in the order `dump_tree` prints
    them, depth first and left to right, each read at the leaf's body
    position in its parent's production of `grammar`, leaving out leaves
    without one."""
    out = []
    todo = [(tree, None)]
    while todo:
        node, site = todo.pop()
        if node.children is None:
            if site is not None:
                out.append(site)
            continue
        sites = grammar.productions[node.production].sites
        at = node.elided_left
        todo += reversed([(child, sites[at + i]) for i, child in enumerate(node.children)])
    return out


def sited_key(tree: ParseTree, grammar: BehaviorGrammar) -> tuple:
    """The `ReferenceTree.key` of a search tree: its `reference_key` with
    each leaf keyed `("t", symbol, site node, site line)` by the call site
    at the leaf's body position in its parent's production of `grammar`.
    Built without recursing, from a walk that visits right children first,
    so that its reverse meets every node after its children, left to
    right."""
    order = []  # (node, its call site)
    todo = [(tree, None)]
    while todo:
        node, site = todo.pop()
        order.append((node, site))
        if node.children is not None:
            at = node.elided_left
            sites = grammar.productions[node.production].sites[at:at + len(node.children)]
            todo.extend(zip(node.children, sites))
    keys: list[tuple] = []  # keys of the nodes met whose parent is not yet met
    for node, site in reversed(order):
        if node.children is None:
            keys.append(("t", node.symbol, site.node if site else None, site.line if site else None))
            continue
        first = len(keys) - len(node.children)
        children = tuple(keys[first:])
        del keys[first:]
        keys.append(("n", node.production, node.elided_left, node.elided_right, children))
    return keys[0]


def _reference_make_node(
    head: str,
    production: int,
    children: tuple[ReferenceTree, ...],
    elided_left: int,
    elided_right: int,
) -> Optional[ReferenceTree]:
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
    return ReferenceTree(
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


def reference_reductions(
    table: ParseTable,
) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, int], ...]]]:
    """Per state of the table, its completable productions and its
    (production, dot) items with the dot mid-body, both sorted, leaving out
    the augmented rule."""
    prods = table.productions
    aug = len(prods) - 1
    complete = [
        tuple(sorted(pi for pi, dot in state if pi != aug and dot == len(prods[pi].body)))
        for state in table.states
    ]
    partial = [
        tuple(sorted((pi, dot) for pi, dot in state if pi != aug and 0 < dot < len(prods[pi].body)))
        for state in table.states
    ]
    return complete, partial


@dataclass(slots=True)
class _ReferenceBranch:
    stack: tuple[tuple[int, ReferenceTree], ...]  # (state, node)
    pos: int
    rec_depth: frozenset  # (under state, symbol, depth) seen since last shift
    rec_empty: frozenset  # (under state, symbol) of zero-count pushes since last shift


def reference_parse(
    table: ParseTable,
    word: tuple[str, ...],
    until_lca: bool,
    stats: Optional[ParseStats],
) -> list[ReferenceTree]:
    """The original search: a `_ReferenceBranch` record per branch, a frozen
    tree with its key per reduction, and the reduction candidates gathered
    on every branch from the table's item sets (`reference_reductions`)."""
    grammar = table.grammar
    n = len(word)
    if n == 0 or any(t not in grammar.terminals for t in word):
        return []
    complete, partial = reference_reductions(table)
    local = stats if stats is not None else ParseStats()
    out: list[ReferenceTree] = []
    seen_keys: set[tuple] = set()

    def emit(node: ReferenceTree) -> None:
        if node.key not in seen_keys:
            seen_keys.add(node.key)
            out.append(node)
            local.trees += 1

    work: list[_ReferenceBranch] = []
    for s in table.shift_states.get(word[0], ()):
        target = table.goto[(s, word[0])]
        work.append(
            _ReferenceBranch(
                stack=((target, _reference_leaf(word[0])),),
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
                    _ReferenceBranch(
                        stack=b.stack + ((target, _reference_leaf(word[b.pos])),),
                        pos=b.pos + 1,
                        rec_depth=frozenset(),
                        rec_empty=frozenset(),
                    )
                )
                local.branches += 1

        # reductions
        candidates: list[tuple[int, int]] = []
        if b.pos < n:
            for pi in complete[top_state]:
                candidates.append((pi, len(table.productions[pi].body)))
        else:
            for pi in complete[top_state]:
                body_len = len(table.productions[pi].body)
                if body_len > 0:  # epsilon subtrees right of the word are context
                    candidates.append((pi, body_len))
            candidates.extend(partial[top_state])

        for pi, dot in candidates:
            prod = table.productions[pi]
            m = len(b.stack)
            popped = min(dot, m)
            cells = b.stack[m - popped :]
            remaining = b.stack[: m - popped]
            elided_left = dot - popped
            children: list[ReferenceTree] = []
            for offset, (_, node) in enumerate(cells):
                body_pos = dot - popped + offset
                if node.is_leaf and node.site is None:
                    node = _reference_leaf(node.symbol, prod.sites[body_pos])
                children.append(node)
            node = _reference_make_node(
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
                    _ReferenceBranch(
                        stack=base + ((target, node),),
                        pos=b.pos,
                        rec_depth=rec_depth,
                        rec_empty=rec_empty,
                    )
                )
                local.branches += 1

    return out


# ---------------------------------------------------------------------------
# The LR(0) table built item by item


def reference_build_parse_table(grammar: BehaviorGrammar) -> ParseTable:
    """The original LR(0) construction: each state is closed from its
    kernel item by item, and found again by its whole item set."""
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

    lengths = [len(p.body) for p in prods]
    reduce_mid: list[tuple[tuple[Production, int, int], ...]] = []
    reduce_end: list[tuple[tuple[Production, int, int], ...]] = []
    for state in states:
        complete: list[int] = []
        partial: list[tuple[int, int]] = []
        for pi, dot in state:
            if dot == lengths[pi]:
                if pi != aug:
                    complete.append(pi)
            elif dot:
                partial.append((pi, dot))
        complete.sort()
        partial.sort()
        at_mid = tuple([(prods[pi], pi, lengths[pi]) for pi in complete])
        reduce_mid.append(at_mid)
        reduce_end.append(
            tuple([r for r in at_mid if r[2]] + [(prods[pi], pi, dot) for pi, dot in partial])
        )

    return ParseTable(
        grammar=grammar,
        productions=prods,
        states=tuple(states),
        goto=goto,
        shift_states={k: tuple(v) for k, v in shift_states.items()},
        goto_sources={k: tuple(v) for k, v in goto_sources.items()},
        reduce_mid=tuple(reduce_mid),
        reduce_end=tuple(reduce_end),
    )


# ---------------------------------------------------------------------------
# Parsing and resolving with a statement walk


_COMPARISONS = frozenset({"==", "!=", "<=", ">=", "<", ">"})


class _ReferenceParser:
    """The original recursive-descent parser, reading `Token` records."""

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0  # open blocks, statement bodies, expressions, operators

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Token | None = None) -> SourceSyntaxError:
        tok = tok or self.cur
        return SourceSyntaxError(message, self.filename, tok.line, tok.column)

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.tokens[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def nest(self) -> None:
        """Open a nesting level, closed by `self.depth -= 1` or by restoring a
        saved depth (errors end the parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        want = text if text is not None else kind
        raise self.error(f"expected {want!r}, found {t.text!r}")

    # -- declarations ------------------------------------------------------

    def program(self, source_name: str) -> Program:
        classes: list[ClassDecl] = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        return Program(classes, source_name, {}, {}, {}, {})

    def class_decl(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name = self.expect("ident").text
        contract_text = None
        if self.accept("kw", "contract"):
            contract_text = self.contract_body()
        self.expect("punct", "{")
        methods: list[MethodDecl] = []
        while not self.accept("punct", "}"):
            methods.append(self.method_decl(name))
        return ClassDecl(name=name, methods=methods, contract_text=contract_text, line=kw.line)

    def contract_body(self) -> str:
        # Clause strings are kept verbatim; the contract parser reads them.
        self.expect("punct", "{")
        clauses: list[str] = []
        while not self.accept("punct", "}"):
            s = self.expect("string")
            clauses.append(f'"{s.text}"')
            if not self.accept("punct", ";") and not self.at("punct", "}"):
                raise self.error("expected ';' or '}' after clause")
        return "; ".join(clauses)

    def method_decl(self, class_name: str) -> MethodDecl:
        is_atomic = is_thread = False
        first = self.cur
        while True:
            if self.accept("kw", "atomic"):
                is_atomic = True
            elif self.accept("kw", "thread"):
                is_thread = True
            else:
                break
        return_type = self.expect("ident").text
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: list[Param] = []
        if not self.at("punct", ")"):
            while True:
                a = self.expect("ident").text
                if self.at("ident"):
                    params.append(Param(name=self.expect("ident").text, type_name=a))
                else:
                    params.append(Param(name=a))
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        body = self.block()
        return MethodDecl(
            name=name,
            params=tuple(params),
            return_type=return_type,
            body=body,
            is_atomic=is_atomic,
            is_thread=is_thread,
            class_name=class_name,
            line=first.line,
        )

    # -- statements --------------------------------------------------------

    def block(self) -> Block:
        self.nest()
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        while not self.accept("punct", "}"):
            stmts.append(self.statement())
        self.depth -= 1
        return Block(stmts)

    def statement(self) -> Stmt:
        t = self.tokens[self.pos]
        if t.kind == "ident":  # most statements: a call, assignment or increment
            self.pos += 1
            name = t.text
            if self.accept("punct", "="):
                value = self.expression(call_ok=True)
                self.expect("punct", ";")
                return Assign(target=name, value=value, declares=False, line=t.line)
            if self.accept("punct", "++"):
                self.expect("punct", ";")
                return Increment(target=name, line=t.line)
            call = self.call_suffix(name, t)
            self.expect("punct", ";")
            return ExprStmt(call=call, line=t.line)
        if t.kind == "punct" and t.text == "{":
            return self.block()
        if self.accept("kw", "if"):
            self.expect("punct", "(")
            cond = self.expression(call_ok=True)
            self.expect("punct", ")")
            self.nest()
            then = self.statement()
            orelse = self.statement() if self.accept("kw", "else") else None
            self.depth -= 1
            return If(cond=cond, then=then, orelse=orelse, line=t.line)
        if self.accept("kw", "while"):
            self.expect("punct", "(")
            cond = self.expression(call_ok=True)
            self.expect("punct", ")")
            self.nest()
            body = self.statement()
            self.depth -= 1
            return While(cond=cond, body=body, line=t.line)
        if self.accept("kw", "return"):
            value = None
            if not self.at("punct", ";"):
                value = self.expression(call_ok=False)
            self.expect("punct", ";")
            return Return(value=value, line=t.line)
        if self.accept("kw", "var"):
            name = self.expect("ident").text
            value: Expr = CondExpr()
            if self.accept("punct", "="):
                value = self.expression(call_ok=True)
            self.expect("punct", ";")
            return Assign(target=name, value=value, declares=True, line=t.line)
        raise self.error(f"unexpected token {t.text!r}")

    def call_suffix(self, name: str, t: Token) -> Call:
        if self.accept("punct", "."):
            method = self.expect("ident").text
            args = self.call_args()
            return Call(receiver=name, method=method, args=args, line=t.line, column=t.column)
        if self.at("punct", "("):
            args = self.call_args()
            return Call(receiver=None, method=name, args=args, line=t.line, column=t.column)
        raise self.error("expected call")

    def call_args(self) -> tuple[Expr, ...]:
        self.nest()
        self.expect("punct", "(")
        args: list[Expr] = []
        if not self.at("punct", ")"):
            while True:
                args.append(self.expression(call_ok=False))
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        self.depth -= 1
        return tuple(args)

    # -- expressions ---------------------------------------------------------
    # Calls are parsed inside primaries; `call_ok` admits one call at the top
    # of the expression, nothing deeper.

    def expression(self, call_ok: bool) -> Expr:
        e = self.ternary()
        if _reference_contains_call(e) and not (call_ok and isinstance(e, Call)):
            raise self.error("calls are only allowed as a statement, assignment source, or condition")
        return e

    def ternary(self) -> Expr:
        self.nest()  # every (sub)expression: parentheses, call arguments, branches
        c = self.logic()
        if self.accept("punct", "?"):
            then = self.ternary()
            self.expect("punct", ":")
            c = Ternary(cond=c, then=then, other=self.ternary())
        self.depth -= 1
        return c

    # Each operator of a chain opens a level: the chain builds a left-deep
    # `Binary`, and the recursive expression walks descend one call per node.
    # The loops stay inline: a shared chain helper would add Python frames per
    # level, and 100 levels of parentheses would overflow the recursion limit.

    def logic(self) -> Expr:
        e = self.comparison()
        depth = self.depth
        while self.at("punct", "&&") or self.at("punct", "||"):
            op = self.expect("punct").text
            self.nest()
            e = Binary(op=op, left=e, right=self.comparison())
        self.depth = depth
        return e

    def comparison(self) -> Expr:
        e = self.additive()
        t = self.tokens[self.pos]
        if t.kind == "punct" and t.text in _COMPARISONS:
            self.pos += 1
            return Binary(op=t.text, left=e, right=self.additive())
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        depth = self.depth
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.expect("punct").text
            self.nest()
            e = Binary(op=op, left=e, right=self.multiplicative())
        self.depth = depth
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        depth = self.depth
        while self.at("punct", "*"):
            self.expect("punct", "*")
            self.nest()
            e = Binary(op="*", left=e, right=self.unary())
        self.depth = depth
        return e

    def unary(self) -> Expr:
        if self.at("punct", "!") or self.at("punct", "-"):
            op = self.expect("punct").text
            self.nest()
            operand = self.unary()
            self.depth -= 1
            return Unary(op=op, operand=operand)
        return self.primary()

    def primary(self) -> Expr:
        t = self.cur
        if self.accept("int"):
            try:
                return IntLit(int(t.text))
            except ValueError:  # a non-ASCII digit, or more digits than int() converts
                raise self.error("invalid integer literal", t) from None
        if self.accept("kw", "cond"):
            return CondExpr()
        if self.accept("kw", "new"):
            cls = self.expect("ident").text
            self.expect("punct", "(")
            self.expect("punct", ")")
            return New(class_name=cls)
        if self.accept("punct", "("):
            e = self.ternary()
            self.expect("punct", ")")
            return e
        if self.at("ident"):
            name = self.expect("ident").text
            if self.at("punct", "(") or self.at("punct", "."):
                return self.call_suffix(name, t)
            return Name(id=name)
        raise self.error(f"expected expression, found {t.text!r}")


def _reference_contains_call(e: Expr) -> bool:
    if isinstance(e, Call):
        return True
    if isinstance(e, Unary):
        return _reference_contains_call(e.operand)
    if isinstance(e, Binary):
        return _reference_contains_call(e.left) or _reference_contains_call(e.right)
    if isinstance(e, Ternary):
        return (
            _reference_contains_call(e.cond)
            or _reference_contains_call(e.then)
            or _reference_contains_call(e.other)
        )
    return False


def _reference_resolve(program: Program, filename: str) -> None:
    """The original resolver: fills the indexes, walking every client
    statement for `new` class names, calls, locals and value flows."""
    seen_classes: set[str] = set()
    for c in program.classes:
        if c.name in seen_classes:
            raise DuplicateMethodError(f"duplicate class {c.name!r}")
        seen_classes.add(c.name)
        names: set[str] = set()
        for m in c.methods:
            if m.name in names:
                raise DuplicateMethodError(f"duplicate method {c.name}.{m.name}")
            names.add(m.name)

    for c in program.client_classes:
        for m in c.methods:
            if m.name in program.client_methods:
                other = program.client_methods[m.name]
                raise DuplicateMethodError(
                    f"client method {m.name!r} declared in both "
                    f"{other.class_name} and {c.name}; bare calls must be unambiguous"
                )
            program.client_methods[m.name] = m

    module_methods = {m.name for c in program.modules for m in c.methods}
    class_names = {c.name for c in program.classes}
    for c in program.client_classes:
        for m in c.methods:
            calls = program.calls[m.name] = []
            flows = program.flows[m.name] = []
            names = {p.name for p in m.params}
            for stmt in iter_method_statements(m):
                if isinstance(stmt, Assign):
                    flows.append((stmt.target, stmt.value, stmt.line))
                    if stmt.declares:
                        names.add(stmt.target)
                elif isinstance(stmt, Return) and stmt.value is not None:
                    flows.append((RETURN_SLOT, stmt.value, stmt.line))
                elif statement_call(stmt) is not None:
                    flows.append((None, statement_call(stmt), stmt.line))
                # The statement's own expressions (not those of nested
                # statements), pre-order, left to right.
                if isinstance(stmt, (If, While)):
                    todo = [stmt.cond]
                elif isinstance(stmt, (Assign, Return)) and stmt.value is not None:
                    todo = [stmt.value]
                elif isinstance(stmt, ExprStmt):
                    todo = [stmt.call]
                else:
                    todo = []
                while todo:
                    e = todo.pop()
                    if isinstance(e, New):
                        if e.class_name not in class_names:
                            raise UnresolvedMethodError(
                                f"unknown class {e.class_name!r} in new "
                                f"(at {filename}:{_reference_line_of(stmt)})"
                            )
                    elif isinstance(e, Binary):
                        todo += (e.right, e.left)
                    elif isinstance(e, Call):
                        todo += reversed(e.args)
                    elif isinstance(e, Unary):
                        todo.append(e.operand)
                    elif isinstance(e, Ternary):
                        todo += (e.other, e.then, e.cond)
                call = statement_call(stmt)
                if call is None:
                    continue
                calls.append(call)
                if call.receiver is None:
                    callee = program.client_methods.get(call.method)
                    if callee is not None:
                        given, wanted = len(call.args), len(callee.params)
                        if given != wanted:
                            message = f"{call.method}() takes {wanted} argument(s), got {given}"
                            raise SourceSyntaxError(message, filename, call.line, call.column)
                        continue
                    if call.method in module_methods:
                        raise UnresolvedMethodError(
                            f"{filename}:{call.line}: module method {call.method!r} needs a receiver"
                        )
                    raise UnresolvedMethodError(
                        f"{filename}:{call.line}: no client method named {call.method!r}"
                    )
                if call.method not in module_methods:
                    raise UnresolvedMethodError(
                        f"{filename}:{call.line}: no module declares method {call.method!r}"
                    )
            program.local_names[m.name] = frozenset(names)


def _reference_line_of(stmt: Stmt) -> int:
    return getattr(stmt, "line", 0)


def reference_parse_program(text: str, filename: str = "<string>") -> Program:
    """`parse_program` as it was first written: `_ReferenceParser` over the
    `Token`s of `reference_tokenize`, then `_reference_resolve`."""
    parser = _ReferenceParser(reference_tokenize(text, filename), filename)
    program = parser.program(source_name=filename)
    _reference_resolve(program, filename)
    return program
