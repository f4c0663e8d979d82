"""Allocation sites and a flow-insensitive may-point-to analysis.

Variables are method-scoped when they are formals or `var`-declared; any
other name is a shared global.  Only module-class allocations are tracked;
everything else is opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend.parser import iter_method_statements, statement_call
from .frontend.syntax import (
    Assign,
    Call,
    ClassDecl,
    Expr,
    MethodDecl,
    Name,
    New,
    Program,
    Return,
    Ternary,
)

__all__ = [
    "AllocationSite",
    "PointsToResult",
    "collect_allocation_sites",
    "compute_pointsto",
    "module_alloc_sites",
]

RETURN_SLOT = "@return"


@dataclass(frozen=True, slots=True)
class AllocationSite:
    """One `new ModuleClass()` expression in client code."""

    index: int
    class_name: str
    method: str  # client method containing the allocation
    file: str
    line: int

    @property
    def label(self) -> str:
        return f"{self.class_name}@{self.file}:{self.line}"


def method_locals(method: MethodDecl) -> frozenset[str]:
    names = {p.name for p in method.params}
    for stmt in iter_method_statements(method):
        if isinstance(stmt, Assign) and stmt.declares:
            names.add(stmt.target)
    return frozenset(names)


@dataclass(slots=True)
class PointsToResult:
    sites: list[AllocationSite]
    may: dict[str, frozenset[int]]
    _locals: dict[str, frozenset[str]] = field(default_factory=dict)

    def var_key(self, method: str, name: str) -> str:
        if name in self._locals.get(method, frozenset()):
            return f"{method}:{name}"
        return name

    def may_sites(self, method: str, name: str) -> frozenset[int]:
        return self.may.get(self.var_key(method, name), frozenset())


def _collect(program: Program) -> tuple[list[AllocationSite], dict[int, AllocationSite]]:
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


def collect_allocation_sites(program: Program) -> list[AllocationSite]:
    return _collect(program)[0]


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


def compute_pointsto(program: Program) -> PointsToResult:
    """May-point-to sets per variable, as allocation-site indexes.

    Assignments, argument passing, and returns copy sets; the analysis
    iterates to a fixpoint and ignores control flow.
    """
    locals_of = {name: method_locals(m) for name, m in program.client_methods.items()}
    result = PointsToResult(sites=[], may={}, _locals=locals_of)
    sites, by_expr = _collect(program)
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


def module_alloc_sites(
    program: Program,
    methods: list[str],
    module: ClassDecl,
    pointsto: PointsToResult,
) -> list[AllocationSite]:
    """Sites of the module that some receiver in `methods` may point to."""
    module_method_names = {m.name for m in module.methods}
    hit: set[int] = set()
    for name in methods:
        for call in program.calls[name]:
            if call.receiver is None or call.method not in module_method_names:
                continue
            for idx in pointsto.may_sites(name, call.receiver):
                if pointsto.sites[idx].class_name == module.name:
                    hit.add(idx)
    return [pointsto.sites[i] for i in sorted(hit)]
