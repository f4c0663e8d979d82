"""Allocation sites and a flow-insensitive may-point-to analysis.

Variables are method-scoped when they are formals or `var`-declared; any
other name is a shared global.  Only module-class allocations are tracked;
everything else is opaque.
"""

from __future__ import annotations

from .frontend.syntax import RETURN_SLOT, Call, ClassDecl, Expr, Name, New, Program, Ternary
from .records import HashableRecord, Record

__all__ = [
    "AllocationSite",
    "PointsToResult",
    "compute_pointsto",
    "module_alloc_sites",
]


class AllocationSite(HashableRecord):
    """One `new ModuleClass()` expression in client code."""

    # method: the client method containing the allocation
    __slots__ = ("index", "class_name", "method", "file", "line")

    @property
    def label(self) -> str:
        return f"{self.class_name}@{self.file}:{self.line}"


_NONE: frozenset = frozenset()


class PointsToResult(Record):
    __slots__ = ("sites", "may", "_locals")

    def var_key(self, method: str, name: str) -> str:
        if name in self._locals.get(method, _NONE):
            return f"{method}:{name}"
        return name

    def may_sites(self, method: str, name: str) -> frozenset[int]:
        return self.may.get(self.var_key(method, name), _NONE)


def compute_pointsto(program: Program) -> PointsToResult:
    """May-point-to sets per variable, as allocation-site indexes.

    Assignments, argument passing, and returns copy sets; the analysis
    iterates to a fixpoint and ignores control flow.  It reads each client
    method's locals and value flows as the parser recorded them
    (`Program.local_names` and `Program.flows`), and walks each flow's
    expression for the allocation sites (numbered in statement order, then
    depth first) and the value flows, whose variables get their keys once
    every method's locals are known.
    """
    module_names = {c.name for c in program.modules}
    result = PointsToResult(sites=[], may={}, _locals=program.local_names)
    # A variable is (method, name) until its key is known; the return slot
    # is always method-scoped.
    seeds: list[tuple[tuple[str, str], int]] = []  # (variable, site index)
    copies: list[tuple[tuple[str, str], tuple[str, str]]] = []  # (source, dest)

    # The expressions still to walk, last first, each with where its value
    # goes (None: nowhere).  An explicit stack, not a nested function that
    # calls itself: such a function holds itself through its closure, and
    # with it the program, until the cyclic garbage collector runs.
    todo: list[tuple[tuple[str, str] | None, Expr]] = []
    for method, flows in program.flows.items():
        for dest, value, line in flows:
            todo.append((None if dest is None else (method, dest), value))
            while todo:
                dest_var, e = todo.pop()
                if isinstance(e, Ternary):
                    todo += ((dest_var, e.other), (dest_var, e.then))
                elif isinstance(e, New) and e.class_name in module_names:
                    site = AllocationSite(
                        len(result.sites), e.class_name, method, program.source_name, line
                    )
                    result.sites.append(site)
                    if dest_var is not None:
                        seeds.append((dest_var, site.index))
                elif isinstance(e, Name) and dest_var is not None:
                    copies.append(((method, e.id), dest_var))
                elif isinstance(e, Call):
                    params: list[tuple[str, str]] = []
                    if e.receiver is None:
                        if dest_var is not None:
                            copies.append(((e.method, RETURN_SLOT), dest_var))
                        params = [(e.method, p.name) for p in program.client_methods[e.method].params]
                    for i in reversed(range(len(e.args))):
                        todo.append((params[i] if i < len(params) else None, e.args[i]))

    def key(var: tuple[str, str]) -> str:
        method, name = var
        return f"{method}:{name}" if name == RETURN_SLOT else result.var_key(method, name)

    may: dict[str, set[int]] = {}
    for var, idx in seeds:
        may.setdefault(key(var), set()).add(idx)
    keyed = [(key(src), key(dest)) for src, dest in copies]
    changed = True
    while changed:
        changed = False
        for src, dest in keyed:
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
    may: set[int] = set()
    for name in methods:
        receivers = {
            call.receiver for call in program.calls[name]
            if call.receiver is not None and call.method in module_method_names
        }
        for receiver in receivers:
            may |= pointsto.may_sites(name, receiver)
    return [pointsto.sites[i] for i in sorted(may) if pointsto.sites[i].class_name == module.name]
