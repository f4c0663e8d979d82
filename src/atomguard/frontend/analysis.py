"""Thread entry discovery and the atomically-executed method set."""

from __future__ import annotations

from .syntax import MethodDecl, Program

__all__ = ["find_thread_entries", "compute_atomically_executed"]


def find_thread_entries(program: Program) -> list[MethodDecl]:
    """Client methods that start threads: `thread` methods plus `main`."""
    entries = []
    for name in sorted(program.client_methods):
        m = program.client_methods[name]
        if m.is_thread or m.name == "main":
            entries.append(m)
    return entries


def compute_atomically_executed(program: Program) -> set[str]:
    """Greatest fixpoint of the atomically-executed client methods.

    A method is atomically executed when it is atomic itself, or when it is
    called somewhere and every caller is atomically executed.  Thread entry
    methods run with no caller, so a non-atomic entry is never in the set;
    so is a method with no call sites at all.
    """
    entries = {m.name for m in find_thread_entries(program)}
    callers: dict[str, list[str]] = {name: [] for name in program.client_methods}
    for name, calls in program.calls.items():
        for call in calls:
            if call.receiver is None:
                callers[call.method].append(name)
    methods = program.client_methods
    ae = set(methods)
    changed = True
    while changed:
        changed = False
        for name, m in methods.items():
            if name not in ae:
                continue
            if m.is_atomic:
                continue
            if name in entries or not callers[name] or any(c not in ae for c in callers[name]):
                ae.discard(name)
                changed = True
    return ae
