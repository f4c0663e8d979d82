"""Per-method control-flow graphs.

Every statement that performs a call gets its own node, so each node carries
at most one call.  Branch nodes keep their successor order stable: branch
body first, fall-through last.  A return, written or the one a body falls
through to, is the one kind of node without successors.
"""

from __future__ import annotations

from ..records import Record
from .syntax import (
    Assign,
    Block,
    ExprStmt,
    If,
    Increment,
    MethodDecl,
    Return,
    Stmt,
    While,
    statement_call,
)

__all__ = ["CfgNode", "build_cfg"]


class CfgNode(Record):
    # call: the statement's call, if it makes one
    # result_var: the variable receiving the call result
    __slots__ = ("index", "succ", "call", "result_var")


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[CfgNode] = [CfgNode(0, [], None, None)]  # the entry

    def lower_stmt(self, stmt: Stmt) -> tuple[int | None, list[int]]:
        """Returns (entry index or None if the statement is empty, exits).

        Exits are node indexes whose successor list still needs the index of
        whatever comes next.
        """
        nodes = self.nodes
        index = len(nodes)
        if stmt.__class__ is ExprStmt:  # the commonest statement, a call
            nodes.append(CfgNode(index, [], stmt.call, None))
            return index, [index]
        if isinstance(stmt, Block):
            return self.lower_seq(stmt.stmts)
        if isinstance(stmt, Return):
            nodes.append(CfgNode(index, [], None, None))
            return index, []
        if not isinstance(stmt, (If, While, Assign, Increment)):
            raise TypeError(f"not a statement: {stmt!r}")
        call = statement_call(stmt)
        result_var = stmt.target if call is not None and stmt.__class__ is Assign else None
        node = CfgNode(index, [], call, result_var)
        nodes.append(node)
        if isinstance(stmt, If):
            exits: list[int] = []
            for branch in (stmt.then, stmt.orelse):
                b_entry, b_exits = (None, []) if branch is None else self.lower_stmt(branch)
                if b_entry is None:  # no branch, or an empty one: falls through
                    exits.append(index)
                else:
                    node.succ.append(b_entry)
                    exits.extend(b_exits)
            return index, exits
        if isinstance(stmt, While):
            b_entry, b_exits = self.lower_stmt(stmt.body)
            node.succ.append(b_entry if b_entry is not None else index)
            for e in b_exits:
                self._wire(e, index)
        return index, [index]

    def _wire(self, source: int, target: int) -> None:
        succ = self.nodes[source].succ
        if target not in succ:
            succ.append(target)

    def lower_seq(self, stmts: list[Stmt]) -> tuple[int | None, list[int]]:
        nodes = self.nodes
        entry: int | None = None
        exits: list[int] = []
        for s in stmts:
            s_entry, s_exits = self.lower_stmt(s)
            if s_entry is None:
                continue
            if entry is None:
                entry = s_entry
            for e in exits:
                succ = nodes[e].succ
                if s_entry not in succ:
                    succ.append(s_entry)
            exits = s_exits
        return entry, exits

    def build(self, method: MethodDecl) -> list[CfgNode]:
        nodes = self.nodes
        b_entry, exits = self.lower_seq(method.body.stmts)
        if b_entry is None or exits:  # the body falls through to a return
            ret = len(nodes)
            nodes.append(CfgNode(ret, [], None, None))
            for e in exits:
                self._wire(e, ret)
            if b_entry is None:
                b_entry = ret
        nodes[0].succ.append(b_entry)
        return nodes


def build_cfg(method: MethodDecl) -> list[CfgNode]:
    """The control-flow graph of one method body, as its nodes by index.

    The graph has exactly one entry node (index 0) and at least one return
    node; every path from the entry reaches a return unless it loops forever.
    """
    return _Builder().build(method)
