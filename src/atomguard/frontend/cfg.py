"""Per-method control-flow graphs.

Every statement that performs a call gets its own node, so each node carries
at most one call.  Branch nodes keep their successor order stable: branch
body first, fall-through last.
"""

from __future__ import annotations

import enum
from typing import Optional

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

__all__ = ["NodeKind", "CfgNode", "build_cfg"]


class NodeKind(enum.Enum):
    ENTRY = "entry"
    RETURN = "return"
    MODULE_CALL = "module_call"
    CLIENT_CALL = "client_call"
    OTHER = "other"


class CfgNode(Record):
    # result_var: the variable receiving the call result
    __slots__ = ("index", "kind", "line", "succ", "call", "result_var", "stmt")


class _Builder:
    def __init__(self, method: MethodDecl):
        self.method = method
        self.nodes: list[CfgNode] = []

    def new_node(self, kind: NodeKind, line: int, stmt: Stmt | None = None) -> CfgNode:
        node = CfgNode(len(self.nodes), kind, line, [], None, None, stmt)
        self.nodes.append(node)
        return node

    def stmt_node(self, stmt: Stmt) -> CfgNode:
        """The node of a statement other than a block or return, carrying the
        statement's call if it makes one."""
        call = statement_call(stmt)
        if call is None:
            return self.new_node(NodeKind.OTHER, stmt.line, stmt)
        kind = NodeKind.MODULE_CALL if call.receiver is not None else NodeKind.CLIENT_CALL
        result_var = stmt.target if stmt.__class__ is Assign else None
        node = CfgNode(len(self.nodes), kind, stmt.line, [], call, result_var, stmt)
        self.nodes.append(node)
        return node

    def lower_stmt(self, stmt: Stmt) -> tuple[Optional[int], list[int]]:
        """Returns (entry index or None if the statement is empty, exits).

        Exits are node indexes whose successor list still needs the index of
        whatever comes next.
        """
        if stmt.__class__ is ExprStmt:  # the commonest statement, a call
            call = stmt.call
            index = len(self.nodes)
            kind = NodeKind.MODULE_CALL if call.receiver is not None else NodeKind.CLIENT_CALL
            self.nodes.append(CfgNode(index, kind, stmt.line, [], call, None, stmt))
            return index, [index]
        if isinstance(stmt, Block):
            return self.lower_seq(stmt.stmts)
        if isinstance(stmt, Return):
            node = self.new_node(NodeKind.RETURN, stmt.line, stmt)
            return node.index, []
        if isinstance(stmt, If):
            node = self.stmt_node(stmt)
            exits: list[int] = []
            t_entry, t_exits = self.lower_stmt(stmt.then)
            if t_entry is None:
                exits.append(node.index)
            else:
                node.succ.append(t_entry)
                exits.extend(t_exits)
            if stmt.orelse is None:
                exits.append(node.index)
            else:
                e_entry, e_exits = self.lower_stmt(stmt.orelse)
                if e_entry is None:
                    exits.append(node.index)
                else:
                    node.succ.append(e_entry)
                    exits.extend(e_exits)
            return node.index, exits
        if isinstance(stmt, While):
            node = self.stmt_node(stmt)
            b_entry, b_exits = self.lower_stmt(stmt.body)
            self._wire(node.index, b_entry if b_entry is not None else node.index)
            for e in b_exits:
                self._wire(e, node.index)
            return node.index, [node.index]
        if isinstance(stmt, (Assign, Increment)):
            node = self.stmt_node(stmt)
            return node.index, [node.index]
        raise TypeError(f"not a statement: {stmt!r}")

    def _wire(self, source: int, target: int) -> None:
        succ = self.nodes[source].succ
        if target not in succ:
            succ.append(target)

    def lower_seq(self, stmts: list[Stmt]) -> tuple[Optional[int], list[int]]:
        nodes = self.nodes
        entry: Optional[int] = None
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

    def build(self) -> list[CfgNode]:
        entry = self.new_node(NodeKind.ENTRY, self.method.line)
        b_entry, exits = self.lower_seq(self.method.body.stmts)
        if b_entry is None:
            ret = self.new_node(NodeKind.RETURN, self.method.line)
            entry.succ.append(ret.index)
            return self.nodes
        entry.succ.append(b_entry)
        if exits:
            ret = self.new_node(NodeKind.RETURN, self.method.line)
            for e in exits:
                self._wire(e, ret.index)
        return self.nodes


def build_cfg(method: MethodDecl) -> list[CfgNode]:
    """The control-flow graph of one method body, as its nodes by index.

    The graph has exactly one entry node (index 0) and at least one return
    node; every path from the entry reaches a return unless it loops forever.
    """
    return _Builder(method).build()
