"""AST for the mini-language.

A program is a list of classes.  Classes carrying a contract annotation are
*modules*: their methods define the call alphabet and their bodies are
ignored by the analysis.  All other classes are client code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

# --------------------------------------------------------------------------
# expressions


@dataclass(frozen=True, slots=True)
class Name:
    id: str


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class CondExpr:
    """Opaque nondeterministic value (the `cond` keyword)."""


@dataclass(frozen=True, slots=True)
class New:
    class_name: str


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    """A call expression.  receiver None means a bare (client) call."""

    receiver: Optional[str]
    method: str
    args: tuple["Expr", ...]
    line: int
    column: int


Expr = Union[Name, IntLit, CondExpr, New, Unary, Binary, Ternary, Call]


def expr_text(e: Expr) -> str:
    """Canonical rendering used for syntactic term comparison.

    Parentheses are not recorded, so `(o)` and `o` render identically;
    operator spacing is normalized.
    """
    if isinstance(e, Name):
        return e.id
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, CondExpr):
        return "cond"
    if isinstance(e, New):
        return f"new {e.class_name}()"
    if isinstance(e, Unary):
        return f"{e.op}{expr_text(e.operand)}"
    if isinstance(e, Binary):
        return f"{expr_text(e.left)} {e.op} {expr_text(e.right)}"
    if isinstance(e, Ternary):
        return f"{expr_text(e.cond)} ? {expr_text(e.then)} : {expr_text(e.other)}"
    if isinstance(e, Call):
        args = ", ".join(expr_text(a) for a in e.args)
        recv = f"{e.receiver}." if e.receiver else ""
        return f"{recv}{e.method}({args})"
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# statements


@dataclass(slots=True)
class Block:
    stmts: list["Stmt"]


@dataclass(slots=True)
class If:
    cond: Expr
    then: "Stmt"
    orelse: Optional["Stmt"]
    line: int


@dataclass(slots=True)
class While:
    cond: Expr
    body: "Stmt"
    line: int


@dataclass(slots=True)
class Return:
    value: Optional[Expr]
    line: int


@dataclass(slots=True)
class Assign:
    """`x = e;` or `var x = e;` (declares=True)."""

    target: str
    value: Expr
    declares: bool
    line: int


@dataclass(slots=True)
class Increment:
    target: str
    line: int


@dataclass(slots=True)
class ExprStmt:
    call: Call
    line: int


Stmt = Union[Block, If, While, Return, Assign, Increment, ExprStmt]


# --------------------------------------------------------------------------
# declarations


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    type_name: Optional[str] = None


@dataclass(slots=True)
class MethodDecl:
    name: str
    params: tuple[Param, ...]
    return_type: str
    body: Block
    is_atomic: bool
    is_thread: bool
    class_name: str
    line: int


@dataclass(slots=True)
class ClassDecl:
    name: str
    methods: list[MethodDecl]
    contract_text: Optional[str]  # raw annotation body, None for client classes
    line: int

    @property
    def is_module(self) -> bool:
        return self.contract_text is not None

    def method(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass(slots=True)
class Program:
    classes: list[ClassDecl]
    source_name: str
    # Resolution indexes, filled by the parser:
    client_methods: dict[str, MethodDecl] = field(default_factory=dict)
    module_methods: dict[str, list[str]] = field(default_factory=dict)  # name -> module classes
    calls: dict[str, list[Call]] = field(default_factory=dict)  # client method -> calls, in order

    @property
    def modules(self) -> list[ClassDecl]:
        return [c for c in self.classes if c.is_module]

    @property
    def client_classes(self) -> list[ClassDecl]:
        return [c for c in self.classes if not c.is_module]

    def class_named(self, name: str) -> Optional[ClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None
