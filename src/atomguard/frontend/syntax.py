"""AST for the mini-language.

A program is a list of classes.  Classes carrying a contract annotation are
*modules*: their methods define the call alphabet and their bodies are
ignored by the analysis.  All other classes are client code.
"""

from __future__ import annotations

from typing import Optional, Union

from ..records import HashableRecord, Record

# --------------------------------------------------------------------------
# expressions


class Name(HashableRecord):
    __slots__ = ("id",)


class IntLit(HashableRecord):
    __slots__ = ("value",)


class CondExpr(HashableRecord):
    """Opaque nondeterministic value (the `cond` keyword)."""

    __slots__ = ()


class New(HashableRecord):
    __slots__ = ("class_name",)


class Unary(HashableRecord):
    __slots__ = ("op", "operand")


class Binary(HashableRecord):
    __slots__ = ("op", "left", "right")


class Ternary(HashableRecord):
    __slots__ = ("cond", "then", "other")


class Call(Record):
    """A call expression.  receiver None means a bare (client) call."""

    __slots__ = ("receiver", "method", "args", "line", "column")


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


class Block(Record):
    __slots__ = ("stmts",)


class If(Record):
    __slots__ = ("cond", "then", "orelse", "line")


class While(Record):
    __slots__ = ("cond", "body", "line")


class Return(Record):
    __slots__ = ("value", "line")


class Assign(Record):
    """`x = e;` or `var x = e;` (declares=True)."""

    __slots__ = ("target", "value", "declares", "line")


class Increment(Record):
    __slots__ = ("target", "line")


class ExprStmt(Record):
    __slots__ = ("call", "line")


Stmt = Union[Block, If, While, Return, Assign, Increment, ExprStmt]


def statement_call(stmt: Stmt) -> Optional[Call]:
    """The call performed by this statement, if any."""
    if isinstance(stmt, ExprStmt):
        return stmt.call
    if isinstance(stmt, Assign) and isinstance(stmt.value, Call):
        return stmt.value
    if isinstance(stmt, (If, While)) and isinstance(stmt.cond, Call):
        return stmt.cond
    return None


# --------------------------------------------------------------------------
# declarations


class Param(HashableRecord):
    __slots__ = ("name", "type_name")
    _defaults = {"type_name": None}


class MethodDecl(Record):
    __slots__ = (
        "name", "params", "return_type", "body", "is_atomic", "is_thread", "class_name", "line"
    )


class ClassDecl(Record):
    # contract_text: the raw annotation body, None for client classes
    __slots__ = ("name", "methods", "contract_text", "line")

    @property
    def is_module(self) -> bool:
        return self.contract_text is not None


# Where a `return`'s value goes in `Program.flows`: no variable has this name.
RETURN_SLOT = "@return"

# A statement whose value goes somewhere, as `Program.flows` records it:
# (destination, value, statement line).  The destination is the assigned
# variable, RETURN_SLOT, or None for a call statement or call condition.
Flow = tuple[Optional[str], Expr, int]


class Program(Record):
    # client_methods: name -> method, the index the parser resolves calls by
    # calls: client method -> calls, in order
    # local_names: client method -> its formals and `var`-declared names
    # flows: client method -> its assignments, returns with a value, call
    # statements and call conditions, in statement order (outer first)
    __slots__ = ("classes", "source_name", "client_methods", "calls", "local_names", "flows")

    @property
    def modules(self) -> list[ClassDecl]:
        return [c for c in self.classes if c.is_module]

    @property
    def client_classes(self) -> list[ClassDecl]:
        return [c for c in self.classes if not c.is_module]
