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

    def __init__(self, id: str):
        self.id = id


class IntLit(HashableRecord):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class CondExpr(HashableRecord):
    """Opaque nondeterministic value (the `cond` keyword)."""

    __slots__ = ()


class New(HashableRecord):
    __slots__ = ("class_name",)

    def __init__(self, class_name: str):
        self.class_name = class_name


class Unary(HashableRecord):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand


class Binary(HashableRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class Ternary(HashableRecord):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr):
        self.cond = cond
        self.then = then
        self.other = other


class Call(Record):
    """A call expression.  receiver None means a bare (client) call."""

    __slots__ = ("receiver", "method", "args", "line", "column")

    def __init__(self, receiver: Optional[str], method: str, args: tuple[Expr, ...], line: int,
                 column: int):
        self.receiver = receiver
        self.method = method
        self.args = args
        self.line = line
        self.column = column


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

    def __init__(self, stmts: list[Stmt]):
        self.stmts = stmts


class If(Record):
    __slots__ = ("cond", "then", "orelse", "line")

    def __init__(self, cond: Expr, then: Stmt, orelse: Optional[Stmt], line: int):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.line = line


class While(Record):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: Expr, body: Stmt, line: int):
        self.cond = cond
        self.body = body
        self.line = line


class Return(Record):
    __slots__ = ("value", "line")

    def __init__(self, value: Optional[Expr], line: int):
        self.value = value
        self.line = line


class Assign(Record):
    """`x = e;` or `var x = e;` (declares=True)."""

    __slots__ = ("target", "value", "declares", "line")

    def __init__(self, target: str, value: Expr, declares: bool, line: int):
        self.target = target
        self.value = value
        self.declares = declares
        self.line = line


class Increment(Record):
    __slots__ = ("target", "line")

    def __init__(self, target: str, line: int):
        self.target = target
        self.line = line


class ExprStmt(Record):
    __slots__ = ("call", "line")

    def __init__(self, call: Call, line: int):
        self.call = call
        self.line = line


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

    def __init__(self, name: str, type_name: Optional[str] = None):
        self.name = name
        self.type_name = type_name


class MethodDecl(Record):
    __slots__ = (
        "name", "params", "return_type", "body", "is_atomic", "is_thread", "class_name", "line"
    )

    def __init__(self, name: str, params: tuple[Param, ...], return_type: str, body: Block,
                 is_atomic: bool, is_thread: bool, class_name: str, line: int):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.is_atomic = is_atomic
        self.is_thread = is_thread
        self.class_name = class_name
        self.line = line


class ClassDecl(Record):
    __slots__ = ("name", "methods", "contract_text", "line")

    def __init__(self, name: str, methods: list[MethodDecl], contract_text: Optional[str],
                 line: int):
        self.name = name
        self.methods = methods
        self.contract_text = contract_text  # raw annotation body, None for client classes
        self.line = line

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
    __slots__ = (
        "classes", "source_name", "client_methods", "module_methods", "calls", "local_names",
        "flows",
    )

    def __init__(self, classes: list[ClassDecl], source_name: str,
                 client_methods: Optional[dict[str, MethodDecl]] = None,
                 module_methods: Optional[dict[str, list[str]]] = None,
                 calls: Optional[dict[str, list[Call]]] = None,
                 local_names: Optional[dict[str, frozenset[str]]] = None,
                 flows: Optional[dict[str, list[Flow]]] = None):
        self.classes = classes
        self.source_name = source_name
        # Resolution indexes, filled by the parser:
        self.client_methods = {} if client_methods is None else client_methods
        # name -> module classes
        self.module_methods = {} if module_methods is None else module_methods
        self.calls = {} if calls is None else calls  # client method -> calls, in order
        # client method -> its formals and `var`-declared names
        self.local_names = {} if local_names is None else local_names
        # client method -> its assignments, returns with a value, call
        # statements and call conditions, in statement order (outer first)
        self.flows = {} if flows is None else flows

    @property
    def modules(self) -> list[ClassDecl]:
        return [c for c in self.classes if c.is_module]

    @property
    def client_classes(self) -> list[ClassDecl]:
        return [c for c in self.classes if not c.is_module]
