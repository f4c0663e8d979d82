"""Recursive-descent parser and name resolution for the mini-language.

Grammar (informal):

    program   := class_decl*
    class     := "class" IDENT [contract] "{" method* "}"
    contract  := "contract" "{" (STRING ";")* [STRING] "}"
    method    := ("atomic"|"thread")* TYPE IDENT "(" [params] ")" block
    stmt      := block | if | while | return | var | assign | incr | call ";"

Calls may appear only as a whole statement, as the direct right-hand side
of an assignment, or as the direct condition of `if`/`while`.  That keeps
every call on its own control-flow node.

Blocks, `if`/`while` bodies, expressions, call argument lists, unary
operators and each `&&`/`||`, `+`/`-` and `*` of an operator chain nest at
most MAX_NESTING levels, counted together (a method body is level 1); deeper
input is a syntax error, not a recursion overflow.
"""

from __future__ import annotations

from ..errors import DuplicateMethodError, SourceSyntaxError, UnresolvedMethodError
from .lexer import Token, tokenize
from .syntax import (
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
)

__all__ = ["parse_program"]

MAX_NESTING = 100


class _Parser:
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
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            t = self.cur
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
        t = self.accept(kind, text)
        if t is None:
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {self.cur.text!r}")
        return t

    # -- declarations ------------------------------------------------------

    def program(self, source_name: str) -> Program:
        classes: list[ClassDecl] = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        return Program(classes=classes, source_name=source_name)

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
        t = self.cur
        if self.at("punct", "{"):
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
        if self.at("ident"):
            name = self.expect("ident").text
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
        if _contains_call(e) and not (call_ok and isinstance(e, Call)):
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
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.at("punct", op):
                self.expect("punct", op)
                return Binary(op=op, left=e, right=self.additive())
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
            return IntLit(int(t.text))
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


def _contains_call(e: Expr) -> bool:
    if isinstance(e, Call):
        return True
    if isinstance(e, Unary):
        return _contains_call(e.operand)
    if isinstance(e, Binary):
        return _contains_call(e.left) or _contains_call(e.right)
    if isinstance(e, Ternary):
        return _contains_call(e.cond) or _contains_call(e.then) or _contains_call(e.other)
    return False


# --------------------------------------------------------------------------
# resolution


def _iter_statements(stmt: Stmt):
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from _iter_statements(s)
    elif isinstance(stmt, If):
        yield from _iter_statements(stmt.then)
        if stmt.orelse is not None:
            yield from _iter_statements(stmt.orelse)
    elif isinstance(stmt, While):
        yield from _iter_statements(stmt.body)


def iter_method_statements(method: MethodDecl):
    """All statements of a method body, outermost first."""
    yield from _iter_statements(method.body)


def statement_call(stmt: Stmt) -> Call | None:
    """The call performed by this statement, if any."""
    if isinstance(stmt, ExprStmt):
        return stmt.call
    if isinstance(stmt, Assign) and isinstance(stmt.value, Call):
        return stmt.value
    if isinstance(stmt, (If, While)) and isinstance(stmt.cond, Call):
        return stmt.cond
    return None


def _iter_exprs(e: Expr):
    yield e
    if isinstance(e, Unary):
        yield from _iter_exprs(e.operand)
    elif isinstance(e, Binary):
        yield from _iter_exprs(e.left)
        yield from _iter_exprs(e.right)
    elif isinstance(e, Ternary):
        yield from _iter_exprs(e.cond)
        yield from _iter_exprs(e.then)
        yield from _iter_exprs(e.other)
    elif isinstance(e, Call):
        for a in e.args:
            yield from _iter_exprs(a)


def statement_exprs(stmt: Stmt):
    """Every expression appearing in the statement (not recursing into blocks)."""
    if isinstance(stmt, (If, While)):
        yield from _iter_exprs(stmt.cond)
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield from _iter_exprs(stmt.value)
    elif isinstance(stmt, Assign):
        yield from _iter_exprs(stmt.value)
    elif statement_call(stmt) is not None:
        yield from _iter_exprs(statement_call(stmt))


def _resolve(program: Program, filename: str) -> None:
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

    for c in program.modules:
        for m in c.methods:
            program.module_methods.setdefault(m.name, []).append(c.name)

    class_names = {c.name for c in program.classes}
    for c in program.client_classes:
        for m in c.methods:
            calls = program.calls[m.name] = []
            for stmt in iter_method_statements(m):
                for e in statement_exprs(stmt):
                    if isinstance(e, New) and e.class_name not in class_names:
                        raise UnresolvedMethodError(
                            f"unknown class {e.class_name!r} in new (at {filename}:{_line_of(stmt)})"
                        )
                call = statement_call(stmt)
                if call is None:
                    continue
                calls.append(call)
                if call.receiver is None:
                    if call.method in program.client_methods:
                        continue
                    if call.method in program.module_methods:
                        raise UnresolvedMethodError(
                            f"{filename}:{call.line}: module method {call.method!r} needs a receiver"
                        )
                    raise UnresolvedMethodError(
                        f"{filename}:{call.line}: no client method named {call.method!r}"
                    )
                if call.method not in program.module_methods:
                    raise UnresolvedMethodError(
                        f"{filename}:{call.line}: no module declares method {call.method!r}"
                    )


def _line_of(stmt: Stmt) -> int:
    return getattr(stmt, "line", 0)


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse and resolve a program.

    Raises SourceSyntaxError for malformed text, DuplicateMethodError for
    colliding declarations, UnresolvedMethodError for calls that match no
    declaration.
    """
    tokens = tokenize(text, filename)
    parser = _Parser(tokens, filename)
    program = parser.program(source_name=filename)
    _resolve(program, filename)
    return program
