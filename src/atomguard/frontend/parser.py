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

The parser reads the scanner's tuples.  A call statement spelled `x.m();`
comes as one fused `("call", "x", line, column, "m")` tuple (see `lexer`),
which `call_statement` turns into the statement in one step: a block's loop
calls it for such a tuple directly, `statement` elsewhere.  Anywhere else it
parses as the six tokens it stands for: `primary` takes it as the call and
leaves the `;` in its slot, and where a bare name goes `expect` splits it
into the six (`_Parser.unfuse`).  With no nesting level left for its
argument list, `call_statement` and `primary` raise the error the six
tokens would, at the `(`.

Blocks, `if`/`while` bodies, expressions, call argument lists, unary
operators and each `&&`/`||`, `+`/`-` and `*` of an operator chain nest at
most MAX_NESTING levels, counted together (a method body is level 1); deeper
input is a syntax error, not a recursion overflow.
"""

from __future__ import annotations

from ..errors import DuplicateMethodError, SourceSyntaxError, UnresolvedMethodError
from .lexer import _Lexeme, _scan, unfuse
from .syntax import (
    Assign,
    Binary,
    Block,
    Call,
    ClassDecl,
    CondExpr,
    Expr,
    ExprStmt,
    Flow,
    If,
    Increment,
    IntLit,
    MethodDecl,
    Name,
    New,
    Param,
    Program,
    RETURN_SLOT,
    Return,
    Stmt,
    Ternary,
    Unary,
    While,
    statement_call,
)

__all__ = ["iter_method_statements", "parse_program", "statement_call"]

MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"

_COMPARISONS = frozenset({"==", "!=", "<=", ">=", "<", ">"})

# A client `new` as parsed: (class name, statement line, its method's calls,
# how many of them precede the statement's own call)
_New = tuple[str, int, list[Call], int]


class _Parser:
    def __init__(self, tokens: list[_Lexeme], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0  # open blocks, statement bodies, expressions, operators
        # Recorded as parsed, for `_resolve`: client methods' calls in statement
        # order (a module method's `method_calls` are dropped), client `new`s;
        # for points-to: client methods' locals and value flows (`Program.flows`)
        self.calls: dict[str, list[Call]] = {}
        self.news: list[_New] = []
        self.method_calls: list[Call] = []
        self.local_names: dict[str, frozenset[str]] = {}
        self.method_locals: set[str] = set()
        self.flows: dict[str, list[Flow]] = {}
        self.method_flows: list[Flow] = []
        self.client = False  # parsing a client class
        self.line = 0  # of the statement being parsed

    # -- token helpers ----------------------------------------------------

    def error(self, message: str, tok: _Lexeme | None = None) -> SourceSyntaxError:
        tok = tok or self.tokens[self.pos]
        return SourceSyntaxError(message, self.filename, tok[2], tok[3])

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t[0] == kind and (text is None or t[1] == text)

    def accept(self, kind: str, text: str | None = None) -> _Lexeme | None:
        t = self.tokens[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def nest(self) -> None:
        """Open a nesting level, closed by `self.depth -= 1` or by restoring a
        saved depth (errors end the parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(_TOO_DEEP)

    def expect(self, kind: str, text: str | None = None) -> _Lexeme:
        t = self.tokens[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        if t[0] == "call" and kind == "ident":  # a name: the call's receiver
            self.unfuse()
            return self.expect(kind, text)
        want = text if text is not None else kind
        raise self.error(f"expected {want!r}, found {t[1]!r}")

    def unfuse(self) -> None:
        """Put the six tokens of the fused call statement at `pos` in its
        place.  Only a syntax error follows: this is called where the `.`
        after the receiver is one, so a parse moves the token list at most
        once."""
        self.tokens[self.pos : self.pos + 1] = unfuse(self.tokens[self.pos])

    # -- declarations ------------------------------------------------------

    def program(self, source_name: str) -> Program:
        classes: list[ClassDecl] = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        return Program(classes, source_name, {}, {}, self.calls, self.local_names, self.flows)

    def class_decl(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name = self.expect("ident")[1]
        contract_text = None
        if self.accept("kw", "contract"):
            contract_text = self.contract_body()
        self.client = contract_text is None  # a module's bodies go unchecked
        self.expect("punct", "{")
        methods: list[MethodDecl] = []
        while not self.accept("punct", "}"):
            methods.append(self.method_decl(name))
        return ClassDecl(name, methods, contract_text, kw[2])

    def contract_body(self) -> str:
        # Clause strings are kept verbatim; the contract parser reads them.
        self.expect("punct", "{")
        clauses: list[str] = []
        while not self.accept("punct", "}"):
            s = self.expect("string")
            clauses.append(f'"{s[1]}"')
            if not self.accept("punct", ";") and not self.at("punct", "}"):
                raise self.error("expected ';' or '}' after clause")
        return "; ".join(clauses)

    def method_decl(self, class_name: str) -> MethodDecl:
        is_atomic = is_thread = False
        first = self.tokens[self.pos]
        while True:
            if self.accept("kw", "atomic"):
                is_atomic = True
            elif self.accept("kw", "thread"):
                is_thread = True
            else:
                break
        return_type = self.expect("ident")[1]
        name = self.expect("ident")[1]
        self.method_calls = []
        self.method_flows = []
        if self.client:
            self.calls[name] = self.method_calls
            self.flows[name] = self.method_flows
        self.expect("punct", "(")
        params: list[Param] = []
        if not self.at("punct", ")"):
            while True:
                a = self.expect("ident")[1]
                if self.at("ident") or self.at("call"):
                    params.append(Param(self.expect("ident")[1], a))
                else:
                    params.append(Param(a))
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        self.method_locals = {p.name for p in params}
        body = self.block()
        if self.client:
            self.local_names[name] = frozenset(self.method_locals)
        return MethodDecl(
            name, tuple(params), return_type, body, is_atomic, is_thread, class_name, first[2]
        )

    # -- statements --------------------------------------------------------

    def block(self) -> Block:
        self.nest()
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        tokens = self.tokens
        call_statement = self.call_statement
        while True:
            t = tokens[self.pos]
            if t[0] == "call":
                stmts.append(call_statement(t))
            elif t[0] == "punct" and t[1] == "}":
                break
            else:
                stmts.append(self.statement())
        self.pos += 1
        self.depth -= 1
        return Block(stmts)

    def call_statement(self, t: _Lexeme) -> ExprStmt:
        """The commonest statement, `x.m();`, from its fused tuple `t` at `pos`."""
        if self.depth >= MAX_NESTING:  # no level left for the argument list
            raise self.error(_TOO_DEEP, unfuse(t)[3])
        self.pos += 1
        line = t[2]
        call = Call(t[1], t[4], (), line, t[3])
        self.method_calls.append(call)
        self.method_flows.append((None, call, line))
        return ExprStmt(call, line)

    def statement(self) -> Stmt:
        t = self.tokens[self.pos]
        self.line = line = t[2]
        if t[0] == "call":
            return self.call_statement(t)
        if t[0] == "ident":  # most other statements: a call, assignment or increment
            self.pos += 1
            name = t[1]
            op = self.tokens[self.pos]
            if op[0] == "punct" and op[1] == "=":
                self.pos += 1
                value = self.expression(call_ok=True)
                self.expect("punct", ";")
                self.method_flows.append((name, value, line))
                return Assign(name, value, False, line)
            if op[0] == "punct" and op[1] == "++":
                self.pos += 1
                self.expect("punct", ";")
                return Increment(name, line)
            call = self.call_suffix(name, t)
            self.expect("punct", ";")
            self.method_calls.append(call)
            self.method_flows.append((None, call, line))
            return ExprStmt(call, line)
        if t[0] == "punct" and t[1] == "{":
            return self.block()
        if self.accept("kw", "if"):
            self.expect("punct", "(")
            cond = self.expression(call_ok=True)
            self.expect("punct", ")")
            if cond.__class__ is Call:
                self.method_flows.append((None, cond, line))
            self.nest()
            then = self.statement()
            orelse = self.statement() if self.accept("kw", "else") else None
            self.depth -= 1
            return If(cond, then, orelse, line)
        if self.accept("kw", "while"):
            self.expect("punct", "(")
            cond = self.expression(call_ok=True)
            self.expect("punct", ")")
            if cond.__class__ is Call:
                self.method_flows.append((None, cond, line))
            self.nest()
            body = self.statement()
            self.depth -= 1
            return While(cond, body, line)
        if self.accept("kw", "return"):
            value = None
            if not self.at("punct", ";"):
                value = self.expression(call_ok=False)
                self.method_flows.append((RETURN_SLOT, value, line))
            self.expect("punct", ";")
            return Return(value, line)
        if self.accept("kw", "var"):
            name = self.expect("ident")[1]
            value: Expr = CondExpr()
            if self.accept("punct", "="):
                value = self.expression(call_ok=True)
            self.expect("punct", ";")
            self.method_locals.add(name)
            self.method_flows.append((name, value, line))
            return Assign(name, value, True, line)
        raise self.error(f"unexpected token {t[1]!r}")

    def call_suffix(self, name: str, t: _Lexeme) -> Call:
        if self.accept("punct", "."):
            method = self.expect("ident")[1]
            return Call(name, method, self.call_args(), t[2], t[3])
        if self.at("punct", "("):
            return Call(None, name, self.call_args(), t[2], t[3])
        raise self.error("expected call")

    def call_args(self) -> tuple[Expr, ...]:
        self.nest()
        self.expect("punct", "(")
        if self.accept("punct", ")"):
            self.depth -= 1
            return ()
        args: list[Expr] = []
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
        if call_ok and e.__class__ is Call:  # the statement's call
            self.method_calls.append(e)
        elif _contains_call(e):
            raise self.error("calls are only allowed as a statement, assignment source, or condition")
        return e

    def ternary(self) -> Expr:
        self.nest()  # every (sub)expression: parentheses, call arguments, branches
        c = self.logic()
        if self.accept("punct", "?"):
            then = self.ternary()
            self.expect("punct", ":")
            c = Ternary(c, then, self.ternary())
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
            op = self.expect("punct")[1]
            self.nest()
            e = Binary(op, e, self.comparison())
        self.depth = depth
        return e

    def comparison(self) -> Expr:
        e = self.additive()
        t = self.tokens[self.pos]
        if t[0] == "punct" and t[1] in _COMPARISONS:
            self.pos += 1
            return Binary(t[1], e, self.additive())
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        depth = self.depth
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.expect("punct")[1]
            self.nest()
            e = Binary(op, e, self.multiplicative())
        self.depth = depth
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        depth = self.depth
        while self.at("punct", "*"):
            self.expect("punct", "*")
            self.nest()
            e = Binary("*", e, self.unary())
        self.depth = depth
        return e

    def unary(self) -> Expr:
        if self.at("punct", "!") or self.at("punct", "-"):
            op = self.expect("punct")[1]
            self.nest()
            operand = self.unary()
            self.depth -= 1
            return Unary(op, operand)
        return self.primary()

    def primary(self) -> Expr:
        t = self.tokens[self.pos]
        kind = t[0]
        if kind == "ident":
            self.pos += 1
            if self.at("punct", "(") or self.at("punct", "."):
                return self.call_suffix(t[1], t)
            return Name(t[1])
        if kind == "call":  # `x.m()`, and its statement's `;` left in its slot
            six = unfuse(t)
            if self.depth >= MAX_NESTING:  # no level left for the argument list
                raise self.error(_TOO_DEEP, six[3])
            self.tokens[self.pos] = six[5]
            return Call(t[1], t[4], (), t[2], t[3])
        if kind == "int":
            self.pos += 1
            try:
                return IntLit(int(t[1]))
            except ValueError:  # a non-ASCII digit, or more digits than int() converts
                raise self.error("invalid integer literal", t) from None
        if self.accept("kw", "cond"):
            return CondExpr()
        if self.accept("kw", "new"):
            cls = self.expect("ident")[1]
            self.expect("punct", "(")
            self.expect("punct", ")")
            if self.client:
                self.news.append((cls, self.line, self.method_calls, len(self.method_calls)))
            return New(cls)
        if self.accept("punct", "("):
            e = self.ternary()
            self.expect("punct", ")")
            return e
        raise self.error(f"expected expression, found {t[1]!r}")


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


def iter_method_statements(method: MethodDecl):
    """All statements of a method body, outermost first."""
    todo: list[Stmt] = [method.body]
    while todo:
        stmt = todo.pop()
        yield stmt
        if isinstance(stmt, Block):
            todo += reversed(stmt.stmts)
        elif isinstance(stmt, If):
            todo += (stmt.then,) if stmt.orelse is None else (stmt.orelse, stmt.then)
        elif isinstance(stmt, While):
            todo.append(stmt.body)


def _resolve(program: Program, filename: str, news: list[_New]) -> None:
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

    # The first error in statement order: a statement's `new`s come before
    # its call.  The first `new` of an unknown class stops its method's
    # calls before its statement's own.
    class_names = {c.name for c in program.classes}
    unknown = next((new for new in news if new[0] not in class_names), None)
    for calls in program.calls.values():
        checked = calls[: unknown[3]] if unknown is not None and unknown[2] is calls else calls
        for call in checked:
            if call.receiver is None:
                callee = program.client_methods.get(call.method)
                if callee is not None:
                    given, wanted = len(call.args), len(callee.params)
                    if given != wanted:
                        message = f"{call.method}() takes {wanted} argument(s), got {given}"
                        raise SourceSyntaxError(message, filename, call.line, call.column)
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
        if checked is not calls:
            raise UnresolvedMethodError(
                f"unknown class {unknown[0]!r} in new (at {filename}:{unknown[1]})"
            )


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse and resolve a program.

    Raises SourceSyntaxError for malformed text, DuplicateMethodError for
    colliding declarations, UnresolvedMethodError for calls that match no
    declaration.
    """
    parser = _Parser(_scan(text, filename), filename)
    program = parser.program(source_name=filename)
    _resolve(program, filename, parser.news)
    return program
