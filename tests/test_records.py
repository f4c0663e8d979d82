"""The record types the package exports: how they are constructed, compared,
hashed and printed.  Reports, dedup and tests rely on each of these."""

from __future__ import annotations

import pytest

from atomguard import (
    AllocationSite,
    BehaviorGrammar,
    CallAtom,
    CallSequence,
    CallSite,
    Cfg,
    CfgNode,
    Check,
    Clause,
    Contract,
    MethodDecl,
    ParseStats,
    ParseTable,
    ParseTree,
    PointsToResult,
    Production,
    Program,
    RunStats,
    Task,
    Violation,
)
from atomguard.cli import Config
from atomguard.frontend import (
    Assign,
    Binary,
    Block,
    Call,
    ClassDecl,
    CondExpr,
    ExprStmt,
    If,
    Increment,
    IntLit,
    Name,
    New,
    Param,
    Return,
    Ternary,
    Token,
    Unary,
    While,
)

# (class, its fields in constructor order, the defaults of the trailing ones)
RECORDS = [
    (Name, "id", {}),
    (IntLit, "value", {}),
    (CondExpr, "", {}),
    (New, "class_name", {}),
    (Unary, "op operand", {}),
    (Binary, "op left right", {}),
    (Ternary, "cond then other", {}),
    (Call, "receiver method args line column", {}),
    (Block, "stmts", {}),
    (If, "cond then orelse line", {}),
    (While, "cond body line", {}),
    (Return, "value line", {}),
    (Assign, "target value declares line", {}),
    (Increment, "target line", {}),
    (ExprStmt, "call line", {}),
    (Param, "name type_name", {"type_name": None}),
    (MethodDecl, "name params return_type body is_atomic is_thread class_name line", {}),
    (ClassDecl, "name methods contract_text line", {}),
    (Program, "classes source_name client_methods module_methods calls",
     {"client_methods": {}, "module_methods": {}, "calls": {}}),
    (Token, "kind text line column", {}),
    (CfgNode, "index kind line succ call result_var stmt",
     {"succ": [], "call": None, "result_var": None, "stmt": None}),
    (Cfg, "method nodes", {}),
    (AllocationSite, "index class_name method file line", {}),
    (PointsToResult, "sites may _locals", {"_locals": {}}),
    (CallAtom, "method result_var args", {"result_var": None, "args": None}),
    (CallSequence, "atoms", {}),
    (Clause, "text seq", {}),
    (Contract, "clauses", {}),
    (CallSite, "node method file line receiver args result", {}),
    (Production, "head body sites", {}),
    (BehaviorGrammar, "start terminals productions label", {"label": ""}),
    (ParseTable,
     "grammar productions states goto shift_states goto_sources reduce_mid reduce_end", {}),
    (ParseStats, "branches trees", {"branches": 0, "trees": 0}),
    (Violation, "clause word thread site calls lca_symbol lca_method suggestion", {}),
    (RunStats, "grammars trees branches", {"grammars": 0, "trees": 0, "branches": 0}),
    (Task, "module unit site grammar words drop", {"drop": None}),
    (Check, "task table trees stats", {}),
    (Config, "class_scope points_to fmt dumps max_clause_len color",
     {"class_scope": False, "points_to": True, "fmt": "text", "dumps": set(),
      "max_clause_len": 16, "color": False}),
]
# Unfrozen records compare by value but are unhashable, as the README says of
# `Token` and `Call`; frozen ones hash by their fields.
UNHASHABLE = {
    Call, Block, If, While, Return, Assign, Increment, ExprStmt, MethodDecl,
    ClassDecl, Program, Token, CfgNode, Cfg, PointsToResult, ParseStats,
    RunStats, Config,
}


def fields_of(cls, names):
    """Distinct hashable values, one per field (`Production` needs its sites
    aligned with its body)."""
    if cls is Production:
        return ("h", ("a", "b"), (None, None))
    return tuple(f"{name}-value" for name in names.split())


@pytest.fixture(params=RECORDS, ids=lambda r: r[0].__name__)
def record(request):
    cls, names, defaults = request.param
    return cls, names.split(), fields_of(cls, names), defaults


def test_positional_and_keyword_construction(record):
    cls, names, values, _ = record
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, name) for name in names) == values


def test_defaults(record):
    cls, names, values, defaults = record
    required = values[: len(names) - len(defaults)]
    first, second = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(first, name) == default, name
        if isinstance(default, (list, dict, set)):  # a fresh container each
            assert getattr(first, name) is not getattr(second, name), name
    with pytest.raises(TypeError):
        cls(*values, "one too many")


def test_value_equality(record):
    cls, names, values, _ = record
    assert cls(*values) == cls(*values)
    if names and cls is not Production:
        assert cls(*values) != cls("other", *values[1:])
    assert cls(*values) != values


def test_hash(record):
    cls, _, values, _ = record
    if cls in UNHASHABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(cls(*values))
    else:
        assert hash(cls(*values)) == hash(cls(*values)) == hash(values)


def test_repr(record):
    cls, names, values, _ = record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_hash_of_the_call_records_used_as_keys():
    site = CallSite("t.1", "a", "f.mg", 3, "m", ("x",), None)
    assert hash(site) == hash(CallSite("t.1", "a", "f.mg", 3, "m", ("x",), None))
    assert {CallAtom("a", "X", ("_",)), CallAtom("a", "X", ("_",))} == {CallAtom("a", "X", ("_",))}
    assert hash(AllocationSite(0, "M", "t", "f.mg", 2)) == hash(AllocationSite(0, "M", "t", "f.mg", 2))
    assert hash(Param("p", "M")) == hash(Param("p", "M"))
    with pytest.raises(TypeError):
        hash(Token("ident", "x", 1, 1))
    with pytest.raises(TypeError):
        hash(Call(None, "f", (), 1, 1))


def test_parse_tree_compares_by_identity():
    first, second = ParseTree("a", 1), ParseTree("a", 1)
    assert first == first and first != second
    assert len({first, second}) == 2
    tree = ParseTree("t.1", 1, production=2, children=(first,), elided_left=1, elided_right=0,
                     eq_syms=frozenset({"t.1"}), z_syms=frozenset())
    assert (tree.production, tree.children, tree.elided_left, tree.eq_syms) == (
        2, (first,), 1, frozenset({"t.1"}))
    assert (first.production, first.children) == (None, None)
    assert not hasattr(first, "site"), "a leaf's call site is its parent production's"
    assert (first.elided_left, first.elided_right) == (0, 0)
    assert first.eq_syms == first.z_syms == frozenset()
    assert repr(tree) == "ParseTree('t.1', count=1, production=2, elided=1/0, 1 children)"


def test_production_sites_align_with_the_body():
    assert Production("h", ("a",)).sites == (None,)
    assert Production("h", ()).sites == ()
    with pytest.raises(ValueError):
        Production("h", ("a", "b"), (None,))
    with pytest.raises(ValueError):
        Production("h", (), (None,))


def test_grammar_indexes_are_computed_from_its_productions():
    a, b = Production("s", ("x", "t")), Production("t", ())
    grammar = BehaviorGrammar("s", frozenset({"x"}), (a, b))
    assert grammar.nonterminals == frozenset({"s", "t"})
    assert grammar.by_head == {"s": (a,), "t": (b,)}
    assert grammar.by_head is grammar.by_head
    assert grammar == BehaviorGrammar("s", frozenset({"x"}), (a, b))
