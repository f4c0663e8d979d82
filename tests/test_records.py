"""The package's record types: how they are constructed, compared, hashed
and printed.  Reports, dedup and tests rely on each of these."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import atomguard

from atomguard import parse_program
from atomguard.frontend.cfg import CfgNode
from atomguard.frontend.syntax import (
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
    MethodDecl,
    Name,
    New,
    Param,
    Program,
    Return,
    Ternary,
    Unary,
    While,
)
from atomguard.contracts import CallAtom, CallSequence, Clause, _Group, _Seq
from atomguard.glr import ParseStats, ParseTable, ParseTree
from atomguard.grammar import BehaviorGrammar, CallSite, Production, SiteDrop, _LoweredNode
from atomguard.pointsto import AllocationSite, PointsToResult, compute_pointsto
from atomguard.records import HashableRecord, Record
from atomguard.verifier import (
    Check,
    RunStats,
    Task,
    Violation,
    _Unit,
    classify_stage,
    grammar_stage,
    search_stage,
    simplify_stage,
)
from conftest import CORPUS

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
    (Program, "classes source_name client_methods calls local_names flows", {}),
    (CfgNode, "index succ call result_var", {}),
    (AllocationSite, "index class_name method file line", {}),
    (PointsToResult, "sites may _locals", {}),
    (CallAtom, "method result_var args", {"result_var": None, "args": None}),
    (_Group, "branches", {}),
    (_Seq, "items", {}),
    (CallSequence, "atoms", {}),
    (Clause, "text seq", {}),
    (CallSite, "node method file line args result", {}),
    (Production, "head body sites", {}),
    (BehaviorGrammar, "start terminals productions", {}),
    (_LoweredNode, "call calls _skips", {}),
    (SiteDrop, "tracked own", {}),
    (ParseTable,
     "grammar productions states goto shift_states goto_sources reduce_mid reduce_end", {}),
    (ParseStats, "branches trees", {"branches": 0, "trees": 0}),
    (Violation, "clause word thread site calls lca_symbol lca_method suggestion", {}),
    (RunStats, "grammars trees branches", {"grammars": 0, "trees": 0, "branches": 0}),
    (Task, "module unit site grammar words drop", {"drop": None}),
    (Check, "task table trees stats", {}),
    (_Unit, "label roots scope class_decl", {}),
]
# Unfrozen records compare by value but are unhashable, as the README says of
# `Call`; frozen ones hash by their fields.
UNHASHABLE = {
    Call, Block, If, While, Return, Assign, Increment, ExprStmt, MethodDecl,
    ClassDecl, Program, CfgNode, PointsToResult, ParseStats,
    RunStats, _LoweredNode, _Unit, ParseTable, Check,
}


def all_records() -> set[type]:
    """Every `Record` subclass the package defines, each module but
    `__main__` imported."""
    for module in pkgutil.walk_packages(atomguard.__path__, "atomguard."):
        if module.name != "atomguard.__main__":
            importlib.import_module(module.name)
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("atomguard."):
                found.add(sub)
    return found - {HashableRecord}


def test_every_record_is_pinned():
    pinned = {cls for cls, _, _ in RECORDS}
    assert sorted(c.__qualname__ for c in all_records() - pinned) == []
    assert len(pinned) == len(RECORDS) == 39


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


def test_constructor_reads_as_the_class_own(record):
    cls, names, _, defaults = record
    if names:
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__
    if len(defaults) < len(names):
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing"):
            cls()


# The records that write their own constructor; `Record` derives the others'.
OWN_INIT = {Production}


def test_a_derived_constructor_runs_the_written_out_bytecode(record):
    cls, names, _, defaults = record
    if cls in OWN_INIT or not names:
        assert ("__init__" in cls.__dict__) == (cls in OWN_INIT)
        return
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    self.{name} = {name}\n" for name in names), namespace)
    written, derived = namespace["__init__"].__code__, cls.__init__.__code__
    assert derived.co_code == written.co_code
    assert (derived.co_varnames, derived.co_names) == (written.co_varnames, written.co_names)
    assert cls.__init__.__defaults__ == tuple(defaults.values())


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


def reached_records(*roots) -> list[Record]:
    """Every record `roots` reach through record fields and containers
    (tuples, lists, sets and dicts' keys and values), each once."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found.append(obj)
            todo += obj._values(obj)
        elif isinstance(obj, dict):
            todo += [*obj, *obj.values()]
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo += obj
    return found


def test_the_records_of_a_real_check_hash_as_their_class_says():
    # the four stages of one check, each stage's records kept, and the
    # points-to result the first one reads
    program = parse_program((CORPUS / "local_counter.bad.mg").read_text(), "local_counter.bad.mg")
    tasks = list(grammar_stage(program))
    simplified = list(simplify_stage(tasks))
    checks = list(search_stage(simplified))
    violations, stats = classify_stage(program, checks)
    assert violations
    records = reached_records(
        program, compute_pointsto(program), tasks, simplified, checks, violations, stats)
    for r in records:
        if isinstance(r, HashableRecord):
            assert hash(r) == hash(r._values(r)), r
        else:
            with pytest.raises(TypeError):
                hash(r)
    assert {type(r) for r in records if isinstance(r, HashableRecord)} >= {
        Name, IntLit, New, Param, AllocationSite, CallAtom, _Seq, CallSequence, Clause,
        CallSite, Production, BehaviorGrammar, Task, Violation,
    }
    assert {Program, Check, ParseTable} <= {type(r) for r in records}


def test_repr(record):
    cls, names, values, _ = record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


def test_a_mutable_or_misplaced_default_is_rejected():
    for mutable in ([], {}, set()):
        with pytest.raises(ValueError, match="mutable default"):
            class Shared(Record):
                __slots__ = ("name", "items")
                _defaults = {"items": mutable}
    with pytest.raises(TypeError, match="last fields"):
        class Gap(Record):
            __slots__ = ("name", "items")
            _defaults = {"name": None}

    class Frozen(Record):
        __slots__ = ("name", "items")
        _defaults = {"items": ()}

    assert Frozen("n").items == () and Frozen("n", (1,)).items == (1,)


def test_hash_of_the_call_records_used_as_keys():
    site = CallSite("t.1", "a", "f.mg", 3, ("x",), None)
    assert hash(site) == hash(CallSite("t.1", "a", "f.mg", 3, ("x",), None))
    assert {CallAtom("a", "X", ("_",)), CallAtom("a", "X", ("_",))} == {CallAtom("a", "X", ("_",))}
    assert hash(AllocationSite(0, "M", "t", "f.mg", 2)) == hash(AllocationSite(0, "M", "t", "f.mg", 2))
    assert hash(Param("p", "M")) == hash(Param("p", "M"))
    with pytest.raises(TypeError):
        hash(Call(None, "f", (), 1, 1))


def test_parse_tree_compares_by_identity():
    first, second = ParseTree("a", 1), ParseTree("a", 1)
    assert first == first and first != second
    assert len({first, second}) == 2
    tree = ParseTree("t.1", 1, production=2, children=(first,), elided_left=1, elided_right=0,
                     syms=frozenset({"t.1"}))
    assert (tree.production, tree.children, tree.elided_left, tree.syms) == (
        2, (first,), 1, frozenset({"t.1"}))
    assert (first.production, first.children) == (None, None)
    assert not hasattr(first, "site"), "a leaf's call site is its parent production's"
    assert (first.elided_left, first.elided_right) == (0, 0)
    assert first.syms == frozenset()
    assert repr(tree) == "ParseTree('t.1', count=1, production=2, elided=1/0, 1 children)"


def test_production_sites_align_with_the_body():
    assert Production("h", ("a",)).sites == (None,)
    assert Production("h", ()).sites == ()
    with pytest.raises(ValueError):
        Production("h", ("a", "b"), (None,))
    with pytest.raises(ValueError):
        Production("h", (), (None,))
