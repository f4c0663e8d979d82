"""Contract clause parsing and star-free expansion."""

from __future__ import annotations

import random

import pytest

import atomguard.contracts
from atomguard import (
    CallAtom,
    ClauseTooLongError,
    ContractError,
    StarNotAllowedError,
    UnknownMethodError,
    expand_clause,
    parse_contract,
)
from conftest import deadline
from oracles import clause_words

ALPHABET = frozenset({"a", "b", "c", "d"})
VECTOR = frozenset({"contains", "indexOf", "remove", "set", "get", "size"})


def words_of(text: str, methods=ALPHABET, max_len: int = 16) -> set[tuple[str, ...]]:
    contract = parse_contract(f'"{text}"', methods)
    return {w.methods for w in expand_clause(contract.clauses[0], max_len)}


def atom_of(text: str) -> CallAtom:
    """The call pattern of a one-atom clause."""
    (word,) = expand_clause(parse_contract(f'"{text}"', VECTOR).clauses[0])
    (atom,) = word.atoms
    return atom


# ---------------------------------------------------------------------------
# shapes


def test_plain_sequence():
    contract = parse_contract('"contains indexOf"', VECTOR)
    assert len(contract.clauses) == 1
    words = expand_clause(contract.clauses[0])
    assert len(words) == 1
    assert words[0].methods == ("contains", "indexOf")
    assert not words[0].is_parameterized


def test_group_alternation():
    assert words_of("indexOf (remove | set | get)", VECTOR) == {
        ("indexOf", "remove"),
        ("indexOf", "set"),
        ("indexOf", "get"),
    }


def test_adjacent_groups_multiply():
    expected = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    assert words_of("(a | b) (c | d)") == expected
    assert words_of("(a|b)(c|d)") == expected


def test_multiple_clauses():
    contract = parse_contract('"a b"; "b a"', ALPHABET)
    assert [c.text for c in contract.clauses] == ["a b", "b a"]


def test_nested_groups():
    assert words_of("((a | b) c | d)") == {("a", "c"), ("b", "c"), ("d",)}


# ---------------------------------------------------------------------------
# rejections


def test_star_is_rejected():
    with pytest.raises(StarNotAllowedError):
        parse_contract('"a*"', ALPHABET)
    with pytest.raises(StarNotAllowedError):
        parse_contract('"(a | b)* c"', ALPHABET)


def test_unknown_method_is_rejected():
    with pytest.raises(UnknownMethodError):
        parse_contract('"a zz"', ALPHABET)


def test_expansion_length_cap():
    contract = parse_contract('"a b c"', ALPHABET)
    with pytest.raises(ClauseTooLongError):
        expand_clause(contract.clauses[0], 2)
    assert len(expand_clause(contract.clauses[0], 3)) == 1


def clause_of(text: str):
    return parse_contract(f'"{text}"', ALPHABET).clauses[0]


def test_a_clause_is_measured_before_it_is_expanded():
    # twelve groups of four denote 16.7 million words of twelve calls
    clause = clause_of(" ".join(["(a | b | c | d)"] * 12))
    with deadline(1.0):
        with pytest.raises(ClauseTooLongError) as error:
            expand_clause(clause)
    assert str(error.value) == (
        f"clause {clause.text!r} expands to more than 65,536 words; split it into smaller clauses"
    )
    # the length bound is tested first, with its own message
    with pytest.raises(ClauseTooLongError, match="expands past 11 calls; raise the word-length"):
        expand_clause(clause, 11)


def test_the_word_count_bound_counts_repeats(monkeypatch):
    monkeypatch.setattr(atomguard.contracts, "MAX_CLAUSE_WORDS", 4)
    assert len(expand_clause(clause_of("(a | b) (c | d)"))) == 4
    assert len(expand_clause(clause_of("(a | (b | c d) d)"))) == 3
    with pytest.raises(ClauseTooLongError, match="more than 4 words"):
        expand_clause(clause_of("(a | b) (c | d) (a | b)"))
    with pytest.raises(ClauseTooLongError, match="more than 4 words"):
        expand_clause(clause_of("(a | a | a | a | a)"))  # one word, five times


def test_degenerate_groups_rejected():
    with pytest.raises(ContractError):
        parse_contract('"(a)"', ALPHABET)
    with pytest.raises(ContractError):
        parse_contract('""', ALPHABET)


def test_lowercase_bindings_rejected():
    with pytest.raises(ContractError):
        atom_of("y=indexOf(X)")
    with pytest.raises(ContractError):
        atom_of("set(y)")


# ---------------------------------------------------------------------------
# parameterized atoms


def test_result_binding_atom():
    atom = atom_of("Y=indexOf(X)")
    assert atom.method == "indexOf"
    assert atom.result_var == "Y"
    assert atom.args == ("X",)
    assert atom.is_parameterized


def test_argument_patterns_atom():
    atom = atom_of("set(Y, _)")
    assert atom.method == "set"
    assert atom.result_var is None
    assert atom.args == ("Y", "_")


def test_bare_atom():
    atom = atom_of("size")
    assert atom.method == "size"
    assert atom.result_var is None and atom.args is None
    assert not atom.is_parameterized


def test_wildcard_result_atom():
    atom = atom_of("_=indexOf(X)")
    assert atom.result_var == "_"
    assert atom.args == ("X",)


def test_parameterized_clause_expands_with_atoms():
    text = "contains(X) Y=indexOf(X) set(Y, _)"
    contract = parse_contract(f'"{text}"', VECTOR)
    words = expand_clause(contract.clauses[0])
    assert len(words) == 1
    assert words[0].methods == ("contains", "indexOf", "set")
    assert words[0].is_parameterized
    assert words[0].atoms == (
        CallAtom("contains", None, ("X",)),
        CallAtom("indexOf", "Y", ("X",)),
        CallAtom("set", None, ("Y", "_")),
    )


# ---------------------------------------------------------------------------
# the expansion oracle


def _random_clause_text(rng: random.Random) -> str:
    letters = sorted(ALPHABET)
    parts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            branches = []
            for _ in range(rng.randint(2, 3)):
                branches.append(
                    " ".join(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                )
            parts.append("(" + " | ".join(branches) + ")")
        else:
            parts.append(rng.choice(letters))
    return " ".join(parts)


def test_expansion_matches_independent_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        text = _random_clause_text(rng)
        assert words_of(text) == clause_words(text), text

