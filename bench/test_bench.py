"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

They check the known answers of the generated families against the trace
oracle in `tests/oracles.py`, that traced runs repeat their counters
exactly, that tracing changes no result and restores every wrapped name,
and that a wrong verdict or a runaway check is caught.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import atomguard.cli  # noqa: E402
import atomguard.grammar  # noqa: E402
import atomguard.verifier  # noqa: E402
import families  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from atomguard import parse_program, verify_with_stats  # noqa: E402
from atomguard.frontend.parser import iter_method_statements, statement_call  # noqa: E402
from oracles import bounded_traces, oracle_atomically_executed, oracle_results  # noqa: E402


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    # corpus reports name files relative to the checkout, as the digests do
    monkeypatch.chdir(ROOT)


# --------------------------------------------------------------------------
# known answers against the trace oracle


def _oracle_violations(case: families.Case, loop_bound: int = 2) -> list:
    """The violations the trace oracle finds, in the shape of Case.violations.

    Traces are projected onto one module's calls (and, under points-to, onto
    one allocation site's receiver) before contract words are matched, as
    the checker builds one grammar per module and site.
    """
    program = parse_program(case.text, filename=case.name)
    ae = oracle_atomically_executed(program)
    receiver_at = {}
    for method in program.client_methods.values():
        for stmt in iter_method_statements(method):
            call = statement_call(stmt)
            if call is not None and call.receiver is not None:
                receiver_at[call.line] = call.receiver
    class_scope = "--class-scope" in case.flags
    per_site = "--no-points-to" not in case.flags
    found = set()
    for cls in program.client_classes:
        roots = [m for m in cls.methods if m.is_thread or class_scope]
        for root in roots:
            label = f"class:{cls.name}" if class_scope else root.name
            traces = bounded_traces(program, root.name, loop_bound)
            for module in program.modules:
                names = {m.name for m in module.methods}
                words = [tuple(c.split()) for c in module.contract_text.replace('"', "").split(";")]
                for trace in traces:
                    events = [e for e in trace if e.method in names]
                    groups = [events]
                    if per_site:
                        receivers = sorted({receiver_at[e.line] for e in events})
                        groups = [[e for e in events if receiver_at[e.line] == r] for r in receivers]
                    for group in groups:
                        for word in words:
                            found |= _occurrences(group, word, label, ae)
    return sorted(found)


def _occurrences(events, word, label, ae) -> set:
    out = set()
    for start in range(len(events) - len(word) + 1):
        window = events[start : start + len(word)]
        if tuple(e.method for e in window) != word:
            continue
        chains = [e.frames for e in window]
        depth = 0
        while all(len(c) > depth for c in chains) and len({c[depth] for c in chains}) == 1:
            depth += 1
        lca = chains[0][depth - 1][0]
        if lca not in ae:
            out.add((label, word, lca, tuple(e.line for e in window)))
    return out


SMALL = [
    (families.diamonds, k, ()) for k in (1, 2, 3, 5)
] + [
    (families.loops, k, ()) for k in (1, 2, 3)
] + [
    (families.helper, k, ()) for k in (1, 3)
] + [
    (families.straight, n, flags) for n in (1, 4) for flags in ((), ("--no-points-to",), ("--class-scope",))
] + [
    (families.chain, d, flags) for d in (1, 3) for flags in ((), ("--class-scope",))
] + [
    (families.sites, s, flags) for s in (1, 3)
    for flags in ((), ("--no-points-to",), ("--class-scope",))
]


@pytest.mark.parametrize("family,size,flags", SMALL, ids=lambda x: getattr(x, "__name__", str(x)))
def test_known_answers_agree_with_trace_oracle(family, size, flags):
    args = (flags,) if flags else ()
    case = family(random.Random(size), size, *args)
    assert list(case.violations) == _oracle_violations(case)
    assert case.exit_code == (1 if case.violations else 0)


@pytest.mark.parametrize("seed", range(25))
def test_random_draw_oracle_bound_is_enough(seed):
    """Two-call words need at most two iterations of any loop."""
    two = families.random_draw(random.Random(seed), seed, loop_bound=2)
    four = families.random_draw(random.Random(seed), seed, loop_bound=4)
    assert two == four


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_cases_pass_in_process(workload, tmp_path):
    """Every program of a workload gets its known answer from the checker."""
    cases = run.WORKLOADS[workload](random.Random(f"{workload}:7"))
    checker = worker.Checker(atomguard.cli.run, run.CHECK_LIMIT_S)
    slow = {"diamonds-14", "loops-8", "straight-1000", "sites-30"}
    for case in cases:
        if case.name in slow:
            continue
        entry = run._manifest_entry(case, tmp_path)
        _, failure = checker.check(entry)
        assert failure is None, (case.name, failure)


# --------------------------------------------------------------------------
# failure detection


def test_wrong_verdicts_are_caught(tmp_path):
    case = families.diamonds(random.Random(1), 4)
    entry = run._manifest_entry(case, tmp_path)
    checker = worker.Checker(atomguard.cli.run, run.CHECK_LIMIT_S)
    assert checker.check(entry)[1] is None
    moved = dict(entry, violations=[[t, w, m, [ls[0] + 1, *ls[1:]]] for t, w, m, ls in entry["violations"]])
    assert checker.check(moved)[1].startswith("wrong verdict")
    assert checker.check(dict(entry, exit_code=0))[1].startswith("wrong verdict")
    assert checker.check(dict(entry, lca_methods=["nobody"]))[1].startswith("wrong verdict")
    assert checker.check(dict(entry, digest="0" * 64))[1].startswith("wrong verdict")


def test_runaway_check_times_out_and_the_next_runs(tmp_path):
    slow = run._manifest_entry(families.diamonds(random.Random(1), 12), tmp_path)
    fast = run._manifest_entry(families.diamonds(random.Random(1), 3), tmp_path)
    checker = worker.Checker(atomguard.cli.run, 0.02)
    wall, failure = checker.check(slow)
    assert failure.startswith("timeout") and wall < 1.0
    assert checker.check(fast)[1] is None


# --------------------------------------------------------------------------
# tracing


def _small_manifest(tmp_path) -> dict:
    rng = random.Random(3)
    cases = [
        families.diamonds(rng, 6), families.loops(rng, 3), families.helper(rng, 4),
        families.sites(rng, 3), families.sites(rng, 3, ("--class-scope",)),
        families.chain(rng, 4, ("--no-points-to",)),
        families.random_draw(rng, 0),
    ] + run.corpus_cases(rng)[:6]
    return {
        "cases": [run._manifest_entry(c, tmp_path) for c in cases],
        "order": list(range(len(cases))), "seconds": 0, "limit_s": run.CHECK_LIMIT_S,
    }


def test_traced_counters_repeat_exactly(tmp_path):
    manifest = _small_manifest(tmp_path)
    first = worker._traced(manifest, worker.Checker(atomguard.cli.run, run.CHECK_LIMIT_S))
    second = worker._traced(manifest, worker.Checker(atomguard.cli.run, run.CHECK_LIMIT_S))
    assert first["failed"] == 0 and first["counters_repeat"]
    assert first["counters"] == second["counters"]
    assert first["per_case"] == second["per_case"]
    assert first["counters"]["glr.branches"] > 0
    assert first["counters"]["pointsto.site_grammars"] > 0


def test_tracing_changes_no_result_and_restores_every_name():
    originals = {(m, a): getattr(m, a) for m, a, _ in tracing.WRAPPED}
    rng = random.Random(5)
    programs = [
        parse_program(c.text, filename=c.name)
        for c in (families.diamonds(rng, 5), families.sites(rng, 3), families.chain(rng, 3))
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in originals.items())
        root = tracer.root(lambda argv: None)
        traced = []
        for program in programs:
            root([])  # opens a check for the counters
            for flags in ({}, {"class_scope": True}, {"points_to": False}):
                violations, stats = atomguard.cli.verify_with_stats(program, **flags)
                traced.append((violations, (stats.grammars, stats.trees, stats.branches)))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    plain = []
    for program in programs:
        for flags in ({}, {"class_scope": True}, {"points_to": False}):
            violations, stats = verify_with_stats(program, **flags)
            plain.append((violations, (stats.grammars, stats.trees, stats.branches)))
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"glr.search", "grammar.simplify", "grammar.build", "frontend.cfg"} <= names


def test_self_time_subtracts_children():
    spans = [("cli.run", 0, 100, -1, 0), ("frontend.parse", 10, 30, 0, 0),
             ("verifier.verify", 40, 90, 0, 0), ("glr.search", 50, 70, 2, 0)]
    assert dict(tracing.self_times(spans)) == {
        "cli.run": 30, "frontend.parse": 20, "verifier.verify": 30, "glr.search": 20,
    }
