"""Per-layer spans recorded from outside the checker.

`Tracer.install()` replaces the names through which atomguard's modules
call into each layer (`atomguard.cli`, `atomguard.verifier` and
`atomguard.grammar.build_cfg`) with wrappers that record one span per call,
and `uninstall()` puts every original back.  No file under `src/` changes:
a wrapped name is looked up by the calling module at call time, so the
wrapper sees exactly the calls the checker makes.

A span is (name, start_ns, end_ns, parent index, check id); spans stay in
memory until the benchmark writes them out.  Counters (branches, states,
productions, ...) are taken at the same boundaries from the arguments and
results of the wrapped call.
"""

from __future__ import annotations

import time
from collections import defaultdict

import atomguard.cli
import atomguard.grammar
import atomguard.verifier

# (module, attribute, span name); the span name is the layer
WRAPPED = (
    (atomguard.cli, "parse_program", "frontend.parse"),
    (atomguard.cli, "verify_with_stats", "verifier.verify"),
    (atomguard.cli, "render_report", "verifier.report"),
    (atomguard.verifier, "compute_atomically_executed", "frontend.atomic"),
    (atomguard.verifier, "compute_pointsto", "pointsto.solve"),
    (atomguard.verifier, "module_alloc_sites", "pointsto.sites"),
    (atomguard.verifier, "parse_contract", "contracts.expand"),
    (atomguard.verifier, "expand_clause", "contracts.expand"),
    (atomguard.verifier, "build_behavior_grammar", "grammar.build"),
    (atomguard.verifier, "build_behavior_grammar_pointsto", "grammar.build"),
    (atomguard.verifier, "build_class_scope_grammar", "grammar.build"),
    (atomguard.verifier, "simplify_grammar", "grammar.simplify"),
    (atomguard.verifier, "build_parse_table", "glr.table"),
    (atomguard.verifier, "parse_subword_until_lca", "glr.search"),
    (atomguard.verifier, "check_unification", "verifier.unify"),
    (atomguard.grammar, "build_cfg", "frontend.cfg"),
)
ROOT_SPAN = "cli.run"


def _count(counters, attr: str, args, kwargs, result) -> None:
    """Add the counters one wrapped call contributes."""
    if attr == "expand_clause":
        counters["contracts.words"] += len(result)
    elif attr in ("build_behavior_grammar", "build_behavior_grammar_pointsto", "build_class_scope_grammar"):
        counters["grammar.builds"] += 1
        if attr == "build_behavior_grammar_pointsto" or kwargs.get("site") is not None:
            counters["pointsto.site_grammars"] += 1
    elif attr == "build_cfg":
        counters["frontend.cfg_builds"] += 1
    elif attr == "simplify_grammar":
        counters["grammar.productions_raw"] += len(args[0].productions)
        counters["grammar.productions_simplified"] += len(result.productions)
    elif attr == "build_parse_table":
        counters["glr.states"] += len(result.states)
    elif attr == "parse_subword_until_lca":
        counters["glr.searches"] += 1
        counters["glr.trees"] += len(result)
    elif attr == "verify_with_stats":
        counters["verifier.violations"] += len(result[0])


class Tracer:
    """Records spans and counters while installed; one check at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        # counters per check id
        self.counters: dict[int, defaultdict[str, int]] = {}
        self._stack: list[int] = []
        self._check = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, func, attr: str, name: str):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counters = tracer.counters[tracer._check]
            branches = None
            if attr == "parse_subword_until_lca":
                branches = args[2].branches
            index = len(spans)
            spans.append(None)  # placeholder keeps parents before children
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[index] = (name, start, end, parent, tracer._check)
            if branches is not None:
                counters["glr.branches"] += args[2].branches - branches
            _count(counters, attr, args, kwargs, result)
            return result

        return wrapper

    def root(self, run):
        """`run` (the `cli.run` entry point) recording each call as the root
        span of a new check; check ids count up from 0."""
        timed = self._wrap(run, "run", ROOT_SPAN)

        def traced_run(argv):
            self._check = len(self.counters)
            self.counters[self._check] = defaultdict(int)
            return timed(argv)

        return traced_run


def self_times(spans) -> dict[str, int]:
    """Nanoseconds per span name, each span less the time its children cover."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child_ns[i]
    return out
