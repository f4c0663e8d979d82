"""One workload's timed process: a single client checking one file after
another through `atomguard.cli.run`, each check with its stdout captured.

    python3 bench/worker.py MANIFEST           # timed (or traced) run
    python3 bench/worker.py MANIFEST --probe   # set-up only

`run.py` writes the manifest (the cases, their known answers and the pass
order) and starts this process, so the process holds the checker and its
inputs and nothing of the benchmark's own set-up.  It prints one JSON
object on its last line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# About the reference loop's time when a 2-core x86 test machine is not
# contended (3.9-5.3 ms there; 7.4 ms is its median under load).  It only
# sets the scale: every time is reported as if the machine ran the reference
# loop in exactly this long.
REFERENCE_S = 0.005


def reference() -> float:
    """Wall seconds of a fixed pure-Python computation that shares no code
    with atomguard.

    Other tenants slow a shared machine down by up to 1.8x, for stretches of
    one second to minutes.  Timed right before and after each check, this
    loop measures the machine's speed at that moment: in a one-minute test
    the check-to-reference ratio varied by 2-4% between 10-second windows
    while the check times themselves varied by 20-30%.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        k = (i * 7919) % 4099
        counts[k] = counts.get(k, 0) + i
        acc += k & 7
    rows = [(k, v, str(k)) for k, v in sorted(counts.items(), key=lambda kv: kv[1])]
    if acc < 0 or not rows:
        raise AssertionError("unreachable")
    return time.perf_counter() - start


class CheckTimeout(Exception):
    """The check used up its CPU-time limit."""


def _on_limit(signum, frame):
    raise CheckTimeout()


_HEADING = re.compile(r"^VIOLATION \d+$", re.M)
_THREAD = re.compile(r"^  thread:  (.*)$", re.M)
_WORD = re.compile(r"^  word:    (.*)$", re.M)
_LCA = re.compile(r"^  lowest common ancestor: \S+ in method (\S+) ", re.M)
_CALL_LINE = re.compile(r"^    \S+:(\d+)  \S+$", re.M)


def parse_report(text: str) -> list[list]:
    """The text report's violations as sorted [thread, word, lca, lines]."""
    out = []
    for block in _HEADING.split(text)[1:]:
        out.append([
            _THREAD.search(block).group(1),
            _WORD.search(block).group(1).split(),
            _LCA.search(block).group(1),
            [int(n) for n in _CALL_LINE.findall(block)],
        ])
    return sorted(out)


def verdict_error(case: dict, code: int, out: str) -> str | None:
    """Why a check's exit code and report differ from the known answer."""
    if code != case["exit_code"]:
        return f"exit {code}, expected {case['exit_code']}"
    if case.get("digest") is not None:
        if hashlib.sha256(out.encode()).hexdigest() != case["digest"]:
            return "report bytes differ from the frozen digest"
    if case.get("violations") is not None:
        got = parse_report(out)
        if got != case["violations"]:
            return f"{len(got)} violations reported, {len(case['violations'])} expected or calls differ"
    if case.get("lca_methods") is not None:
        got = sorted({v[2] for v in parse_report(out)})
        if got != case["lca_methods"]:
            return f"ancestors {got}, oracle says {case['lca_methods']}"
    return None


class Checker:
    """Runs checks one at a time under a per-check CPU-time limit."""

    def __init__(self, run, limit_s: float):
        self.run = run
        self.limit_s = limit_s
        signal.signal(signal.SIGPROF, _on_limit)

    def check(self, case: dict) -> tuple[float, str | None]:
        """(wall seconds, failure or None) of one check."""
        buf = io.StringIO()
        code = None
        failure = None
        signal.setitimer(signal.ITIMER_PROF, self.limit_s)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.run(case["argv"])
        except CheckTimeout:
            failure = f"timeout after {self.limit_s} CPU seconds"
        except Exception as e:  # a crash is a failed check, not a failed run
            failure = f"raised {e!r}"
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
        if failure is None:
            failure = verdict_error(case, code, buf.getvalue())
            if failure is not None:
                failure = "wrong verdict: " + failure
        return wall, failure


def peak_rss_mb() -> float:
    """This process's peak resident set.

    Linux carries the parent's resident set at fork into the child's
    `ru_maxrss` across exec, which would charge the benchmark's own set-up
    to the checker; the address space's high-water mark (`VmHWM`) starts
    afresh at exec.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text())
    probe = "--probe" in argv[1:]
    cases = manifest["cases"]

    reference()  # the first call pays for warming the interpreter up
    before = reference()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import atomguard.cli

    checker = Checker(atomguard.cli.run, manifest["limit_s"])
    _, warm_failure = checker.check(cases[manifest["warmup"]])
    setup_s = time.perf_counter() - start
    setup_s *= 2 * REFERENCE_S / (before + reference())
    if probe:
        print(json.dumps({"setup_s": setup_s, "failure": warm_failure}))
        return 0

    result = {"setup_s": setup_s}
    if manifest["trace"]:
        result.update(_traced(manifest, checker))
    else:
        result.update(_timed(manifest, checker))
    if warm_failure is not None:
        result["failures"].insert(0, f"{cases[manifest['warmup']]['name']}: {warm_failure}")
        result["wrong"] += warm_failure.startswith("wrong") or warm_failure.startswith("raised")
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


class _Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def add(self, case: dict, failure: str | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if not failure.startswith("timeout"):
            self.wrong += 1
        if len(self.failures) < 20:
            self.failures.append(f"{case['name']}: {failure}")

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "wrong": self.wrong, "failures": self.failures,
        }


def _timed(manifest: dict, checker: Checker) -> dict:
    """Whole passes over the pass order until the run's seconds are used.

    Each check's wall time is scaled by REFERENCE_S over the mean wall time
    of the reference loops run just before and just after it.  A program's
    time to verdict is the median of its scaled checks, and `lines_per_s`
    divides the lines of one pass by the sum of those medians.
    """
    cases, order = manifest["cases"], manifest["order"]
    scaled: dict[int, list[float]] = {i: [] for i in order}
    tally = _Tally()
    passes = 0
    previous = reference()
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < manifest["seconds"]:
        for i in order:
            wall, failure = checker.check(cases[i])
            after = reference()
            speed = 2 * REFERENCE_S / (previous + after)
            previous = after
            tally.add(cases[i], failure)
            scaled[i].append(wall * speed)
        passes += 1
    per_program = {i: statistics.median(w) for i, w in scaled.items()}
    q = statistics.quantiles(per_program.values(), n=10, method="inclusive")
    return {
        "check_p50_ms": q[4] * 1000,
        "check_p90_ms": q[8] * 1000,
        "passes": passes,
        "lines_per_s": sum(cases[i]["lines"] for i in order) / sum(per_program.values()),
        **tally.as_dict(),
    }


def _traced(manifest: dict, checker: Checker) -> dict:
    """Untraced and traced passes, alternating, until the seconds are used.

    Counters are per pass and must repeat exactly from one traced pass to
    the next; times are medians over passes.  Only the first traced pass's
    spans are kept and returned.
    """
    from tracing import Tracer, self_times

    cases, order = manifest["cases"], manifest["order"]
    tally = _Tally()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layer_passes: list[dict[str, float]] = []
    pass_counters: list[dict[str, int]] = []
    first: Tracer | None = None
    case_walls: dict[str, list[float]] = {}
    begin = time.perf_counter()
    plain_run = checker.run
    while not traced_walls or time.perf_counter() - begin < manifest["seconds"]:
        walls = _pass(checker, cases, order, tally)
        plain_walls.append(sum(walls))
        for w, i in zip(walls, order):
            case_walls.setdefault(cases[i]["name"], []).append(w)
        tracer = Tracer()
        tracer.install()
        checker.run = tracer.root(plain_run)
        try:
            walls = _pass(checker, cases, order, tally)
        finally:
            checker.run = plain_run
            tracer.uninstall()
        traced_walls.append(sum(walls))
        layer_passes.append({k: v / 1e9 for k, v in self_times(tracer.spans).items()})
        totals: dict[str, int] = {}
        for counts in tracer.counters.values():
            for k, v in counts.items():
                totals[k] = totals.get(k, 0) + v
        pass_counters.append(totals)
        first = first or tracer
    return {
        "plain_pass_s": statistics.median(plain_walls),
        "traced_pass_s": statistics.median(traced_walls),
        "passes": len(traced_walls),
        "layers_s": {
            name: statistics.median(p.get(name, 0.0) for p in layer_passes)
            for name in sorted({n for p in layer_passes for n in p})
        },
        "counters": pass_counters[0],
        "counters_repeat": all(c == pass_counters[0] for c in pass_counters),
        "per_case": {cases[i]["name"]: dict(first.counters[n]) for n, i in enumerate(order)},
        "per_case_ms": {name: statistics.median(w) * 1000 for name, w in case_walls.items()},
        "spans": first.spans,
        **tally.as_dict(),
    }


def _pass(checker: Checker, cases: list, order: list, tally: _Tally) -> list[float]:
    """One pass over the workload: the wall time of each check."""
    walls = []
    for i in order:
        wall, failure = checker.check(cases[i])
        tally.add(cases[i], failure)
        walls.append(wall)
    return walls


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
