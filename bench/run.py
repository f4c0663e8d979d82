"""atomguard benchmark: time to verdict per checked file, end to end and
layer by layer.

    python3 bench/run.py --workload branchy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each workload runs in its own fresh worker process (`worker.py`): one client
in a closed loop, checking one file after the other with an in-process
`atomguard.cli.run(["check", FILE, ...])` call.  This script makes the
inputs from the seed, computes their known answers, starts the worker and a
few set-up probes, and prints every metric by name with its unit.  The last
line of its output is one JSON object.  With `--trace 1` it reports the
per-layer metrics of a traced run instead (see `tracing.py`) and writes the
spans and per-program counters under `.bench_out/`.

See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from families import Case, chain, diamonds, helper, loops, random_draw, sites, straight

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = Path("src/atomguard/data/corpus")  # relative: reports name files as given

CHECK_LIMIT_S = 30.0  # CPU seconds; the slowest finishing check takes about 1 s
# fresh processes that only set up, half before and half after the timed
# worker, so that a slow spell of the machine does not hit all of them
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s
RANDOM_DRAWS = 24  # random programs per pass of `branchy`

# layer whose self time should be the largest, per workload (checked, reported)
DOMINANT = {"corpus": "frontend.parse", "branchy": "glr.search", "wide": "grammar"}


# --------------------------------------------------------------------------
# workloads


def corpus_cases(rng: random.Random) -> list[Case]:
    """The bundled bad/fixed pairs.  Verdicts come from the file names and
    report bytes must match digests frozen at the seed commit."""
    digests = json.loads((HERE / "corpus_digests.json").read_text())
    cases = []
    for path in sorted((ROOT / CORPUS).glob("*.mg")):
        cases.append(Case(
            name=path.name, family="corpus", size=0, text=path.read_text(),
            exit_code=1 if path.name.endswith(".bad.mg") else 0,
            digest=digests[path.name], path=str(CORPUS / path.name),
        ))
    return cases


def branchy_cases(rng: random.Random) -> list[Case]:
    """Branching and looping threads, where the GLR search dominates."""
    cases = [diamonds(rng, k) for k in range(4, 15)]
    cases += [loops(rng, k) for k in range(2, 9)]
    # helpers of every size from 2 to 24 cost 2-6 ms in small steps, so the
    # median program falls among them whichever random programs are drawn
    cases += [helper(rng, k) for k in range(2, 25)]
    # no draw is dropped or re-drawn for being slow
    cases += [random_draw(rng, i) for i in range(RANDOM_DRAWS)]
    return cases


def wide_cases(rng: random.Random) -> list[Case]:
    """Long threads, call chains and many allocation sites, where grammar
    building and simplification dominate; all three grammar builders run."""
    npt, cs = ("--no-points-to",), ("--class-scope",)
    cases = [straight(rng, n) for n in (25, 50, 100, 200, 400, 1000)]
    cases += [straight(rng, n, npt) for n in (100, 300)] + [straight(rng, 200, cs)]
    cases += [chain(rng, d) for d in (5, 10, 20, 30, 60)]
    cases += [chain(rng, d, cs) for d in (15, 30)]
    cases += [sites(rng, s) for s in (2, 3, 5, 10, 30)]
    cases += [sites(rng, s, npt) for s in (5, 10)]
    cases += [sites(rng, s, cs) for s in (10, 20)]
    return cases


WORKLOADS = {"corpus": corpus_cases, "branchy": branchy_cases, "wide": wide_cases}


# --------------------------------------------------------------------------
# metrics

END_TO_END = (
    ("check_p50_ms", "ms"), ("check_p90_ms", "ms"), ("lines_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def per_layer(worker: dict) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics, per pass over the workload."""
    t = worker["layers_s"]
    c = worker["counters"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "glr.search_s": (t.get("glr.search", 0.0), "s"),
        "glr.searches": (c.get("glr.searches", 0), "count"),
        "glr.branches": (c.get("glr.branches", 0), "count"),
        "glr.trees": (c.get("glr.trees", 0), "count"),
        "glr.tree_yield": (ratio(c.get("glr.trees", 0), c.get("glr.branches", 0)), "ratio"),
        "glr.table_s": (t.get("glr.table", 0.0), "s"),
        "glr.states": (c.get("glr.states", 0), "count"),
        "grammar.simplify_s": (t.get("grammar.simplify", 0.0), "s"),
        "grammar.productions_raw": (c.get("grammar.productions_raw", 0), "count"),
        "grammar.productions_simplified": (c.get("grammar.productions_simplified", 0), "count"),
        "grammar.shrink_ratio": (
            ratio(c.get("grammar.productions_simplified", 0), c.get("grammar.productions_raw", 0)),
            "ratio",
        ),
        "grammar.build_s": (t.get("grammar.build", 0.0), "s"),
        "grammar.builds": (c.get("grammar.builds", 0), "count"),
        "frontend.cfg_s": (t.get("frontend.cfg", 0.0), "s"),
        "frontend.cfg_builds": (c.get("frontend.cfg_builds", 0), "count"),
        "frontend.parse_s": (t.get("frontend.parse", 0.0), "s"),
        "frontend.atomic_s": (t.get("frontend.atomic", 0.0), "s"),
        "pointsto.solve_s": (t.get("pointsto.solve", 0.0), "s"),
        "pointsto.sites_s": (t.get("pointsto.sites", 0.0), "s"),
        "pointsto.site_grammars": (c.get("pointsto.site_grammars", 0), "count"),
        "contracts.expand_s": (t.get("contracts.expand", 0.0), "s"),
        "contracts.words": (c.get("contracts.words", 0), "count"),
        "verifier.unify_s": (t.get("verifier.unify", 0.0), "s"),
        "verifier.self_s": (t.get("verifier.verify", 0.0), "s"),
        "verifier.report_s": (t.get("verifier.report", 0.0), "s"),
        "verifier.violations": (c.get("verifier.violations", 0), "count"),
        "verifier.keep_ratio": (
            ratio(c.get("verifier.violations", 0), c.get("glr.trees", 0)), "ratio",
        ),
        "cli.self_s": (t.get("cli.run", 0.0), "s"),
        "trace.overhead_ratio": (
            ratio(worker["traced_pass_s"], worker["plain_pass_s"]) - 1.0, "ratio",
        ),
    }


def dominant_layer(workload: str, layers_s: dict[str, float]) -> tuple[str, bool]:
    """The largest layer by self time (or layer group, for `wide`) and
    whether it is the one this workload was chosen to stress."""
    expected = DOMINANT[workload]
    if "." in expected:
        largest = max(layers_s, key=layers_s.get)
    else:
        groups: dict[str, float] = {}
        for name, s in layers_s.items():
            groups[name.split(".")[0]] = groups.get(name.split(".")[0], 0.0) + s
        largest = max(groups, key=groups.get)
    return largest, largest == expected


# --------------------------------------------------------------------------
# running


def _manifest_entry(case: Case, work: Path) -> dict:
    path = case.path
    if path is None:
        file = work / f"{case.name}.mg"
        file.write_text(case.text)
        path = os.path.relpath(file, ROOT)
    return {
        "name": case.name, "family": case.family, "size": case.size,
        "argv": ["check", path, *case.flags], "lines": case.lines,
        "exit_code": case.exit_code, "digest": case.digest,
        "violations": None if case.violations is None
        else [[t, list(w), m, list(ls)] for t, w, m, ls in case.violations],
        "lca_methods": None if case.lca_methods is None else list(case.lca_methods),
    }


def _worker(manifest: Path, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, ATOMGUARD_COLOR="0", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """(result object, human-readable lines) of one workload run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(f"{workload}:{seed}")
    cases = WORKLOADS[workload](rng)
    order = list(range(len(cases)))
    rng.shuffle(order)
    warmup = min(order, key=lambda i: cases[i].lines)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=ROOT / ".bench_work"))
    try:
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({
            "cases": [_manifest_entry(c, work) for c in cases],
            "order": order, "warmup": warmup, "seconds": seconds,
            "trace": trace, "limit_s": CHECK_LIMIT_S,
        }))
        probes = [_worker(manifest, deadline, "--probe") for _ in range(SETUP_PROBES // 2)]
        result = _worker(manifest, deadline)
        probes += [_worker(manifest, deadline, "--probe") for _ in range(SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for probe in probes:
        if probe["failure"] is not None:
            result["failures"].insert(0, f"set-up probe: {probe['failure']}")
            result["wrong"] += 1
    setup_s = statistics.median([p["setup_s"] for p in probes] + [result["setup_s"]])
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"{len(cases)} programs, {result['passes']} passes, {result['attempted']} checks"]
    if trace:
        metrics = per_layer(result)
        lines += _trace_lines(workload, seed, result)
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = (setup_s, "s")
        lines.append(f"  percentiles over {len(cases)} programs, each the median "
                     f"of its {result['passes']} checks at reference speed")
    error_rate = result["failed"] / result["attempted"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32} {value:14.6g} {unit}")
    lines.append(f"  {'error_rate':32} {error_rate:14.6g} ratio "
                 f"({result['failed']} of {result['attempted']} checks failed)")
    lines += [f"  FAILED {f}" for f in result["failures"]]
    return {
        "correct": result["wrong"] == 0 and result.get("counters_repeat", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, lines


def _trace_lines(workload: str, seed: int, result: dict) -> list[str]:
    """Per-family counters, the dominant-layer check, and the trace file."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "span_fields": ["name", "start_ns", "end_ns", "parent", "check"],
        "spans": result["spans"],
        "per_program": result["per_case"],
        "per_program_ms": result["per_case_ms"],
        "counters_per_pass": result["counters"],
        "layers_s_per_pass": result["layers_s"],
    }))
    lines = [f"  spans and per-program counters: {os.path.relpath(trace_file, ROOT)}"]
    if not result["counters_repeat"]:
        lines.append("  COUNTERS DIFFER between traced passes")
    largest, ok = dominant_layer(workload, result["layers_s"])
    lines.append(f"  largest layer by self time: {largest} "
                 f"({'as expected' if ok else 'MISMATCH: expected ' + DOMINANT[workload]})")
    lines.append(f"  {'program':28} {'branches':>9} {'trees':>6} {'states':>7} "
                 f"{'prods':>7} {'simpl':>6} {'grammars':>8} {'untraced ms':>11}")
    for name in sorted(result["per_case"], key=_family_size):
        c = result["per_case"][name]
        lines.append(
            f"  {name:28} {c.get('glr.branches', 0):9d} {c.get('glr.trees', 0):6d} "
            f"{c.get('glr.states', 0):7d} {c.get('grammar.productions_raw', 0):7d} "
            f"{c.get('grammar.productions_simplified', 0):6d} {c.get('grammar.builds', 0):8d} "
            f"{result['per_case_ms'][name]:11.3f}"
        )
    return lines


def _family_size(name: str) -> tuple:
    family, _, rest = name.partition("-")
    size = rest.split("+")[0].split(".")[0]
    return (family, int(size) if size.isdigit() else 0, name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/atomguard/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"bench: not an atomguard checkout, missing {', '.join(missing)}\n")
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    status = 0
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
