"""Exact counters of the scaling points ROADMAP item 1 names as the first
baselines, from the same wrappers as the traced run.

    python3 bench/baselines.py

Counts are deterministic, so they compare exactly between commits; the
times beside them are single untraced runs and only indicative.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import atomguard.cli  # noqa: E402
import families  # noqa: E402
from tracing import Tracer  # noqa: E402

POINTS = (
    [(families.diamonds, k) for k in (14, 16)]
    + [(families.loops, k) for k in (8,)]
    + [(families.helper, k) for k in (4, 6, 8, 10)]
    + [(families.straight, n) for n in (500, 1000, 2000)]
    + [(families.sites, s) for s in (30,)]
)
COLUMNS = ("glr.branches", "glr.trees", "glr.states", "grammar.productions_raw",
           "grammar.productions_simplified", "grammar.builds", "verifier.violations")


def main() -> int:
    print(f"{'program':16} " + " ".join(f"{c.split('.')[-1]:>14}" for c in COLUMNS) + f" {'s':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for family, size in POINTS:
            case = family(random.Random(1), size)
            path = Path(tmp) / f"{case.name}.mg"
            path.write_text(case.text)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                atomguard.cli.run(["check", str(path)])
            seconds = time.perf_counter() - start
            tracer = Tracer()
            tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    tracer.root(atomguard.cli.run)(["check", str(path)])
            finally:
                tracer.uninstall()
            counts = tracer.counters[0]
            print(f"{case.name:16} " + " ".join(f"{counts.get(c, 0):14d}" for c in COLUMNS)
                  + f" {seconds:7.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
