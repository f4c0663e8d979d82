"""Every name the benchmark's tracer wraps is still bound and called.

`bench/tracing.py` records its per-layer spans by replacing names in
atomguard's modules.  A name the checker stops calling would silently lose
its span, so each one is wrapped here with a counter while the bundled
programs are checked under each flag set the benchmark uses.
"""

from __future__ import annotations

import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from atomguard.cli import run
from conftest import CORPUS, PROGRAMS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402

FLAG_SETS = ((), ("--class-scope",), ("--no-points-to",))


def _counted(func, counts: Counter, key: tuple[str, str]):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return func(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def call_counts() -> Counter:
    """Calls per (module, name) over the bundled programs and flag sets."""
    paths = sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))
    counts: Counter = Counter()
    saved = []
    try:
        for module, attr, _ in tracing.WRAPPED:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _counted(original, counts, (module.__name__, attr)))
        for flags in FLAG_SETS:
            for path in paths:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert run(["check", str(path), *flags]) in (0, 1), (path, flags)
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return counts


@pytest.mark.parametrize(
    "module_name, attr",
    [(module.__name__, attr) for module, attr, _ in tracing.WRAPPED],
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in tracing.WRAPPED],
)
def test_traced_name_is_bound_and_called(call_counts, module_name, attr):
    module = sys.modules[module_name]
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
    assert call_counts[(module_name, attr)] > 0, f"no check calls {module_name}.{attr}"
