"""Shared fixtures: bundled data paths, a wall-clock deadline and suite
ordering.

The acceptance tests are moved to the end of the run so their suite-level
timing check covers everything that ran before them.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from atomguard import parse_program
from atomguard.frontend.syntax import Program

PACKAGE_DATA = Path(__file__).resolve().parent.parent / "src" / "atomguard" / "data"
PROGRAMS = PACKAGE_DATA / "programs"
CORPUS = PACKAGE_DATA / "corpus"

SESSION_START = time.monotonic()


def load_program(name: str) -> Program:
    """Parse one bundled program by file name."""
    return parse_program((PROGRAMS / name).read_text(), filename=name)


@contextmanager
def deadline(seconds: float):
    """Fail, instead of hanging, when the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def programs_dir() -> Path:
    return PROGRAMS


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def pytest_collection_modifyitems(config, items):
    front = [it for it in items if "test_acceptance" not in it.nodeid]
    back = [it for it in items if "test_acceptance" in it.nodeid]
    items[:] = front + back
