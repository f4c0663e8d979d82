"""Edits of a program that must leave its report as it was: a metamorphic
battle on generated programs.

Each example is a `random_program` text, checked under each flag set before
and after one edit whose effect on the text report is known:

- a bijective renaming of the client methods gives the same report once the
  new names are mapped back to the old;
- an added client method that no thread reaches and that calls no client
  method gives the identical report.  Under `--class-scope` every method of
  a class starts its class's unit, so there the added method is `atomic`:
  whatever it calls is then atomically executed.

Neither edit moves the order in which the search finds an occurrence's
trees: a `classify_stage` that keeps each violation's last tree instead of
its first passes both, and only the frozen report bytes catch it.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomguard import parse_program, render_report, verify
from generators import _MethodGen, random_program

FLAG_SETS = {
    "default": {},
    "class-scope": {"class_scope": True},
    "no-points-to": {"points_to": False},
}
# New names for the client methods `t0`, `t1`, ...: they sort in another
# order than the old ones, differ in length, and are no other name of the
# program or of its report.
NAMES = ("zeta", "alpha_helper", "q7", "runner", "beta")
CLIENT_METHOD = re.compile(r"\bt(\d)\b")
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def report(text: str, options: dict) -> str:
    return render_report(verify(parse_program(text, "prog.mg"), **options))


@pytest.mark.parametrize("flags", FLAG_SETS)
@settings(max_examples=150, deadline=None)
@given(seed=seeds, names=st.permutations(NAMES))
def test_renaming_the_client_methods_keeps_the_report(flags, seed, names):
    text, _ = random_program(random.Random(seed))
    renamed = CLIENT_METHOD.sub(lambda m: names[int(m[1])], text)
    back = {new: f"t{i}" for i, new in enumerate(names)}
    got = re.sub(rf"\b({'|'.join(back)})\b", lambda m: back[m[1]], report(renamed, FLAG_SETS[flags]))
    assert got == report(text, FLAG_SETS[flags])


@pytest.mark.parametrize("flags", FLAG_SETS)
@settings(max_examples=150, deadline=None)
@given(seed=seeds, body_seed=seeds)
def test_an_unreachable_client_method_keeps_the_report(flags, seed, body_seed):
    text, terms = random_program(random.Random(seed))
    body = _MethodGen(random.Random(body_seed), terms, callees=[], loop_ok=True).body(
        indent="    ", min_stmts=1, max_stmts=4, depth=0
    )
    atomic = "atomic " if flags == "class-scope" else ""
    method = [f"  {atomic}void unused() {{", *body, "  }"]
    # after the last method, so that no line of the program moves
    lines = text.splitlines()
    assert lines[-1] == "}"
    added = "\n".join(lines[:-1] + method + lines[-1:]) + "\n"
    assert report(added, FLAG_SETS[flags]) == report(text, FLAG_SETS[flags])
