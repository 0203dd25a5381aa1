"""Complexity guards: Python line events per item, counted at three sizes.

Each stage runs at sizes n, 4n and 16n under a sys.settrace hook that counts
the line events in frames whose code lives in src/latticediss.  On a given
Python version the counts are exact, the same on every run and every host,
so a stage whose Python work per item grows with the input fails here, where
a wall-clock bound would drown in the host's noise.  The count per item at
16n may be at most GROWTH times the count at n.  poof sorts points and line
coordinates, but with sorted, whose work is not counted, so no stage needs
a log factor.

Work inside C is invisible to this guard: a sort, a json.loads or an
`x in list` inside a loop counts as one line event whatever it costs.  Only
a timed harness sees that work.
"""

import random
import sys
from pathlib import Path

import pytest

import latticediss
from latticediss.dissect import Dissection, dissection_to_json, unit_dissection
from latticediss.geometry import validate_convex
from latticediss.verify import poof, verify_dissection
from latticediss.words import CyclicWord, decide_contractible

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

PACKAGE = str(Path(latticediss.__file__).resolve().parent)
GROWTH = 1.2


def line_events(fn, *args) -> int:
    """The line events that fn(*args) runs in the package's own code."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def square(side: int):
    """The side x side square, even side: side**2 unit triangles."""
    P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
    return P, unit_dissection(P)


def unit_stage(side):
    P, D = square(side)
    return unit_dissection, (P,), len(D)


def verify_stage(side):
    P, D = square(side)
    return verify_dissection, (P, D, "unit"), len(D)


def to_json_stage(side):
    P, D = square(side)
    return dissection_to_json, (P, D), len(D)


def poof_stage(count):
    req = inputs.foreign_request(random.Random(count), count, "valid", True)
    return poof, (validate_convex(req.polygon), Dissection(req.triangles)), len(req.triangles)


def decide_stage(letters):
    word = CyclicWord("".join(random.Random(letters).choices("ABCD", k=letters)))
    return decide_contractible, (word,), letters


# name -> (make, size, step): the stage runs at size, size*step and size*step**2,
# which are n, 4n and 16n items; a square's side doubles.
STAGES = {
    "unit_dissection": (unit_stage, 40, 2),
    "verify_unit": (verify_stage, 40, 2),
    "dissection_to_json": (to_json_stage, 40, 2),
    "poof": (poof_stage, 250, 4),
    "decide_contractible": (decide_stage, 4_000, 4),
}


@pytest.mark.parametrize("name", STAGES)
def test_line_events_per_item_stay_flat(name):
    make, n, step = STAGES[name]
    per_item = []
    for size in (n, n * step, n * step * step):
        fn, args, items = make(size)
        per_item.append(line_events(fn, *args) / items)
    assert per_item[2] <= GROWTH * per_item[0], (
        f"{name}: line events per item {[round(x, 2) for x in per_item]} grow "
        f"more than {GROWTH}x from the smallest size to the largest")
