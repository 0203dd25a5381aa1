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

import itertools
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

import latticediss
from latticediss.cli import main
from latticediss.combi import Triangulation, disk_errors
from latticediss.dissect import (
    Dissection,
    diagonal_dissection,
    dissection_to_json,
    parse_dissection_json,
    unit_dissection,
)
from latticediss.geometry import boundary_word, validate_convex
from latticediss.verify import poof, verify_dissection, witness_noninteger
from latticediss.words import CyclicWord, decide_contractible

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

PACKAGE = str(Path(latticediss.__file__).resolve().parent)
GROWTH = 1.2
FILES = tempfile.TemporaryDirectory()  # the CLI stages' input files


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


def verify_read_stage(side):
    # a read dissection: verify trusts the reader's record, with no type scan
    P, D = square(side)
    _, D = parse_dissection_json(dissection_to_json(P, D))
    return verify_dissection, (P, D, "unit"), len(D)


def parse_written_stage(side):
    # the writer's own text takes the slice reader, whose work per slice is C
    # passes and per triangle no Python line
    P, D = square(side)
    return parse_dissection_json, (dissection_to_json(P, D),), len(D)


def parse_general_stage(side):
    # indented text takes the general reader, whose as_triangle runs in Python
    # for each triangle
    P, D = square(side)
    text = json.dumps(json.loads(dissection_to_json(P, D)), indent=1)
    return parse_dissection_json, (text,), len(D)


def to_json_stage(side):
    P, D = square(side)
    return dissection_to_json, (P, D), len(D)


def _square_file(side):
    path = os.path.join(FILES.name, f"square{side}.json")
    with open(path, "w") as fh:
        json.dump([[0, 0], [side, 0], [side, side], [0, side]], fh)
    return path


def cli_dissect_stage(side):
    # dissect --unit: the pieces are refined and written a slice at a time
    return main, (["dissect", _square_file(side), "--unit", "-o", os.devnull],), side * side


def cli_verify_stage(side):
    # verify --mode unit on a file in the writer's layout: the slice reader
    # feeds the one pass of verify
    P, D = square(side)
    path = os.path.join(FILES.name, f"unit{side}.json")
    with open(path, "w") as fh:
        fh.write(dissection_to_json(P, D))
    return main, (["verify", _square_file(side), path, "--mode", "unit"],), len(D)


def cli_witness_stage(side):
    # witness on a file in the writer's layout: the odd square's word is not
    # contractible, and its half cells are verified a slice at a time
    side += 1
    P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
    cells = tuple(t for x in range(side) for y in range(side)
                  for t in (((x, y), (x + 1, y), (x + 1, y + 1)),
                            ((x, y), (x + 1, y + 1), (x, y + 1))))
    poly = os.path.join(FILES.name, f"square{side}.json")
    with open(poly, "w") as fh:
        json.dump(P.vertices, fh)
    path = os.path.join(FILES.name, f"cells{side}.json")
    with open(path, "w") as fh:
        fh.write(dissection_to_json(P, Dissection(cells)))
    return main, (["witness", poly, path],), len(cells)


def cli_render_stage(side):
    # render from a file in the writer's layout, read a slice at a time: the
    # distinct edges are kept and sorted, and the sort is not counted
    _, (argv,), items = cli_verify_stage(side)
    return main, (["render", argv[1], argv[2], "-o", os.devnull],), items


def poof_stage(count):
    req = inputs.foreign_request(random.Random(count), count, "valid", True)
    return poof, (validate_convex(req.polygon), Dissection(req.triangles)), len(req.triangles)


def foreign_read_stage(count):
    # verify, then poof and the witness on one read dissection: the two later
    # calls reuse the kept verification
    req = inputs.foreign_request(random.Random(count), count, "valid", False)
    P = validate_convex(req.polygon)
    _, D = parse_dissection_json(req.dissection_text)

    def check():
        verify_dissection(P, D, "any")
        poof(P, D)
        witness_noninteger(P, D)

    return check, (), len(D)


def verify_failure_stage(count):
    # one triangle dropped: the verdict runs _chain_failure
    req = inputs.foreign_request(random.Random(count), count, "drop", True)
    D = Dissection(req.triangles)
    return verify_dissection, (validate_convex(req.polygon), D, "any"), len(D)


def disk_failure_stage(count):
    # a poofed disk with one triangle dropped: disk_errors builds its messages
    # and walks the fans
    req = inputs.foreign_request(random.Random(count), count, "valid", True)
    T, _ = poof(validate_convex(req.polygon), Dissection(req.triangles))
    tris = T.sorted_triangles()
    del tris[random.Random(count).randrange(len(tris))]
    return disk_errors, (Triangulation(T.vertex_colors, tris, T.corners),), len(tris)


def decide_stage(letters):
    word = CyclicWord("".join(random.Random(letters).choices("ABCD", k=letters)))
    return decide_contractible, (word,), letters


def corner_polygon(k: int, scale: int):
    """The convex polygon whose edges are the primitive vectors of [-k, k]^2
    in angle order, every coordinate times scale: 1,600, 6,192 and 24,352
    corners at k = 25, 50 and 100."""
    edges = sorted(((x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
                    if math.gcd(x, y) == 1), key=lambda v: math.atan2(v[1], v[0]))
    corners = itertools.accumulate(edges, lambda p, v: (p[0] + scale * v[0], p[1] + scale * v[1]),
                                   initial=(0, 0))
    return validate_convex(list(corners)[:-1])


def cli_decide_refusal_stage(k):
    # decide --polygon on a word that is not contractible: the verdict pass,
    # then the recording kernel and the stuck lines
    P = corner_polygon(k, 1)
    assert not decide_contractible(boundary_word(P))[0]
    path = os.path.join(FILES.name, f"corners{k}.json")
    with open(path, "w") as fh:
        json.dump(P.vertices, fh)
    return main, (["decide", "--polygon", path],), len(P.vertices)


def diagonal_corners_stage(k):
    # doubled, every corner has color A: the word is contractible, and the
    # diagonal dissection follows its trace's steps
    P = corner_polygon(k, 2)
    assert decide_contractible(boundary_word(P))[0]
    return diagonal_dissection, (P,), len(P.vertices)


def validate_corners_stage(k):
    P = corner_polygon(k, 2)
    return validate_convex, (list(P.vertices),), len(P.vertices)


def boundary_word_corners_stage(k):
    P = corner_polygon(k, 2)
    return boundary_word, (P,), len(P.vertices)


def verify_corners_stage(k):
    # the doubled polygon's diagonal dissection has even doubled areas
    P = corner_polygon(k, 2)
    return verify_dissection, (P, diagonal_dissection(P), "integral"), len(P.vertices)


# name -> (make, size, step): the stage runs at size, size*step and size*step**2,
# which are n, 4n and 16n items; a square's side doubles, and so does a corner
# polygon's k, which about quadruples its corners.
STAGES = {
    "unit_dissection": (unit_stage, 40, 2),
    "verify_unit": (verify_stage, 40, 2),
    "verify_read": (verify_read_stage, 40, 2),
    "parse_written": (parse_written_stage, 40, 2),
    "parse_general": (parse_general_stage, 40, 2),
    "dissection_to_json": (to_json_stage, 40, 2),
    "cli_dissect_unit": (cli_dissect_stage, 40, 2),
    "cli_verify_unit": (cli_verify_stage, 40, 2),
    "cli_witness": (cli_witness_stage, 40, 2),
    "cli_render": (cli_render_stage, 40, 2),
    "poof": (poof_stage, 250, 4),
    "foreign_read": (foreign_read_stage, 250, 4),
    "verify_failure": (verify_failure_stage, 250, 4),
    "disk_failure": (disk_failure_stage, 250, 4),
    "decide_contractible": (decide_stage, 4_000, 4),
    "cli_decide_refusal": (cli_decide_refusal_stage, 25, 2),
    "diagonal_corners": (diagonal_corners_stage, 25, 2),
    "validate_corners": (validate_corners_stage, 25, 2),
    "boundary_word_corners": (boundary_word_corners_stage, 25, 2),
    "verify_corners": (verify_corners_stage, 25, 2),
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
