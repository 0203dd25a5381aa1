"""The collector pause: the six calls that build or walk a whole dissection in
memory (dissect.unit_dissection, dissection_to_json and
parse_dissection_json; verify.verify_dissection, poof and
witness_noninteger) run with the cyclic collector paused, through
geometry.collector_paused, and leave it as they found it.

The pause is safe only while nothing under it makes reference cycles, which
only the collector could free: with it off, every path of the paused calls,
raising ones too, must leave gc.collect() nothing to find.  The checks never
bind a caught exception to a name, since its traceback would hold the
test's own frame in a cycle.
"""

import gc
import random
import sys
from pathlib import Path

import pytest

from latticediss import dissect, verify
from latticediss.dissect import (
    Dissection,
    dissection_to_json,
    parse_dissection_json,
    unit_dissection,
)
from latticediss.errors import LatticeDissError
from latticediss.geometry import collector_paused, parse_polygon_json, validate_convex
from latticediss.verify import poof, verify_dissection, witness_noninteger

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

PAUSED = [dissect.unit_dissection, dissect.dissection_to_json, dissect.parse_dissection_json,
          verify.verify_dissection, verify.poof, verify.witness_noninteger]
# The streamed paths, which the CLI runs a slice at a time, keep the collector.
STREAMED = [dissect.unit_pieces, dissect.json_chunks, dissect.read_dissection,
            verify.verify_slices, verify.witness_slices]
# 100 x 50: 5,000 unit triangles, as many as unit_pipeline's largest requests.
RECTANGLE = validate_convex([(0, 0), (100, 0), (100, 50), (0, 50)])
UNIT_SQUARE = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def collector():
    """The collector's state as the test found it, restored after it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_exactly_the_whole_dissection_calls_are_paused():
    assert all(hasattr(f, "__wrapped__") for f in PAUSED)
    assert not any(hasattr(f, "__wrapped__") for f in STREAMED)


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_the_state_it_found(collector, enabled, raises):
    seen = []

    @collector_paused
    def inner():
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("inner")

    @collector_paused
    def outer():
        seen.append(gc.isenabled())
        try:
            inner()
        except ValueError:
            pass
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("outer")

    (gc.enable if enabled else gc.disable)()
    try:
        outer()
    except ValueError:
        assert raises
    assert seen == [False, False, False]
    assert gc.isenabled() == enabled


def _paused_calls():
    """(name, call, whether it raises) for each paused call, once returning
    and once raising."""
    P = RECTANGLE
    D = unit_dissection(P)
    text = dissection_to_json(P, D)
    read = parse_dissection_json(text)[1]
    foreign = inputs.foreign_request(random.Random(3), 60, "valid", False)
    FP = parse_polygon_json(foreign.polygon_text)
    FD = parse_dissection_json(foreign.dissection_text)[1]
    dropped = Dissection(read.triangles[1:])
    return [
        ("unit_dissection", lambda: unit_dissection(P), False),
        ("unit_dissection of no polygon", lambda: unit_dissection(None), True),
        ("dissection_to_json", lambda: dissection_to_json(P, D), False),
        ("dissection_to_json of no dissection", lambda: dissection_to_json(P, None), True),
        ("parse_dissection_json", lambda: parse_dissection_json(text), False),
        ("parse_dissection_json of malformed text", lambda: parse_dissection_json("[1"), True),
        ("verify_dissection", lambda: verify_dissection(P, read, "unit"), False),
        ("verify_dissection in a bad mode", lambda: verify_dissection(P, read, "bad"), True),
        ("poof", lambda: poof(P, read), False),
        ("poof of a dissection that does not verify", lambda: poof(P, dropped), True),
        ("witness_noninteger", lambda: witness_noninteger(FP, FD), False),
        ("witness_noninteger on a contractible word", lambda: witness_noninteger(P, read), True),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_each_paused_call_leaves_the_collector_as_it_found_it(collector, enabled):
    for name, call, raises in _paused_calls():
        (gc.enable if enabled else gc.disable)()
        try:
            call()
        except (LatticeDissError, ValueError, AttributeError):
            assert raises, name
        else:
            assert not raises, name
        assert gc.isenabled() == enabled, name


def test_a_5000_triangle_unit_dissection_and_its_read_run_no_young_collection(collector):
    """Each call starts after a full collection, so the young generation is
    empty and the get_stats that reads the count allocates far too little to
    start a pass; get_stats takes its snapshot before it allocates."""
    gc.enable()

    def young_passes(call):
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        result = call()
        return gc.get_stats()[0]["collections"] - before, result

    built, D = young_passes(lambda: unit_dissection(RECTANGLE))
    assert len(D.triangles) == 5000
    text = dissection_to_json(RECTANGLE, D)
    read, (_, D2) = young_passes(lambda: parse_dissection_json(text))
    assert D2 == D
    assert (built, read) == (0, 0)


def _unit_chain(P):
    def run():
        D = unit_dissection(P)
        if D is None:
            return
        _, read = parse_dissection_json(dissection_to_json(P, D))
        verify_dissection(P, read, "unit")
        poof(P, read)
    return run


def _foreign_checks(label, contractible):
    req = inputs.foreign_request(random.Random(7), 120, label, contractible)

    def run():
        P = parse_polygon_json(req.polygon_text)
        for D in (parse_dissection_json(req.dissection_text)[1], Dissection(req.triangles)):
            verify_dissection(P, D, "any")
            for call in (poof, witness_noninteger):
                try:
                    call(P, D)
                except LatticeDissError:
                    pass
    return run


def _failures():
    P = UNIT_SQUARE
    for text in ("[1", "nope", "{}", '{"polygon": [[0, 0]], "triangles": [[[0, 0], [1, 0]]]}',
                 '{"polygon": [[0, 0], [1, 0], [1, 1]], "triangles": [[[0, 0], [1, 0], [1.5, 1]]]}',
                 "[" * 100_000):
        try:
            parse_dissection_json(text)
        except ValueError:
            pass
    D = Dissection((((0, 0), (1, 0), (1, 1)),))  # half the square: does not verify
    try:
        verify_dissection(P, D, "bad")
    except ValueError:
        pass
    for call in (poof, witness_noninteger):
        try:
            call(P, D)
        except LatticeDissError:
            pass


# Each case makes its input and returns the calls to run on it.
CASES = {
    "unit chain, contractible": lambda: _unit_chain(RECTANGLE),
    "unit chain, not contractible": lambda: _unit_chain(
        validate_convex(inputs.polygon_request(random.Random(5), 2000, False).vertices)),
    "unit chain, the unit square": lambda: _unit_chain(UNIT_SQUARE),
    **{f"foreign {label}, {'' if c else 'not '}contractible": (
        lambda label=label, c=c: _foreign_checks(label, c))
       for label in ("valid", "drop", "overlap") for c in (True, False)},
    "malformed text, a bad mode, a dissection that does not verify": lambda: _failures,
}


@pytest.mark.parametrize("case", CASES)
def test_the_paused_calls_make_no_reference_cycles(collector, case):
    run = CASES[case]()
    gc.collect()
    gc.disable()
    run()
    assert gc.collect() == 0
