"""The benchmark's reference code, cross-checked against the package.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import random

import pytest

from latticediss.dissect import unit_dissection
from latticediss.geometry import validate_convex
from latticediss.words import CyclicWord, exhaustive_contractible
from perfbench import inputs
from perfbench.reference import contractible, dissection_error, is_stuck

SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


@pytest.mark.parametrize("triangles", [
    [((0, 0), (2, 0), (2, 2))] * 2,
    [((0, 0), (2, 0), (2, 2)), ((0, 0), (2, 0), (0, 2))],
])
def test_checker_rejects_overlaps_with_the_right_area(triangles):
    assert dissection_error(SQUARE, triangles) is not None


def test_checker_accepts_square_dissections():
    halves = [((0, 0), (2, 0), (2, 2)), ((0, 0), (2, 2), (0, 2))]
    assert dissection_error(SQUARE, halves) is None
    assert dissection_error(list(reversed(SQUARE)), halves) is None
    assert "not 2" in dissection_error(SQUARE, halves, unit=True)
    t_vertex = [((0, 0), (1, 0), (1, 1)), ((1, 0), (2, 0), (1, 1)), ((0, 0), (1, 1), (0, 2)),
                ((1, 1), (2, 2), (0, 2)), ((2, 0), (2, 2), (1, 1))]
    assert dissection_error(SQUARE, t_vertex) is None


def test_checker_rejects_bad_pieces():
    assert "doubled area -4" in dissection_error(SQUARE, [((0, 0), (2, 2), (2, 0)),
                                                          ((0, 0), (2, 2), (0, 2))])
    assert "sum to 4" in dissection_error(SQUARE, [((0, 0), (2, 0), (2, 2))])
    escaping = [((0, 0), (3, 0), (0, 2)), ((3, 0), (2, 2), (0, 2))]
    assert dissection_error(SQUARE, escaping) is not None


def test_checker_accepts_package_unit_dissections():
    rng = random.Random(7)
    for _ in range(6):
        vs = inputs.convex_polygon(rng, 300, True)
        D = unit_dissection(validate_convex(vs))
        tris = [tuple(tuple(v) for v in t) for t in D.triangles]
        assert dissection_error(vs, tris, unit=True) is None
        assert dissection_error(vs, tris[1:], unit=True) is not None


def test_oracle_matches_exhaustive_search():
    memo: dict = {}
    for n in range(1, 8):
        for letters in itertools.product("ABCD", repeat=n):
            w = "".join(letters)
            assert contractible(w) == exhaustive_contractible(CyclicWord(w), memo=memo), w


def test_is_stuck():
    assert is_stuck("ABCABC")
    assert not is_stuck("ABCAB")  # the window B, A, B across the seam
    assert not is_stuck("AB")
