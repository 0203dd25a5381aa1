import json

import pytest

from latticediss.errors import InvalidDissection, PreconditionViolated
from latticediss.combi import boundary_word_of
from latticediss.dissect import Dissection, split_with_point, unit_dissection
from latticediss.gen import random_convex_polygon, random_dissection, realize_word
from latticediss.geometry import (
    LatticePoint,
    as_triangle,
    boundary_word,
    color_of,
    signed_area2,
    validate_convex,
)
from latticediss.verify import (
    poof,
    proper_crossings,
    verify_dissection,
    witness_noninteger,
)
from latticediss.words import CyclicWord

UNIT_SQUARE = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
HALF_SPLIT = Dissection((
    as_triangle(((0, 0), (1, 0), (1, 1))),
    as_triangle(((0, 0), (1, 1), (0, 1))),
))


def failed_names(report):
    return [c.name for c in report.checks if not c.passed]


def test_half_square_split_modes():
    assert verify_dissection(UNIT_SQUARE, HALF_SPLIT, "any").valid
    rep = verify_dissection(UNIT_SQUARE, HALF_SPLIT, "integral")
    assert not rep.valid and failed_names(rep) == ["mode-areas"]


def test_unit_mode_roundtrip():
    P = validate_convex([(0, 0), (4, 0), (0, 1)])
    U = unit_dissection(P)
    rep = verify_dissection(P, U, "unit")
    assert rep.valid
    assert rep.triangle_count == 2 and rep.doubled_area_total == 4


def test_report_json_stable():
    rep = verify_dissection(UNIT_SQUARE, HALF_SPLIT, "any")
    data = json.loads(rep.to_json())
    assert list(data.keys()) == ["valid", "triangle_count", "doubled_area_total", "checks"]
    assert [c["name"] for c in data["checks"]] == [
        "orientation", "containment", "area-sum", "mode-areas", "integer-coords",
    ]


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        verify_dissection(UNIT_SQUARE, HALF_SPLIT, "strict")


def test_duplicate_triangle_fails_area_sum():
    D = Dissection((HALF_SPLIT.triangles[0],) + HALF_SPLIT.triangles)
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert not rep.valid and "area-sum" in failed_names(rep)


def test_escaping_triangle_fails_containment():
    D = Dissection((
        as_triangle(((0, 0), (1, 0), (1, 1))),
        as_triangle(((0, 0), (2, 1), (0, 1))),
    ))
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert "containment" in failed_names(rep)


def test_missing_piece_fails_area_sum():
    D = Dissection((HALF_SPLIT.triangles[0],))
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert failed_names(rep) == ["area-sum"]


def test_clockwise_triangle_fails_orientation():
    D = Dissection((
        as_triangle(((0, 0), (1, 1), (1, 0))),
        as_triangle(((0, 0), (1, 1), (0, 1))),
    ))
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert "orientation" in failed_names(rep)


def test_proper_crossings_detects_overlap():
    overlapping = Dissection((
        as_triangle(((0, 0), (2, 0), (2, 2))),
        as_triangle(((0, 0), (2, 1), (0, 2))),
    ))
    assert proper_crossings(overlapping) == [(0, 1)]
    assert proper_crossings(HALF_SPLIT) == []


def test_crossing_diagnostic_on_invalid_report():
    P = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
    bad = Dissection((
        as_triangle(((0, 0), (2, 0), (2, 2))),
        as_triangle(((0, 0), (2, 1), (0, 1))),
    ))
    rep = verify_dissection(P, bad, "any", diagnostics=True)
    assert not rep.valid and "area-sum" in failed_names(rep)
    assert rep.checks[-1].name == "edge-crossings" and not rep.checks[-1].passed


# --- poof ---------------------------------------------------------------------

def pentagon_fig2():
    """Pentagon whose bottom edge carries one extra dissection vertex."""
    P = validate_convex([(0, 0), (4, 0), (5, 2), (2, 4), (0, 2)])
    fan = [
        as_triangle(((2, 4), (0, 2), (0, 0))),
        as_triangle(((2, 4), (0, 0), (4, 0))),
        as_triangle(((2, 4), (4, 0), (5, 2))),
    ]
    pieces = split_with_point(fan[1], LatticePoint(2, 0))
    return P, Dissection((fan[0], *pieces, fan[2]))


def square_fig7():
    """Square with a 4-vertex collinear chain across the middle."""
    P = validate_convex([(0, 0), (6, 0), (6, 4), (0, 4)])
    tris = [
        ((0, 0), (6, 0), (6, 2)),
        ((0, 0), (6, 2), (4, 2)),
        ((0, 0), (4, 2), (2, 2)),
        ((0, 0), (2, 2), (0, 2)),
        ((0, 2), (6, 2), (6, 4)),
        ((0, 2), (6, 4), (0, 4)),
    ]
    return P, Dissection(tuple(as_triangle(t) for t in tris))


def degenerate_count(T, vmap):
    return sum(
        1 for tri in T.triangles
        if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) == 0
    )


def test_poof_without_t_vertices_is_identity():
    T, vmap = poof(UNIT_SQUARE, HALF_SPLIT)
    assert len(T.triangles) == 2
    assert degenerate_count(T, vmap) == 0
    point_tris = {frozenset(vmap[i] for i in tri) for tri in T.triangles}
    assert point_tris == {frozenset(t) for t in HALF_SPLIT.triangles}


def test_poof_pentagon_boundary_chain():
    P, D = pentagon_fig2()
    T, vmap = poof(P, D)
    assert len(T.triangles) == len(D.triangles) + 1
    assert degenerate_count(T, vmap) == 1
    assert boundary_word_of(T) == boundary_word(P)
    # the degenerate triangle lies on the subdivided bottom edge
    degen = next(t for t in T.triangles
                 if signed_area2(as_triangle([vmap[i] for i in sorted(t)])) == 0)
    assert {vmap[i] for i in degen} == {LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(4, 0)}


def test_poof_four_collinear_quadrilateral_poofagon():
    P, D = square_fig7()
    T, vmap = poof(P, D)
    # 2 triangles for the quadrilateral poofagon on the middle chain,
    # plus one boundary poofagon on each subdivided vertical edge
    assert degenerate_count(T, vmap) == 4
    assert len(T.triangles) == len(D.triangles) + 4
    assert boundary_word_of(T) == boundary_word(P)
    assert len(T.corners) == 4


def test_poof_nondegenerate_triangles_biject():
    for P, D in (pentagon_fig2(), square_fig7()):
        T, vmap = poof(P, D)
        nondegen = {
            frozenset(vmap[i] for i in tri)
            for tri in T.triangles
            if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) != 0
        }
        assert nondegen == {frozenset(t) for t in D.triangles}


def test_poof_rejects_invalid_dissection():
    with pytest.raises(InvalidDissection):
        poof(UNIT_SQUARE, Dissection((HALF_SPLIT.triangles[0],)))


def test_poof_random_dissections():
    for seed in range(12):
        P = random_convex_polygon(3 + seed % 6, 20, seed=seed)
        D = random_dissection(P, depth=6, seed=seed)
        T, vmap = poof(P, D)  # validate_disk runs inside
        assert boundary_word_of(T) == boundary_word(P)
        nondegen = [
            tri for tri in T.triangles
            if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) != 0
        ]
        assert len(nondegen) == len(D.triangles)


# --- witness ---------------------------------------------------------------------

def test_witness_unit_square():
    t = witness_noninteger(UNIT_SQUARE, HALF_SPLIT)
    assert t in HALF_SPLIT.triangles
    assert len({color_of(v) for v in t}) == 3
    assert signed_area2(t) % 2 == 1


def test_witness_rectangle_fuzz():
    rect = validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])
    for seed in range(10):
        D = random_dissection(rect, depth=7, seed=seed)
        t = witness_noninteger(rect, D)
        assert signed_area2(t) % 2 == 1


def test_witness_hexagon_realizing_abcabc():
    P = realize_word(CyclicWord("ABCABC"))
    assert P is not None
    for seed in range(5):
        D = random_dissection(P, depth=5, seed=seed)
        t = witness_noninteger(P, D)
        assert len({color_of(v) for v in t}) == 3


def test_witness_preconditions():
    tri = validate_convex([(0, 0), (2, 0), (1, 1)])
    D = Dissection((as_triangle(((0, 0), (2, 0), (1, 1))),))
    with pytest.raises(PreconditionViolated):
        witness_noninteger(tri, D)  # contractible word
    with pytest.raises(PreconditionViolated):
        witness_noninteger(UNIT_SQUARE, Dissection((HALF_SPLIT.triangles[0],)))
