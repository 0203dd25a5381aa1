import copy
import json
import pickle
import random
import re
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import latticediss.verify as verify_module
from latticediss.cli import main
from latticediss import combi
from latticediss.errors import InvalidDissection, NotADisk, PreconditionViolated
from latticediss.combi import Triangulation, validate_disk
from latticediss.dissect import (
    Dissection,
    dissection_to_json,
    parse_dissection_json,
    unit_dissection,
)
from latticediss.gen import realize_word
from latticediss.geometry import (
    ConvexLatticePolygon,
    as_triangle,
    boundary_word,
    color_of,
    parse_polygon_json,
    signed_area2,
    validate_convex,
)
from latticediss.verify import MODES, poof, verify_dissection, verify_slices, witness_noninteger
from latticediss.words import CyclicWord
from chain_reference import chain_failure as reference_chain_failure
from chain_reference import segment_index as reference_segment_index
from fuzz_reference import random_convex_polygon, random_dissection
from refine_reference import split_with_point
from sperner_reference import boundary_word_of
from dissection_oracle import is_dissection

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

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


SQUARE_2 = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
SQUARE_2_HALVES = (((0, 0), (2, 0), (2, 2)), ((0, 0), (2, 2), (0, 2)))  # doubled area 4 each
ODD_TRIANGLE = ((0, 0), (1, 0), (0, 1))  # doubled area 1


@pytest.mark.parametrize("P, triangles, mode, passed, detail", [
    (SQUARE_2, SQUARE_2_HALVES, "unit", False, "doubled area differs from 2 at triangles 0, 1"),
    (SQUARE_2, SQUARE_2_HALVES, "integral", True, "all doubled areas even"),
    (SQUARE_2, unit_dissection(SQUARE_2).triangles, "unit", True, "all doubled areas equal 2"),
    (validate_convex(ODD_TRIANGLE), (ODD_TRIANGLE,), "integral", False,
     "odd doubled area at triangles 0"),
], ids=["unit-halves", "integral-halves", "unit-cells", "integral-odd"])
def test_mode_areas_detail_from_the_library_and_the_cli(P, triangles, mode, passed, detail,
                                                        tmp_path, capsys):
    # Each dissection passes every other check: only the mode's area check
    # can refuse it, in the library and through the CLI's exit code.
    rep = verify_dissection(P, Dissection(triangles), mode)
    assert rep.valid == passed and failed_names(rep) == ([] if passed else ["mode-areas"])
    assert [c.detail for c in rep.checks if c.name == "mode-areas"] == [detail]
    polygon, dissection = tmp_path / "polygon.json", tmp_path / "dissection.json"
    polygon.write_text(json.dumps(P.vertices))
    dissection.write_text(json.dumps({"polygon": P.vertices, "triangles": triangles}))
    assert main(["verify", str(polygon), str(dissection), "--mode", mode]) == (0 if passed else 11)
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["passed"], c["detail"]) for c in checks if c["name"] == "mode-areas"] == [
        (passed, detail)]


def test_unit_mode_roundtrip():
    P = validate_convex([(0, 0), (4, 0), (0, 1)])
    U = unit_dissection(P)
    rep = verify_dissection(P, U, "unit")
    assert rep.valid
    assert rep.triangle_count == 2 and rep.doubled_area_total == 4


def test_report_json_stable():
    rep = verify_dissection(UNIT_SQUARE, HALF_SPLIT, "any")
    # a value: equal and hashed by its fields, immutable, copied and pickled whole
    again = verify_dissection(UNIT_SQUARE, Dissection(HALF_SPLIT.triangles))
    assert rep == again and hash(rep) == hash(again)
    assert rep != verify_dissection(UNIT_SQUARE, HALF_SPLIT, "unit")
    assert repr(rep).startswith("VerifyReport(valid=True, checks=(CheckResult(name='orientation', "
                                "passed=True, detail='all triangles counterclockwise")
    assert repr(rep).endswith("), triangle_count=2, doubled_area_total=2)")
    with pytest.raises(AttributeError):
        rep.valid = False
    for other in (copy.copy(rep), pickle.loads(pickle.dumps(rep))):
        assert type(other) is type(rep) and other == rep and other.to_json() == rep.to_json()
    data = json.loads(rep.to_json())
    assert list(data.keys()) == ["valid", "triangle_count", "doubled_area_total", "checks"]
    assert [c["name"] for c in data["checks"]] == [
        "orientation", "boundary-chain", "area-sum", "mode-areas", "integer-coords",
    ]
    assert rep.to_json() == (
        '{"valid": true, "triangle_count": 2, "doubled_area_total": 2, "checks": ['
        '{"name": "orientation", "passed": true, '
        '"detail": "all triangles counterclockwise with positive area"}, '
        '{"name": "boundary-chain", "passed": true, '
        '"detail": "triangle sides add up to the polygon\'s edges"}, '
        '{"name": "area-sum", "passed": true, '
        '"detail": "doubled areas sum to 2, polygon doubled area is 2"}, '
        '{"name": "mode-areas", "passed": true, "detail": "mode any: no area constraint"}, '
        '{"name": "integer-coords", "passed": true, "detail": "all coordinates are integers"}]}')


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
    assert "boundary-chain" in failed_names(rep)


def test_missing_piece_fails_area_sum():
    D = Dissection((HALF_SPLIT.triangles[0],))
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert failed_names(rep) == ["boundary-chain", "area-sum"]


def test_clockwise_triangle_fails_orientation():
    D = Dissection((
        as_triangle(((0, 0), (1, 1), (1, 0))),
        as_triangle(((0, 0), (1, 1), (0, 1))),
    ))
    rep = verify_dissection(UNIT_SQUARE, D, "any")
    assert "orientation" in failed_names(rep)


def test_crossing_triangles_fail_area_sum_and_boundary_chain():
    P = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
    bad = Dissection((
        as_triangle(((0, 0), (2, 0), (2, 2))),
        as_triangle(((0, 0), (2, 1), (0, 1))),
    ))
    rep = verify_dissection(P, bad, "any")
    assert not rep.valid and failed_names(rep) == ["boundary-chain", "area-sum"]
    assert [c.name for c in rep.checks] == [
        "orientation", "boundary-chain", "area-sum", "mode-areas", "integer-coords",
    ]
    assert rep.checks[1].detail.startswith("segment (0,1)-(0,2) is covered +1 times")
    assert rep.checks[1].detail.endswith("triangles with a side there: none")


# --- soundness: overlaps that the doubled-area sum cannot see ------------------

SQUARE2 = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
TWO_COPIES = Dissection((as_triangle(((0, 0), (2, 0), (2, 2))),) * 2)
CROSSED_HALVES = Dissection((
    as_triangle(((0, 0), (2, 0), (2, 2))),
    as_triangle(((0, 0), (2, 0), (0, 2))),
))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("D", [TWO_COPIES, CROSSED_HALVES], ids=["two-copies", "crossed-halves"])
def test_overlapping_halves_fail_every_mode(D, mode):
    rep = verify_dissection(SQUARE2, D, mode)
    assert rep.doubled_area_total == 8  # the area sum alone is fooled
    assert not rep.valid and "boundary-chain" in failed_names(rep)


def test_boundary_chain_detail_names_interval_and_triangles():
    chain = verify_dissection(SQUARE2, TWO_COPIES).checks[1]
    assert chain.name == "boundary-chain"
    assert chain.detail == (
        "segment (2,0)-(2,2) is covered +1 times in direction (0,1) by triangle sides "
        "net of the polygon's edges; triangles with a side there: 0, 1")
    gap = verify_dissection(UNIT_SQUARE, Dissection((HALF_SPLIT.triangles[0],))).checks[1]
    assert gap.detail.startswith("segment (0,0)-(0,1) is covered +1 times")
    assert gap.detail.endswith("triangles with a side there: none")
    # coverage counts multiplicity: three copies of a half over one polygon edge
    triple = Dissection((HALF_SPLIT.triangles[0],) * 3)
    assert verify_dissection(UNIT_SQUARE, triple).checks[1].detail.startswith(
        "segment (1,0)-(1,1) is covered +2 times in direction (0,1)")


_CHAIN_DETAIL = re.compile(
    r"segment \((-?\d+),(-?\d+)\)-\((-?\d+),(-?\d+)\) is covered [+-]\d+ times "
    r"in direction \(-?\d+,-?\d+\) by triangle sides net of the polygon's edges; "
    r"triangles with a side there: (none|\d+(?:, \d+)*)(?: \(\+\d+ more\))?")


@pytest.mark.parametrize("label", ["drop", "overlap"])
def test_boundary_chain_detail_is_truthful_on_benchmark_failures(label):
    # the benchmark's failing classes: every triangle the detail names has a
    # side on the named segment's line overlapping it in more than a point
    rng = random.Random(f"chain-detail:{label}")
    for _ in range(30):
        count = rng.randint(50, 300)
        req = inputs.foreign_request(rng, count, label, rng.random() < 0.5)
        P = parse_polygon_json(req.polygon_text)
        _, D = parse_dissection_json(req.dissection_text)
        chain = verify_dissection(P, D).checks[1]
        assert chain.name == "boundary-chain" and not chain.passed
        m = _CHAIN_DETAIL.fullmatch(chain.detail)
        assert m, chain.detail
        ax, ay, bx, by = map(int, m.groups()[:4])
        a, b = (ax, ay), (bx, by)
        dx, dy = bx - ax, by - ay
        length2 = dx * dx + dy * dy
        assert length2 > 0
        named = [] if m[5] == "none" else [int(i) for i in m[5].split(", ")]
        for i in named:
            t = D.triangles[i]
            overlaps = []
            for p, q in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if signed_area2((a, b, p)) == 0 == signed_area2((a, b, q)):
                    tp = (p[0] - ax) * dx + (p[1] - ay) * dy
                    tq = (q[0] - ax) * dx + (q[1] - ay) * dy
                    overlaps.append(min(tp, tq) < length2 and max(tp, tq) > 0)
            assert any(overlaps), (label, count, chain.detail, i, t)


def test_witness_rejects_overlapping_halves():
    for D in (TWO_COPIES, CROSSED_HALVES):
        with pytest.raises(PreconditionViolated):
            witness_noninteger(SQUARE2, D)
    # In the unit square (word ABCD) only the verification can refuse.
    half = as_triangle(((0, 0), (1, 0), (1, 1)))
    for D in (Dissection((half, half)),
              Dissection((half, as_triangle(((0, 0), (1, 0), (0, 1)))))):
        with pytest.raises(PreconditionViolated, match="does not verify"):
            witness_noninteger(UNIT_SQUARE, D)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_copy_of_equal_area_triangle_is_rejected(pseed, dseed, data):
    P = random_convex_polygon(3 + pseed % 6, 20, seed=pseed)
    tris = list(random_dissection(P, depth=6, seed=dseed).triangles)
    by_area: dict[int, list[int]] = {}
    for k, t in enumerate(tris):
        by_area.setdefault(signed_area2(t), []).append(k)
    pairs = [ks for ks in by_area.values() if len(ks) > 1]
    assume(pairs)
    i, j = data.draw(st.permutations(data.draw(st.sampled_from(pairs))))[:2]
    tris[i] = tris[j]
    rep = verify_dissection(P, Dissection(tuple(tris)), "any")
    assert failed_names(rep) == ["boundary-chain"]


def test_repeated_vertex_fails_orientation_not_gcd():
    for t in (((0, 0), (0, 0), (1, 1)), ((1, 1), (1, 1), (1, 1))):
        D = Dissection((as_triangle(t), *HALF_SPLIT.triangles))
        assert failed_names(verify_dissection(UNIT_SQUARE, D)) == ["orientation"]
    D = Dissection((as_triangle(((1, 1), (1, 1), (1, 1))),))
    assert failed_names(verify_dissection(UNIT_SQUARE, D)) == [
        "orientation", "boundary-chain", "area-sum"]


@pytest.mark.parametrize("bad", [0.5, 1.0, True, None, "1", [0]])
def test_non_integer_coordinates_skip_the_chain(bad):
    # The constructor refuses the triangle, so the coordinate never reaches
    # verify's chain.
    t = ((0, 0), (1, 0), (bad, 1))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        Dissection((t, HALF_SPLIT.triangles[1]))


@pytest.mark.parametrize("bad", [
    ((0, 0), (1, 0), 5),  # a number for a point
    ((0, 0), (1, 0), None),  # no point
    ((0, 0), (1, 0), (1, 1, 1)),  # a point of three coordinates
    ((0, 0), (1, 0)),  # two points
], ids=["number-point", "none-point", "triple-point", "two-points"])
def test_triangles_not_three_pairs_fail_integer_coords(bad):
    # The constructor refuses the entry, so verify never meets it.
    with pytest.raises(ValueError, match="pair|3 vertices|integers"):
        Dissection((HALF_SPLIT.triangles[1], bad))


def _sliced(tris, k):
    return [tris[i:i + k] for i in range(0, len(tris), k)]


def test_reports_do_not_depend_on_slices():
    # The one pass over slices keeps counters and the first indices of each
    # check: every report, "(+k more)" included, is the one-slice report.
    cases = [(P, tris) for P, tris in _chain_index_cases()]
    rng = random.Random("slices")
    for P, tris in cases[:20]:
        cases.append((P, tris[: len(tris) // 2]))  # a chain failure
        flipped = [(a, c, b) if rng.random() < 0.3 else (a, b, c) for a, b, c in tris]
        cases.append((P, flipped))  # orientation and mode-areas with many indices
    details = set()
    for P, tris in cases:
        tris = tuple(tris)
        for mode in MODES:
            whole = verify_slices(P, lambda: (tris,), mode)[0]
            assert whole == verify_dissection(P, Dissection(tris), mode)
            for k in (1, 3, 7):
                slices = _sliced(tris, k)
                sliced = verify_slices(P, lambda: slices, mode)[0]
                assert sliced == whole, (P, tris, k)
            details.update(c.detail for c in whole.checks if not c.passed)
    assert any("more)" in d for d in details)
    assert any(d.startswith("segment") for d in details)


class Masked(int):
    """An int that hashes and compares as another value, its mask."""

    def __new__(cls, value, mask):
        self = super().__new__(cls, value)
        self.mask = mask
        return self

    def __hash__(self):
        return hash(self.mask)

    def __eq__(self, other):
        return self.mask == other

    def __ne__(self, other):
        return self.mask != other


def test_masked_int_subclass_fails_integer_coords():
    # Two copies of one half of the unit square, the second one's corners
    # masked as the other half's: an int subclass is no integer coordinate,
    # so the constructor refuses it and the chain never sees the masks.
    t1 = ((0, 0), (1, 0), (1, 1))
    t2 = tuple((Masked(x, mx), Masked(y, my))
               for (x, y), (mx, my) in zip(t1, ((0, 0), (1, 1), (0, 1))))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        Dissection((t1, t2))


def test_nan_coordinate_does_not_hide_a_clockwise_triangle():
    # min over doubled areas would be no shortcut with a NaN among them; the
    # constructor refuses the NaN, so verify's areas are all ints
    t = ((0, 0), (1, 0), (float("nan"), 1))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        Dissection((t, ((0, 0), (1, 1), (1, 0))))


# --- the chain index against its reference and against the definition -----------

def _index_in_order(index):
    segments, lines = index
    return segments, [(line, list(deltas.items())) for line, deltas in lines.items()]


def _chain_index_cases():
    cases = []
    seed = 0
    while len(cases) < 20:
        P = random_convex_polygon(3 + seed % 6, 10 + seed % 30, seed=seed)
        U = unit_dissection(P)
        if U is not None:
            cases.append((P, U.triangles))
        seed += 1
    rng = random.Random("chain-index")
    for label in ("valid", "drop", "overlap") * 4:
        req = inputs.foreign_request(rng, rng.randint(20, 300), label, rng.random() < 0.5)
        _, D = parse_dissection_json(req.dissection_text)
        cases.append((parse_polygon_json(req.polygon_text), D.triangles))
    a, b, c, d = UNIT_SQUARE.vertices
    lower, upper = HALF_SPLIT.triangles
    cases += [
        (UNIT_SQUARE, (lower, upper, lower)),  # a triangle listed twice
        (UNIT_SQUARE, (upper, upper, lower)),  # side a -> c twice before c -> a
        (UNIT_SQUARE, (upper, lower, (a, c, b), upper, (a, a, c), (c, c, c))),  # all mixed
        (UNIT_SQUARE, ((a, a, c), (c, c, c), (a, b, b))),  # repeated vertices
        (UNIT_SQUARE, ((a, c, b), (a, d, c))),  # clockwise
        # along P's edges in P's own direction, once, twice and in part
        (UNIT_SQUARE, ((a, b, c), (a, b, d), (b, c, d))),
        (SQUARE2, ((a, b, c), (b, (2, 0), (2, 2)), (a, (2, 0), (2, 2)), ((2, 2), (0, 2), a))),
    ]
    return cases


def test_segment_index_matches_reference_in_order():
    # the index verify builds, with the triangles in one slice, one per slice
    # and seven per slice
    for P, tris in _chain_index_cases():
        segments, lines = reference_segment_index(P, tris)
        # verify keys a side p -> q by its four coordinates
        expected = _index_in_order(([((*p, *q), *rest) for p, q, *rest in segments], lines))
        for k in (max(1, len(tris)), 1, 7):
            slices = [tris[i:i + k] for i in range(0, len(tris), k)]
            index = verify_slices(P, lambda: slices, "any")[1]
            assert _index_in_order(index) == expected, (P, tris, k)


def _chain_failure_cases():
    rng = random.Random("chain-failure")
    for label in ("drop", "overlap") * 10:
        req = inputs.foreign_request(rng, rng.randint(20, 300), label, rng.random() < 0.5)
        yield parse_polygon_json(req.polygon_text), parse_dissection_json(req.dissection_text)[1]
    lower, upper = HALF_SPLIT.triangles
    yield UNIT_SQUARE, Dissection((lower,))  # a gap
    yield UNIT_SQUARE, Dissection((lower,) * 3)  # a +2 overlap
    yield SQUARE2, TWO_COPIES
    yield SQUARE2, CROSSED_HALVES
    for P, tris in _chain_index_cases():
        yield P, Dissection(tuple(tris))
    # small triangles in the 2 x 2 square: repeated vertices, three vertices
    # on one line, clockwise triangles and copies
    for _ in range(400):
        pts = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(3, 6))]
        yield SQUARE2, Dissection(tuple(tuple(rng.choice(pts) for _ in range(3))
                                        for _ in range(rng.randint(1, 5))))


def test_chain_failure_detail_matches_the_side_by_side_scan():
    # the detail verify gives, a slice of 1, 3 or 7 triangles at a time, is
    # the one the scan over each side's two endpoints gives
    details = set()
    for P, D in _chain_failure_cases():
        tris = D.triangles
        chain = verify_dissection(P, D).checks[1]
        if chain.passed:
            continue
        expected = reference_chain_failure(reference_segment_index(P, tris)[1], tris)
        assert chain.detail == expected, (P, tris)
        for k in (1, 3, 7):
            slices = [tris[i:i + k] for i in range(0, len(tris), k)]
            report = verify_slices(P, lambda: slices, "any")[0]
            assert report.checks[1].detail == expected, (P, tris, k)
        details.add(expected.endswith("none"))
    assert details == {True, False}  # details with and without triangles named


def _moved_vertex(rng, P, tris):
    """Every occurrence of one dissection vertex, not a corner of P, moved
    one lattice step."""
    points = sorted({v for t in tris for v in t})
    v = rng.choice([p for p in points if p not in P.vertices] or points)
    dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    return [tuple((v[0] + dx, v[1] + dy) if u == v else u for u in t) for t in tris]


def _duplicated_and_dropped(rng, P, tris):
    """A rotated copy of one triangle added and one triangle of the result
    dropped, which may be the copy or its original."""
    i = rng.randrange(len(tris))
    out = [*tris, tris[i][1:] + tris[i][:1]]
    del out[rng.randrange(len(out))]
    return out


def _sheared_copy(rng, P, tris):
    """One triangle replaced by a copy of equal area, its third vertex moved
    along its first side by -1, 0 or 1 lattice steps."""
    i = rng.randrange(len(tris))
    a, b, c = tris[i]
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(dx, dy)
    k = rng.choice((-1, 0, 1))
    out = list(tris)
    out[i] = (a, b, (c[0] + k * dx // g, c[1] + k * dy // g))
    return out


def _flipped_diagonal(rng, P, tris):
    """Two triangles that share a side swapped for the quadrilateral's other
    diagonal, each turned counterclockwise: a dissection exactly when the
    quadrilateral is strictly convex; None when no two triangles share a side."""
    owner = {}
    for k, (a, b, c) in enumerate(tris):
        owner[a, b] = owner[b, c] = owner[c, a] = (k, c)
    shared = sorted((side, o) for side, o in owner.items() if side[::-1] in owner)
    if not shared:
        return None
    (a, b), (k, c) = rng.choice(shared)
    m, d = owner[b, a]
    out = [t for j, t in enumerate(tris) if j not in (k, m)]
    for t in ((c, a, d), (d, b, c)):
        out.append(t if signed_area2(t) >= 0 else (t[0], t[2], t[1]))
    return out


def test_verify_agrees_with_the_definition_of_a_dissection():
    verdicts = {}

    def judge(cls, P, tris):
        assert len(tris) <= 300
        verdict = verify_dissection(P, Dissection(tuple(tris)), "any").valid
        assert verdict == is_dissection(P, tris), (cls, P, tris)
        verdicts.setdefault(cls, set()).add(verdict)

    rng = random.Random("oracle")
    for label in ("valid", "drop", "overlap") * 8:
        req = inputs.foreign_request(rng, rng.randint(10, 290), label, rng.random() < 0.5)
        _, D = parse_dissection_json(req.dissection_text)
        judge("foreign_request", parse_polygon_json(req.polygon_text), D.triangles)
    for seed in range(100):
        P = random_convex_polygon(3 + seed % 6, 10 + seed % 20, seed=seed)
        tris = random_dissection(P, depth=2 + seed % 15, seed=seed).triangles
        for near_miss in (_moved_vertex, _duplicated_and_dropped, _sheared_copy,
                          _flipped_diagonal):
            near = near_miss(rng, P, tris)
            if near is not None:
                judge(near_miss.__name__, P, near)
    assert verdicts == dict.fromkeys(
        ["foreign_request", "_moved_vertex", "_duplicated_and_dropped", "_sheared_copy",
         "_flipped_diagonal"],
        {True, False})


# --- poof ---------------------------------------------------------------------

def pentagon_fig2():
    """Pentagon whose bottom edge carries one extra dissection vertex."""
    P = validate_convex([(0, 0), (4, 0), (5, 2), (2, 4), (0, 2)])
    fan = [
        as_triangle(((2, 4), (0, 2), (0, 0))),
        as_triangle(((2, 4), (0, 0), (4, 0))),
        as_triangle(((2, 4), (4, 0), (5, 2))),
    ]
    pieces = split_with_point(fan[1], (2, 0))
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
    assert {vmap[i] for i in degen} == {(0, 0), (2, 0), (4, 0)}


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


def test_poof_raises_not_a_disk_with_the_messages_of_disk_errors(monkeypatch):
    # With no inner points found there is no poofagon, and a dissection
    # with T-vertices is then no disk: poof raises NotADisk with the
    # messages of the disk check on its flat id list in poof's order, which
    # are disk_errors' on the same triangles met in that order (see
    # test_combi.py's test_disk_check_on_id_triples_matches_disk_errors).
    req = inputs.foreign_request(random.Random(30), 30, "valid", True)
    P = parse_polygon_json(req.polygon_text)
    D = parse_dissection_json(req.dissection_text)[1]
    T, vmap = poof(P, D)
    ids = {p: i for i, p in vmap.items()}
    monkeypatch.setattr(verify_module, "bisect_left", lambda ts, x: 0)
    with pytest.raises(NotADisk) as exc:
        poof(P, D)
    flat = [ids[p] for t in D.triangles for p in t]
    assert exc.value.errors
    assert exc.value.errors == combi._disk_errors(T.vertex_colors, flat, T.corners)


def test_poof_takes_the_kept_index_and_a_second_poof_verifies_again(monkeypatch):
    req = inputs.foreign_request(random.Random(60), 60, "valid", False)
    P = parse_polygon_json(req.polygon_text)
    D = parse_dissection_json(req.dissection_text)[1]
    calls, real = [], verify_module.verify_slices
    monkeypatch.setattr(verify_module, "verify_slices",
                        lambda *args: calls.append(args[2]) or real(*args))
    report = verify_dissection(P, D)
    assert calls == ["any"] and D._record[1] is report and D._record[2] is not None
    first = poof(P, D)
    assert calls == ["any"] and D._record[1:] == (report, None)  # the index is poof's now
    assert verify_dissection(P, D) is report
    witness = witness_noninteger(P, D)
    assert calls == ["any"]  # verify and witness reuse the kept report
    second = poof(P, D)  # needs the index, which the record no longer holds
    assert calls == ["any", "any"] and D._record[2] is None
    assert verify_dissection(P, D) == report and witness_noninteger(P, D) == witness
    assert len(calls) == 2
    assert (second[0].triangles, second[0].corners, second[0].vertex_colors, second[1]) == (
        first[0].triangles, first[0].corners, first[0].vertex_colors, first[1])


def test_poof_random_dissections():
    for seed in range(12):
        P = random_convex_polygon(3 + seed % 6, 20, seed=seed)
        D = random_dissection(P, depth=6, seed=seed)
        T, vmap = poof(P, D)  # the disk check runs inside
        assert boundary_word_of(T) == boundary_word(P)
        nondegen = [
            tri for tri in T.triangles
            if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) != 0
        ]
        assert len(nondegen) == len(D.triangles)


def reference_poof(P, D):
    """The quadratic poof: (triangles, corners, vertex map) from testing every
    dissection point against every triangle side and polygon edge."""
    pts = sorted({v for t in D.triangles for v in t})
    idx = {p: i for i, p in enumerate(pts)}
    tris = {frozenset(idx[v] for v in t) for t in D.triangles}
    vs = P.vertices
    sides = ([(t[k], t[(k + 1) % 3]) for t in D.triangles for k in range(3)]
             + list(zip(vs, vs[1:] + vs[:1])))
    for a, b in sides:
        dx, dy = b[0] - a[0], b[1] - a[1]

        def along(p):
            return (p[0] - a[0]) * dx + (p[1] - a[1]) * dy

        inner = sorted((p for p in pts if signed_area2((a, p, b)) == 0 and 0 < along(p) < along(b)),
                       key=along)
        chain = [a, *inner, b]
        tris.update(frozenset((idx[a], idx[chain[j]], idx[chain[j + 1]]))
                    for j in range(1, len(chain) - 1))
    return tris, tuple(idx[v] for v in P.vertices), {i: p for p, i in idx.items()}


def _poof_cases():
    cases = [pentagon_fig2(), square_fig7()]
    for seed in range(40):
        P = random_convex_polygon(3 + seed % 7, 12 + seed, seed=seed)
        cases.append((P, random_dissection(P, depth=4 + seed % 12, seed=seed)))
    # the benchmark's own T-vertex dissections, for both word verdicts
    for count in (250, 500):
        for contractible in (True, False):
            req = inputs.foreign_request(random.Random(f"poof-{count}"), count, "valid",
                                         contractible)
            cases.append((validate_convex(req.polygon), Dissection(req.triangles)))
    return cases


def test_poof_matches_reference():
    cases = _poof_cases()
    poofagons = kept = 0
    for P, D in cases:
        T, vmap = poof(P, D)
        tris, corners, ref_vmap = reference_poof(P, D)
        colors = {i: color_of(p) for i, p in ref_vmap.items()}
        assert (T.triangles, T.corners, T.vertex_colors, vmap) == (tris, corners, colors, ref_vmap)
        poofagons += len(T.triangles) - len(D.triangles)
        # again on a read Dissection that a verify has just checked
        D = _read(P, D)
        assert verify_dissection(P, D, "any").valid
        kept += len(D._record) > 1
        T2, vmap2 = poof(P, D)
        assert (T2.triangles, T2.corners) == (tris, corners)
        assert list(T2.vertex_colors.items()) == list(T.vertex_colors.items())
        assert list(vmap2.items()) == list(vmap.items())
    assert poofagons >= 100  # the inputs do subdivide sides and edges
    assert kept == len(cases)  # the second poofs reuse the verify's result


def test_poof_builds_what_the_public_constructor_accepts():
    # poof hands its containers to the Triangulation unchecked; the public
    # constructor, which checks every triangle, builds an equal one from them
    for P, D in _poof_cases():
        T, _ = poof(P, D)
        U = Triangulation(T.vertex_colors, T.triangles, T.corners)
        assert [type(T.vertex_colors), type(T.triangles), type(T.corners)] == [
            dict, frozenset, tuple]
        assert (T.vertex_colors, T.triangles, T.corners) == (
            U.vertex_colors, U.triangles, U.corners)
        assert list(T.vertex_colors.items()) == list(U.vertex_colors.items())
        assert all(type(t) is frozenset for t in T.triangles)
        validate_disk(T)
        with pytest.raises(AttributeError):
            T.corners = ()


def test_poof_matches_reference_on_foreign_requests():
    # the benchmark's shuffled and relabelled T-vertex dissections, fresh,
    # read, and read with a verification kept
    poofagons = 0
    for count in (30, 120, 500):
        for contractible in (True, False):
            req = inputs.foreign_request(random.Random(count), count, "valid", contractible)
            P = validate_convex(req.polygon)
            tris, corners, ref_vmap = reference_poof(P, Dissection(req.triangles))
            colors = [(i, color_of(p)) for i, p in ref_vmap.items()]
            read = parse_dissection_json(req.dissection_text)[1]
            for D in (Dissection(req.triangles), read, _kept(P, read)):
                T, vmap = poof(P, D)
                assert (T.triangles, T.corners) == (tris, corners)
                assert list(T.vertex_colors.items()) == colors
                assert list(vmap.items()) == list(ref_vmap.items())
            poofagons += len(tris) - len(req.triangles)
    assert poofagons >= 100  # the inputs do subdivide sides and edges


# --- the verification kept on a read Dissection ------------------------------------

def _read(P, D):
    return parse_dissection_json(dissection_to_json(P, D))[1]


def _checks(P, D):
    """What verify, poof and witness say about D, as comparable values."""
    try:
        poofed = sorted(tuple(sorted(t)) for t in poof(P, D)[0].triangles)
    except InvalidDissection as e:
        poofed = str(e)
    try:
        witness = tuple(map(tuple, witness_noninteger(P, D)))
    except PreconditionViolated as e:
        witness = str(e)
    return verify_dissection(P, D, "any"), poofed, witness


def _fresh(D):
    return Dissection(tuple(tuple(map(tuple, t)) for t in D.triangles))


class _HashableList(list):
    """A mutable vertex that can still key a dict."""

    def __hash__(self):
        return hash(tuple(self))


def _kept(P, D):
    """D read back, with a valid mode-"any" result against P kept."""
    D = _read(P, D)
    assert verify_dissection(P, D, "any").valid
    assert len(D._record) > 1
    return D


def test_kept_result_is_not_used_for_mutable_triangles():
    # a list of triangles, and a tuple of triangles that are lists: the
    # constructor copies them into tuples, so changing them afterwards
    # changes neither the dissection nor its kept result
    for triangles in (list(HALF_SPLIT.triangles), tuple(map(list, HALF_SPLIT.triangles))):
        D = Dissection(triangles)
        kept = _checks(UNIT_SQUARE, D)
        assert kept[0].valid and len(D._record) > 1
        if isinstance(triangles, list):
            triangles.pop()
        else:
            triangles[1][2] = (0, 2)
        assert D == HALF_SPLIT and _checks(UNIT_SQUARE, D) == kept


def test_kept_result_is_not_used_for_mutable_vertices():
    # vertices that are lists, which can still key a dict, become tuples
    vertices = tuple(tuple(map(_HashableList, t)) for t in HALF_SPLIT.triangles)
    D = Dissection(vertices)
    assert verify_dissection(UNIT_SQUARE, D).valid and len(D._record) > 1
    vertices[1][2][1] = 2  # the input's (0, 1) becomes (0, 2)
    assert D == HALF_SPLIT and verify_dissection(UNIT_SQUARE, D).valid


def test_kept_result_is_not_used_for_another_polygon():
    D = _read(UNIT_SQUARE, HALF_SPLIT)
    assert _checks(UNIT_SQUARE, D)[0].valid
    corner = validate_convex([(0, 0), (1, 0), (0, 1)])  # a non-contractible word, ABD
    after = _checks(corner, D)
    assert not after[0].valid
    assert after == _checks(corner, _fresh(D))
    # a polygon whose vertex list changes in place between two calls
    P = ConvexLatticePolygon(list(UNIT_SQUARE.vertices))
    assert _checks(P, D)[0].valid
    P.vertices[:] = corner.vertices
    assert _checks(P, D) == after


@pytest.mark.parametrize("side", [1, 2])
def test_other_modes_after_a_kept_result_match_a_fresh_dissection(side):
    P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
    D = _read(P, HALF_SPLIT if side == 1 else unit_dissection(P))
    assert verify_dissection(P, D, "any") is verify_dissection(P, D, "any")  # the kept report
    for mode in ("unit", "integral"):
        assert verify_dissection(P, D, mode) == verify_dissection(P, _fresh(D), mode)


def test_invalid_results_and_other_modes_are_not_kept():
    for mode in MODES:
        D = _read(UNIT_SQUARE, Dissection(HALF_SPLIT.triangles[:1]))
        assert not verify_dissection(UNIT_SQUARE, D, mode).valid
        assert D._record == ()
    square = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
    D = _read(square, unit_dissection(square))
    for mode in ("unit", "integral"):
        assert verify_dissection(square, D, mode).valid
        assert D._record == ()
    assert verify_dissection(square, D, "any") == verify_dissection(square, _fresh(D), "any")
    D = _read(UNIT_SQUARE, HALF_SPLIT)
    verify_dissection(UNIT_SQUARE, D, "any")
    kept = D._record
    assert len(kept) > 1
    assert not verify_dissection(validate_convex([(0, 0), (2, 0), (0, 2)]), D, "any").valid
    assert D._record is kept


def test_dissections_not_read_keep_their_result():
    square = validate_convex([(0, 0), (4, 0), (4, 4), (0, 4)])
    for P, built in [(UNIT_SQUARE, HALF_SPLIT), (square, unit_dissection(square))]:
        D = Dissection(built.triangles)
        assert verify_dissection(P, D, "any").valid
        assert D._record[0] is P.vertices
        assert _everything(P, D) == _everything(P, _kept(P, built))


def test_equal_polygon_of_other_tuples_is_verified_again():
    P = validate_convex([(0, 0), (4, 0), (4, 4), (0, 4)])
    D = _kept(P, unit_dissection(P))
    kept = D._record
    Q = validate_convex(P.vertices)
    assert Q.vertices == P.vertices and Q.vertices is not P.vertices
    report = verify_dissection(Q, D, "any")
    assert report == kept[1] and report is not kept[1]
    assert verify_dissection(P, D, "any") is not kept[1]  # Q's result is kept now


# --- the kept result: read and fresh dissections report alike ----------------------

def _everything(P, D, poof_first=False):
    """verify in every mode, poof and witness on D, as comparable values."""
    def poofed():
        try:
            T, vmap = poof(P, D)
        except InvalidDissection as e:
            return str(e)
        return (T.triangles, T.corners, list(T.vertex_colors.items()), list(vmap.items()))

    first = poofed() if poof_first else None
    reports = [verify_dissection(P, D, mode) for mode in MODES]
    try:
        witness = witness_noninteger(P, D)
    except PreconditionViolated as e:
        witness = str(e)
    return reports, first or poofed(), witness


def test_dissections_not_read_report_as_the_read_one():
    square = validate_convex([(0, 0), (4, 0), (4, 4), (0, 4)])
    for P, D in [(UNIT_SQUARE, HALF_SPLIT), (square, unit_dissection(square)),
                 (UNIT_SQUARE, Dissection(HALF_SPLIT.triangles[:1]))]:
        read = _read(P, D)
        others = [Dissection(read.triangles), copy.copy(read), pickle.loads(pickle.dumps(read))]
        for other in others:
            assert other._record == ()
            for mode in MODES:
                assert verify_dissection(P, other, mode) == verify_dissection(P, read, mode)


def _differential_cases():
    for count in (30, 100, 300):
        for label in ("valid", "drop", "overlap"):
            for contractible in (True, False):
                req = inputs.foreign_request(random.Random(count), count, label, contractible)
                yield validate_convex(req.polygon), req.dissection_text
    for side in (2, 4, 6):
        P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
        yield P, dissection_to_json(P, unit_dissection(P))


def test_read_and_fresh_dissections_give_equal_results():
    labels = set()
    for P, text in _differential_cases():
        D = parse_dissection_json(text)[1]
        fresh = _everything(P, _fresh(D))
        assert _everything(P, D) == fresh
        assert _everything(P, parse_dissection_json(text)[1], poof_first=True) == fresh
        labels.add((fresh[0][2].valid, isinstance(fresh[2], tuple)))
    # valid and invalid dissections, with and without a witness
    assert labels == {(True, True), (True, False), (False, False)}


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


@pytest.mark.parametrize("triangles, failed", [
    ((HALF_SPLIT.triangles[0][::-1], HALF_SPLIT.triangles[1]),
     "orientation, boundary-chain, area-sum"),
], ids=["clockwise-triangle"])
def test_witness_names_the_checks_that_fail(triangles, failed):
    # names only: the details stay in verify's report
    with pytest.raises(PreconditionViolated) as e:
        witness_noninteger(UNIT_SQUARE, Dissection(triangles))
    assert str(e.value) == ("the dissection does not verify against the polygon; "
                            f"failed checks: {failed}")
