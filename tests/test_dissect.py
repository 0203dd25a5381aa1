import io
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from latticediss import dissect
from latticediss.errors import Degenerate, IsVertex, NotIntegerArea, OutsideTriangle
from latticediss.dissect import (
    Dissection,
    _parse_written,
    diagonal_dissection,
    dissection_to_json,
    parse_dissection_json,
    read_dissection,
    refine_triangle,
    unit_dissection,
)
from latticediss.geometry import (
    as_point,
    as_triangle,
    boundary_word,
    color_of,
    load_json,
    polygon_area2,
    signed_area2,
    validate_convex,
)
from latticediss.verify import verify_dissection
from latticediss.words import CyclicWord, decide_contractible
from fuzz_reference import random_convex_polygon, random_dissection
import refine_reference
from refine_reference import (
    NormalizedTriangle,
    UnimodularAffineMap,
    normalize,
    reference_refine,
    split_with_point,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

coords = st.integers(min_value=-60, max_value=60)
pts = st.tuples(coords, coords)

unimods = st.builds(
    lambda sh1, sh2, swap, tx, ty: _build_map(sh1, sh2, swap, tx, ty),
    st.integers(-4, 4), st.integers(-4, 4), st.booleans(),
    st.integers(-50, 50), st.integers(-50, 50),
)


def _build_map(sh1, sh2, swap, tx, ty):
    m = UnimodularAffineMap(1, sh1, 0, 1).compose(UnimodularAffineMap(1, 0, sh2, 1))
    if swap:
        m = UnimodularAffineMap(0, 1, 1, 0).compose(m)
    return UnimodularAffineMap(m.m00, m.m01, m.m10, m.m11, tx, ty)


even_triangles = st.tuples(pts, pts, pts).filter(
    lambda t: signed_area2(t) != 0 and signed_area2(t) % 2 == 0
)


# --- UnimodularAffineMap ------------------------------------------------------

def test_map_requires_unimodular():
    with pytest.raises(ValueError):
        UnimodularAffineMap(2, 0, 0, 1)
    with pytest.raises(ValueError):
        UnimodularAffineMap(1, 1, 1, 1)
    assert UnimodularAffineMap(0, 1, 1, 0).det == -1


@given(unimods, pts)
def test_map_inverse_roundtrip(m, p):
    assert m.inverse().apply(m.apply(p)) == p
    assert m.apply(m.inverse().apply(p)) == p


@given(unimods, unimods, pts)
def test_map_compose(m1, m2, p):
    assert m1.compose(m2).apply(p) == m1.apply(m2.apply(p))


@given(unimods, pts, pts, pts)
def test_map_scales_area_by_det(m, a, b, c):
    t = (a, b, c)
    mt = (m.apply(a), m.apply(b), m.apply(c))
    assert signed_area2(mt) == m.det * signed_area2(t)


@given(unimods, pts, pts)
def test_map_preserves_color_equality(m, p, q):
    same = color_of(p) == color_of(q)
    same_img = color_of(m.apply(p)) == color_of(m.apply(q))
    assert same == same_img


# --- normalize -----------------------------------------------------------------

def test_normalize_examples():
    M, norm = normalize(as_triangle(((0, 0), (2, 0), (1, 1))))
    assert norm == NormalizedTriangle(2, 1, 1)
    # frozen by running the extended euclidean step by hand on edge (0,2)
    M, norm = normalize(as_triangle(((0, 0), (0, 2), (-1, 1))))
    assert norm == NormalizedTriangle(2, 1, 1)
    assert M.det == 1
    assert M.apply((0, 0)) == (0, 0)
    assert M.apply((0, 2)) == (2, 0)
    assert M.apply((-1, 1)) == (1, 1)


def test_normalize_errors():
    with pytest.raises(NotIntegerArea):
        normalize(as_triangle(((0, 0), (1, 0), (0, 1))))
    with pytest.raises(Degenerate):
        normalize(as_triangle(((0, 0), (1, 1), (2, 2))))


@settings(max_examples=400)
@given(even_triangles)
def test_normalize_properties(t):
    M, norm = normalize(t)
    d, p, q = norm
    assert d % 2 == 0 and d > 0
    assert 1 <= p <= q
    assert d * q == abs(signed_area2(t))
    assert M.det == 1
    images = {M.apply(v) for v in t}
    assert images == {(0, 0), (d, 0), (p, q)}


# --- split_with_point ------------------------------------------------------------

def test_split_interior():
    t = as_triangle(((0, 0), (2, 0), (1, 2)))
    parts = split_with_point(t, (1, 1))
    assert len(parts) == 3
    assert sorted(signed_area2(p) for p in parts) == [1, 1, 2]


def test_split_on_edge():
    t = as_triangle(((0, 0), (4, 0), (0, 1)))
    parts = split_with_point(t, (2, 0))
    assert [signed_area2(p) for p in parts] == [2, 2]


def test_split_clockwise_triangle():
    # a clockwise triangle is split as its counterclockwise reordering
    cw = as_triangle(((0, 0), (1, 2), (2, 0)))
    ccw = as_triangle(((0, 0), (2, 0), (1, 2)))
    for x in ((1, 1), (1, 0)):
        parts = split_with_point(cw, x)
        assert parts == split_with_point(ccw, x)
        assert all(signed_area2(p) > 0 for p in parts)


def test_split_errors():
    t = as_triangle(((0, 0), (2, 0), (1, 2)))
    with pytest.raises(OutsideTriangle):
        split_with_point(t, (5, 5))
    with pytest.raises(IsVertex):
        split_with_point(t, (2, 0))
    with pytest.raises(Degenerate):
        split_with_point(as_triangle(((0, 0), (1, 0), (2, 0))), (1, 0))


def test_split_coerces_the_point():
    # a list point is compared with the tuple vertices only after coercion,
    # and a non-integer point is refused instead of giving non-lattice pieces
    t = as_triangle(((0, 0), (2, 0), (1, 2)))
    with pytest.raises(IsVertex):
        split_with_point(t, [2, 0])
    assert split_with_point(t, [1, 0]) == split_with_point(t, (1, 0))
    assert all(type(p) is tuple for piece in split_with_point(t, [1, 0]) for p in piece)
    for bad in ([1.5, 0], None, 5):
        with pytest.raises(ValueError):
            split_with_point(t, bad)


@settings(max_examples=300)
@given(st.tuples(pts, pts, pts), pts)
def test_split_partitions_area(t, x):
    assume(signed_area2(t) > 0)
    assume(x not in t)
    try:
        parts = split_with_point(t, x)
    except OutsideTriangle:
        return
    assert sum(signed_area2(p) for p in parts) == signed_area2(t)
    assert all(signed_area2(p) > 0 for p in parts)


# --- refine_triangle --------------------------------------------------------------

def test_refine_examples():
    t = as_triangle(((0, 0), (2, 0), (1, 1)))
    assert refine_triangle(t).triangles == (t,)
    assert [signed_area2(p) for p in refine_triangle(as_triangle(((0, 0), (4, 0), (0, 1)))).triangles] == [2, 2]
    d = refine_triangle(as_triangle(((0, 0), (2, 0), (1, 3))))
    assert len(d) == 3 and set(map(signed_area2, d.triangles)) == {2}


def test_refine_errors():
    with pytest.raises(NotIntegerArea):
        refine_triangle(as_triangle(((0, 0), (1, 0), (0, 1))))
    with pytest.raises(Degenerate):
        refine_triangle(as_triangle(((0, 0), (2, 0), (4, 0))))


@settings(max_examples=150, deadline=None)
@given(even_triangles)
def test_refine_properties(t):
    d = refine_triangle(t)
    a2 = abs(signed_area2(t))
    assert len(d) == a2 // 2
    assert all(signed_area2(p) == 2 for p in d.triangles)
    # pieces form a genuine dissection of the triangle
    tv = t if signed_area2(t) > 0 else (t[0], t[2], t[1])
    P = validate_convex(tv)
    assert verify_dissection(P, d, "unit").valid


@settings(max_examples=100, deadline=None)
@given(even_triangles)
def test_refine_matches_reference_exactly(t):
    assert refine_triangle(t).triangles == reference_refine(t)


def test_refine_matches_reference_on_criterion_6_triangles():
    rng = random.Random(1106)
    done = 0
    while done < 300:  # the first 300 triangles of criterion 6
        t = as_triangle([(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(3)])
        a2 = signed_area2(t)
        if a2 == 0 or a2 % 2:
            continue
        assert refine_triangle(t).triangles == reference_refine(t)
        done += 1


@settings(max_examples=60, deadline=None)
@given(even_triangles)
def test_refine_far_from_origin_matches_reference_and_shares_points(t):
    # 2**70 is even, so the shift keeps every color, and it is far beyond
    # machine integers.
    big = 2 ** 70
    t = tuple((x + big, y - big) for x, y in t)
    pieces = refine_triangle(t).triangles
    assert pieces == reference_refine(t)
    corners = {v: v for v in t}
    for piece in pieces:
        assert type(piece) is tuple
        assert all(type(v) is tuple for v in piece)
        # a corner of the input is the input's own point object
        assert all(corners.get(v, v) is v for v in piece)


def test_refine_matches_reference_on_every_small_normal_form(monkeypatch):
    # Every normal form of doubled area at most 48, moved by a seeded map, in
    # all three rotations and both orientations.  The worklist pops a split's
    # last pieces first, so the order of the output turns on how many unit
    # pieces end a split; the reference's splits must end in 0, 1, 2 and 3 of
    # them, so each such case is compared.
    ends = set()
    split = refine_reference.split_with_point

    def recording_split(t, x):
        pieces = split(t, x)
        units = 0  # the unit pieces at the end, which the worklist pops first
        while units < len(pieces) and signed_area2(pieces[-1 - units]) == 2:
            units += 1
        ends.add((len(pieces), units))
        return pieces

    monkeypatch.setattr(refine_reference, "split_with_point", recording_split)
    rng = random.Random(48)
    forms = 0
    for d in range(2, 49, 2):
        for q in range(1, 48 // d + 1):
            for p in range(1, q + 1):
                m = _build_map(rng.randint(-4, 4), rng.randint(-4, 4), rng.random() < 0.5,
                               rng.randint(-50, 50), rng.randint(-50, 50))
                t = tuple(map(m.apply, NormalizedTriangle(d, p, q).vertices))
                for k in range(3):
                    r = t[k:] + t[:k]
                    for u in (r, (r[0], r[2], r[1])):
                        assert refine_triangle(u).triangles == reference_refine(u), (d, p, q, u)
                forms += 1
    assert forms == 491
    assert ends == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}


# --- diagonal and unit dissections --------------------------------------------------

def test_diagonal_dissection_examples():
    assert diagonal_dissection(validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])) is None
    tri = validate_convex([(0, 0), (2, 0), (1, 1)])
    D = diagonal_dissection(tri)
    assert D is not None and len(D) == 1 and set(D.triangles[0]) == set(tri.vertices)


def test_diagonal_dissection_dodecagon():
    from latticediss.gen import realize_word

    P = realize_word(CyclicWord("ABABCCDCBBDB"))
    assert P is not None
    D = diagonal_dissection(P)
    assert D is not None and len(D) == 10
    assert all(a > 0 and a % 2 == 0 for a in map(signed_area2, D.triangles))
    assert verify_dissection(P, D, "integral").valid


def test_unit_dissection_examples():
    assert unit_dissection(validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])) is None
    tri = validate_convex([(0, 0), (4, 0), (0, 1)])
    U = unit_dissection(tri)
    assert U is not None and len(U) == 2
    assert verify_dissection(tri, U, "unit").valid


def test_unit_dissection_hexagon_none():
    from latticediss.gen import realize_word

    P = realize_word(CyclicWord("ABCABC"))
    assert P is not None
    assert unit_dissection(P) is None


def test_unit_dissection_matches_contractibility():
    for seed in range(40):
        P = random_convex_polygon(3 + seed % 9, 25, seed=seed)
        ok, _ = decide_contractible(boundary_word(P))
        U = unit_dissection(P)
        if ok:
            assert U is not None and len(U) == polygon_area2(P) // 2
            assert verify_dissection(P, U, "unit").valid
        else:
            assert U is None


# --- JSON -----------------------------------------------------------------------

def test_dissection_json_roundtrip():
    P = validate_convex([(0, 0), (4, 0), (0, 1)])
    D = unit_dissection(P)
    poly, D2 = parse_dissection_json(dissection_to_json(P, D))
    assert poly == list(P.vertices)
    assert D2.triangles == D.triangles


def test_dissection_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        parse_dissection_json('{"triangles": [[[0,0],[1,0]]]}')
    with pytest.raises(ValueError):
        parse_dissection_json('[1,2,3]')


def test_dissection_to_json_text_unchanged():
    # the text of the former encoder, which copied every point into a list
    tri = validate_convex([(0, 0), (4, 0), (0, 1)])
    big = 2 ** 64 + 1
    far = ((-big, 3), (big, -big), (7, big))
    cases = [
        (tri, None),
        (tri, Dissection(())),
        (validate_convex([(-9, -1), (-5, -1), (-9, -2)]), None),
        (validate_convex(far), Dissection((far,))),
    ]
    for seed in range(6):
        P = random_convex_polygon(3 + seed, 15, seed=seed)
        cases.append((P, random_dissection(P, depth=5, seed=seed)))
    for P, D in cases:
        D = unit_dissection(P) if D is None else D
        old = json.dumps({
            "polygon": [[x, y] for x, y in P.vertices],
            "triangles": [[[x, y] for x, y in t] for t in D.triangles],
        })
        assert dissection_to_json(P, D) == old


def reference_parse(text):
    """The per-vertex parse loop: every point through as_point, the text
    through load_json, whose messages the library's reader gives too."""
    data = load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("triangles"), list):
        raise ValueError('dissection JSON must be an object with a "triangles" array')
    polygon = data.get("polygon", [])
    if not isinstance(polygon, list):
        raise ValueError('dissection JSON "polygon" must be an array of [x, y] pairs')
    entry = None
    try:
        poly = []
        for entry in polygon:
            poly.append(as_point(entry))
        tris = []
        for entry in data["triangles"]:
            if len(entry) != 3:
                raise ValueError(f"triangle {entry!r} does not have 3 vertices")
            tris.append(tuple(as_point(p) for p in entry))
    except TypeError:
        raise ValueError(f"dissection entry {entry!r} is not made of [x, y] pairs") from None
    return poly, tris


@pytest.mark.parametrize("text", [
    '{"triangles": []}',
    '{"polygon": [[0,0],[1,0],[1,1]], "triangles": [[[0,0],[1,0],[1,1]], [[1,1],[0,0],[1,0]]]}',
    '{"triangles": [5]}', '{"triangles": [[null, [1, 0], [1, 1]]]}',
    '{"triangles": [[[0,0],[1,0]]]}', '{"triangles": [[[0,0],[1,0],[1.5,1]]]}',
    '{"triangles": [[[0,0],[1,0],[1,1,1]]]}', '{"triangles": [[[0,0],[1,0],"ab"]]}',
    '{"triangles": ["abc"]}', '{"triangles": [{"a":1,"b":2,"c":3}]}',
    # a float or bool equal to a point already seen must not pass as that point
    '{"triangles": [[[1,0],[0,0],[1,0.0]]]}', '{"triangles": [[[1,0],[0,0],[true,0]]]}',
    '{"triangles": [[[0,0],[1,0],[1,1]], 7]}', '{"triangles": [[[0,0],[1,0],null]]}',
    '{"polygon": [[0,0],[1]], "triangles": [[[0,0],[1,0],[1,1]]]}',
    '{"polygon": [3], "triangles": [5]}',
], ids=lambda t: t[:48])
def test_parse_dissection_json_matches_reference(text):
    assert outcome(library_parse, text) == outcome(reference_parse, text)


def outcome(parse, text):
    try:
        poly, tris = parse(text)
    except ValueError as e:
        return "error", str(e)
    return poly, tuple(tris)


def library_parse(text):
    poly, D = parse_dissection_json(text)
    return poly, D.triangles


def written(triangles, polygon="[[0, 0], [2, 0], [2, 2], [0, 2]]", end=""):
    """Dissection JSON in the layout of dissection_to_json, around the given
    triangles array body."""
    return '{"polygon": %s, "triangles": [%s]}%s' % (polygon, triangles, end)


GOOD = "[[0, 0], [2, 0], [2, 2]], [[-142, 115], [2, 2], [0, 2]]"


@pytest.mark.parametrize("text", [
    written(GOOD),
    written("[[0, 0], [-142, 115]99999, [2, 2]]"),  # a bracket merge
    written("[[1, 2], 3[, 4], [5, 6]]"),  # a number moved across a bracket
    written("[[1, 2, 3], [4], [5, 6]]"),  # separators in the wrong order
    *[written("[[%s, 0], [1, 0], [1, 1]]" % token)
      for token in ["01", "-", "--1", "-0", "1.5", "1e3", "true", "null", ""]],
    written(""),
    written(GOOD, end="\n"),
    written(GOOD, end=" \t\r\n"),
    # json.loads allows only JSON's own whitespace after the document
    written(GOOD, end="\x0c"), written(GOOD, end="\xa0"), written(GOOD, end="\u2028"),
    written(GOOD, polygon="5"),
    written(GOOD, polygon='{"a": 1}'),
    written(GOOD, polygon="[[true, 0], [1, 0], [1, 1]]"),
    written(GOOD, polygon="[[0, 0], 7]"),
    written("[[%s, 0], [1, 0], [1, 1]]" % ("1" * 5000)),
    written(GOOD + "]"), written("5" + GOOD), written(GOOD + "5"),
    written(GOOD).replace(", ", ","),
], ids=lambda t: repr(t[-60:]))
def test_written_layout_matches_reference(text):
    assert outcome(library_parse, text) == outcome(reference_parse, text)


def test_written_layout_deep_polygon():
    deep = "[" * 10**5 + "]" * 10**5
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_dissection_json(written(GOOD, polygon=deep))


def takes_written_path(text):
    try:
        return _parse_written(text) is not None
    except ValueError:  # the written path names a bad polygon entry itself
        return True


def test_written_layout_is_read_without_the_general_parser():
    P = validate_convex([(0, 0), (4, 0), (3, 2), (0, 2)])
    text = dissection_to_json(P, unit_dissection(P))
    req = inputs.foreign_request(random.Random(1), 60, "valid", True)
    for t in [text, text + "\n", req.dissection_text, written("")]:
        assert takes_written_path(t)
        assert outcome(library_parse, t) == outcome(reference_parse, t)
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    assert not takes_written_path(compact)
    assert outcome(library_parse, compact) == outcome(library_parse, text)


MUTATIONS = [*"0123456789", "-", "], [", "]], [[", "[", "]", ", ", "1.5", "true"]


def cut_text(monkeypatch, size):
    """Make the in-memory reader cut every slice, the first one too, at size."""
    monkeypatch.setattr(dissect, "_TEXT_FIRST", size)
    monkeypatch.setattr(dissect, "_TEXT_SLICE", size)


@pytest.mark.parametrize("size, texts", [(None, 20_000), (1, 3_000), (5, 3_000), (23, 3_000)],
                         ids=["one-slice", "slice-1", "slice-5", "slice-23"])
def test_written_layout_mutations_match_reference(size, texts, monkeypatch):
    # small slices cut the array at every break, or one or two triangles on
    if size is not None:
        cut_text(monkeypatch, size)
    rng = random.Random("written-layout" if size is None else f"written-layout-{size}")
    bases = []
    for seed in range(8):
        P = random_convex_polygon(3 + seed % 4, 6, seed=seed)
        D = random_dissection(P, depth=2, seed=seed)
        if len(D) <= 12:
            bases.append(dissection_to_json(P, D))
    assert bases
    kinds = set()
    for _ in range(texts):
        text = rng.choice(bases)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(text) + 1)
            token = rng.choice(MUTATIONS)
            text = text[:i] + token + text[i + rng.randint(0, 1):]
        got = outcome(library_parse, text)
        assert got == outcome(reference_parse, text), text
        kinds.add((got[0] == "error", takes_written_path(text)))
    # the written path took and declined texts, and both verdicts came out
    assert kinds >= {(True, False), (False, False), (False, True)}


def test_parse_dissection_json_shares_points():
    P = validate_convex([(0, 0), (4, 0), (0, 2)])
    text = dissection_to_json(P, unit_dissection(P))
    data = json.loads(text)
    polygon, D = parse_dissection_json(text)
    # compact and indented copies take the general parser, which must give
    # the same result and intern its points too
    copies = [json.dumps(data, separators=(",", ":")), json.dumps(data, indent=1)]
    for copy in copies:
        assert _parse_written(copy) is None
        assert parse_dissection_json(copy) == (polygon, D)
    for copy in [text, *copies]:
        _, D = parse_dissection_json(copy)
        points = {}
        for v in (v for t in D.triangles for v in t):
            assert type(v) is tuple and points.setdefault(v, v) is v
        assert len(points) < 3 * len(D)


# --- exact ints by construction ----------------------------------------------------

def _exact(D):
    """Whether D's triangles are a tuple of tuples of tuples of exact ints."""
    return type(D.triangles) is tuple and all(
        type(t) is tuple and all(type(v) is tuple and all(type(c) is int for c in v) for v in t)
        for t in D.triangles)


_SHAPE = validate_convex([(0, 0), (4, 0), (3, 2), (0, 2)])
Read = namedtuple("Read", "triangles")  # what read_dissection's slices give, unchecked


def _slices_read(path):
    return Read(read_dissection(path, lambda slices: tuple(chain.from_iterable(slices()))))


@pytest.mark.parametrize("row", ["lists", "refine", "diagonal", "unit", "written-layout",
                                 "general-layout", "file-slices", "stdin-slices"])
def test_every_builder_holds_exact_int_tuples(row, tmp_path, monkeypatch):
    unit = unit_dissection(_SHAPE)
    text = dissection_to_json(_SHAPE, unit)
    path = tmp_path / "d.json"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(json.loads(text), indent=1)))
    D = {
        "lists": lambda: Dissection([[list(v) for v in t] for t in unit.triangles]),
        "refine": lambda: refine_triangle([[0, 0], [4, 0], [0, 2]]),
        "diagonal": lambda: diagonal_dissection(_SHAPE),
        "unit": lambda: unit,
        "written-layout": lambda: parse_dissection_json(text)[1],
        "general-layout": lambda: parse_dissection_json(json.dumps(json.loads(text), indent=1))[1],
        "file-slices": lambda: _slices_read(str(path)),
        "stdin-slices": lambda: _slices_read("-"),
    }[row]()
    assert _exact(D)
    if row == "refine":
        assert D == refine_triangle(((0, 0), (4, 0), (0, 2)))
    elif row != "diagonal":
        assert D.triangles == unit.triangles
    if isinstance(D, Dissection):
        assert hash(D) == hash(Dissection(D.triangles))
    if row == "lists":
        read = parse_dissection_json(text)[1]
        assert D == read and hash(D) == hash(read) and repr(D) == repr(read)


# Each entry is refused by the constructor, and the triangle by refine_triangle
# and split_with_point: a coordinate that is not an exact int, a point that
# is not a pair, or a triangle that is not three points.
NOT_EXACT = [
    ((0, 0), (2.0, 0), (0, 2)),
    ((0, 0), (2.5, 0), (0, -1e20)),
    ((0, 0), (1, 1), (0, 1.0)),
    ((0, 0), (Fraction(1, 2), 0), (0, 2)),
    *[((0, 0), (x, 0), (0, 2))
      for x in (True, False, float("nan"), float("inf"), float("-inf"), "a", "", "1-2")],
    ((2, 0, 7), (1, 0), (0, 1)),
    ((5,), (1, 0), (0, 1)),
    ((0, 0), (1, 0)),
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0), (1, 0), "ab"),
    ((), (1, 0), (0, 1)),
]


@pytest.mark.parametrize("t", NOT_EXACT)
def test_dissection_refuses_what_is_not_exact_int_triangles(t):
    with pytest.raises(ValueError) as e:
        Dissection((((0, 0), (1, 0), (0, 1)), t))
    with pytest.raises(ValueError) as again:
        as_triangle(t)
    assert str(e.value) == str(again.value)  # the reader's messages
    for refuse in (refine_triangle, lambda t: split_with_point(t, (1, 0))):
        with pytest.raises(ValueError):
            refuse(t)


def test_builders_do_not_record():
    for D in [unit_dissection(_SHAPE), diagonal_dissection(_SHAPE),
              refine_triangle(((0, 0), (4, 0), (0, 2))), Dissection([[[0, 0], [4, 0], [0, 2]]])]:
        assert D._record == ()


def test_every_mutated_text_read_is_recorded_and_exact():
    # every dissection the reader returns holds exact ints in tuples, on
    # whichever path the text took, and a valid one keeps its verification
    rng = random.Random("reader-record")
    P = random_convex_polygon(5, 6, seed=3)
    base = dissection_to_json(P, random_dissection(P, depth=2, seed=3))
    paths, kept = set(), 0
    for _ in range(3_000):
        text = base
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(MUTATIONS) + text[i + rng.randint(0, 1):]
        try:
            _, D = parse_dissection_json(text)
        except ValueError:
            continue
        assert _exact(D), text
        if verify_dissection(P, D).valid:
            assert D._record[0] is P.vertices
            kept += 1
        paths.add(takes_written_path(text))
    assert paths == {True, False} and kept > 0


# --- slices of the triangles array --------------------------------------------------

def _square_text(side):
    P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
    return P, unit_dissection(P)


def test_writer_slices_give_json_dumps_text(monkeypatch):
    P, U = _square_text(4)
    cases = [(), U.triangles[:1], U.triangles[:2], U.triangles[:5], U.triangles]
    for size in [*range(1, 100), 500]:
        monkeypatch.setattr(dissect, "_SLICE", size)
        for tris in cases:
            D = Dissection(tuple(tris))
            assert dissection_to_json(P, D) == json.dumps(
                {"polygon": P.vertices, "triangles": D.triangles}), (size, len(tris))


def _general(text):
    """The general parser's result on text, or its message."""
    try:
        data = json.loads(text)
    except ValueError:
        return outcome(library_parse, text)
    return outcome(library_parse, json.dumps(data, indent=1))


def test_reader_slices_match_the_general_parser(monkeypatch):
    P, U = _square_text(4)
    texts = [dissection_to_json(P, Dissection(U.triangles[:k])) for k in (0, 1, 2, 3, len(U))]
    texts += [texts[2] + " \n", texts[-1] + "\n"]
    longest = max(map(len, texts))
    for size in range(1, longest + 2):  # every offset within every triangle, and past the end
        cut_text(monkeypatch, size)
        for text in texts:
            assert takes_written_path(text)
            poly, D = parse_dissection_json(text)
            assert (poly, D.triangles) == _general(text) and _exact(D)


def test_reader_slices_give_one_tuple_per_point(tmp_path, monkeypatch):
    # (0, 0) is written 0, -0 and both; (2, 2) is named by every triangle, so
    # it recurs across the cuts
    text = written("[[0, 0], [2, 0], [2, 2]], [[-0, 0], [2, 2], [0, 2]], "
                   "[[0, -0], [2, 2], [0, 2]], [[2, 2], [-0, -0], [2, 0]]")
    expected = (((0, 0), (2, 0), (2, 2)), ((0, 0), (2, 2), (0, 2)),
                ((0, 0), (2, 2), (0, 2)), ((2, 2), (0, 0), (2, 0)))
    path = tmp_path / "d.json"
    path.write_text(text)
    for size in range(1, len(text) + 2):
        cut_text(monkeypatch, size)
        monkeypatch.setattr(dissect, "_SLICE", size)
        assert takes_written_path(text)
        _, D = parse_dissection_json(text)
        assert D.triangles == expected
        assert len({id(v) for t in D.triangles for v in t}) == 4, size
        assert [t for part in dissect._file_slices(str(path)) for t in part] == list(expected)


def test_reader_slices_decline_what_the_whole_array_declines(monkeypatch):
    # Wherever the cuts fall, a text that the whole array's checks decline is
    # declined, and the general parser gives its result or message.
    P, U = _square_text(2)
    text = dissection_to_json(P, Dissection(U.triangles[:3]))
    slices = []
    real = dissect._slice_triangles
    monkeypatch.setattr(dissect, "_slice_triangles",
                        lambda part, seen: slices.append(part) or real(part, seen))
    for size in range(1, len(text)):
        cut_text(monkeypatch, size)
        slices.clear()
        assert parse_dissection_json(text)[1].triangles == U.triangles[:3]
        # each triangle takes 24 characters and 2 more to the next; a break
        # "]], [[" starts 2 characters before a triangle's end
        assert len(slices) == (3 if size <= 22 else 2 if size <= 48 else 1)
        for bad in [text.replace("]], [[", "]],[[", 1), text[:-2] + ", [[0, 0]]]}",
                    text[:-2] + ", ]}", text.replace("]]]", "]], [[]]]"),
                    text.replace("]], [[", "]], [[]], [[", 1)]:
            assert not takes_written_path(bad)
            assert outcome(library_parse, bad) == outcome(reference_parse, bad)
    # the first slice has a cut of its own
    for first, later, count in [(len(text), 1, 1), (30, 1, 2), (1, 30, 2), (1, len(text), 2)]:
        monkeypatch.setattr(dissect, "_TEXT_FIRST", first)
        monkeypatch.setattr(dissect, "_TEXT_SLICE", later)
        slices.clear()
        assert parse_dissection_json(text)[1].triangles == U.triangles[:3]
        assert len(slices) == count, (first, later)
