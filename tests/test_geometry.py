import itertools
import math

import pytest
from hypothesis import given, strategies as st

from latticediss.errors import NotStrictlyConvex, RepeatedVertex, TooFewVertices
from latticediss.geometry import (
    angle_key,
    as_point,
    as_triangle,
    boundary_word,
    collinear,
    color_of,
    parse_polygon_json,
    polygon_area2,
    polygon_to_json,
    signed_area2,
    validate_convex,
)
from latticediss.words import CyclicWord

coords = st.integers(min_value=-1000, max_value=1000)
points = st.tuples(coords, coords)


def det3(t):
    # direct 3x3 determinant: the independent area oracle
    (x1, y1), (x2, y2), (x3, y3) = t
    return (
        1 * (x2 * y3 - x3 * y2)
        - 1 * (x1 * y3 - x3 * y1)
        + 1 * (x1 * y2 - x2 * y1)
    )


def test_color_table():
    assert color_of((0, 0)) == "A"
    assert color_of((1, 1)) == "C"
    assert color_of((-3, 4)) == "B"
    assert color_of((2, 7)) == "D"


def test_signed_area2_examples():
    assert signed_area2(as_triangle(((0, 0), (1, 0), (0, 1)))) == 1
    assert signed_area2(as_triangle(((0, 0), (0, 1), (1, 0)))) == -1
    # frozen from the determinant oracle below
    t = as_triangle(((0, 0), (2, 0), (1, 1)))
    assert det3(t) == 2
    assert signed_area2(t) == 2


@given(points, points, points)
def test_signed_area2_matches_determinant(a, b, c):
    assert signed_area2((a, b, c)) == det3((a, b, c))


@given(points, points, points)
def test_signed_area2_symmetries(a, b, c):
    t = signed_area2((a, b, c))
    assert signed_area2((b, c, a)) == t
    assert signed_area2((c, a, b)) == t
    assert signed_area2((b, a, c)) == -t


def test_parity_proposition_exhaustive_6x6():
    grid = [(x, y) for x in range(6) for y in range(6)]
    for a, b, c in itertools.product(grid, repeat=3):
        t = (a, b, c)
        even = signed_area2(t) % 2 == 0
        assert even == (len({color_of(a), color_of(b), color_of(c)}) < 3)


def test_collinear_examples():
    assert collinear((0, 0), (1, 1), (2, 2))
    assert not collinear((0, 0), (1, 0), (0, 1))
    assert collinear((0, 0), (2, 0), (5, 0))


def test_collinear_corollary_exhaustive_8x8():
    grid = [(x, y) for x in range(8) for y in range(8)]
    for a, b, c in itertools.combinations(grid, 3):
        if collinear(a, b, c):
            cols = {color_of(a), color_of(b), color_of(c)}
            assert len(cols) < 3


def test_boundary_words():
    sq = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert boundary_word(sq) == CyclicWord("ABCD")
    rect = validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])
    assert boundary_word(rect) == CyclicWord("ABCD")
    tri = validate_convex([(0, 0), (2, 0), (1, 1)])
    assert boundary_word(tri) == CyclicWord("AAC")


def test_boundary_word_rotation():
    vs = [(0, 0), (4, 1), (5, 3), (2, 5), (-1, 3)]
    P = validate_convex(vs)
    w = boundary_word(P)
    assert len(w) == len(vs)
    for k in range(len(vs)):
        Q = validate_convex(vs[k:] + vs[:k])
        assert boundary_word(Q) == w


def test_validate_convex_accepts_and_orients():
    P = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert P.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    # clockwise input is reversed
    Q = validate_convex([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert polygon_area2(Q) == 2
    assert Q.vertices[0] == (1, 0) or polygon_area2(Q) > 0


def test_validate_convex_rejections():
    with pytest.raises(TooFewVertices):
        validate_convex([(0, 0), (1, 1)])
    with pytest.raises(NotStrictlyConvex):
        validate_convex([(0, 0), (1, 0), (2, 0), (2, 1)])
    with pytest.raises(RepeatedVertex):
        validate_convex([(0, 0), (1, 0), (0, 0), (0, 1)])
    # reflex corner
    with pytest.raises(NotStrictlyConvex):
        validate_convex([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])
    with pytest.raises(NotStrictlyConvex):
        validate_convex([(0, 0), (4, 0), (1, 1), (0, 4)])
    # a vertex that is not a pair at all
    with pytest.raises(ValueError, match="lattice point None is not an"):
        validate_convex([(0, 0), (1, 0), None])


def test_validate_convex_rejects_star_cycle():
    # all-left-turn pentagram: edge vectors (3,1),(-3,2),(1,-3),(2,3),(-3,-3)
    # wind around twice, so the cycle self-intersects
    vs = [(0, 0), (3, 1), (0, 3), (1, 0), (3, 3)]
    with pytest.raises(NotStrictlyConvex):
        validate_convex(vs)


def test_angle_key_orders_like_atan2():
    # every nonzero vector in [-8, 8]^2, against its angle in [0, 2*pi);
    # vectors with the same primitive direction must tie
    vecs = [(x, y) for x in range(-8, 9) for y in range(-8, 9) if (x, y) != (0, 0)]

    def direction(v):
        g = math.gcd(*v)
        return v[0] // g, v[1] // g

    angle = {v: math.atan2(v[1], v[0]) % (2 * math.pi) for v in vecs}
    for a, b in itertools.product(vecs, repeat=2):
        ka, kb = angle_key(a), angle_key(b)
        if direction(a) == direction(b):
            assert ka == kb and not ka < kb, (a, b)
        else:
            assert (ka < kb) == (angle[a] < angle[b]) and ka != kb, (a, b)


def test_polygon_area2():
    assert polygon_area2(validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])) == 2
    assert polygon_area2(validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])) == 30
    assert polygon_area2(validate_convex([(0, 0), (2, 0), (1, 1)])) == 2


def test_polygon_json_roundtrip():
    P = validate_convex([(0, 0), (4, 1), (5, 3), (2, 5), (-1, 3)])
    assert parse_polygon_json(polygon_to_json(P)).vertices == P.vertices


def test_as_point_takes_exact_ints_only():
    class Int(int):
        pass

    assert as_point([3, -4]) == (3, -4)
    for p in [(Int(1), 0), (0, Int(1))]:
        with pytest.raises(ValueError, match="coordinates must be integers"):
            as_point(p)


@pytest.mark.parametrize("t, named", [
    (5, "dissection entry 5 is not made of [x, y] pairs"),
    (None, "dissection entry None is not made of [x, y] pairs"),
    ([(0, 0), (1, 0)], "triangle [(0, 0), (1, 0)] does not have 3 vertices"),
])
def test_as_triangle_names_a_malformed_triangle(t, named):
    with pytest.raises(ValueError) as info:
        as_triangle(t)
    assert str(info.value) == named


def test_polygon_json_rejects_non_integers():
    with pytest.raises(ValueError):
        parse_polygon_json("[[0, 0], [1.5, 0], [1, 1]]")
    with pytest.raises(ValueError):
        parse_polygon_json("[[0, 0], [true, false], [1, 1]]")
    with pytest.raises(ValueError):
        parse_polygon_json('{"not": "a polygon"}')
