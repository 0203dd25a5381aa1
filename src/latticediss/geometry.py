"""Exact lattice-plane primitives.

Points with integer coordinates, their parity colors, doubled signed areas,
convexity validation, and boundary words.  All arithmetic is Python integer
arithmetic, hence exact at every size; "doubled area" always means the raw
orientation determinant, i.e. twice the usual signed area, so that every
quantity handled by the package is an integer.  A lattice triangle has
integer area exactly when its doubled area is even, and area 1 exactly when
its doubled area is 2.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from collections.abc import Callable, Iterable

from .errors import NotJSON, NotStrictlyConvex, RepeatedVertex, TooFewVertices
from .words import CyclicWord, OneField

# Names for annotations only: a point is a plain (x, y) tuple of ints.
Point = tuple[int, int]
Triangle = tuple[Point, Point, Point]

# The CLI's parser shows these, so they live here, where building it loads
# no module that only another command runs: verify's area modes, the widest
# and tallest polygon svg renders, in lattice units, and gen's default
# coordinate bound.
MODES = ("integral", "unit", "any")
MAX_SPAN = 1000
DEFAULT_BOUND = 50


def as_point(p) -> Point:
    """Coerce an (x, y) pair of exact integers to a tuple; anything else raises ValueError."""
    try:
        x, y = p
    except (TypeError, ValueError):
        raise ValueError(f"lattice point {p!r} is not an [x, y] pair") from None
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"lattice point coordinates must be integers, got {p!r}")
    return (x, y)


def as_triangle(t) -> Triangle:
    """Coerce three [x, y] pairs to a tuple of points; anything else raises ValueError."""
    try:
        a, b, c = t
    except TypeError:  # a number or null where a vertex list belongs
        raise ValueError(f"dissection entry {t!r} is not made of [x, y] pairs") from None
    except ValueError:
        raise ValueError(f"triangle {t!r} does not have 3 vertices") from None
    return (as_point(a), as_point(b), as_point(c))


def color_of(p: Point) -> str:
    """Parity color of a lattice point, as the letter of boundary words:
    A = (even, even), B = (odd, even), C = (odd, odd), D = (even, odd)."""
    return "ADBC"[2 * (p[0] % 2) + p[1] % 2]


def signed_area2(t: Triangle) -> int:
    """Twice the signed area of a triangle.

    Positive iff the vertices run counterclockwise, zero iff they are
    collinear.  Exact for arbitrarily large coordinates.
    """
    (x1, y1), (x2, y2), (x3, y3) = t
    return (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)


class ConvexLatticePolygon(OneField):
    """A strictly convex lattice polygon, vertices in counterclockwise order.

    Construct through validate_convex; the constructor itself does not check.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        self._set(vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _direction_half(v: Point) -> int:
    # 0 for the upper half-plane (including the positive x-axis),
    # 1 for the lower half (including the negative x-axis).
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def _angle_cmp(a: Point, b: Point) -> int:
    ha, hb = _direction_half(a), _direction_half(b)
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


# Sort key ordering nonzero integer vectors by angle from the +x axis, in
# [0, 2*pi).  Exact: vectors compare by half-plane first, then by cross
# product within a half.  Equal directions compare equal (ties broken by
# callers).
angle_key = functools.cmp_to_key(_angle_cmp)


def validate_convex(points: Iterable) -> ConvexLatticePolygon:
    """Validate a vertex list as a strictly convex lattice polygon.

    Clockwise input is reversed to counterclockwise.  Raises TooFewVertices,
    RepeatedVertex, or NotStrictlyConvex (collinear consecutive triples,
    reflex corners, and self-winding cycles all count as non-convex).
    """
    vs = [as_point(p) for p in points]
    if len(vs) < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        seen = set()
        for p in vs:
            if p in seen:
                raise RepeatedVertex(f"vertex {p} appears more than once")
            seen.add(p)
    n = len(vs)
    crosses = [signed_area2((vs[i], vs[(i + 1) % n], vs[(i + 2) % n])) for i in range(n)]
    if any(c == 0 for c in crosses):
        i = crosses.index(0)
        raise NotStrictlyConvex(
            f"vertices {vs[i]}, {vs[(i + 1) % n]}, {vs[(i + 2) % n]} are collinear"
        )
    if all(c < 0 for c in crosses):
        vs.reverse()
    elif not all(c > 0 for c in crosses):
        raise NotStrictlyConvex("mixed turn directions: polygon is not convex")
    # All turns are now left turns, each less than a half turn, so the edge
    # direction passes the +x axis exactly where it moves from the lower
    # half-plane to the upper one.  Reject cycles that do so more than once:
    # they wind around more than once (e.g. pentagrams) and self-intersect.
    halves = [_direction_half((q[0] - p[0], q[1] - p[1])) for p, q in zip(vs, vs[1:] + vs[:1])]
    wraps = sum(1 for i in range(n) if halves[i - 1] > halves[i])
    if wraps != 1:
        raise NotStrictlyConvex("edge directions wind around more than once")
    return ConvexLatticePolygon(tuple(vs))


def polygon_area2(P: ConvexLatticePolygon) -> int:
    """Twice the polygon's area (shoelace sum); positive for valid input."""
    vs = P.vertices
    n = len(vs)
    return sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1] for i in range(n))


def boundary_word(P: ConvexLatticePolygon) -> CyclicWord:
    """Cyclic word of corner parity colors, counterclockwise."""
    return CyclicWord("".join([color_of(v) for v in P.vertices]))


# --- polygon file format ----------------------------------------------------

def read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e


def load_json(text: str):
    """json.loads, with a syntax error, or nesting too deep for the parser,
    raised as NotJSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise NotJSON(str(e)) from e
    except RecursionError:
        raise NotJSON("JSON is nested too deeply") from None


def parse_read(parse: Callable[[str], object], text: str, path: str) -> object:
    """parse(text), text having been read from path: a NotJSON it raises
    names the path, or stdin for "-", in front of its message."""
    try:
        return parse(text)
    except NotJSON as e:
        raise NotJSON(f"{'stdin' if path == '-' else path}: {e}") from e


def parse_polygon_json(text: str) -> ConvexLatticePolygon:
    """Parse the polygon text format: a JSON array of [x, y] integer pairs."""
    data = load_json(text)
    if not isinstance(data, list):
        raise ValueError("polygon JSON must be an array of [x, y] pairs")
    return validate_convex(data)


def polygon_to_json(P: ConvexLatticePolygon) -> str:
    return json.dumps(P.vertices)


# --- the collector pause of the whole-dissection calls ----------------------

def collector_paused(f: Callable) -> Callable:
    """f, run with the cyclic garbage collector paused.

    For the calls that build or walk a whole dissection in memory: they
    allocate tuples per triangle and per point and make no reference
    cycles, so the collector's young-generation passes over them would
    find nothing.  The collector's state is recorded at the call and
    restored on the way out, also when f raises, so a nested call, or a
    caller that had turned the collector off, finds it as it left it.  The
    caller's next allocation may then run the pass that the call skipped.
    """
    @functools.wraps(f)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused
