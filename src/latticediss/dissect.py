"""Geometric dissection construction.

diagonal_dissection realizes a contraction trace as triangles on a convex
polygon's corners; refine_triangle cuts any lattice triangle of even doubled
area into triangles of doubled area exactly 2, by moving the triangle to a
normal form (0,0), (d,0), (p,q) with a determinant +-1 affine map and
splitting at a fixed lattice point chosen by parity:

    d > 2          -> split at (2,0)
    d = 2, q even  -> split at (1,0)
    d = 2, q odd, p odd  -> split at (1,1)
    d = 2, q odd, p even -> split at (2,1)

Every piece keeps two vertices of one parity color, hence even doubled area,
and is strictly smaller, so the worklist terminates with exactly
doubled-area/2 unit pieces.

The worklist loop does this with plain integer arithmetic and builds no map
objects.  Three non-collinear points fix an affine map, so the split point
depends only on the triangle and its chosen edge v0 -> v1, and can be
written straight in the triangle's own coordinates: with (a, b) = v1 - v0,
d = gcd(a, b) and u = (a, b)/d, the points (2,0) and (1,0) are v0 + 2u and
v0 + u, and only the d = 2, q odd case needs a Bezout pair of u, from pow,
to place (1,1) or (2,1).  tests/refine_reference.py spells out the same
rule with explicit maps, and refine_triangle must match it piece for piece.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, tee
from math import gcd
from typing import Iterable

from .errors import Degenerate, IsVertex, NotIntegerArea, OutsideTriangle
from .geometry import (
    ConvexLatticePolygon,
    Point,
    Triangle,
    as_point,
    as_triangle,
    boundary_word,
    load_json,
    polygon_area2,
    signed_area2,
)
from .words import ContractionTrace, decide_contractible


@dataclass(frozen=True)
class Dissection:
    """A tuple of lattice triangles, each a tuple of three points.

    Whether they dissect a given polygon, and are positively oriented, is
    the verify module's business; this type only carries the pieces.
    _record is () on any Dissection that parse_dissection_json did not
    build.  The reader sets it to (triangles,), the very tuple it built,
    every coordinate an exact int it made itself; verify then skips its
    type scan and may append its valid mode-"any" result (see
    verify._verify).  It is no part of the value: not an argument, not
    shown and not compared.
    """

    triangles: tuple[Triangle, ...]
    _record: tuple = field(default=(), init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.triangles)

    def doubled_areas(self) -> list[int]:
        return [signed_area2(t) for t in self.triangles]


def split_with_point(t: Triangle, x: Point) -> list[Triangle]:
    """Dissect the triangle using a lattice point of it that is not a vertex.

    Three pieces when x is strictly interior, two when x lies in the
    interior of an edge; pieces are counterclockwise and their doubled areas
    sum to the triangle's.  x may be any [x, y] pair of ints; anything else
    raises ValueError.
    """
    x = as_point(x)
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot split a degenerate triangle")
    if area2 < 0:
        t = (t[0], t[2], t[1])
    if x in t:
        raise IsVertex(f"{x} is a vertex of the triangle")
    o = [signed_area2((t[i], t[(i + 1) % 3], x)) for i in range(3)]
    if any(side < 0 for side in o):
        raise OutsideTriangle(f"{x} lies outside the triangle")
    zeros = [i for i in range(3) if o[i] == 0]
    if not zeros:
        return [(t[i], t[(i + 1) % 3], x) for i in range(3)]
    assert len(zeros) == 1  # two zero sides would make x a vertex
    i = zeros[0]
    return [
        (t[i], x, t[(i + 2) % 3]),
        (x, t[(i + 1) % 3], t[(i + 2) % 3]),
    ]


def refine_triangle(t: Triangle) -> Dissection:
    """Cut a lattice triangle of even doubled area into unit-area pieces.

    Returns exactly doubled-area/2 triangles of doubled area 2.  Input
    orientation does not matter; pieces come out counterclockwise.  The
    pieces share the point tuples of the triangles they came from.
    """
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot refine a degenerate triangle")
    if area2 < 0:
        t = (t[0], t[2], t[1])
        area2 = -area2
    if area2 % 2:
        raise NotIntegerArea(f"doubled area {area2} is odd")

    out: list[Triangle] = []
    work = [(area2, *t)]  # (doubled area, counterclockwise vertices)
    while work:
        a2, u0, u1, u2 = work.pop()
        if a2 == 2:
            out.append((u0, u1, u2))
            continue
        x0, y0 = u0
        x1, y1 = u1
        x2, y2 = u2
        # The first same-colored pair, taken in counterclockwise order, is the
        # edge v0 -> v1 that the normal form sends to (0,0) -> (d,0); v0 is
        # (px, py), v1 - v0 is (a, b) and v2 is (cx, cy).
        if not ((x0 ^ x1) | (y0 ^ y1)) & 1:
            px, py, a, b, cx, cy = x0, y0, x1 - x0, y1 - y0, x2, y2
        elif not ((x0 ^ x2) | (y0 ^ y2)) & 1:
            px, py, a, b, cx, cy = x2, y2, x0 - x2, y0 - y2, x1, y1
        else:
            px, py, a, b, cx, cy = x1, y1, x2 - x1, y2 - y1, x0, y0
        d = gcd(a, b)
        q = a2 // d
        assert d % 2 == 0 and d * q == a2
        ua, ub = a // d, b // d  # primitive direction of the edge
        if d > 2:  # split at (2,0)
            sx, sy = px + 2 * ua, py + 2 * ub
        elif q % 2 == 0:  # split at (1,0)
            sx, sy = px + ua, py + ub
        else:
            # Normal coordinates of v2 are (p, q) with 1 <= p <= q; the map
            # back sends (X, Y) to v0 + (X - k*Y)*(ua, ub) + Y*(-s, r), for
            # any r*ua + s*ub == 1: k absorbs the choice, as (p, q) is unique.
            if ub:
                r = pow(ua, -1, ub)
                s = (1 - r * ua) // ub
            else:
                r, s = ua, 0
            tq = r * (cx - px) + s * (cy - py)
            p = (tq - 1) % q + 1
            k = (p - tq) // q
            m = (1 if p % 2 else 2) - k  # split at (1,1) or (2,1)
            sx, sy = px + m * ua - s, py + m * ub + r
        x = (sx, sy)
        o0 = (x1 - x0) * (sy - y0) - (sx - x0) * (y1 - y0)  # signed_area2((u0, u1, x))
        o1 = (x2 - x1) * (sy - y1) - (sx - x1) * (y2 - y1)  # signed_area2((u1, u2, x))
        o2 = a2 - o0 - o1  # signed_area2((u2, u0, x))
        if o0 < 0 or o1 < 0 or o2 < 0:
            raise OutsideTriangle(f"{x} lies outside the triangle")
        assert not (o0 | o1 | o2) & 1
        # The pieces in split_with_point's order; the last is popped first.
        if o0 and o1 and o2:
            work += (o0, u0, u1, x), (o1, u1, u2, x), (o2, u2, u0, x)
        elif o1 and o2:  # x inside edge u0 u1
            work += (o2, u0, x, u2), (o1, x, u1, u2)
        elif o0 and o2:  # x inside edge u1 u2
            work += (o0, u1, x, u0), (o2, x, u2, u0)
        elif o0 and o1:  # x inside edge u2 u0
            work += (o1, u2, x, u1), (o0, x, u0, u1)
        else:
            raise IsVertex(f"{x} is a vertex of the triangle")
    assert len(out) == area2 // 2
    return Dissection(tuple(out))


def diagonal_dissection(P: ConvexLatticePolygon) -> Dissection | None:
    """Integral diagonal dissection of P, or None when impossible.

    Exists exactly when the boundary word is contractible; each contraction
    step (left, deleted, right) becomes the triangle on those corners.
    """
    ok, trace = decide_contractible(boundary_word(P))
    if not ok:
        return None
    assert isinstance(trace, ContractionTrace)
    vs = P.vertices
    tris = []
    for deleted, left, right in trace.steps:
        tri = (vs[left], vs[deleted], vs[right])
        a2 = signed_area2(tri)
        assert a2 > 0 and a2 % 2 == 0  # convexity and the parity of good triangles
        tris.append(tri)
    return Dissection(tuple(tris))


def unit_dissection(P: ConvexLatticePolygon) -> Dissection | None:
    """Dissection of P into lattice triangles of area 1, or None.

    None exactly when the boundary word is not contractible (in which case
    no integral dissection of any kind exists).
    """
    diag = diagonal_dissection(P)
    if diag is None:
        return None
    total = polygon_area2(P)
    pieces: list[Triangle] = []
    for tri in diag.triangles:
        pieces.extend(refine_triangle(tri).triangles)
    assert len(pieces) == total // 2
    return Dissection(tuple(pieces))


# --- dissection JSON ----------------------------------------------------------

# The layout that dissection_to_json writes, which is also what json.dumps
# writes with its default separators: the polygon's JSON in the first slot and
# the triangles, one _TRIANGLE_JSON each and joined by _TRIANGLE_SEP, in the
# second.  _parse_written reads back exactly this layout.
_DISSECTION_JSON = '{"polygon": %s, "triangles": [%s]}'
_TRIANGLE_JSON = "[[%r, %r], [%r, %r], [%r, %r]]"
_TRIANGLE_SEP = ", "
_HEAD, _MIDDLE, _TAIL = _DISSECTION_JSON.split("%s")
_SKELETON = _TRIANGLE_JSON.replace("%r", "")  # "[[, ], [, ], [, ]]"
_TRIANGLE_BREAK = "]]" + _TRIANGLE_SEP + "[["
_VERTEX_BREAK = "], ["  # between the pairs of _TRIANGLE_JSON
_NUMERALS = str.maketrans("", "", "-0123456789")
# Deletes all that _SKELETON and the repr of an int or a finite float hold.
_NUMBER_TEXT = str.maketrans("", "", _SKELETON + "-+.0123456789e")
_DECODER = json.JSONDecoder()


def dissection_to_json(P: ConvexLatticePolygon, D: Dissection) -> str:
    # The same text as json.dumps({"polygon": ..., "triangles": ...}), with the
    # triangles formatted by one template each.  %r writes an int or a finite
    # float as json.dumps does.  Any other coordinate (a bool, nan, inf, a str
    # in its quotes, a Fraction) leaves a character that _NUMBER_TEXT keeps,
    # and then json.dumps writes the text: it quotes a str and raises
    # TypeError on a Fraction.
    triangles = _TRIANGLE_SEP.join([_TRIANGLE_JSON % (a[0], a[1], b[0], b[1], c[0], c[1])
                                    for a, b, c in D.triangles])
    if triangles.translate(_NUMBER_TEXT):
        return json.dumps({"polygon": P.vertices, "triangles": D.triangles})
    return _DISSECTION_JSON % (json.dumps(P.vertices), triangles)


def _interned(points: Iterable[Point]) -> Dissection:
    """Group a stream of points into triangles, with one tuple per distinct
    point, shared by every triangle that names it.  Both readers end here,
    with exact ints only: _parse_written's json.loads sees only numerals and
    as_point tests type(c) is int.  So the result records its triangles."""
    seen: dict[Point, Point] = {}
    it = map(seen.setdefault, *tee(points))
    D = Dissection(tuple(zip(it, it, it)))
    object.__setattr__(D, "_record", (D.triangles,))
    return D


def _polygon_points(polygon) -> list[Point]:
    if not isinstance(polygon, list):
        raise ValueError('dissection JSON "polygon" must be an array of [x, y] pairs')
    return [as_point(e) for e in polygon]


def _parse_written(text: str) -> tuple[list[Point], Dissection] | None:
    """Read text in the layout of dissection_to_json without building a list
    per triangle or vertex; None for any other text.

    The string checks run in C.  Deleting the numerals from the triangles
    array must leave _SKELETON once per triangle, joined by _TRIANGLE_SEP, so
    every bracket, comma and space sits where the writer puts it.  Merging
    the two separators into ", " then turns the array into one flat JSON list
    of 6 ints per triangle: a numeral anywhere but a number slot breaks a
    separator and leaves a bracket behind, and a malformed number fails
    json.loads.  Both send the text to the general parser, which gives its
    own result or message.
    """
    # Trailing whitespace is skipped, not stripped, so the text is not copied;
    # only JSON's own whitespace counts, as in json.loads.
    stop = len(text)
    while stop and text[stop - 1] in " \t\n\r":
        stop -= 1
    if not (text.startswith(_HEAD) and text.endswith(_TAIL, 0, stop)):
        return None
    try:
        polygon, end = _DECODER.raw_decode(text, len(_HEAD))
    except (ValueError, RecursionError):
        return None
    if not text.startswith(_MIDDLE, end):
        return None
    body = text[end + len(_MIDDLE) : stop - len(_TAIL)]
    n = body.count(_TRIANGLE_BREAK) + 1 if body else 0
    if body.translate(_NUMERALS) != _TRIANGLE_SEP.join([_SKELETON] * n):
        return None
    # body is rebound and then deleted, so no copy of the array text outlives
    # its use: the peak is the ints and the triangles.
    body = body.replace(_TRIANGLE_BREAK, ", ").replace(_VERTEX_BREAK, ", ") or "[[]]"
    if body.find("[", 2) != -1:  # a separator broken by a numeral
        return None
    try:
        (ints,) = json.loads(body)
    except ValueError:
        return None
    del body
    if len(ints) != 6 * n:
        return None
    it = iter(ints)
    return _polygon_points(polygon), _interned(zip(it, it))


def parse_dissection_json(text: str) -> tuple[list[Point], Dissection]:
    """Parse dissection JSON; returns the stated polygon vertices (not yet
    validated) and the triangle list.

    Text in the layout that dissection_to_json (or json.dumps) writes takes
    a fast path; any other valid JSON gives the same result more slowly.
    Each distinct vertex becomes one (x, y) tuple, shared by the triangles
    that name it.
    """
    written = _parse_written(text)
    if written is not None:
        return written
    data = load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("triangles"), list):
        raise ValueError('dissection JSON must be an object with a "triangles" array')
    poly = _polygon_points(data.get("polygon", []))
    return poly, _interned(chain.from_iterable(map(as_triangle, data["triangles"])))
