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
v0 + u, and only the d = 2, q odd case runs the extended Euclidean algorithm
to place (1,1) or (2,1).  normalize, split_with_point and
UnimodularAffineMap spell out the same rule with explicit maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import NamedTuple

from .errors import Degenerate, IsVertex, NotIntegerArea, OddArea, OutsideTriangle
from .geometry import (
    ConvexLatticePolygon,
    LatticePoint,
    LatticeTriangle,
    as_point,
    boundary_word,
    color_of,
    load_json,
    orient,
    polygon_area2,
    signed_area2,
)
from .words import ContractionTrace, decide_contractible


@dataclass(frozen=True)
class Dissection:
    """A list of positively oriented lattice triangles.

    Whether they actually dissect a given polygon is the verify module's
    business; this type only carries the pieces.
    """

    triangles: tuple[LatticeTriangle, ...]

    def __len__(self) -> int:
        return len(self.triangles)

    def doubled_areas(self) -> list[int]:
        return [signed_area2(t) for t in self.triangles]


@dataclass(frozen=True)
class UnimodularAffineMap:
    """x -> M x + t with integer M of determinant +-1 and integer t.

    Bijects the lattice; preserves doubled areas up to the sign of det(M)
    and preserves equality of parity colors in both directions.
    """

    m00: int
    m01: int
    m10: int
    m11: int
    tx: int = 0
    ty: int = 0

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    @classmethod
    def translation(cls, tx: int, ty: int) -> "UnimodularAffineMap":
        return cls(1, 0, 0, 1, tx, ty)

    def apply(self, p) -> LatticePoint:
        x, y = p
        return LatticePoint(self.m00 * x + self.m01 * y + self.tx,
                            self.m10 * x + self.m11 * y + self.ty)

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map sending x to self(other(x))."""
        return UnimodularAffineMap(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.tx + self.m01 * other.ty + self.tx,
            self.m10 * other.tx + self.m11 * other.ty + self.ty,
        )

    def inverse(self) -> "UnimodularAffineMap":
        s = self.det  # +-1, so the adjugate divided by det stays integral
        i00, i01 = s * self.m11, -s * self.m01
        i10, i11 = -s * self.m10, s * self.m00
        return UnimodularAffineMap(
            i00, i01, i10, i11,
            -(i00 * self.tx + i01 * self.ty),
            -(i10 * self.tx + i11 * self.ty),
        )


class NormalizedTriangle(NamedTuple):
    """Normal form (0,0), (d,0), (p,q) with d > 0, q >= 1, 1 <= p <= q."""

    d: int
    p: int
    q: int

    @property
    def vertices(self) -> LatticeTriangle:
        return LatticeTriangle(LatticePoint(0, 0), LatticePoint(self.d, 0),
                               LatticePoint(self.p, self.q))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, r, s) with r*a + s*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def normalize(t: LatticeTriangle) -> tuple[UnimodularAffineMap, NormalizedTriangle]:
    """Map a triangle of even positive doubled area to its normal form.

    Picks the first same-colored vertex pair (which exists because the
    doubled area is even) as the pair sent to (0,0) and (d,0); d comes out
    even.  Returns the full affine map M with M(v0)=(0,0), M(v1)=(d,0),
    M(v2)=(p,q), det(M) = +1.
    """
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot normalize a degenerate triangle")
    if area2 % 2:
        raise NotIntegerArea(f"doubled area {area2} is odd")

    cols = [color_of(v) for v in t]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if cols[i] == cols[j]:
            k = 3 - i - j
            break
    else:  # impossible: even doubled area forces a repeated color
        raise AssertionError("even-area triangle without a repeated color")
    v0, v1, v2 = t[i], t[j], t[k]
    if orient(v0, v1, v2) < 0:
        v0, v1 = v1, v0

    a, b = v1[0] - v0[0], v1[1] - v0[1]
    d, r, s = _egcd(a, b)
    first = UnimodularAffineMap(r, s, -b // d, a // d)  # det +1, sends (a,b) to (d,0)
    shift = UnimodularAffineMap.translation(-v0.x, -v0.y)
    tq = first.apply(v2 - v0)
    t_, q = tq
    assert q == abs(area2) // d > 0
    p = (t_ - 1) % q + 1
    k_ = (p - t_) // q
    shear = UnimodularAffineMap(1, k_, 0, 1)
    M = shear.compose(first).compose(shift)
    assert d % 2 == 0 and 1 <= p <= q
    assert M.apply(v0) == (0, 0) and M.apply(v1) == (d, 0) and M.apply(v2) == (p, q)
    return M, NormalizedTriangle(d, p, q)


def split_with_point(t: LatticeTriangle, x: LatticePoint) -> list[LatticeTriangle]:
    """Dissect the triangle using a lattice point of it that is not a vertex.

    Three pieces when x is strictly interior, two when x lies in the
    interior of an edge; pieces are counterclockwise and their doubled areas
    sum to the triangle's.
    """
    if signed_area2(t) == 0:
        raise Degenerate("cannot split a degenerate triangle")
    if signed_area2(t) < 0:
        t = LatticeTriangle(t.v0, t.v2, t.v1)
    if x in t:
        raise IsVertex(f"{tuple(x)} is a vertex of the triangle")
    v = (t.v0, t.v1, t.v2)
    o = [orient(v[i], v[(i + 1) % 3], x) for i in range(3)]
    if any(side < 0 for side in o):
        raise OutsideTriangle(f"{tuple(x)} lies outside the triangle")
    zeros = [i for i in range(3) if o[i] == 0]
    if not zeros:
        return [LatticeTriangle(v[i], v[(i + 1) % 3], x) for i in range(3)]
    assert len(zeros) == 1  # two zero sides would make x a vertex
    i = zeros[0]
    return [
        LatticeTriangle(v[i], x, v[(i + 2) % 3]),
        LatticeTriangle(x, v[(i + 1) % 3], v[(i + 2) % 3]),
    ]


def refine_triangle(t: LatticeTriangle) -> Dissection:
    """Cut a lattice triangle of even doubled area into unit-area pieces.

    Returns exactly doubled-area/2 triangles of doubled area 2.  Input
    orientation does not matter; pieces come out counterclockwise.  The
    pieces share the LatticePoint objects of the triangles they came from.
    """
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot refine a degenerate triangle")
    if area2 < 0:
        t = LatticeTriangle(t.v0, t.v2, t.v1)
        area2 = -area2
    if area2 % 2:
        raise NotIntegerArea(f"doubled area {area2} is odd")

    out: list[LatticeTriangle] = []
    work = [(area2, *t)]  # (doubled area, counterclockwise vertices)
    while work:
        a2, u0, u1, u2 = work.pop()
        if a2 == 2:
            out.append(LatticeTriangle(u0, u1, u2))
            continue
        # The first same-colored pair, taken in counterclockwise order, is the
        # edge v0 -> v1 that the normal form sends to (0,0) -> (d,0).
        if not ((u0.x ^ u1.x) | (u0.y ^ u1.y)) & 1:
            v0, v1, v2 = u0, u1, u2
        elif not ((u0.x ^ u2.x) | (u0.y ^ u2.y)) & 1:
            v0, v1, v2 = u2, u0, u1
        else:
            v0, v1, v2 = u1, u2, u0
        a, b = v1.x - v0.x, v1.y - v0.y
        d = gcd(a, b)
        q = a2 // d
        assert d % 2 == 0 and d * q == a2
        ua, ub = a // d, b // d  # primitive direction of the edge
        if d > 2:  # split at (2,0)
            x = LatticePoint(v0.x + 2 * ua, v0.y + 2 * ub)
        elif q % 2 == 0:  # split at (1,0)
            x = LatticePoint(v0.x + ua, v0.y + ub)
        else:
            # Normal coordinates of v2 are (p, q) with 1 <= p <= q; the map
            # back sends (X, Y) to v0 + (X - k*Y)*(ua, ub) + Y*(-s, r).
            _, r, s = _egcd(a, b)
            tq = r * (v2.x - v0.x) + s * (v2.y - v0.y)
            p = (tq - 1) % q + 1
            k = (p - tq) // q
            m = (1 if p % 2 else 2) - k  # split at (1,1) or (2,1)
            x = LatticePoint(v0.x + m * ua - s, v0.y + m * ub + r)
        o0 = orient(u0, u1, x)
        o1 = orient(u1, u2, x)
        o2 = a2 - o0 - o1  # orient(u2, u0, x)
        if o0 < 0 or o1 < 0 or o2 < 0:
            raise OutsideTriangle(f"{tuple(x)} lies outside the triangle")
        if o0 and o1 and o2:
            pieces = ((o0, u0, u1, x), (o1, u1, u2, x), (o2, u2, u0, x))
        elif o1 and o2:  # x inside edge u0 u1
            pieces = ((o2, u0, x, u2), (o1, x, u1, u2))
        elif o0 and o2:  # x inside edge u1 u2
            pieces = ((o0, u1, x, u0), (o2, x, u2, u0))
        elif o0 and o1:  # x inside edge u2 u0
            pieces = ((o1, u2, x, u1), (o0, x, u0, u1))
        else:
            raise IsVertex(f"{tuple(x)} is a vertex of the triangle")
        for piece in pieces:
            pa = piece[0]
            assert 0 < pa < a2 and pa % 2 == 0
        work.extend(pieces)
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
    for step in trace.steps:
        tri = LatticeTriangle(vs[step.left], vs[step.deleted], vs[step.right])
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
    if total % 2:
        raise OddArea(f"polygon doubled area {total} is odd")  # unreachable for valid P
    pieces: list[LatticeTriangle] = []
    for tri in diag.triangles:
        pieces.extend(refine_triangle(tri).triangles)
    assert len(pieces) == total // 2
    return Dissection(tuple(pieces))


# --- dissection JSON ----------------------------------------------------------

def dissection_to_json(P: ConvexLatticePolygon, D: Dissection) -> str:
    # Points and triangles are tuples, which json writes as arrays: no copy.
    return json.dumps({"polygon": P.vertices, "triangles": D.triangles})


def parse_dissection_json(text: str) -> tuple[list[LatticePoint], Dissection]:
    """Parse dissection JSON; returns the stated polygon vertices (not yet
    validated) and the triangle list.

    Each distinct vertex becomes one LatticePoint, shared by the triangles
    that name it.
    """
    data = load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("triangles"), list):
        raise ValueError('dissection JSON must be an object with a "triangles" array')
    polygon = data.get("polygon", [])
    if not isinstance(polygon, list):
        raise ValueError('dissection JSON "polygon" must be an array of [x, y] pairs')
    raw = data["triangles"]
    try:
        vertices = list(chain.from_iterable(raw))
        # JSON holds lists, dicts, strings and scalars, so this admits only
        # lists of three [x, y] lists of exact integers (a bool is not one).
        well_formed = (set(map(len, raw)) <= {3} and set(map(len, vertices)) <= {2}
                       and set(map(type, chain.from_iterable(vertices))) <= {int})
    except TypeError:
        well_formed = False
    if well_formed:
        points = {p: p for p in map(LatticePoint._make, set(map(tuple, vertices)))}
        it = map(points.__getitem__, map(tuple, vertices))
        tris = tuple(map(LatticeTriangle._make, zip(it, it, it)))
    entry = None
    try:
        poly = []
        for entry in polygon:
            poly.append(as_point(entry))
        if not well_formed:  # the checks below name the first bad entry
            tris = []
            for entry in raw:
                if len(entry) != 3:
                    raise ValueError(f"triangle {entry!r} does not have 3 vertices")
                tris.append(LatticeTriangle(*(as_point(p) for p in entry)))
    except TypeError:
        # a number or null where a pair or a vertex list belongs
        raise ValueError(f"dissection entry {entry!r} is not made of [x, y] pairs") from None
    return poly, Dissection(tuple(tris))
