"""An exhaustive search for area-1 tilings, from the definition.

``unit_tiling(P)`` returns area(P) lattice triangles of doubled area 2 with
pairwise disjoint interiors inside the convex lattice polygon P, or None
when there are none.  It shares no algorithm with the package's decider or
builder, so it checks the paper's claim on small polygons directly: P has
such a tiling exactly when its boundary word is contractible.  It searches
every tiling, T-vertices and interior vertices included, so on a polygon of
doubled area 18 it may take a second; it is meant for boxes like [0,3]^2.

The search always covers the uncovered region at p, its lowest-leftmost
point, next to u, the primitive direction of the region's first boundary
edge out of p.  The tile that covers the region there lies in the region's
closure, so p is the least point of the tile and hence a vertex of it, and
the tile has a side along u.  So it is (p, p + k*u, w) with w at lattice
height h to the left of u and k*h = 2: (k, h) is (1, 2) or (2, 1).  A
candidate is kept when its vertices lie in P and a separating axis parts it
from every tile placed so far (as in dissection_oracle).  The region's
boundary is kept as a set of unit lattice steps, each with the region on
its left: P's edges, minus the sides of the placed tiles.  A region that
was searched in vain is remembered, since other orders of the same tiles
lead back to it.  An odd doubled area has no tiling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from dissection_oracle import _separated
from latticediss.geometry import ConvexLatticePolygon, polygon_area2, signed_area2


def _steps(a, b):
    """The unit lattice steps of the segment a -> b, in order."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(dx, dy)
    ux, uy = dx // g, dy // g
    return [((a[0] + i * ux, a[1] + i * uy), (a[0] + (i + 1) * ux, a[1] + (i + 1) * uy))
            for i in range(g)]


def _first_angle(d):
    """A key that is least for the direction d of smallest angle in [0, pi)."""
    dx, dy = d
    return (dy != 0, Fraction(-dx, dy) if dy else 0)


def lattice_points(P: ConvexLatticePolygon) -> list:
    """The lattice points of P, boundary included."""
    xs, ys = zip(*P.vertices)
    edges = list(zip(P.vertices, P.vertices[1:] + P.vertices[:1]))
    return [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if all(signed_area2((a, b, (x, y))) >= 0 for a, b in edges)]


def unit_tiling(P: ConvexLatticePolygon) -> list | None:
    """A tiling of P by counterclockwise lattice triangles of doubled area 2,
    or None when none exists."""
    if polygon_area2(P) % 2:
        return None
    points = lattice_points(P)
    inside = set(points)
    vs = P.vertices
    boundary = {s for a, b in zip(vs, vs[1:] + vs[:1]) for s in _steps(a, b)}
    tiles: list = []
    failed: set = set()

    def place(t):
        """Take t out of the region; returns the undo list."""
        undo = []
        for a, b in zip(t, t[1:] + t[:1]):
            for s in _steps(a, b):
                if s in boundary:
                    boundary.remove(s)
                    undo.append((boundary.add, s))
                else:
                    r = (s[1], s[0])
                    boundary.add(r)
                    undo.append((boundary.remove, r))
        tiles.append(t)
        return undo

    def search() -> bool:
        if not boundary:
            return True
        key = frozenset(boundary)
        if key in failed:
            return False
        p = min((a for a, _ in boundary), key=lambda a: (a[1], a[0]))
        ux, uy = min(((b[0] - a[0], b[1] - a[1]) for a, b in boundary if a == p),
                     key=_first_angle)
        for k, h in ((1, 2), (2, 1)):
            q = (p[0] + k * ux, p[1] + k * uy)
            if q not in inside:
                continue
            for w in points:
                if ux * (w[1] - p[1]) - uy * (w[0] - p[0]) != h:
                    continue
                t = (p, q, w)
                if not all(_separated(t, s) for s in tiles):
                    continue
                undo = place(t)
                if search():
                    return True
                tiles.pop()
                for op, s in reversed(undo):
                    op(s)
        failed.add(key)
        return False

    return list(tiles) if search() else None
