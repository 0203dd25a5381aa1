"""A dissection oracle for differential tests of ``verify``, from the definition.

``is_dissection`` shares no algorithm with the boundary-chain check: it tests
the definition of a dissection directly, in O(T^2) exact integer steps, so it
is meant for up to a few hundred triangles.  Triangles dissect a convex
polygon P when

- every triangle is positively oriented;
- every vertex lies in P (on its boundary or inside);
- the interiors of every two triangles are disjoint;
- the doubled areas sum to P's.

The union of the triangles is then P: it lies in P, and it is closed and
misses no area of P.  Two triangles have disjoint interiors exactly when one
of their six sides has a normal on which the projections of the two overlap
in at most a point (the separating axis theorem for convex polygons); the
normals of lattice sides are integer vectors, so every projection is exact.
"""

from __future__ import annotations

from latticediss.geometry import ConvexLatticePolygon, polygon_area2, signed_area2


def _separated(s, t) -> bool:
    """Whether a side of s or t has a normal that separates their interiors."""
    for u in (s, t):
        for i in range(3):
            (ax, ay), (bx, by) = u[i], u[(i + 1) % 3]
            nx, ny = by - ay, ax - bx  # a normal of the side a -> b
            ps = [nx * x + ny * y for x, y in s]
            pt = [nx * x + ny * y for x, y in t]
            if max(ps) <= min(pt) or max(pt) <= min(ps):
                return True
    return False


def is_dissection(P: ConvexLatticePolygon, triangles) -> bool:
    """Whether the triangles dissect P, tested from the definition."""
    tris = list(triangles)
    if any(signed_area2(t) <= 0 for t in tris):
        return False
    edges = P.edges()
    if any(signed_area2((a, b, v)) < 0 for t in tris for v in t for a, b in edges):
        return False
    if sum(map(signed_area2, tris)) != polygon_area2(P):
        return False
    # Bounding boxes that meet in at most a line separate the interiors
    # too (along an axis); only the other pairs need the six normals.
    boxes = [(min(xs), max(xs), min(ys), max(ys)) for xs, ys in (zip(*t) for t in tris)]
    for i, (ax0, ax1, ay0, ay1) in enumerate(boxes):
        for j in range(i + 1, len(tris)):
            bx0, bx1, by0, by1 = boxes[j]
            if ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0:
                continue
            if not _separated(tris[i], tris[j]):
                return False
    return True
