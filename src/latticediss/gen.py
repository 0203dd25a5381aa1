"""Boundary-word realization: a convex lattice polygon whose boundary word
is a given word.

realize_word keeps every coordinate within coord_bound in absolute value,
DEFAULT_BOUND = 50 unless given, and visits at most SEARCH_NODES = 400,000
search nodes per radius, so its effort is fixed.
"""

from __future__ import annotations

import math

from .geometry import (
    ConvexLatticePolygon,
    Point,
    angle_key,
    boundary_word,
    color_of,
    validate_convex,
)
from .words import CyclicWord

DEFAULT_BOUND = 50
SEARCH_NODES = 400_000


def _centred(edges: list[Point]) -> list[Point]:
    """The vertices of the closed edge path, in order from the first edge's
    start, with their bounding box centred on the origin."""
    xs, ys = [0], [0]
    for v in edges[:-1]:
        xs.append(xs[-1] + v[0])
        ys.append(ys[-1] + v[1])
    dx, dy = -((min(xs) + max(xs)) // 2), -((min(ys) + max(ys)) // 2)
    return [(x + dx, y + dy) for x, y in zip(xs, ys)]


def _direction(v: Point) -> Point:
    """The primitive vector with v's direction; v is nonzero."""
    g = math.gcd(*v)
    return (v[0] // g, v[1] // g)


_PARITY = {color_of((x, y)): (x, y) for x in (0, 1) for y in (0, 1)}


def _placed(edges: list[Point], first: Point) -> list[Point]:
    """The closed edge path's vertices, centred, with vertex 0 shifted to
    first's parity (the edge parities then color every other vertex)."""
    pts = _centred(edges)
    dx, dy = (first[0] - pts[0][0]) % 2, (first[1] - pts[0][1]) % 2
    return [(x + dx, y + dy) for x, y in pts]


def realize_word(w: CyclicWord, coord_bound: int = DEFAULT_BOUND) -> ConvexLatticePolygon | None:
    """A strictly convex lattice polygon whose boundary word equals w, or None.

    Iterative-deepening search over angle-sorted edge vectors whose parities
    are pinned by consecutive letter colors; partial sums are pruned by
    reach.  A radius whose pool has fewer directions than w has letters is
    skipped, since a convex polygon uses each direction at most once.  None
    when the word uses letters outside A-D or the bounded search fails.
    """
    n = len(w)
    if n < 3:
        raise ValueError("realizable words need at least 3 letters")
    letters = w.letters
    if any(l not in _PARITY for l in letters):
        return None
    par = [_PARITY[l] for l in letters]
    deltas = [((par[(i + 1) % n][0] - par[i][0]) % 2,
               (par[(i + 1) % n][1] - par[i][1]) % 2) for i in range(n)]

    max_radius = max(2, min(8, coord_bound))
    for radius in range(2, max_radius + 1):
        pool = [
            (x, y)
            for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
            if (x, y) != (0, 0)
        ]
        pool.sort(key=lambda v: (angle_key(v), max(abs(v[0]), abs(v[1]))))
        # group equal directions so the search can force strictly increasing angles
        klass = [_direction(v) for v in pool]
        if len(set(klass)) < n:  # a convex polygon uses each direction at most once
            continue
        parities = [(x % 2, y % 2) for x, y in pool]

        budget = SEARCH_NODES
        chosen: list[Point] = []

        def dfs(slot: int, start: int, last_klass: Point | None, sx: int, sy: int) -> bool:
            nonlocal budget
            budget -= 1
            if budget <= 0:
                return False
            if slot == n:
                return sx == 0 and sy == 0 and all(
                    max(abs(x), abs(y)) <= coord_bound for x, y in _placed(chosen, par[0]))
            reach = radius * (n - slot)
            if abs(sx) > reach or abs(sy) > reach:
                return False
            want = deltas[slot]
            for idx in range(start, len(pool)):
                if klass[idx] == last_klass:
                    continue
                if parities[idx] != want:
                    continue
                v = pool[idx]
                chosen.append(v)
                if dfs(slot + 1, idx + 1, klass[idx], sx + v[0], sy + v[1]):
                    return True
                chosen.pop()
                if budget <= 0:
                    return False
            return False

        if dfs(0, 0, None, 0, 0):
            P = validate_convex(_placed(chosen, par[0]))
            assert boundary_word(P) == w
            return P
    return None
