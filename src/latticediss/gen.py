"""Instance generators: random convex polygons, word realizations, fuzz
dissections.

Everything is deterministic per seed (random.Random, whose core generator is
stable across platforms).  The polygon generators keep every coordinate
within coord_bound in absolute value, DEFAULT_BOUND = 50 unless given.
Their search effort is fixed: random_convex_polygon draws at most
POLYGON_TRIES = 800 edge-vector sets, and realize_word visits at most
SEARCH_NODES = 400,000 search nodes per radius.
"""

from __future__ import annotations

import math
import random

from .dissect import Dissection, split_with_point
from .errors import GenerationFailed
from .geometry import (
    ConvexLatticePolygon,
    Point,
    Triangle,
    angle_key,
    boundary_word,
    color_of,
    signed_area2,
    validate_convex,
)
from .words import CyclicWord

DEFAULT_BOUND = 50
POLYGON_TRIES = 800
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


def _direction_count(k: int) -> int:
    return sum(
        1
        for x in range(-k, k + 1)
        for y in range(-k, k + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    )


def _direction(v: Point) -> Point:
    """The primitive vector with v's direction; v is nonzero."""
    g = math.gcd(*v)
    return (v[0] // g, v[1] // g)


def random_convex_polygon(
    n: int, coord_bound: int = DEFAULT_BOUND, seed: int = 0
) -> ConvexLatticePolygon:
    """A strictly convex lattice n-gon with |coordinates| <= coord_bound.

    Edge-vector method: sample n integer vectors summing to zero with
    pairwise distinct directions and sort them by angle; the prefix sums are
    then automatically in strictly convex position.
    """
    if n < 3:
        raise ValueError(f"polygons need n >= 3 vertices, got {n}")
    rng = random.Random(seed)
    # radius must offer at least n distinct directions, and should scale
    # with the coordinate budget so polygons do not degenerate
    k = 1
    while k < 8 and _direction_count(k) < n:
        k += 1
    k = max(k, (3 * coord_bound) // (2 * n))
    for _ in range(POLYGON_TRIES):
        vecs: list[Point] = []
        dirs: set[tuple[int, int]] = set()
        for _ in range(n - 1):
            # a few inner draws to dodge direction collisions
            for _ in range(24):
                v = (rng.randint(-k, k), rng.randint(-k, k))
                if v != (0, 0) and _direction(v) not in dirs:
                    vecs.append(v)
                    dirs.add(_direction(v))
                    break
            else:
                break
        if len(vecs) != n - 1:
            continue
        last = (-sum(v[0] for v in vecs), -sum(v[1] for v in vecs))
        if last == (0, 0) or _direction(last) in dirs:
            continue
        vecs.append(last)
        vecs.sort(key=angle_key)
        pts = _centred(vecs)
        if any(abs(x) > coord_bound or abs(y) > coord_bound for x, y in pts):
            continue
        return validate_convex(pts)
    raise GenerationFailed(
        f"no convex {n}-gon within bound {coord_bound} after {POLYGON_TRIES} tries (seed {seed})"
    )


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
    reach.  None when the word uses letters outside A-D or the bounded
    search fails.
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


def _lattice_points_inside(t: Triangle) -> list[Point]:
    """Lattice points in the closed triangle, excluding its vertices."""
    a, b, c = t
    xs, ys = zip(*t)
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if p in t:
                continue
            if min(signed_area2((a, b, p)), signed_area2((b, c, p)), signed_area2((c, a, p))) >= 0:
                out.append(p)
    return out


def random_dissection(P: ConvexLatticePolygon, depth: int = 0, seed: int = 0) -> Dissection:
    """A valid dissection of P: fan triangulation plus `depth` random splits.

    Splits happen at random lattice points interior to a triangle or to one
    of its edges, so T-vertex configurations arise naturally.
    """
    rng = random.Random(seed)
    vs = P.vertices
    tris = [(vs[0], vs[i], vs[i + 1]) for i in range(1, len(vs) - 1)]
    for _ in range(depth):
        order = list(range(len(tris)))
        rng.shuffle(order)
        for ti in order:
            candidates = _lattice_points_inside(tris[ti])
            if candidates:
                x = rng.choice(candidates)
                tris[ti : ti + 1] = split_with_point(tris[ti], x)
                break
        else:
            break  # every triangle is lattice-point free; nothing to split
    return Dissection(tuple(tris))
