"""Seeded random convex polygons and random dissections for fuzz tests.

The package decides, builds and checks dissections of polygons it is given;
it draws none itself.  These generators give the tests polygons and valid
dissections with T-vertices to feed it.  Everything is deterministic per
seed (random.Random, whose core generator is stable across platforms).
random_convex_polygon keeps every coordinate within coord_bound in
absolute value, gen.DEFAULT_BOUND = 50 unless given, and draws at most
POLYGON_TRIES = 800 edge-vector sets.
"""

from __future__ import annotations

import math
import random

from latticediss.dissect import Dissection, split_with_point
from latticediss.gen import DEFAULT_BOUND, _centred, _direction
from latticediss.geometry import (
    ConvexLatticePolygon,
    Point,
    Triangle,
    angle_key,
    signed_area2,
    validate_convex,
)

POLYGON_TRIES = 800


class GenerationFailed(Exception):
    """random_convex_polygon found no polygon within its tries."""


def _direction_count(k: int) -> int:
    return sum(
        1
        for x in range(-k, k + 1)
        for y in range(-k, k + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    )


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
