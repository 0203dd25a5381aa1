"""Seeded input generators, independent of ``latticediss.gen``.

Request ``i`` of a workload is a pure function of ``(workload, seed, i)``: it
draws from its own ``random.Random`` keyed by that triple, so the stream can
be generated lazily and any prefix is reproducible.  Input sizes follow a
fixed low-discrepancy schedule (request ``i`` sits at quantile ``i * phi mod
1`` of a log-uniform size range), the same for every seed; the seed chooses
the content.  Every prefix of the stream therefore has nearly the same size
distribution, which keeps medians and tails of a time-boxed run steady.
"""

from __future__ import annotations

import json
import math
import random
from typing import NamedTuple

from .reference import contractible, dissection_error, orient, polygon_area2, word_of

_PHI = (math.sqrt(5) - 1) / 2


def rng_for(workload: str, seed: int, i) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def log_size(i: int, lo: int, hi: int) -> int:
    """Size of request i on the log-uniform schedule from lo to hi."""
    return round(lo * (hi / lo) ** ((i * _PHI) % 1.0))


# --- words --------------------------------------------------------------------

def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choices("ABCD", k=n))


_OTHERS = {c: "ABCD".replace(c, "") for c in "ABCD"}


def closed_walk(rng: random.Random, n: int, root: str) -> str:
    """About n letters: the colors of a closed walk from root on a random
    tree whose adjacent nodes have distinct colors, each visit written once
    or, one time in four, twice."""
    out: list[str] = []
    path = [root]
    while True:
        here = path[-1]
        out.append(here)
        if rng.random() < 0.25:
            out.append(here)
        # Leave room to climb back to the root, one letter per level.
        if len(out) + len(path) >= n:
            break
        if len(path) > 1 and rng.random() < 0.5:
            path.pop()
        else:
            path.append(rng.choice(_OTHERS[here]))
    while len(path) > 1:
        path.pop()
        out.append(path[-1])
    return "".join(out)


def tree_walk_word(rng: random.Random, n: int) -> str:
    """A contractible word of length n: a closed walk on a random tree.

    The walk is a random sequence of closed walks from one root, drawn from a
    pool of sixteen, which keeps generation cheap at a million letters; the
    sequence is itself a closed walk on the tree glued from theirs.  The
    root letter pads it to length n, which keeps it closed.
    """
    root = rng.choice("ABCD")
    pool = [closed_walk(rng, rng.randint(500, 8000), root) for _ in range(16)]
    parts, total = [], 0
    while True:
        piece = rng.choice(pool)
        if total + len(piece) > n:
            break
        parts.append(piece)
        total += len(piece)
    parts.append(root * (n - total))
    return "".join(parts)


class WordRequest(NamedTuple):
    text: str
    contractible: bool
    kind: str  # "tree" (contractible by construction) or "random"


def word_request(rng: random.Random, n: int, kind: str) -> WordRequest:
    if kind == "tree":
        return WordRequest(tree_walk_word(rng, n), True, kind)
    text = random_word(rng, n)
    return WordRequest(text, contractible(text), kind)


# --- polygons -----------------------------------------------------------------

def convex_hull(points) -> list[tuple[int, int]]:
    """Strictly convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_polygon(rng: random.Random, area2: int,
                   want_contractible: bool) -> list[tuple[int, int]]:
    """A strictly convex lattice polygon with 3 to 12 vertices, counterclockwise,
    doubled area within 5% of area2, and the requested boundary-word verdict."""
    while True:
        n = rng.randint(3, 12)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        stretch = math.exp(rng.uniform(-0.6, 0.6))
        turn = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(turn), math.sin(turn)
        unit = [(stretch * math.cos(a), math.sin(a) / stretch) for a in angles]
        unit = [(c * x - s * y, s * x + c * y) for x, y in unit]
        unit_area2 = sum(unit[i][0] * unit[(i + 1) % n][1] - unit[(i + 1) % n][0] * unit[i][1]
                         for i in range(n))
        if unit_area2 < 0.2:
            continue
        scale = math.sqrt(area2 / unit_area2)
        cx, cy = rng.randrange(64), rng.randrange(64)
        hull = convex_hull([(round(x * scale) + cx, round(y * scale) + cy) for x, y in unit])
        if len(hull) < 3 or abs(polygon_area2(hull) - area2) > 0.05 * area2:
            continue
        if contractible(word_of(hull)) != want_contractible:
            continue
        k = rng.randrange(len(hull))
        return hull[k:] + hull[:k]


class PolygonRequest(NamedTuple):
    text: str  # polygon JSON, as the CLI reads it
    vertices: tuple
    contractible: bool


def polygon_request(rng: random.Random, area2: int, want_contractible: bool) -> PolygonRequest:
    vs = convex_polygon(rng, area2, want_contractible)
    return PolygonRequest(json.dumps([list(p) for p in vs]), tuple(vs), want_contractible)


# --- T-vertex dissections -----------------------------------------------------

def _split(t, x):
    """Pieces of the counterclockwise triangle t cut at its non-vertex point x."""
    sides = [orient(t[k], t[(k + 1) % 3], x) for k in range(3)]
    for k in range(3):
        if sides[k] == 0:
            a, b, c = t[k], t[(k + 1) % 3], t[(k + 2) % 3]
            return [(a, x, c), (x, b, c)]
    return [(t[k], t[(k + 1) % 3], x) for k in range(3)]


def _edge_point(rng: random.Random, t):
    """A lattice point inside a random side of t, or None if no side has one."""
    for k in rng.sample(range(3), 3):
        a, b = t[k], t[(k + 1) % 3]
        g = math.gcd(b[0] - a[0], b[1] - a[1])
        if g > 1:
            j = rng.randrange(1, g)
            return (a[0] + j * (b[0] - a[0]) // g, a[1] + j * (b[1] - a[1]) // g)
    return None


def _column(t, x: int):
    """The lowest and highest y with (x, y) in the closed triangle t."""
    lo, hi = -math.inf, math.inf
    for k in range(3):
        (ax, ay), (bx, by) = t[k], t[(k + 1) % 3]
        dx, need = bx - ax, (x - ax) * (by - ay)
        # (x, y) is left of or on a -> b exactly when dx * (y - ay) >= need.
        if dx > 0:
            lo = max(lo, ay - (-need // dx))
        elif dx < 0:
            hi = min(hi, ay + need // dx)
        elif need > 0:
            return 0, -1
    return lo, hi


def _inner_point(rng: random.Random, t):
    """A uniformly random lattice point of the closed triangle t that is not
    a vertex (t must have one: doubled area at least 2)."""
    xs = [v[0] for v in t]
    columns = [(x, *_column(t, x)) for x in range(min(xs), max(xs) + 1)]
    total = sum(hi - lo + 1 for _, lo, hi in columns if hi >= lo)
    while True:
        k = rng.randrange(total)
        for x, lo, hi in columns:
            if hi >= lo:
                if k <= hi - lo:
                    p = (x, lo + k)
                    break
                k -= hi - lo + 1
        if p not in t:
            return p


def tvertex_dissection(rng: random.Random, polygon, count: int) -> list[tuple]:
    """At least count counterclockwise triangles dissecting the polygon: a fan
    from its first vertex, cut at random lattice points until count is
    reached.  One cut in three lands inside a side, which leaves a T-vertex on
    the neighbor across it."""
    tris = [(polygon[0], polygon[k], polygon[k + 1]) for k in range(1, len(polygon) - 1)]
    while len(tris) < count:
        i = rng.randrange(len(tris))
        t = tris[i]
        if orient(*t) < 2:
            continue
        x = _edge_point(rng, t) if rng.random() < 1 / 3 else None
        if x is None:
            x = _inner_point(rng, t)
        tris[i:i + 1] = _split(t, x)
    return tris


LABELS = ("valid", "drop", "overlap")


class ForeignRequest(NamedTuple):
    polygon_text: str
    dissection_text: str
    polygon: tuple
    triangles: tuple
    label: str  # one of LABELS
    contractible: bool  # verdict on the polygon's boundary word


def _relabel(rng: random.Random, t):
    k = rng.randrange(3)
    return t[k:] + t[:k]


def foreign_request(rng: random.Random, count: int, label: str,
                    want_contractible: bool) -> ForeignRequest:
    """A T-vertex dissection of about count triangles in one of three forms:
    ``valid`` as generated, ``drop`` with one triangle removed, ``overlap``
    with one triangle replaced by a copy of another of equal area."""
    polygon = convex_polygon(rng, 3 * count, want_contractible)
    tris = [_relabel(rng, t) for t in tvertex_dissection(rng, polygon, count)]
    rng.shuffle(tris)
    if label == "drop":
        del tris[rng.randrange(len(tris))]
    elif label == "overlap":
        by_area: dict[int, list[int]] = {}
        for k, t in enumerate(tris):
            by_area.setdefault(orient(*t), []).append(k)
        pairs = [ks for ks in by_area.values() if len(ks) > 1]
        if not pairs:
            raise ValueError("no two triangles of equal area")  # never seen at count >= 10
        i, j = rng.sample(rng.choice(pairs), 2)
        tris[i] = _relabel(rng, tris[j])
    err = dissection_error(polygon, tris)
    if (err is None) != (label == "valid"):
        raise AssertionError(f"generated {label} dissection checks as {err or 'valid'}")
    poly = [list(p) for p in polygon]
    text = json.dumps({"polygon": poly, "triangles": [[list(v) for v in t] for t in tris]})
    return ForeignRequest(json.dumps(poly), text, tuple(polygon), tuple(tris), label,
                          want_contractible)
