"""Reference answers the benchmark checks the package against.

Nothing here imports latticediss.  Points are plain ``(x, y)`` integer pairs.

* ``contractible`` decides a boundary word by free reduction of its edge loop
  in the complete graph on its letters: consecutive equal letters are one
  vertex, and the word is contractible exactly when the closed path cancels
  to a point by deleting backtracks ``x y x -> x``.
* ``dissection_error`` is an exact dissection checker.  Positively oriented
  triangles dissect a convex polygon exactly when the sum of their boundary
  1-chains equals the polygon's boundary, so it compares the signed coverage
  along every supporting line with the polygon's edges, in integers only.
"""

from __future__ import annotations

import re
from math import gcd

# Parity color letters, as the source paper names them.
_COLORS = {(0, 0): "A", (1, 0): "B", (1, 1): "C", (0, 1): "D"}


def color(p) -> str:
    """Parity color letter of a lattice point."""
    return _COLORS[(p[0] % 2, p[1] % 2)]


def word_of(vertices) -> str:
    """Corner colors of a polygon, in the given order."""
    return "".join(color(p) for p in vertices)


def tricolor(t) -> bool:
    """True when the triangle's three corners have three distinct colors."""
    return len({color(v) for v in t}) == 3


def orient(a, b, c) -> int:
    """Doubled signed area of the triangle (a, b, c)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def polygon_area2(vertices) -> int:
    """Doubled signed area (shoelace), positive for counterclockwise order."""
    n = len(vertices)
    return sum(
        vertices[i][0] * vertices[(i + 1) % n][1] - vertices[(i + 1) % n][0] * vertices[i][1]
        for i in range(n)
    )


def contractible(word: str) -> bool:
    """Free-reduction verdict on a cyclic word over any letters."""
    loop: list[str] = []
    for ch in word:
        if not loop or loop[-1] != ch:
            loop.append(ch)
    while len(loop) > 1 and loop[0] == loop[-1]:
        loop.pop()
    if len(loop) <= 2:
        return True
    # The closed path loop[0], ..., loop[-1], loop[0], reduced linearly.
    path: list[str] = []
    for v in loop + loop[:1]:
        if len(path) >= 2 and path[-2] == v:
            path.pop()
        else:
            path.append(v)
    # Cyclic reduction: strip a backtrack across the base point.
    head, tail = 0, len(path) - 1
    while tail - head >= 2 and path[head + 1] == path[tail - 1]:
        head += 1
        tail -= 1
    return tail == head


def is_stuck(word: str) -> bool:
    """True when no letter of the cyclic word can be deleted: no two
    cyclically adjacent letters, and no two letters two apart, are equal."""
    return len(word) >= 3 and _REPEAT.search(word + word[:2]) is None


_REPEAT = re.compile(r"(.)\1|(.).\2")


def _add_segment(lines: dict, p, q, sign: int) -> None:
    """Add the directed segment p -> q, times sign, to the per-line coverage
    events.  A line is keyed by its primitive direction u (made canonical)
    and its offset u x p; a point on it by the coordinate u . p."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = gcd(dx, dy)
    ux, uy = dx // g, dy // g
    if ux < 0 or (ux == 0 and uy < 0):
        ux, uy, sign = -ux, -uy, -sign
    key = (ux, uy, ux * p[1] - uy * p[0])
    t0, t1 = ux * p[0] + uy * p[1], ux * q[0] + uy * q[1]
    lo, hi = (t0, t1) if t0 < t1 else (t1, t0)
    events = lines.setdefault(key, {})
    events[lo] = events.get(lo, 0) + sign
    events[hi] = events.get(hi, 0) - sign


def dissection_error(polygon, triangles, unit: bool = False) -> str | None:
    """None when the triangles exactly dissect the convex polygon, else why not.

    Every triangle must be counterclockwise with positive doubled area; with
    ``unit`` every doubled area must be 2 and the count must be area / 2.
    """
    poly = [tuple(p) for p in polygon]
    if polygon_area2(poly) < 0:
        poly.reverse()
    target = polygon_area2(poly)
    total = 0
    lines: dict = {}
    for i, t in enumerate(triangles):
        if len(t) != 3 or any(
            len(v) != 2 or type(v[0]) is not int or type(v[1]) is not int for v in t
        ):
            return f"triangle {i} is not three integer points"
        a2 = orient(*t)
        if a2 <= 0:
            return f"triangle {i} has doubled area {a2}"
        if unit and a2 != 2:
            return f"triangle {i} has doubled area {a2}, not 2"
        total += a2
        for k in range(3):
            _add_segment(lines, t[k], t[(k + 1) % 3], 1)
    if total != target:
        return f"doubled areas sum to {total}, polygon has {target}"
    if unit and len(triangles) * 2 != target:
        return f"{len(triangles)} pieces for doubled area {target}"
    for k in range(len(poly)):
        _add_segment(lines, poly[k], poly[(k + 1) % len(poly)], -1)
    for (ux, uy, off), events in lines.items():
        coverage = 0
        ts = sorted(events)
        for t, nxt in zip(ts, ts[1:]):
            coverage += events[t]
            if coverage:
                return (f"line u=({ux},{uy}) offset {off}: interval [{t}, {nxt}] "
                        f"covered {coverage:+d} times more than the polygon boundary")
    return None
