"""Independent validation of dissections, poofing, and tricolor witnesses.

verify_dissection certifies a triangle list as a genuine dissection of a
convex polygon by comparing 1-chains: positively oriented triangles dissect
P exactly when the sum of their boundary chains equals the boundary of P.
Equal doubled-area sums alone prove nothing (two copies of one half of a
square have the square's area), and neither does every vertex lying in P.
The chain test rules out overlaps, gaps and pieces outside P at once, in
integers only: each side is cancelled against its exact reverse, and what
is left is added up line by line (see _segment_index).  When the check
fails, its detail names the first line interval of nonzero coverage and the
triangles with a side on it.  poof rebuilds a dissection as an abstract
disk triangulation, inserting degenerate "poofagon" triangles wherever
collinear vertices subdivide a triangle side or a polygon edge; it finds
those vertices in the same per-line index.
witness_noninteger exhibits a tricolor (hence non-integer-area) triangle in
any valid dissection of a polygon whose boundary word is not contractible.
Both need a valid dissection, so both verify it first.  On a dissection
that parse_dissection_json built, verify skips the type scan of its
coordinates and keeps a valid mode-"any" result in the reader's record (see
_verify), so checking it and then poofing it, or taking its witness,
verifies it once.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, count, repeat
from math import gcd, nan
from typing import NamedTuple

from .combi import Triangulation, validate_disk
from .dissect import Dissection
from .errors import InvalidDissection, PreconditionViolated, TheoremViolation
from .geometry import (
    ConvexLatticePolygon,
    Point,
    Triangle,
    boundary_word,
    color_of,
    polygon_area2,
    signed_area2,
)
from .words import decide_contractible

MODES = ("integral", "unit", "any")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    checks: tuple[CheckResult, ...]
    triangle_count: int
    doubled_area_total: int

    def to_json(self) -> str:
        return json.dumps({
            "valid": self.valid,
            "triangle_count": self.triangle_count,
            "doubled_area_total": self.doubled_area_total,
            "checks": [c._asdict() for c in self.checks],
        })


_SHOWN = 8  # indices listed in a check's detail before "(+k more)"


def _fmt_indices(idxs: list[int]) -> str:
    shown = ", ".join(map(str, idxs[:_SHOWN]))
    more = f" (+{len(idxs) - _SHOWN} more)" if len(idxs) > _SHOWN else ""
    return shown + more


# --- the boundary chain, indexed by line ----------------------------------------

_Line = tuple[int, int, int]
_Index = tuple[list[tuple[Point, Point, _Line, int, int]], dict[_Line, dict[int, int]]]


def _segment_index(P: ConvexLatticePolygon, triangles) -> _Index:
    """The sides of the triangles minus the edges of P, as a signed 1-chain.

    Returns (segments, lines).  segments holds each directed side p -> q
    left over after cancelling sides against their exact reverses, with its
    line and the coordinates u.p and u.q on it.  lines maps a line to
    {coordinate: delta}: a side p -> q of multiplicity n adds +n at u.p and
    -n at u.q, which has the right sign whichever way the side runs along
    u.  The chain is zero, i.e. the triangles' boundaries add up to the
    polygon's, exactly when every delta is zero; the signed coverage of a
    line interval is the sum of the deltas before it.  Every coordinate
    must be an integer.
    """
    # left holds the sides met so far that no reverse has cancelled yet, so
    # never both p -> q and q -> p.  P's edges v_i -> v_i+1 enter reversed.
    # A triangle's three sides are written out in full, with no inner loop.
    vs = P.vertices
    left = dict.fromkeys(zip(vs[1:] + vs[:1], vs), 1)
    pop, get = left.pop, left.get
    for a, b, c in triangles:
        n = pop((b, a), 0)
        if n > 1:
            left[b, a] = n - 1
        elif not n:
            k = (a, b)
            left[k] = get(k, 0) + 1
        n = pop((c, b), 0)
        if n > 1:
            left[c, b] = n - 1
        elif not n:
            k = (b, c)
            left[k] = get(k, 0) + 1
        n = pop((a, c), 0)
        if n > 1:
            left[a, c] = n - 1
        elif not n:
            k = (c, a)
            left[k] = get(k, 0) + 1
    segments = []
    lines: dict[_Line, dict[int, int]] = {}
    for (p, q), n in left.items():
        if p == q:  # a side of a triangle with a repeated vertex: the zero chain
            continue
        (px, py), (qx, qy) = p, q
        dx, dy = qx - px, qy - py
        g = gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        ux, uy = dx // g, dy // g
        line = (ux, uy, ux * py - uy * px)
        tp, tq = ux * px + uy * py, ux * qx + uy * qy
        segments.append((p, q, line, tp, tq))
        deltas = lines.get(line)
        if deltas is None:
            deltas = lines[line] = {}
        deltas[tp] = deltas.get(tp, 0) + n
        deltas[tq] = deltas.get(tq, 0) - n
    return segments, lines


def _point_on(line: _Line, t: int) -> Point:
    """The point with coordinate t on the line (ux, uy, u x p)."""
    ux, uy, off = line
    n = ux * ux + uy * uy
    return ((ux * t - uy * off) // n, (uy * t + ux * off) // n)


def _chain_failure(lines: dict[_Line, dict[int, int]], triangles) -> str:
    """The first line interval of nonzero coverage, and the triangles with a
    side on it."""
    line = min(k for k, deltas in lines.items() if any(deltas.values()))
    deltas = lines[line]
    ts = sorted(deltas)
    cover = 0
    for lo, hi in zip(ts, ts[1:]):
        cover += deltas[lo]
        if cover:
            break
    ux, uy, off = line
    hits = []
    for i, t in enumerate(triangles):
        for p, q in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            if ux * p[1] - uy * p[0] == off == ux * q[1] - uy * q[0]:
                tp, tq = ux * p[0] + uy * p[1], ux * q[0] + uy * q[1]
                if min(tp, tq) < hi and max(tp, tq) > lo:
                    hits.append(i)
                    break
    a, b = _point_on(line, lo), _point_on(line, hi)
    return (f"segment ({a[0]},{a[1]})-({b[0]},{b[1]}) is covered {cover:+d} times in direction "
            f"({ux},{uy}) by triangle sides net of the polygon's edges; triangles with a "
            f"side there: {_fmt_indices(hits) or 'none'}")


def _int_pairs(points) -> bool:
    """Whether points is a tuple of tuples of exact ints, so immutable."""
    return (type(points) is tuple and set(map(type, points)) <= {tuple}
            and set(map(type, chain.from_iterable(points))) <= {int})


def _area2_or_nan(t: Triangle) -> float:
    """signed_area2 of a triangle, or NaN when a coordinate is no number
    (None, a str, a list), so the report still says which checks fail."""
    try:
        return signed_area2(t)
    except TypeError:
        return nan


def _verify(P: ConvexLatticePolygon, D: Dissection,
            mode: str) -> tuple[VerifyReport, _Index | None]:
    """verify_dissection, also returning the segment index it built (None when
    the coordinates are not all integers).

    D._record holds the triangles tuple the reader built, every coordinate
    an exact int in tuples nothing can change, so while it is D.triangles
    the type scan is skipped; any other triangles are scanned.  A valid
    mode-"any" result on those triangles is kept in the record as
    (triangles, polygon vertices, report, index) when P's vertices are a
    tuple of tuples of exact ints, and returned while both tuples are the
    very objects kept: deep-immutable tuples hold the same values for as
    long as they live.  The index kept is only the sides left uncancelled,
    and its users only read it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tris, vs = D.triangles, P.vertices
    rec = D._record
    read = rec and rec[0] is tris
    if mode == "any" and read and len(rec) > 1 and rec[1] is vs:
        return rec[2], rec[3]
    checks: list[CheckResult] = []
    # Only exact integers may reach gcd; the reader's record or a type scan
    # settles the common case.
    exact = read or set(map(type, chain.from_iterable(chain.from_iterable(tris)))) <= {int}
    if exact:
        bad_coords = []
        # signed_area2 of each triangle, inline.
        areas = [(x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
                 for (x1, y1), (x2, y2), (x3, y3) in tris]
    else:
        bad_coords = [
            i for i, t in enumerate(tris)
            if not all(type(c) is int for v in t for c in v)
        ]
        areas = list(map(_area2_or_nan, tris))

    # min and count settle the common case; other numbers (NaN) take the scan.
    bad = ([i for i, a in enumerate(areas) if a <= 0]
           if bad_coords or min(areas, default=1) <= 0 else [])
    checks.append(CheckResult(
        "orientation", not bad,
        "all triangles counterclockwise with positive area" if not bad
        else f"non-positive doubled area at triangles {_fmt_indices(bad)}"))

    index = None
    if bad_coords:
        checks.append(CheckResult(
            "boundary-chain", False, "not run: coordinates are not all integers"))
    else:
        index = _segment_index(P, tris)
        _, lines = index
        closed = not any(d for deltas in lines.values() for d in deltas.values())
        checks.append(CheckResult(
            "boundary-chain", closed,
            "triangle sides add up to the polygon's edges" if closed
            else _chain_failure(lines, tris)))

    total = sum(areas)
    target = polygon_area2(P)
    checks.append(CheckResult(
        "area-sum", total == target,
        f"doubled areas sum to {total}, polygon doubled area is {target}"))

    if mode == "integral":
        bad = [i for i, a in enumerate(areas) if a % 2]
        checks.append(CheckResult(
            "mode-areas", not bad,
            "all doubled areas even" if not bad
            else f"odd doubled area at triangles {_fmt_indices(bad)}"))
    elif mode == "unit":
        bad = ([i for i, a in enumerate(areas) if a != 2]
               if bad_coords or areas.count(2) != len(areas) else [])
        checks.append(CheckResult(
            "mode-areas", not bad,
            "all doubled areas equal 2" if not bad
            else f"doubled area differs from 2 at triangles {_fmt_indices(bad)}"))
    else:
        checks.append(CheckResult("mode-areas", True, "mode any: no area constraint"))

    checks.append(CheckResult(
        "integer-coords", not bad_coords,
        "all coordinates are integers" if not bad_coords
        else f"non-integer coordinates at triangles {_fmt_indices(bad_coords)}"))

    valid = all(c.passed for c in checks)
    report = VerifyReport(valid, tuple(checks), len(tris), total)
    if valid and mode == "any" and read and _int_pairs(vs):
        object.__setattr__(D, "_record", (tris, vs, report, index))
    return report, index


def verify_dissection(P: ConvexLatticePolygon, D: Dissection, mode: str = "any") -> VerifyReport:
    """Exact verification that D dissects P; mode adds area constraints.

    mode "integral" requires every doubled area even, "unit" requires every
    doubled area exactly 2, "any" only the dissection structure itself.
    """
    return _verify(P, D, mode)[0]


def poof(P: ConvexLatticePolygon, D: Dissection) -> tuple[Triangulation, dict[int, Point]]:
    """Rebuild a valid dissection as an abstract disk triangulation.

    Vertices of the triangulation biject with the dissection's vertices and
    carry their parity colors.  Wherever a triangle side or a polygon edge
    spans other dissection vertices, the chain of collinear points becomes a
    degenerate polygon fan-triangulated from the side's first endpoint; all
    other triangles are the dissection's own.  The result passes
    validate_disk and its corners are exactly the polygon's corners.

    In a valid dissection a side that cancels against its exact reverse
    spans no vertex, and a vertex strictly inside a side is an endpoint of
    a left-over segment on the side's line: the triangles on the far side
    of the line have their own sides ending there.  So each left-over
    segment finds its inner vertices by bisection in its line's sorted
    coordinates.

    The verification is the one kept on a read D just verified against P
    (see _verify).  Vertex ids number the dissection's points in sorted
    order; the ids, the frozen triangles, the colors and the returned point
    map are each built in one pass of map, zip or dict.
    """
    rep, index = _verify(P, D, "any")
    if not rep.valid:
        raise InvalidDissection("; ".join(c.detail for c in rep.checks if not c.passed))

    pts = sorted(set(chain.from_iterable(D.triangles)))
    idx = dict(zip(pts, count()))
    tris = set(map(frozenset, map(map, repeat(idx.__getitem__), D.triangles)))

    # P's edges are in the index reversed; their fans start at the edge's start.
    reversed_edges = {(b, a) for a, b in P.edges()}
    coords: dict[_Line, list[int]] = {}
    segments, lines = index
    for p, q, line, tp, tq in segments:
        ts = coords.get(line)
        if ts is None:
            ts = coords[line] = sorted(lines[line])
        lo, hi = (tp, tq) if tp < tq else (tq, tp)
        i, j = bisect_right(ts, lo), bisect_left(ts, hi)
        if i == j:
            continue
        rev = (p, q) in reversed_edges  # P's edge q -> p, whose fan starts at q
        fan = [idx[_point_on(line, t)] for t in ts[i:j]]
        if (tp > tq) != rev:  # order the inner points from the fan's start
            fan.reverse()
        fan.append(idx[p if rev else q])
        apex = idx[q if rev else p]
        for k in range(len(fan) - 1):
            poofagon = frozenset((apex, fan[k], fan[k + 1]))
            assert poofagon not in tris, "poofagon collides with an existing triangle"
            tris.add(poofagon)
    del index, segments, lines, coords  # the disk is built without them

    missing = [v for v in P.vertices if v not in idx]
    assert not missing, f"polygon corners {missing} are not dissection vertices"
    T = Triangulation(dict(enumerate(map(color_of, pts))), tris,
                      tuple(map(idx.__getitem__, P.vertices)))
    validate_disk(T)
    return T, dict(enumerate(pts))


def witness_noninteger(P: ConvexLatticePolygon, D: Dissection) -> Triangle:
    """A tricolor (odd doubled area) triangle of D.

    Requires that P's boundary word is not contractible and that D verifies;
    existence is then guaranteed, so not finding one raises TheoremViolation.
    """
    ok, _ = decide_contractible(boundary_word(P))
    if ok:
        raise PreconditionViolated("the polygon's boundary word is contractible")
    rep = verify_dissection(P, D, "any")
    if not rep.valid:
        raise PreconditionViolated("the dissection does not verify against the polygon")
    for t in D.triangles:
        if len({color_of(v) for v in t}) == 3:
            return t
    raise TheoremViolation("valid dissection of a non-contractible-word polygon "
                           "without a tricolor triangle")
