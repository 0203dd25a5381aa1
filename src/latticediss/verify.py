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
triangles with a side on it.  The check is one pass over the triangles,
a slice at a time, that keeps counters and the uncancelled sides, so
verify_slices takes a file from read_dissection a slice at a time.  poof
rebuilds a dissection as an abstract disk triangulation, whose faces are one
flat list of vertex ids, inserting degenerate "poofagon" triangles wherever
collinear vertices subdivide a triangle side or a polygon edge; it finds
those vertices in the same per-line index.
witness_noninteger exhibits a tricolor (hence non-integer-area) triangle in
any valid dissection of a polygon whose boundary word is not contractible.
Both need a valid dissection, so both verify it first.  On a dissection
that parse_dissection_json built, verify skips the type scan of its
coordinates and keeps a valid mode-"any" result in the reader's record (see
_verify), so checking it and then poofing it, or taking its witness,
verifies it once.  poof, the last reader of the result's segment index,
takes the index out of the record: a second poof of the same dissection
verifies it again, while verify and the witness reuse the kept report.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, compress, count
from math import gcd, nan

from .combi import Triangulation
from .dissect import Dissection
from .errors import InvalidDissection, PreconditionViolated, TheoremViolation
from .geometry import (
    MODES,
    ConvexLatticePolygon,
    Point,
    Triangle,
    as_triangle,
    boundary_word,
    color_of,
    polygon_area2,
    signed_area2,
)
from .words import decide_contractible


CheckResult = namedtuple("CheckResult", "name passed detail")


class VerifyReport(namedtuple("VerifyReport", "valid checks triangle_count doubled_area_total")):
    __slots__ = ()  # immutable: _verify hands one kept report to every later caller

    def to_json(self) -> str:
        return json.dumps({
            "valid": self.valid,
            "triangle_count": self.triangle_count,
            "doubled_area_total": self.doubled_area_total,
            "checks": [c._asdict() for c in self.checks],
        })


_SHOWN = 8  # indices listed in a check's detail before "(+k more)"


class _Indices:
    """The indices of the triangles that fail a check, as a detail shows
    them: the first _SHOWN, and how many there are in all."""

    def __init__(self) -> None:
        self.shown: list[int] = []
        self.count = 0

    def add(self, idxs: list[int]) -> None:
        self.shown += idxs[:_SHOWN - len(self.shown)]
        self.count += len(idxs)

    def __bool__(self) -> bool:
        return self.count > 0

    def __str__(self) -> str:
        more = f" (+{self.count - _SHOWN} more)" if self.count > _SHOWN else ""
        return ", ".join(map(str, self.shown)) + more


# --- the boundary chain, indexed by line ----------------------------------------

_Line = tuple[int, int, int]
_Side = tuple[int, int, int, int]  # p -> q as (px, py, qx, qy)
_Index = tuple[list[tuple[_Side, _Line, int, int]], dict[_Line, dict[int, int]]]


def _add_sides(left: dict[_Side, int], triangles) -> None:
    """Add the triangles' sides to the signed 1-chain left, each cancelled
    against its exact reverse, so left never holds both p -> q and q -> p.
    A side p -> q is keyed by its four coordinates (px, py, qx, qy), one
    small tuple that holds no point, and a triangle's three sides are written
    out in full, with no inner loop."""
    pop, get = left.pop, left.get
    for (ax, ay), (bx, by), (cx, cy) in triangles:
        n = pop((bx, by, ax, ay), 0)
        if n > 1:
            left[bx, by, ax, ay] = n - 1
        elif not n:
            k = (ax, ay, bx, by)
            left[k] = get(k, 0) + 1
        n = pop((cx, cy, bx, by), 0)
        if n > 1:
            left[cx, cy, bx, by] = n - 1
        elif not n:
            k = (bx, by, cx, cy)
            left[k] = get(k, 0) + 1
        n = pop((ax, ay, cx, cy), 0)
        if n > 1:
            left[ax, ay, cx, cy] = n - 1
        elif not n:
            k = (cx, cy, ax, ay)
            left[k] = get(k, 0) + 1


def _segment_index(left: dict[_Side, int]) -> _Index:
    """The sides left by _add_sides, which started from P's edges reversed,
    indexed by line: the triangles' sides minus P's edges as a signed 1-chain.

    Returns (segments, lines).  segments holds each directed side p -> q
    left over after cancelling sides against their exact reverses, as its
    key (px, py, qx, qy), with its line and the coordinates u.p and u.q on
    it.  lines maps a line to {coordinate: delta}: a side p -> q of
    multiplicity n adds +n at u.p and -n at u.q, which has the right sign
    whichever way the side runs along u.  The chain is zero, i.e. the
    triangles' boundaries add up to the polygon's, exactly when every delta
    is zero; the signed coverage of a line interval is the sum of the deltas
    before it.  Every coordinate must be an integer.
    """
    segments = []
    lines: dict[_Line, dict[int, int]] = {}
    shared: dict[_Line, _Line] = {}
    for side, n in left.items():
        px, py, qx, qy = side
        if px == qx and py == qy:  # a side of a triangle with a repeated vertex: the zero chain
            continue
        dx, dy = qx - px, qy - py
        g = gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        ux, uy = dx // g, dy // g
        line = (ux, uy, ux * py - uy * px)
        line = shared.setdefault(line, line)  # one tuple per line, shared by its segments
        tp, tq = ux * px + uy * py, ux * qx + uy * qy
        segments.append((side, line, tp, tq))
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


def _nonzero(lines: dict[_Line, dict[int, int]]) -> Iterator[bool]:
    """Whether each line of the index has a nonzero delta, in the index's
    order: one C-level pass."""
    return map(any, map(dict.values, lines.values()))


def _chain_failure(lines: dict[_Line, dict[int, int]],
                   slices: Iterable[Sequence[Triangle]]) -> str:
    """The first line interval of nonzero coverage, and the triangles, given
    slice after slice, with a side on it.

    A triangle has a side on the interval when two of its vertices lie on
    the line and the span of its vertices there meets the open interval:
    two on the line are a side, and three on the line span what their
    longest side does.  So each vertex is tested against the line once, and
    only a triangle with two on it goes on to the span test.
    """
    line = min(compress(lines, _nonzero(lines)))
    deltas = lines[line]
    ts = sorted(deltas)
    cover = 0
    for lo, hi in zip(ts, ts[1:]):
        cover += deltas[lo]
        if cover:
            break
    ux, uy, off = line

    def on_interval(t) -> bool:
        on = [ux * x + uy * y for x, y in t if ux * y - uy * x == off]
        return min(on) < hi and max(on) > lo

    hits = _Indices()
    n = 0
    for tris in slices:
        hits.add([i for i, ((ax, ay), (bx, by), (cx, cy)), t in zip(count(n), tris, tris)
                  if (ux * ay - uy * ax == off) + (ux * by - uy * bx == off)
                  + (ux * cy - uy * cx == off) > 1 and on_interval(t)])
        n += len(tris)
    a, b = _point_on(line, lo), _point_on(line, hi)
    return (f"segment ({a[0]},{a[1]})-({b[0]},{b[1]}) is covered {cover:+d} times in direction "
            f"({ux},{uy}) by triangle sides net of the polygon's edges; triangles with a "
            f"side there: {hits or 'none'}")


def _int_pairs(points) -> bool:
    """Whether points is a tuple of tuples of exact ints, so immutable."""
    return (type(points) is tuple and set(map(type, points)) <= {tuple}
            and set(map(type, chain.from_iterable(points))) <= {int})


def _area2_or_nan(t) -> float:
    """signed_area2 of a triangle, or NaN when it is not three pairs of
    numbers (a coordinate None, a str or a list, a point not a pair), so the
    report still says which checks fail."""
    try:
        return signed_area2(t)
    except (TypeError, ValueError):
        return nan


def _int_triangle(t) -> bool:
    """Whether t is three pairs of exact ints, as as_triangle wants them."""
    try:
        as_triangle(t)
    except ValueError:
        return False
    return True


def verify_slices(P: ConvexLatticePolygon, slices: Callable[[], Iterable[Sequence[Triangle]]],
                  mode: str, exact: bool) -> tuple[VerifyReport, _Index | None]:
    """The report on the triangles that slices() gives, slice after slice, and
    the segment index it built (None when the coordinates are not all
    integers).

    One pass keeps only counters, the first _SHOWN indices each check names
    and the sides that _add_sides has not cancelled yet.  Only a failing
    boundary-chain detail calls slices() a second time.  exact says that
    every coordinate is an exact int in tuples, as the reader makes them,
    so the type scan is skipped.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    vs = P.vertices
    # The chain starts from P's edges v_i -> v_i+1, reversed: (v_i+1, v_i) as one tuple.
    left: dict | None = dict.fromkeys(map(tuple.__add__, vs[1:] + vs[:1], vs), 1)
    flipped, off, bad_coords = _Indices(), _Indices(), _Indices()
    n = total = 0
    for tris in slices():
        # Only exact integers may reach gcd; exact or a type scan settles the
        # common case, and signed_area2 of each triangle is inline.
        try:
            areas = [(x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
                     for (x1, y1), (x2, y2), (x3, y3) in tris]
            ints = exact or set(map(type, chain.from_iterable(chain.from_iterable(tris)))) <= {int}
        except (TypeError, ValueError):
            ints = False
        if not ints:
            bad_coords.add([n + i for i, t in enumerate(tris) if not _int_triangle(t)])
            areas = list(map(_area2_or_nan, tris))
        if bad_coords:
            left = None
        elif left is not None:
            _add_sides(left, tris)
        # min and count settle the common case; other numbers (NaN) take the scan.
        if not ints or min(areas, default=1) <= 0:
            flipped.add([n + i for i, a in enumerate(areas) if a <= 0])
        if mode == "integral":
            off.add([n + i for i, a in enumerate(areas) if a % 2])
        elif mode == "unit" and (not ints or areas.count(2) != len(areas)):
            off.add([n + i for i, a in enumerate(areas) if a != 2])
        total += sum(areas)
        n += len(tris)

    checks = [CheckResult(
        "orientation", not flipped,
        "all triangles counterclockwise with positive area" if not flipped
        else f"non-positive doubled area at triangles {flipped}")]

    index = None
    if left is None:
        checks.append(CheckResult(
            "boundary-chain", False, "not run: coordinates are not all integers"))
    else:
        index = _segment_index(left)
        _, lines = index
        closed = not any(_nonzero(lines))
        checks.append(CheckResult(
            "boundary-chain", closed,
            "triangle sides add up to the polygon's edges" if closed
            else _chain_failure(lines, slices())))

    target = polygon_area2(P)
    checks.append(CheckResult(
        "area-sum", total == target,
        f"doubled areas sum to {total}, polygon doubled area is {target}"))

    if mode == "integral":
        checks.append(CheckResult(
            "mode-areas", not off,
            "all doubled areas even" if not off else f"odd doubled area at triangles {off}"))
    elif mode == "unit":
        checks.append(CheckResult(
            "mode-areas", not off,
            "all doubled areas equal 2" if not off
            else f"doubled area differs from 2 at triangles {off}"))
    else:
        checks.append(CheckResult("mode-areas", True, "mode any: no area constraint"))

    checks.append(CheckResult(
        "integer-coords", not bad_coords,
        "all coordinates are integers" if not bad_coords
        else f"non-integer coordinates at triangles {bad_coords}"))

    return VerifyReport(all(c.passed for c in checks), tuple(checks), n, total), index


def _verify(P: ConvexLatticePolygon, D: Dissection, mode: str,
            take: bool = False) -> tuple[VerifyReport, _Index | None]:
    """verify_dissection on D.triangles as one slice, also returning the
    segment index it built (None when the coordinates are not all integers).

    D._record holds the triangles tuple the reader built, every coordinate
    an exact int in tuples nothing can change, so while it is D.triangles
    the type scan is skipped; any other triangles are scanned.  A valid
    mode-"any" result on those triangles is kept in the record as
    (triangles, polygon vertices, report, index) when P's vertices are a
    tuple of tuples of exact ints, and returned while both tuples are the
    very objects kept: deep-immutable tuples hold the same values for as
    long as they live.  The index kept is only the sides left uncancelled,
    and its users only read it.

    take says that the caller, poof, takes the index: the record keeps
    (triangles, polygon vertices, report, None), so the index lives only as
    long as the caller holds it.  A kept record without its index still
    gives its report, and verifies again only for a caller that takes the
    index, which is a second poof of the same D.
    """
    tris, vs = D.triangles, P.vertices
    rec = D._record
    read = bool(rec) and rec[0] is tris
    if mode == "any" and read and len(rec) > 1 and rec[1] is vs and not (take and rec[3] is None):
        if take:
            object.__setattr__(D, "_record", rec[:3] + (None,))
        return rec[2], rec[3]
    report, index = verify_slices(P, lambda: (tris,), mode, read)
    if report.valid and mode == "any" and read and _int_pairs(vs):
        object.__setattr__(D, "_record", (tris, vs, report, None if take else index))
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
    coordinates, and _point_on gives each one's point.

    The verification is the one kept on a read D just verified against P,
    and poof takes its segment index out of D's record (see _verify), so a
    second poof of the same D verifies again.  Vertex ids number the
    dissection's points in sorted order.  poof builds one flat list of
    vertex ids, three per face, the dissection's triangles in order and
    then the poofagons, with no tuple per face: the ids are the map's own
    ints.  With the index, the segment lists and the point -> id map freed,
    the disk check runs on that list, which T keeps as its faces, unfrozen
    (Triangulation._checked).  The ids go in unchecked: every id is an int
    from the map, a verified triangle has three distinct points, and a
    poofagon joins a side's start point to two consecutive points strictly
    further along it, so each three ids in turn are 3 distinct int ids.  A
    poofagon equal to another face fails the disk check.
    """
    rep, index = _verify(P, D, "any", take=True)
    if not rep.valid:
        raise InvalidDissection("; ".join(c.detail for c in rep.checks if not c.passed))

    pts = sorted(set(chain.from_iterable(D.triangles)))
    idx = dict(zip(pts, count()))
    ids = list(map(idx.__getitem__, chain.from_iterable(D.triangles)))

    # P's edges are in the index reversed, keyed as in verify_slices; their
    # fans start at the edge's start.
    vs = P.vertices
    reversed_edges = set(map(tuple.__add__, vs[1:] + vs[:1], vs))
    segments, lines = index
    coords = {line: sorted(deltas) for line, deltas in lines.items()}
    for side, line, tp, tq in segments:
        ts = coords[line]
        lo, hi = (tp, tq) if tp < tq else (tq, tp)
        i, j = bisect_right(ts, lo), bisect_left(ts, hi)
        if i == j:
            continue
        rev = side in reversed_edges  # P's edge q -> p, whose fan starts at q
        apex, a = (idx[side[2:]], idx[side[:2]]) if rev else (idx[side[:2]], idx[side[2:]])
        inner = ts[i:j]
        if (tp < tq) != rev:  # walk the inner points from the fan's end
            inner.reverse()
        for t in inner:
            b = idx[_point_on(line, t)]
            ids += apex, b, a
            a = b
    del index, segments, lines, coords, reversed_edges  # the disk is built without them

    missing = [v for v in vs if v not in idx]
    assert not missing, f"polygon corners {missing} are not dissection vertices"
    colors, corners = dict(enumerate(map(color_of, pts))), tuple(map(idx.__getitem__, vs))
    del idx  # the list holds the ids; the disk check runs without the map
    return Triangulation._checked(colors, ids, corners), dict(enumerate(pts))


def witness_noninteger(P: ConvexLatticePolygon, D: Dissection) -> Triangle:
    """A tricolor (odd doubled area) triangle of D.

    Requires that P's boundary word is not contractible and that D verifies;
    existence is then guaranteed, so not finding one raises TheoremViolation.
    """
    return witness_slices(P, lambda: (D.triangles,), lambda _: _verify(P, D, "any")[0])


def witness_slices(P: ConvexLatticePolygon, slices: Callable[[], Iterable[Sequence[Triangle]]],
                   verify: Callable[[Callable], VerifyReport]) -> Triangle:
    """witness_noninteger on the triangles that slices() gives, slice after
    slice, where verify(once) reports on them from one read of slices(),
    which once() hands out at each call.  The precondition message names
    the checks that fail, and no detail, so a failing boundary-chain
    detail reads nothing more.

    The word is decided first, and for a contractible word the precondition
    fails before slices() is called, so no dissection is read at all: the
    precondition wins over any error the reader would give.  slices() is
    read again to find the witness.
    """
    if decide_contractible(boundary_word(P))[0]:
        raise PreconditionViolated("the polygon's boundary word is contractible")
    read = slices()
    report = verify(lambda: read)
    if not report.valid:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise PreconditionViolated("the dissection does not verify against the polygon; "
                                   f"failed checks: {failed}")
    for t in chain.from_iterable(slices()):
        if len({color_of(v) for v in t}) == 3:
            return t
    raise TheoremViolation("valid dissection of a non-contractible-word polygon "
                           "without a tricolor triangle")
