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
objects.  After a split it carries on with the piece it would pop next and
pushes only the others, so it pops only after a unit piece.  Three
non-collinear points fix an affine map, so the split point depends only on
the triangle and its chosen edge v0 -> v1, and can be written straight in
the triangle's own coordinates: with (a, b) = v1 - v0,
d = gcd(a, b) and u = (a, b)/d, the points (2,0) and (1,0) are v0 + 2u and
v0 + u, and only the d = 2, q odd case needs a Bezout pair of u, from pow,
to place (1,1) or (2,1).  A triangle of doubled area 4 has d = 4, or d = 2
and q = 2, so its split point is always the midpoint of v0 -> v1 and both
halves are unit pieces: the loop yields them at once, with no gcd.
tests/refine_reference.py spells out the same rule with explicit maps, and
refine_triangle must match it piece for piece, in its split order.

A Dissection holds exact-int coordinates only.  Its constructor checks
every triangle as it comes in; refine_triangle, unit_dissection and the
reader of the writer's layout, whose arithmetic or parse makes exact ints,
store their tuples through _built, unchecked.  So the writer formats every
coordinate with %r and verify never scans types.

The reader of dissection_to_json's layout parses each distinct point text
of a slice once, with one json.loads, and interns its point through a dict
shared by all slices.  read_dissection reads a file in slices of about
_SLICE characters; a text in memory goes in a first slice of about
_TEXT_FIRST and then slices of about _TEXT_SLICE (see there).

unit_dissection, dissection_to_json and parse_dissection_json, which hold a
whole dissection in memory, run with the cyclic collector paused
(geometry.collector_paused); the streamed paths, unit_pieces, json_chunks
and read_dissection, do not.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import chain, islice, tee
from math import gcd

from .errors import Degenerate, IsVertex, NotIntegerArea, OutsideTriangle
from .geometry import (
    ConvexLatticePolygon,
    Point,
    Triangle,
    as_point,
    as_triangle,
    boundary_word,
    collector_paused,
    load_json,
    parse_read,
    polygon_area2,
    polygon_to_json,
    read_text,
    signed_area2,
)
from .words import ContractionTrace, OneField, decide_contractible

class Dissection(OneField):
    """A tuple of lattice triangles, each a tuple of three points, every
    coordinate an exact int.

    The constructor takes any iterable of triangles, each three [x, y] pairs
    of ints (geometry.as_triangle; anything else raises ValueError), and
    makes one tuple per distinct point, shared by every triangle that names
    it.  The package's own builders, whose arithmetic makes exact ints, store
    their tuple as given through _built.  Whether the triangles dissect a
    given polygon, and are positively oriented, is the verify module's
    business; this type only carries the pieces.  _record is () until verify
    keeps a valid mode-"any" result in it (see verify._verify).  It is no
    part of the value: not an argument, not shown, not compared and not
    copied.
    """

    __slots__ = ("triangles", "_record")

    def __init__(self, triangles: Iterable):
        seen: dict[Point, Point] = {}
        points = map(seen.setdefault, *tee(chain.from_iterable(map(as_triangle, triangles))))
        self._set(tuple(zip(points, points, points)), ())


def _built(triangles: tuple[Triangle, ...]) -> Dissection:
    """A Dissection of triangles that the package built of exact-int point
    tuples, stored as given, without the constructor's loop."""
    D = object.__new__(Dissection)
    D._set(triangles, ())
    return D


def refine_triangle(t: Triangle) -> Dissection:
    """Cut a lattice triangle of even doubled area into unit-area pieces.

    Returns exactly doubled-area/2 triangles of doubled area 2.  Input
    orientation does not matter; pieces come out counterclockwise.  t must
    be three [x, y] pairs of ints; anything else raises ValueError.  The
    pieces share the point tuples of the triangle they came from.
    """
    t = as_triangle(t)
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot refine a degenerate triangle")
    if area2 < 0:
        t = (t[0], t[2], t[1])
        area2 = -area2
    if area2 % 2:
        raise NotIntegerArea(f"doubled area {area2} is odd")

    out = tuple(_refined(area2, *t))
    assert len(out) == area2 // 2
    return _built(out)


def _refined(a2: int, u0: Point, u1: Point, u2: Point) -> Iterator[Triangle]:
    """The unit pieces of the counterclockwise triangle (u0, u1, u2) of doubled
    area a2, even and positive, one at a time, in refine_triangle's order."""
    work = []  # (doubled area, counterclockwise vertices) of the pieces set aside
    while True:
        if a2 == 2:
            yield (u0, u1, u2)
            if not work:
                return
            a2, u0, u1, u2 = work.pop()
            continue
        x0, y0 = u0
        x1, y1 = u1
        x2, y2 = u2
        if a2 == 4:
            # d is 4 (split at (2,0)) or 2 with q = 2 (split at (1,0)): either
            # way the split point is the midpoint of the first same-colored
            # pair's edge, and the two halves, unit pieces, come out in the
            # order the worklist would pop them.
            if not ((x0 ^ x1) | (y0 ^ y1)) & 1:
                x = ((x0 + x1) // 2, (y0 + y1) // 2)
                yield (x, u1, u2)
                yield (u0, x, u2)
            elif not ((x0 ^ x2) | (y0 ^ y2)) & 1:
                x = ((x0 + x2) // 2, (y0 + y2) // 2)
                yield (x, u0, u1)
                yield (u2, x, u1)
            else:
                x = ((x1 + x2) // 2, (y1 + y2) // 2)
                yield (x, u2, u0)
                yield (u1, x, u0)
            if not work:
                return
            a2, u0, u1, u2 = work.pop()
            continue
        # The first same-colored pair, taken in counterclockwise order, is the
        # edge v0 -> v1 that the normal form sends to (0,0) -> (d,0); v0 is
        # (px, py), v1 - v0 is (a, b) and v2 is (cx, cy).
        if not ((x0 ^ x1) | (y0 ^ y1)) & 1:
            px, py, a, b, cx, cy = x0, y0, x1 - x0, y1 - y0, x2, y2
        elif not ((x0 ^ x2) | (y0 ^ y2)) & 1:
            px, py, a, b, cx, cy = x2, y2, x0 - x2, y0 - y2, x1, y1
        else:
            px, py, a, b, cx, cy = x1, y1, x2 - x1, y2 - y1, x0, y0
        d = gcd(a, b)
        q = a2 // d
        assert d % 2 == 0 and d * q == a2
        ua, ub = a // d, b // d  # primitive direction of the edge
        if d > 2:  # split at (2,0)
            sx, sy = px + 2 * ua, py + 2 * ub
        elif q % 2 == 0:  # split at (1,0)
            sx, sy = px + ua, py + ub
        else:
            # Normal coordinates of v2 are (p, q) with 1 <= p <= q; the map
            # back sends (X, Y) to v0 + (X - k*Y)*(ua, ub) + Y*(-s, r), for
            # any r*ua + s*ub == 1: k absorbs the choice, as (p, q) is unique.
            if ub:
                r = pow(ua, -1, ub)
                s = (1 - r * ua) // ub
            else:
                r, s = ua, 0
            tq = r * (cx - px) + s * (cy - py)
            p = (tq - 1) % q + 1
            k = (p - tq) // q
            m = (1 if p % 2 else 2) - k  # split at (1,1) or (2,1)
            sx, sy = px + m * ua - s, py + m * ub + r
        x = (sx, sy)
        o0 = (x1 - x0) * (sy - y0) - (sx - x0) * (y1 - y0)  # signed_area2((u0, u1, x))
        o1 = (x2 - x1) * (sy - y1) - (sx - x1) * (y2 - y1)  # signed_area2((u1, u2, x))
        o2 = a2 - o0 - o1  # signed_area2((u2, u0, x))
        if o0 < 0 or o1 < 0 or o2 < 0:
            raise OutsideTriangle(f"{x} lies outside the triangle")
        assert not (o0 | o1 | o2) & 1
        # The pieces in the reference's split order: the last is refined
        # next, the others are set aside.
        if o0 and o1 and o2:
            work += (o0, u0, u1, x), (o1, u1, u2, x)
            a2, u0, u1, u2 = o2, u2, u0, x
        elif o1 and o2:  # x inside edge u0 u1
            work.append((o2, u0, x, u2))
            a2, u0 = o1, x
        elif o0 and o2:  # x inside edge u1 u2
            work.append((o0, u1, x, u0))
            a2, u0, u1, u2 = o2, x, u2, u0
        elif o0 and o1:  # x inside edge u2 u0
            work.append((o1, u2, x, u1))
            a2, u0, u1, u2 = o0, x, u0, u1
        else:
            raise IsVertex(f"{x} is a vertex of the triangle")


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
    for deleted, left, right in trace.steps:
        tri = (vs[left], vs[deleted], vs[right])
        a2 = signed_area2(tri)
        assert a2 > 0 and a2 % 2 == 0  # convexity and the parity of good triangles
        tris.append(tri)
    return Dissection(tris)


@collector_paused
def unit_dissection(P: ConvexLatticePolygon) -> Dissection | None:
    """Dissection of P into lattice triangles of area 1, or None.

    None exactly when the boundary word is not contractible (in which case
    no integral dissection of any kind exists).
    """
    diag = diagonal_dissection(P)
    if diag is None:
        return None
    pieces = tuple(unit_pieces(diag))
    assert len(pieces) == polygon_area2(P) // 2
    return _built(pieces)


def unit_pieces(diag: Dissection) -> Iterator[Triangle]:
    """The unit pieces of a diagonal dissection, one at a time: its triangles
    are counterclockwise, of even doubled area."""
    return chain.from_iterable(_refined(signed_area2(t), *t) for t in diag.triangles)


# --- dissection JSON ----------------------------------------------------------

# The layout that dissection_to_json writes, which is also what json.dumps
# writes with its default separators: the polygon's JSON in the first slot and
# the triangles, one _TRIANGLE_JSON each and joined by _TRIANGLE_SEP, in the
# second.  _written reads back exactly this layout.  Both work on one slice of
# the triangles array at a time, about _SLICE characters (fewer for a text
# already in memory), so that neither holds a copy of the whole array.
_DISSECTION_JSON = '{"polygon": %s, "triangles": [%s]}'
_TRIANGLE_JSON = "[[%r, %r], [%r, %r], [%r, %r]]"
_TRIANGLE_SEP = ", "
_HEAD, _MIDDLE, _TAIL = _DISSECTION_JSON.split("%s")
_SKELETON = _TRIANGLE_JSON.replace("%r", "")  # "[[, ], [, ], [, ]]"
_TRIANGLE_BREAK = "]]" + _TRIANGLE_SEP + "[["
_VERTEX_BREAK = "], ["  # between the pairs of _TRIANGLE_JSON
_NUMERALS = str.maketrans("", "", "-0123456789")
_DECODER = json.JSONDecoder()
_SLICE = 1 << 16
# The in-memory reader's cuts.  A slice's point texts, alive at once, take
# about twice the memory of the triangles they give, next to every triangle
# read before them.  The first slice comes before any, so it may run to
# _TEXT_FIRST characters, about 0.1 MB of texts; later ones stop at
# _TEXT_SLICE, a small part of what is held by then.  A point is parsed once
# per slice it appears in, so a text that fits one slice, however its
# triangles are ordered, has each point parsed once.
_TEXT_FIRST = 16 << 10
_TEXT_SLICE = 6 << 10


def json_chunks(P: ConvexLatticePolygon, triangles: Iterable[Triangle]) -> Iterator[str]:
    """dissection_to_json's text, written a slice of triangles at a time.

    The triangles must be three (x, y) pairs of exact ints each, as a
    Dissection holds them.  Each slice is the text json.dumps writes for it,
    with the triangles formatted by one template each: %r writes an int as
    json.dumps does.
    """
    yield _HEAD + polygon_to_json(P) + _MIDDLE
    it = iter(triangles)
    sep = ""
    size = max(1, _SLICE // 32)  # triangles in a slice: each takes about 32 characters
    while part := list(islice(it, size)):
        text = _TRIANGLE_SEP.join([_TRIANGLE_JSON % (ax, ay, bx, by, cx, cy)
                                   for (ax, ay), (bx, by), (cx, cy) in part])
        yield sep
        yield text
        sep = _TRIANGLE_SEP
        size = max(1, len(part) * _SLICE // len(text))  # the next slice's, to fit _SLICE
    yield _TAIL


@collector_paused
def dissection_to_json(P: ConvexLatticePolygon, D: Dissection) -> str:
    # The same text as json.dumps({"polygon": ..., "triangles": ...}).
    return "".join(json_chunks(P, D.triangles))


def _polygon_points(polygon) -> list[Point]:
    if not isinstance(polygon, list):
        raise ValueError('dissection JSON "polygon" must be an array of [x, y] pairs')
    return [as_point(e) for e in polygon]


def _slice_triangles(part: str, seen: dict[Point, Point]) -> list[Triangle]:
    """The triangles of one slice of the triangles array in the writer's
    layout, whole triangles from "[[" to "]]"; ValueError for any other text.
    Each distinct point text is parsed once, and its point interned through
    seen, so that a point written both 0 and -0 still gets one tuple.

    The string checks run in C.  Deleting the numerals must leave _SKELETON
    once per triangle, joined by _TRIANGLE_SEP, so every bracket, comma and
    space sits where the writer puts it.  Split at the two separators, the
    slice then gives 3 point texts per triangle, each numerals around one
    ", ": a numeral anywhere but a number slot breaks a separator and leaves
    a bracket in a text, and a malformed number fails json.loads.  With no
    "." or "e" in a numeral, json.loads gives exact ints only.
    """
    n = part.count(_TRIANGLE_BREAK) + 1
    if part.translate(_NUMERALS) != _TRIANGLE_SEP.join([_SKELETON] * n):
        raise ValueError("not the writer's layout")
    texts = part[2:-2].replace(_TRIANGLE_BREAK, _VERTEX_BREAK).split(_VERTEX_BREAK)
    keys = dict.fromkeys(texts)
    distinct = ", ".join(keys)
    if "[" in distinct or "]" in distinct:  # a separator broken by a numeral
        raise ValueError("not the writer's layout")
    ints = json.loads("[" + distinct + "]")
    if len(ints) != 2 * len(keys):
        raise ValueError("not the writer's layout")
    it = iter(ints)
    points = list(zip(it, it))
    point_of = dict(zip(keys, map(seen.setdefault, points, points)))
    it = map(point_of.__getitem__, texts)
    return list(zip(it, it, it))


def _written(read: Callable[[int], str], head: int,
             cut: int) -> tuple[list[Point], Iterator[str]]:
    """Read dissection JSON in the layout of dissection_to_json from read(n),
    which returns up to n characters and "" at the end: the polygon's points,
    and the text of the triangles array one slice at a time.

    The first slice runs on from head characters to the next
    _TRIANGLE_BREAK and each later one from cut characters, so every slice
    is whole triangles, for _slice_triangles to read; trailing JSON
    whitespace is skipped, as in json.loads.  Any text outside the layout
    raises ValueError, from here, from the slices as they are read or from
    _slice_triangles, and so does a bad polygon entry: the general parser
    then reads the whole text and gives its own result or message, which for
    a bad polygon is the same.
    """
    buf = read(head)
    start = 0
    # Read on to the end of the polygon, which _MIDDLE follows, and no further.
    while buf.startswith(_HEAD[:len(buf)]) and buf.find(_MIDDLE, start) == -1:
        more = read(max(head, len(buf)))
        if not more:
            raise ValueError("not the writer's layout")
        start = max(0, len(buf) - len(_MIDDLE) + 1)
        buf += more
    if not buf.startswith(_HEAD):
        raise ValueError("not the writer's layout")
    try:
        polygon, end = _DECODER.raw_decode(buf, len(_HEAD))
    except RecursionError:
        raise ValueError("nested too deeply") from None
    if not buf.startswith(_MIDDLE, end):
        raise ValueError("not the writer's layout")
    return _polygon_points(polygon), _written_slices(read, head, cut, buf,
                                                     end + len(_MIDDLE))


def _written_slices(read: Callable[[int], str], head: int, cut: int, buf: str,
                    pos: int) -> Iterator[str]:
    """_written's slices of the triangles array, which starts at buf[pos]."""
    first, size = True, head
    while True:
        end = buf.find(_TRIANGLE_BREAK, pos + size)
        if end != -1:
            yield buf[pos:end + 2]
            pos, first, size = end + 4, False, cut
            continue
        # Reading at least as much as is left keeps the copies linear when a
        # long stretch holds no break.
        more = read(max(size, len(buf) - pos))
        if not more:
            break
        buf, pos = buf[pos:] + more, 0
    stop = len(buf)
    while stop > pos and buf[stop - 1] in " \t\n\r":
        stop -= 1
    if not buf.endswith(_TAIL, pos, stop):
        raise ValueError("not the writer's layout")
    if first and stop - len(_TAIL) == pos:  # an empty array
        return
    yield buf[pos:stop - len(_TAIL)]


def _parse_written(text: str) -> tuple[list[Point], Dissection] | None:
    """Read text in the layout of dissection_to_json a slice at a time, the
    first of about _TEXT_FIRST characters and the others of about
    _TEXT_SLICE; None for any other text.

    All slices intern their points into one shared dict.  No copy of the
    whole triangles array is ever alive, and the point texts of one slice
    only.
    """
    pieces = iter((text,))
    seen: dict[Point, Point] = {}
    try:
        polygon, slices = _written(lambda n: next(pieces, ""), _TEXT_FIRST, _TEXT_SLICE)
        return polygon, _built(tuple(chain.from_iterable(
            _slice_triangles(part, seen) for part in slices)))
    except ValueError:
        return None


def _file_slices(path: str) -> Iterator[list[Triangle]]:
    """The triangles of a dissection file in the writer's layout, read in
    pieces of _SLICE characters, one slice at a time; ValueError or OSError
    when the file cannot be read so."""
    with open(path, "r", encoding="utf-8") as fh:
        for part in _written(fh.read, _SLICE, _SLICE)[1]:
            yield _slice_triangles(part, {})


def read_dissection(path: str,
                    job: Callable[[Callable[[], Iterable[list[Triangle]]]], object]) -> object:
    """job(slices) on the dissection at path, or on stdin for "-".  slices()
    gives the triangles, every coordinate an exact int, and nothing is read
    before the job first calls it.  A file in the writer's layout is read
    afresh, a slice at a time, at each call.  Stdin, another layout, or a
    file whose read raises ValueError or OSError at any point, with job run
    again on it, is read whole, by parse_dissection_json, at the first call,
    and later calls give the same one slice."""
    if path != "-":
        try:
            return job(lambda: _file_slices(path))
        except (OSError, ValueError):
            pass
    return job(cache(lambda: (
        parse_read(parse_dissection_json, read_text(path), path)[1].triangles,)))


@collector_paused
def parse_dissection_json(text: str) -> tuple[list[Point], Dissection]:
    """Parse dissection JSON; returns the stated polygon vertices (not yet
    validated) and the triangle list.

    Text in the layout that dissection_to_json (or json.dumps) writes takes
    a fast path; any other valid JSON gives the same result more slowly.
    Each distinct vertex becomes one (x, y) tuple, shared by the triangles
    that name it.
    """
    written = _parse_written(text)
    if written is not None:
        return written
    data = load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("triangles"), list):
        raise ValueError('dissection JSON must be an object with a "triangles" array')
    return _polygon_points(data.get("polygon", [])), Dissection(data["triangles"])
