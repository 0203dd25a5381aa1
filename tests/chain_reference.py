"""Reference chain index and failure detail for differential tests of
``verify._segment_index`` and ``verify._chain_failure``.

segment_index is ``_segment_index`` as it was before each triangle's three
sides were written out in full: an inner loop over the side pairs ``(a, b),
(b, c), (c, a)``, building both keys of a side on every step.  The production
function must return the same ``(segments, lines)``, order included, since
``poof`` walks the segments in that order.

chain_failure is ``_chain_failure`` as it was before each vertex was tested
against the bad line once: every side tests both of its endpoints, and a
side with both on the line takes the interval test.  The production detail
must be the same text.
"""

from __future__ import annotations

from math import gcd

from latticediss.geometry import ConvexLatticePolygon
from latticediss.verify import _Indices, _point_on


def segment_index(P: ConvexLatticePolygon, triangles):
    """The sides of the triangles minus the edges of P, as a signed 1-chain."""
    vs = P.vertices
    left = dict.fromkeys(zip(vs[1:] + vs[:1], vs), 1)
    pop, get = left.pop, left.get
    for a, b, c in triangles:
        for p, q in ((a, b), (b, c), (c, a)):
            n = pop((q, p), 0)
            if n > 1:
                left[q, p] = n - 1
            elif not n:
                left[p, q] = get((p, q), 0) + 1
    segments = []
    lines: dict = {}
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


def chain_failure(lines, triangles) -> str:
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
    hits = _Indices()
    for i, t in enumerate(triangles):
        for p, q in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            if ux * p[1] - uy * p[0] == off == ux * q[1] - uy * q[0]:
                tp, tq = ux * p[0] + uy * p[1], ux * q[0] + uy * q[1]
                if min(tp, tq) < hi and max(tp, tq) > lo:
                    hits.add([i])
                    break
    a, b = _point_on(line, lo), _point_on(line, hi)
    return (f"segment ({a[0]},{a[1]})-({b[0]},{b[1]}) is covered {cover:+d} times in direction "
            f"({ux},{uy}) by triangle sides net of the polygon's edges; triangles with a "
            f"side there: {hits or 'none'}")
