"""Reference chain index for differential tests of ``verify._segment_index``.

This is ``_segment_index`` as it was before each triangle's three sides were
written out in full: an inner loop over the side pairs ``(a, b), (b, c),
(c, a)``, building both keys of a side on every step.  The production
function must return the same ``(segments, lines)``, order included, since
``poof`` walks the segments in that order.
"""

from __future__ import annotations

from math import gcd

from latticediss.geometry import ConvexLatticePolygon


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
