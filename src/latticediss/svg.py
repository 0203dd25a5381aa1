"""Deterministic SVG rendering of polygons and dissections.

One lattice unit is 40 px, the y axis is flipped for screen orientation, and
vertices are colored by parity (A black, B red, C blue, D green) with a
legend, 90 px per color, which the canvas is never narrower than.  All
emitted coordinates are integers and iteration orders are sorted, so output
bytes are stable for fixed input.  The background grid draws one line per
lattice unit, so polygons wider or taller than MAX_SPAN units are refused
before anything is drawn.
"""

from __future__ import annotations

from collections.abc import Iterable

from .geometry import MAX_SPAN, ConvexLatticePolygon, Triangle, color_of

UNIT = 40
LEGEND_H = 50
VERTEX_R = 6
FILL = {"A": "black", "B": "red", "C": "blue", "D": "green"}


def check_span(P: ConvexLatticePolygon) -> None:
    """Raise ValueError when P is wider or taller than MAX_SPAN units."""
    xs, ys = zip(*P.vertices)
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    if max(w, h) > MAX_SPAN:
        raise ValueError(f"polygon spans {w} x {h} lattice units; "
                         f"render draws at most {MAX_SPAN} in each direction")


def render_svg(P: ConvexLatticePolygon, triangles: Iterable[Triangle] = ()) -> str:
    check_span(P)
    xs, ys = zip(*P.vertices)
    minx, maxx = min(xs) - 1, max(xs) + 1
    miny, maxy = min(ys) - 1, max(ys) + 1

    def px(x: int) -> int:
        return (x - minx) * UNIT

    def py(y: int) -> int:
        return (maxy - y) * UNIT + LEGEND_H

    width = max((maxx - minx) * UNIT, len(FILL) * 90)
    height = (maxy - miny) * UNIT + LEGEND_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    for i, (tag, color) in enumerate(sorted(FILL.items())):
        cx = 20 + i * 90
        out.append(f'<circle cx="{cx}" cy="25" r="{VERTEX_R}" fill="{color}"/>')
        out.append(
            f'<text x="{cx + 12}" y="30" font-family="monospace" font-size="16">'
            f'{tag}</text>'
        )

    for x in range(minx, maxx + 1):
        out.append(f'<line x1="{px(x)}" y1="{py(maxy)}" x2="{px(x)}" y2="{py(miny)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
    for y in range(miny, maxy + 1):
        out.append(f'<line x1="{px(minx)}" y1="{py(y)}" x2="{px(maxx)}" y2="{py(y)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')

    vertices = set(P.vertices)
    segments = set()
    for t in triangles:
        vertices.update(t)
        for k in range(3):
            a, b = t[k], t[(k + 1) % 3]
            segments.add((min(a, b), max(a, b)))
    for a, b in sorted(segments):
        out.append(f'<line x1="{px(a[0])}" y1="{py(a[1])}" x2="{px(b[0])}" y2="{py(b[1])}" '
                   f'stroke="#555555" stroke-width="2"/>')

    points = " ".join(f"{px(x)},{py(y)}" for x, y in P.vertices)
    out.append(f'<polygon points="{points}" fill="none" stroke="black" stroke-width="3"/>')

    for v in sorted(vertices):
        out.append(f'<circle cx="{px(v[0])}" cy="{py(v[1])}" r="{VERTEX_R}" '
                   f'fill="{FILL[color_of(v)]}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
