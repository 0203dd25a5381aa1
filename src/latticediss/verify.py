"""Independent validation of dissections, poofing, and tricolor witnesses.

verify_dissection certifies a triangle list as a genuine dissection of a
convex polygon by exact area accounting: positively oriented triangles whose
vertices lie in the polygon and whose doubled areas sum to the polygon's
cannot overlap or leak.  poof rebuilds a dissection as an abstract disk
triangulation, inserting degenerate "poofagon" triangles wherever collinear
vertices subdivide a triangle side or a polygon edge.  witness_noninteger
exhibits a tricolor (hence non-integer-area) triangle in any valid
dissection of a polygon whose boundary word is not contractible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .combi import Triangulation, validate_disk
from .dissect import Dissection
from .errors import InvalidDissection, PreconditionViolated, TheoremViolation
from .geometry import (
    ConvexLatticePolygon,
    LatticePoint,
    LatticeTriangle,
    boundary_word,
    color_of,
    contains_point,
    orient,
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
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        })


def _fmt_indices(idxs: list[int], limit: int = 8) -> str:
    shown = ", ".join(map(str, idxs[:limit]))
    more = f" (+{len(idxs) - limit} more)" if len(idxs) > limit else ""
    return shown + more


def proper_crossings(D: Dissection) -> list[tuple[int, int]]:
    """Pairs of triangle indices with properly crossing edges (diagnostic)."""

    def crosses(a, b, c, d):
        o1, o2 = orient(a, b, c), orient(a, b, d)
        o3, o4 = orient(c, d, a), orient(c, d, b)
        return (o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0 \
            and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0

    out = []
    tris = D.triangles
    for i in range(len(tris)):
        ei = [(tris[i][k], tris[i][(k + 1) % 3]) for k in range(3)]
        for j in range(i + 1, len(tris)):
            ej = [(tris[j][k], tris[j][(k + 1) % 3]) for k in range(3)]
            if any(crosses(a, b, c, d) for a, b in ei for c, d in ej):
                out.append((i, j))
    return out


def verify_dissection(
    P: ConvexLatticePolygon,
    D: Dissection,
    mode: str = "any",
    diagnostics: bool = False,
) -> VerifyReport:
    """Exact verification that D dissects P; mode adds area constraints.

    mode "integral" requires every doubled area even, "unit" requires every
    doubled area exactly 2, "any" only the dissection structure itself.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    checks: list[CheckResult] = []
    areas = [signed_area2(t) for t in D.triangles]

    bad = [i for i, a in enumerate(areas) if a <= 0]
    checks.append(CheckResult(
        "orientation", not bad,
        "all triangles counterclockwise with positive area" if not bad
        else f"non-positive doubled area at triangles {_fmt_indices(bad)}"))

    # Triangles share vertices, so test each distinct vertex once.
    vertices = {v for t in D.triangles for v in t}
    escaping = {v for v in vertices if not contains_point(P, v)}
    bad = [i for i, t in enumerate(D.triangles) if not escaping.isdisjoint(t)] if escaping else []
    checks.append(CheckResult(
        "containment", not bad,
        "all triangle vertices inside or on the polygon" if not bad
        else f"vertices escape the polygon at triangles {_fmt_indices(bad)}"))

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
        bad = [i for i, a in enumerate(areas) if a != 2]
        checks.append(CheckResult(
            "mode-areas", not bad,
            "all doubled areas equal 2" if not bad
            else f"doubled area differs from 2 at triangles {_fmt_indices(bad)}"))
    else:
        checks.append(CheckResult("mode-areas", True, "mode any: no area constraint"))

    bad = [
        i for i, t in enumerate(D.triangles)
        if not all(isinstance(c, int) and not isinstance(c, bool) for v in t for c in v)
    ]
    checks.append(CheckResult(
        "integer-coords", not bad,
        "all coordinates are integers" if not bad
        else f"non-integer coordinates at triangles {_fmt_indices(bad)}"))

    valid = all(c.passed for c in checks)
    if diagnostics and not valid:
        pairs = proper_crossings(D)
        checks.append(CheckResult(
            "edge-crossings", not pairs,
            "no properly crossing triangle edges" if not pairs
            else f"edges cross properly for triangle pairs {_fmt_indices([f'{i}-{j}' for i, j in pairs])}"))
    return VerifyReport(valid, tuple(checks), len(D.triangles), total)


def _strictly_inside_segment(a: LatticePoint, p: LatticePoint, b: LatticePoint) -> bool:
    if orient(a, p, b) != 0 or p == a or p == b:
        return False
    d = b - a
    return 0 < (p - a).dot(d) < d.dot(d)


def poof(P: ConvexLatticePolygon, D: Dissection) -> tuple[Triangulation, dict[int, LatticePoint]]:
    """Rebuild a valid dissection as an abstract disk triangulation.

    Vertices of the triangulation biject with the dissection's vertices and
    carry their parity colors.  Wherever a triangle side or a polygon edge
    spans other dissection vertices, the chain of collinear points becomes a
    degenerate polygon fan-triangulated from the side's first endpoint; all
    other triangles are the dissection's own.  The result passes
    validate_disk and its corners are exactly the polygon's corners.
    """
    rep = verify_dissection(P, D, "any")
    if not rep.valid:
        raise InvalidDissection("; ".join(c.detail for c in rep.checks if not c.passed))

    pts = sorted({v for t in D.triangles for v in t})
    idx = {p: i for i, p in enumerate(pts)}
    tris: set[frozenset[int]] = set()
    for t in D.triangles:
        tris.add(frozenset(idx[v] for v in t))

    sides: list[tuple[LatticePoint, LatticePoint]] = []
    for t in D.triangles:
        sides += [(t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)]
    sides += P.edges()

    for a, b in sides:
        inner = [p for p in pts if _strictly_inside_segment(a, p, b)]
        if not inner:
            continue
        d = b - a
        inner.sort(key=lambda p: (p - a).dot(d))
        chain = [a, *inner, b]
        for j in range(1, len(chain) - 1):
            poofagon = frozenset((idx[a], idx[chain[j]], idx[chain[j + 1]]))
            assert poofagon not in tris, "poofagon collides with an existing triangle"
            tris.add(poofagon)

    missing = [v for v in P.vertices if v not in idx]
    assert not missing, f"polygon corners {missing} are not dissection vertices"
    T = Triangulation(
        {i: color_of(p).name for p, i in idx.items()},
        tris,
        tuple(idx[v] for v in P.vertices),
    )
    validate_disk(T)
    return T, {i: p for p, i in idx.items()}


def witness_noninteger(P: ConvexLatticePolygon, D: Dissection) -> LatticeTriangle:
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
