"""Reference refinement for differential tests of ``dissect.refine_triangle``.

The unit-refinement rule spelled out with explicit maps: ``normalize`` moves a
triangle of even doubled area to its normal form (0,0), (d,0), (p,q) with a
determinant +1 affine map, the split point is chosen there by parity, mapped
back with the inverse map and cut with ``split_with_point``.  The package
computes the same split point with plain integers and builds no maps, so
``refine_triangle`` must return exactly the pieces of ``reference_refine``,
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from latticediss.dissect import split_with_point
from latticediss.errors import Degenerate, NotIntegerArea
from latticediss.geometry import Point, Triangle, color_of, signed_area2


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, r, s) with r*a + s*b == g == gcd(a, b) >= 0, by Euclid's recursion."""
    if b == 0:
        return abs(a), (a > 0) - (a < 0), 0
    g, r, s = bezout(b, a % b)  # r*b + s*(a - (a//b)*b) == g
    return g, s, r - (a // b) * s


@dataclass(frozen=True)
class UnimodularAffineMap:
    """x -> M x + t with integer M of determinant +-1 and integer t.

    Bijects the lattice; preserves doubled areas up to the sign of det(M)
    and preserves equality of parity colors in both directions.
    """

    m00: int
    m01: int
    m10: int
    m11: int
    tx: int = 0
    ty: int = 0

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    @classmethod
    def translation(cls, tx: int, ty: int) -> "UnimodularAffineMap":
        return cls(1, 0, 0, 1, tx, ty)

    def apply(self, p) -> Point:
        x, y = p
        return (self.m00 * x + self.m01 * y + self.tx,
                self.m10 * x + self.m11 * y + self.ty)

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """The map sending x to self(other(x))."""
        return UnimodularAffineMap(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.tx + self.m01 * other.ty + self.tx,
            self.m10 * other.tx + self.m11 * other.ty + self.ty,
        )

    def inverse(self) -> "UnimodularAffineMap":
        s = self.det  # +-1, so the adjugate divided by det stays integral
        i00, i01 = s * self.m11, -s * self.m01
        i10, i11 = -s * self.m10, s * self.m00
        return UnimodularAffineMap(
            i00, i01, i10, i11,
            -(i00 * self.tx + i01 * self.ty),
            -(i10 * self.tx + i11 * self.ty),
        )


class NormalizedTriangle(NamedTuple):
    """Normal form (0,0), (d,0), (p,q) with d > 0, q >= 1, 1 <= p <= q."""

    d: int
    p: int
    q: int

    @property
    def vertices(self) -> Triangle:
        return ((0, 0), (self.d, 0), (self.p, self.q))


def normalize(t: Triangle) -> tuple[UnimodularAffineMap, NormalizedTriangle]:
    """Map a triangle of even positive doubled area to its normal form.

    Picks the first same-colored vertex pair (which exists because the
    doubled area is even) as the pair sent to (0,0) and (d,0); d comes out
    even.  Returns the full affine map M with M(v0)=(0,0), M(v1)=(d,0),
    M(v2)=(p,q), det(M) = +1.
    """
    area2 = signed_area2(t)
    if area2 == 0:
        raise Degenerate("cannot normalize a degenerate triangle")
    if area2 % 2:
        raise NotIntegerArea(f"doubled area {area2} is odd")

    cols = [color_of(v) for v in t]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if cols[i] == cols[j]:
            k = 3 - i - j
            break
    else:  # impossible: even doubled area forces a repeated color
        raise AssertionError("even-area triangle without a repeated color")
    v0, v1, v2 = t[i], t[j], t[k]
    if signed_area2((v0, v1, v2)) < 0:
        v0, v1 = v1, v0

    a, b = v1[0] - v0[0], v1[1] - v0[1]
    d, r, s = bezout(a, b)
    first = UnimodularAffineMap(r, s, -b // d, a // d)  # det +1, sends (a,b) to (d,0)
    shift = UnimodularAffineMap.translation(-v0[0], -v0[1])
    tq = first.apply((v2[0] - v0[0], v2[1] - v0[1]))
    t_, q = tq
    assert q == abs(area2) // d > 0
    p = (t_ - 1) % q + 1
    k_ = (p - t_) // q
    shear = UnimodularAffineMap(1, k_, 0, 1)
    M = shear.compose(first).compose(shift)
    assert d % 2 == 0 and 1 <= p <= q
    assert M.apply(v0) == (0, 0) and M.apply(v1) == (d, 0) and M.apply(v2) == (p, q)
    return M, NormalizedTriangle(d, p, q)


def reference_refine(t: Triangle) -> tuple[Triangle, ...]:
    """The refinement rule spelled out with the normal-form helpers."""
    if signed_area2(t) < 0:
        t = (t[0], t[2], t[1])
    out, work = [], [t]
    while work:
        u = work.pop()
        if signed_area2(u) == 2:
            out.append(u)
            continue
        M, (d, p, q) = normalize(u)
        if d > 2:
            xn = (2, 0)
        elif q % 2 == 0:
            xn = (1, 0)
        else:
            xn = (1, 1) if p % 2 else (2, 1)
        work.extend(split_with_point(u, M.inverse().apply(xn)))
    return tuple(out)
