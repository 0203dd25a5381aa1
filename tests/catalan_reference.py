"""Reference enumeration of diagonal triangulations for tests of
``sperner.sperner_check``.

``sperner_check`` counts tricolor-free diagonal triangulations with an
interval recurrence and never lists them.  This module lists every one of
the Catalan(n - 2) shapes, so the tests can count them, filter them by
colors and take the first tricolor-free one without sharing any code with
the recurrence.  It is exponential in n.
"""

from __future__ import annotations

from typing import Iterator

from latticediss.errors import BoundExceeded


def enumerate_diagonal_triangulations(n: int) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Every diagonal triangulation of the n-gon (corners 0..n-1), once each.

    Yields shapes: tuples of ascending (i, k, j) corner triples.  The count
    is the (n-2)nd Catalan number.  Bounded to n <= 14.
    """
    if not 3 <= n <= 14:
        raise BoundExceeded(f"diagonal enumeration supports 3 <= n <= 14, got {n}")

    def gen(i: int, j: int) -> Iterator[tuple]:
        # triangulations of the fan i..j using base edge (i, j)
        if j - i < 2:
            yield ()
            return
        for k in range(i + 1, j):
            for left in gen(i, k):
                for right in gen(k, j):
                    yield left + ((i, k, j),) + right

    yield from gen(0, n - 1)
