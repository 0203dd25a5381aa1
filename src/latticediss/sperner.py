"""The combinatorial Sperner lemma over diagonal triangulations.

The polygon of a boundary word has one corner per letter, colored by it.
This module checks the tricolor property over all diagonal triangulations
of a word's polygon by counting them with an interval recurrence, and
builds none of them.  Only the CLI's `sperner` command and the tests run
it; the decision, the dissection and poof do not.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BoundExceeded, TheoremViolation
from .words import CyclicWord, decide_contractible


SPERNER_BOUND = 200


# Outcome of the tricolor check for one boundary word: the tricolor-free
# example is a tuple of (i, k, j) triangles or None, and star_tricolor maps
# each interior color to whether its star holds a tricolor triangle.
SpernerReport = namedtuple("SpernerReport", "word contractible triangulations_examined "
                           "tricolor_free_count tricolor_free_example star_tricolor")


def sperner_check(w: CyclicWord) -> SpernerReport:
    """Check the tricolor property over all diagonal triangulations.

    Counts triangulations of the |w|-gon colored by w that avoid tricolor
    triangles, asserts that at least one exists exactly when w is
    contractible, and checks every one-interior-vertex star coloring for a
    tricolor triangle (mandatory when w is not contractible).  Raises
    TheoremViolation if any of that fails — which would mean a bug, since
    both facts are theorems.

    Every triangulation of corners i..j has one triangle (i, k, j) on the
    edge (i, j), so free[i][j], the tricolor-free count, sums free[i][k] *
    free[k][j] over good (i, k, j): O(n^3) exact-int steps.
    """
    n = len(w)
    if n > SPERNER_BOUND:
        raise BoundExceeded(f"sperner check supports words up to length {SPERNER_BOUND}, got {n}")
    if n < 3:
        raise BoundExceeded("sperner check needs a word of length at least 3")
    cols = w.letters
    contractible, _ = decide_contractible(w)

    def apexes(i: int, j: int):  # the k that make (i, k, j) good
        ci, cj = cols[i], cols[j]
        return (k for k in range(i + 1, j) if ci == cj or cols[k] == ci or cols[k] == cj)

    free = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    for span in range(2, n):
        for i in range(n - span):
            j = i + span
            free[i][j] = sum(free[i][k] * free[k][j] for k in apexes(i, j))

    def first_shape(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
        # the first tricolor-free shape in the order of least k, then left, then right
        if j - i < 2:
            return ()
        k = next(k for k in apexes(i, j) if free[i][k] and free[k][j])
        return first_shape(i, k) + ((i, k, j),) + first_shape(k, j)

    examined = math.comb(2 * n - 4, n - 2) // (n - 1)  # Catalan(n - 2)
    free_count = free[0][n - 1]
    example = first_shape(0, n - 1) if free_count else None

    if (free_count > 0) != contractible:
        raise TheoremViolation(
            f"word {w}: contractible={contractible} but {free_count} tricolor-free "
            f"diagonal triangulations found among {examined}"
        )

    star: dict[str, bool] = {}
    for center in sorted(set(cols)):
        has = any(
            cols[i] != cols[(i + 1) % n]
            and center != cols[i]
            and center != cols[(i + 1) % n]
            for i in range(n)
        )
        star[center] = has
        if not contractible and not has:
            raise TheoremViolation(
                f"word {w} is not contractible but the star with center color "
                f"{center} has no tricolor triangle"
            )

    return SpernerReport(w, contractible, examined, free_count, example, star)
