"""Reference Sperner objects for tests of ``combi`` and ``sperner``: a
triangulation's corner word, its first tricolor triangle, and a good
diagonal triangulation built from the decider's contraction trace.

``sperner.sperner_check`` counts tricolor-free diagonal triangulations by
an interval recurrence and builds none.  This module builds them as
``combi.Triangulation`` disks, so that the tests can check a good
dissection face by face, and can read the corner colors of a poofed disk.
"""

from __future__ import annotations

from latticediss.combi import Triangulation
from latticediss.words import ContractionTrace, CyclicWord, decide_contractible


def boundary_word_of(T: Triangulation) -> CyclicWord:
    return CyclicWord(T.vertex_colors[v] for v in T.corners)


def find_tricolor(T: Triangulation) -> frozenset | None:
    """Some triangle with three pairwise distinct vertex colors, or None."""
    tris = sorted(T.triangles, key=sorted)
    return next((t for t in tris if len({T.vertex_colors[v] for v in t}) == 3), None)


def good_dissection(w: CyclicWord) -> Triangulation | None:
    """A diagonal triangulation of the polygon with corner colors w into good
    triangles, if one exists.

    Replays the decider's contraction trace: every deletion step (left,
    deleted, right) contributes the external triangle on those corners, and
    the final step closes the polygon.  Returns None when the boundary word
    is not contractible, and raises ValueError for fewer than 3 corners.
    """
    n = len(w)
    if n < 3:
        raise ValueError("a combinatorial polygon needs at least 3 corners")
    ok, trace = decide_contractible(w)
    if not ok:
        return None
    assert isinstance(trace, ContractionTrace)
    T = Triangulation(dict(enumerate(w.letters)), trace.steps, tuple(range(n)))
    assert len(T.triangles) == n - 2
    return T
