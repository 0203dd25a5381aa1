"""Combinatorial polygons and disk triangulations.

A combinatorial polygon is just a cyclic sequence of colored corners; a
triangulation is a set of vertex-id triples that glue into a topological
disk whose boundary is the polygon.  This module validates the disk
structure, finds tricolor triangles, builds good (tricolor-free) diagonal
dissections from contraction traces, enumerates all diagonal triangulations
of an n-gon, and runs the exhaustive tricolor check for a boundary word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BoundExceeded, NotADisk, TheoremViolation, TooSmall
from .words import ContractionTrace, CyclicWord, decide_contractible


class Triangulation:
    """An abstract simplicial triangulation of a disk.

    vertex_colors maps vertex id -> color label, triangles is a set of
    unordered id triples, corners is the boundary cycle.  A triangle given
    as a frozenset is kept as it is; any other iterable is frozen.  The
    constructor checks only local shape, 3 distinct int ids per triangle
    (a bool is not an id), and raises ValueError naming the triangle as
    given; run validate_disk for the full topological contract.
    """

    __slots__ = ("vertex_colors", "triangles", "corners")

    def __init__(
        self,
        vertex_colors: Mapping[int, str],
        triangles: Iterable[Iterable[int]],
        corners: Sequence[int],
    ):
        tris = set()
        for t in triangles:
            try:
                tt = t if type(t) is frozenset else frozenset(t)
            except TypeError:  # not iterable, or an unhashable id
                tt = frozenset()
            x, y, z = tt if len(tt) == 3 else (None, None, None)
            if not type(x) is type(y) is type(z) is int:
                raise ValueError(f"triangle {t!r} is not 3 distinct int vertex ids")
            tris.add(tt)
        object.__setattr__(self, "vertex_colors", dict(vertex_colors))
        object.__setattr__(self, "triangles", frozenset(tris))
        object.__setattr__(self, "corners", tuple(corners))

    def __setattr__(self, name, value):
        raise AttributeError("Triangulation is immutable")

    def __repr__(self) -> str:
        return f"Triangulation({len(self.vertex_colors)} vertices, {len(self.triangles)} triangles)"

    def sorted_triangles(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(t)) for t in self.triangles)


def _same_cycle(cycle: list[int], corners: tuple) -> bool:
    """Whether corners is cycle (distinct ids) up to rotation and reflection."""
    if len(corners) != len(cycle) or corners[0] not in cycle:
        return False
    k = cycle.index(corners[0])
    return corners in (tuple(cycle[k:] + cycle[:k]), tuple(cycle[k::-1] + cycle[:k:-1]))


def disk_errors(T: Triangulation) -> list[str]:
    """All violations of the disk contract, one message per condition.

    The per-vertex fan walk runs last and only if an earlier check failed,
    so a valid disk costs linear time.  It cannot fail once every edge has
    at most two faces, the boundary is one cycle matching the corners, the
    faces are edge-connected and V - E + F = 1: splitting each vertex into
    its c link components gives a connected surface with boundary and
    Euler characteristic 1 + sum(c - 1), which is at most 1 and equals 1
    only for the disk, so every c is 1.
    """
    if not T.triangles:
        return ["triangulation has no triangles"]
    used = set().union(*T.triangles)
    errors = [f"vertex {v} has no color" for v in sorted(used.difference(T.vertex_colors))]
    errors += [f"vertex {v} lies in no triangle" for v in sorted(T.vertex_colors.keys() - used)]

    # edge (a, b) with a < b -> its triangles, in order of first appearance
    edge_faces: dict[tuple[int, int], list[frozenset]] = {}
    faces_of = edge_faces.setdefault
    for tri in T.triangles:
        a, b, c = sorted(tri)
        faces_of((a, b), []).append(tri)
        faces_of((b, c), []).append(tri)
        faces_of((a, c), []).append(tri)
    for e in sorted(e for e, faces in edge_faces.items() if len(faces) > 2):
        faces = edge_faces[e]
        names = ", ".join(str(sorted(f)) for f in faces)
        errors.append(f"edge {list(e)} lies in {len(faces)} triangles: {names}")
    if errors:
        return errors  # topology below assumes a sane edge complex

    # boundary edges must chain into one closed cycle; the others join faces
    boundary = []
    adjacent: dict[frozenset, list[frozenset]] = {}
    for e, faces in edge_faces.items():
        if len(faces) == 1:
            boundary.append(e)
        else:
            f, g = faces
            adjacent.setdefault(f, []).append(g)
            adjacent.setdefault(g, []).append(f)
    nbr: dict[int, list[int]] = {}
    for a, b in boundary:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    bad_deg = [v for v, ns in nbr.items() if len(ns) != 2]
    if not boundary:
        errors.append("no boundary edges: not a disk with boundary")
    elif bad_deg:
        errors.append(f"boundary vertex {bad_deg[0]} touches {len(nbr[bad_deg[0]])} boundary edges")
    else:
        cycle = [min(nbr)]
        prev = None
        while True:
            ns = nbr[cycle[-1]]
            nxt = ns[0] if ns[0] != prev else ns[1]
            if nxt == cycle[0]:
                break
            prev = cycle[-1]
            cycle.append(nxt)
            if len(cycle) > len(boundary):
                break
        if len(cycle) != len(boundary):
            errors.append("boundary edges form more than one cycle")
        elif not _same_cycle(cycle, T.corners):
            errors.append(f"boundary cycle {cycle} does not match corners {list(T.corners)}")

    # the face-adjacency graph must be connected
    first = next(iter(T.triangles))
    seen = {first}
    todo = [first]
    while todo:
        for other in adjacent.get(todo.pop(), ()):
            if other not in seen:
                seen.add(other)
                todo.append(other)
    if len(seen) != len(T.triangles):
        stray = next(t for t in T.triangles if t not in seen)
        errors.append(f"triangle {sorted(stray)} is disconnected from the rest")

    V, E, F = len(used), len(edge_faces), len(T.triangles)
    if V - E + F != 1:
        errors.append(f"Euler characteristic V-E+F = {V}-{E}+{F} = {V - E + F}, expected 1")
    if not errors:
        return errors  # a disk: the fan walk below cannot fail (see the docstring)

    # each vertex's incident triangles must form a single fan:
    # closed (cycle) for interior vertices, open (path) for boundary ones
    boundary_vertices = set().union(*boundary)
    star: dict[int, list[frozenset]] = {}
    for tri in T.triangles:
        for v in tri:
            star.setdefault(v, []).append(tri)
    for v in sorted(used):
        link: dict[int, list[int]] = {}
        for tri in star[v]:
            a, b = tri - {v}
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
        stack = [next(iter(link))]  # walk the link graph
        seen_l = set(stack)
        while stack:
            for x in link[stack.pop()]:
                if x not in seen_l:
                    seen_l.add(x)
                    stack.append(x)
        degs = [len(ns) for ns in link.values()]
        is_open = v in boundary_vertices
        if (len(seen_l) != len(link) or degs.count(1) != 2 * is_open or max(degs) > 2
                or len(star[v]) != len(link) - is_open):
            errors.append(f"triangles around vertex {v} do not form one "
                          f"{'open' if is_open else 'closed'} fan")
    return errors


def validate_disk(T: Triangulation) -> None:
    """Raise NotADisk (with every violation) unless T triangulates a disk."""
    errors = disk_errors(T)
    if errors:
        raise NotADisk(errors)


def boundary_word_of(T: Triangulation) -> CyclicWord:
    return CyclicWord(T.vertex_colors[v] for v in T.corners)


def find_tricolor(T: Triangulation) -> frozenset | None:
    """Some triangle with three pairwise distinct vertex colors, or None."""
    for tri in sorted(T.triangles, key=sorted):
        if len({T.vertex_colors[v] for v in tri}) == 3:
            return tri
    return None


def good_dissection(w: CyclicWord) -> Triangulation | None:
    """A diagonal triangulation of the polygon with corner colors w into good
    triangles, if one exists.

    Replays the decider's contraction trace: every deletion step (left,
    deleted, right) contributes the external triangle on those corners, and
    the final step closes the polygon.  Returns None when the boundary word
    is not contractible.
    """
    n = len(w)
    if n < 3:
        raise TooSmall("a combinatorial polygon needs at least 3 corners")
    ok, trace = decide_contractible(w)
    if not ok:
        return None
    assert isinstance(trace, ContractionTrace)
    tris = [frozenset((s.left, s.deleted, s.right)) for s in trace.steps]
    T = Triangulation(dict(enumerate(w.letters)), tris, tuple(range(n)))
    assert len(T.triangles) == n - 2
    return T


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


@dataclass
class SpernerReport:
    """Outcome of the exhaustive tricolor check for one boundary word."""

    word: CyclicWord
    contractible: bool
    triangulations_examined: int
    tricolor_free_count: int
    tricolor_free_example: tuple[tuple[int, int, int], ...] | None
    star_tricolor: dict[str, bool]  # interior color -> star contains a tricolor triangle


def _shape_is_tricolor_free(shape, cols) -> bool:
    for i, k, j in shape:
        if cols[i] != cols[k] and cols[k] != cols[j] and cols[i] != cols[j]:
            return False
    return True


def sperner_check(w: CyclicWord) -> SpernerReport:
    """Brute-force the tricolor property over all diagonal triangulations.

    Counts triangulations of the |w|-gon colored by w that avoid tricolor
    triangles, asserts that at least one exists exactly when w is
    contractible, and checks every one-interior-vertex star coloring for a
    tricolor triangle (mandatory when w is not contractible).  Raises
    TheoremViolation if any of that fails — which would mean a bug, since
    both facts are theorems.
    """
    n = len(w)
    if n > 12:
        raise BoundExceeded(f"sperner check supports words up to length 12, got {n}")
    if n < 3:
        raise BoundExceeded("sperner check needs a word of length at least 3")
    cols = w.letters
    contractible, _ = decide_contractible(w)

    examined = 0
    free_count = 0
    example = None
    for shape in enumerate_diagonal_triangulations(n):
        examined += 1
        if _shape_is_tricolor_free(shape, cols):
            free_count += 1
            if example is None:
                example = shape

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

