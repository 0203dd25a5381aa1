"""Combinatorial polygons and disk triangulations.

A combinatorial polygon is just a cyclic sequence of colored corners; a
triangulation is a set of vertex-id triples that glue into a topological
disk whose boundary is the polygon.  This module validates the disk
structure, finds tricolor triangles, builds good (tricolor-free) diagonal
dissections from contraction traces, and checks the tricolor property over
all diagonal triangulations of a boundary word's polygon by counting them
with an interval recurrence.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, count
from operator import eq

from .errors import BoundExceeded, NotADisk, TheoremViolation, TooSmall
from .words import ContractionTrace, CyclicWord, Immutable, decide_contractible


class Triangulation(Immutable):
    """An abstract simplicial triangulation of a disk.

    vertex_colors maps vertex id -> color label and corners is the boundary
    cycle.  The faces are stored once, as a flat list of vertex ids, three
    per face; triangles is a read-only view of them, a frozenset of id
    triples built on each read, and copy and pickle rebuild T from it.  The
    constructor keeps a triangle given twice once, checks only local shape,
    3 distinct int ids per triangle (a bool is not an id), and raises
    ValueError naming the triangle as given; run validate_disk for the full
    topological contract.
    """

    __slots__ = ("vertex_colors", "_ids", "corners")

    def __init__(
        self,
        vertex_colors: Mapping[int, str],
        triangles: Iterable[Iterable[int]],
        corners: Sequence[int],
    ):
        tris = set()
        for t in triangles:
            try:
                tt = frozenset(t)
            except TypeError:  # not iterable, or an unhashable id
                tt = frozenset()
            x, y, z = tt if len(tt) == 3 else (None, None, None)
            if not type(x) is type(y) is type(z) is int:
                raise ValueError(f"triangle {t!r} is not 3 distinct int vertex ids")
            tris.add(tt)
        self._set(dict(vertex_colors), list(chain.from_iterable(frozenset(tris))), tuple(corners))

    @classmethod
    def _checked(cls, vertex_colors: dict[int, str], ids: list[int],
                 corners: tuple[int, ...]) -> Triangulation:
        """The disk with these parts, stored as given and uncopied, checked
        by validate_disk, which raises NotADisk.  The caller has just built
        the parts and vouches that each three ids in turn are 3 distinct int
        ids; a face given twice fails the check."""
        T = object.__new__(cls)
        T._set(vertex_colors, ids, corners)
        validate_disk(T)
        return T

    @property
    def triangles(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, _faces(self._ids)))

    def __reduce__(self):
        return type(self), (self.vertex_colors, self.triangles, self.corners)

    def __repr__(self) -> str:
        faces = len(self._ids) // 3
        return f"Triangulation({len(self.vertex_colors)} vertices, {faces} triangles)"

    def sorted_triangles(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(t)) for t in _faces(self._ids))


def _same_cycle(cycle: list[int], corners: tuple) -> bool:
    """Whether corners is cycle (distinct ids) up to rotation and reflection."""
    if len(corners) != len(cycle) or corners[0] not in cycle:
        return False
    k = cycle.index(corners[0])
    return corners in (tuple(cycle[k:] + cycle[:k]), tuple(cycle[k::-1] + cycle[:k:-1]))


def _boundary_error(boundary: list[tuple[int, int]], corners: tuple) -> str | None:
    """Why the boundary edges are not one cycle matching the corners, or None."""
    nbr: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in boundary:
        nbr[a].append(b)
        nbr[b].append(a)
    bad_deg = [v for v, ns in nbr.items() if len(ns) != 2]
    if not boundary:
        return "no boundary edges: not a disk with boundary"
    if bad_deg:
        return f"boundary vertex {bad_deg[0]} touches {len(nbr[bad_deg[0]])} boundary edges"
    # every vertex has degree 2, so the walk comes back to its start
    cycle = [min(nbr)]
    prev = None
    while True:
        ns = nbr[cycle[-1]]
        nxt = ns[0] if ns[0] != prev else ns[1]
        if nxt == cycle[0]:
            break
        prev = cycle[-1]
        cycle.append(nxt)
    if len(cycle) != len(boundary):
        return "boundary edges form more than one cycle"
    if not _same_cycle(cycle, corners):
        return f"boundary cycle {cycle} does not match corners {list(corners)}"
    return None


def _count_edges(ids: list[int], lo: int, n: int) -> tuple[list, list[int], int] | None:
    """One pass over the edges of the faces in ids, three ids per face: None
    if some edge has a third face, else (boundary edges, union-find parents
    of the faces, number of edges).

    The ids lie in lo .. lo + n - 1.  A flat map takes the int key a * n + b
    of each edge (a, b), a < b, to its first face, then to None once a
    second face has come, and the two faces are merged: the root of the
    earlier face is linked to face i, the face being scanned.  Face i is
    still a root then, since only earlier faces have been linked, so it
    needs no find.  The key names the edge for any int ids: if a * n + b ==
    a' * n + b', then b' - b is a multiple of n inside (-n, n), so it is 0.
    So no tuple is built or kept per edge or face; only the boundary edges
    are decoded, as (a, b) pairs in order of first appearance over the faces.
    """
    face_of: dict[int, int | None] = {}
    first = face_of.setdefault
    parent = list(range(len(ids) // 3))
    it = iter(ids)
    for i, a, b, c in zip(count(), it, it, it):  # ordered by swaps, with no list
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        an = a * n
        for e in (an + b, b * n + c, an + c):
            j = first(e, i)
            if j == i:
                continue
            if j is None:
                return None
            face_of[e] = None
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            parent[j] = i
    shift = lo * (n + 1)  # e - shift == (a - lo) * n + (b - lo), and 0 <= b - lo < n
    boundary = [divmod(e - shift, n) for e, f in face_of.items() if f is not None]
    return [(lo + q, lo + r) for q, r in boundary], parent, len(face_of)


def disk_errors(T: Triangulation) -> list[str]:
    """All violations of the disk contract, one message per condition (see
    _disk_errors, which checks T's colors, flat list of ids and corners)."""
    return _disk_errors(T.vertex_colors, T._ids, T.corners)


def _faces(ids: list[int]) -> Iterator[tuple[int, int, int]]:
    """The faces of the flat id list, each a tuple of its three ids in turn."""
    it = iter(ids)
    return zip(it, it, it)


def _disk_errors(vertex_colors: Mapping[int, str], ids: list[int], corners: tuple) -> list[str]:
    """disk_errors of the Triangulation with these parts, where ids lists the
    ids of its faces, three per face.  The messages follow the order of the
    faces in ids.

    One set holds the ids in use, for the color checks, the range of
    _count_edges' keys, V and the fan walk.  The counting pass
    (_count_edges) keys each edge by one int, from that range, and builds
    no tuple or list per edge or face.  From its results, in order: no
    edge has a third face, the boundary is one cycle matching the corners,
    the faces are edge-connected and V - E + F = 1.  Only a third face
    makes the edge -> faces lists, to name the faces.  The per-vertex fan
    walk runs last and only if an earlier check failed, so a valid disk
    costs linear time.  The fan walk cannot fail once those four checks
    pass: splitting each vertex into its c link components gives a
    connected surface with boundary and Euler characteristic
    1 + sum(c - 1), which is at most 1 and equals 1 only for the disk, so
    every c is 1.  Face connectivity is not implied by the other counts: a
    triangle beside a disjoint torus has one boundary cycle and
    V - E + F = 1 + 0.
    """
    if not ids:
        return ["triangulation has no triangles"]
    used = set(ids)
    errors = [f"vertex {v} has no color" for v in sorted(used.difference(vertex_colors))]
    errors += [f"vertex {v} lies in no triangle" for v in sorted(vertex_colors.keys() - used)]
    lo = min(used)
    counted = _count_edges(ids, lo, max(used) - lo + 1)
    if counted is None:
        # edge (a, b) with a < b -> its triangles, in order of first appearance
        edge_faces: dict[tuple[int, int], list] = {}
        for tri in _faces(ids):
            a, b, c = sorted(tri)
            for e in ((a, b), (b, c), (a, c)):
                edge_faces.setdefault(e, []).append(tri)
        for e in sorted(e for e, faces in edge_faces.items() if len(faces) > 2):
            faces = edge_faces[e]
            names = ", ".join(str(sorted(f)) for f in faces)
            errors.append(f"edge {list(e)} lies in {len(faces)} triangles: {names}")
    if errors:
        return errors  # topology below assumes a sane edge complex

    boundary, parent, E = counted
    error = _boundary_error(boundary, corners)
    if error:
        errors.append(error)

    if sum(map(eq, parent, range(len(parent)))) != 1:  # more than one root
        def root(i: int) -> int:
            while parent[i] != i:
                i = parent[i]
            return i
        home = root(0)
        stray = next(t for i, t in enumerate(_faces(ids)) if root(i) != home)
        errors.append(f"triangle {sorted(stray)} is disconnected from the rest")

    V, F = len(used), len(ids) // 3
    if V - E + F != 1:
        errors.append(f"Euler characteristic V-E+F = {V}-{E}+{F} = {V - E + F}, expected 1")
    if not errors:
        return errors  # a disk: the fan walk below cannot fail (see the docstring)

    # each vertex's incident triangles must form a single fan:
    # closed (cycle) for interior vertices, open (path) for boundary ones
    boundary_vertices = set().union(*boundary)
    star: dict[int, list] = {}
    for tri in _faces(ids):
        for v in tri:
            star.setdefault(v, []).append(tri)
    for v in sorted(used):
        link: dict[int, list[int]] = {}
        for tri in star[v]:
            a, b = [x for x in tri if x != v]
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
        stack = [next(iter(link))]  # walk the link graph
        seen_l = set(stack)
        while stack:
            for x in link[stack.pop()]:
                if x not in seen_l:
                    seen_l.add(x)
                    stack.append(x)
        is_open = v in boundary_vertices
        # The link graph is simple, and link node x has one entry per face on
        # edge {v, x}, so its degree is at most 2: the walk runs only once no
        # edge has a third face.  Connected with len(link) - is_open edges it
        # is then a path or a cycle, as it must be.
        if len(seen_l) != len(link) or len(star[v]) != len(link) - is_open:
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
    tris = sorted(T.triangles, key=sorted)
    return next((t for t in tris if len({T.vertex_colors[v] for v in t}) == 3), None)


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
    T = Triangulation(dict(enumerate(w.letters)), trace.steps, tuple(range(n)))
    assert len(T.triangles) == n - 2
    return T


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

