"""Reference disk check for differential tests of ``combi.disk_errors``.

This is ``disk_errors`` as it was before the fan walk moved to the error
path: it walks every vertex's link on every call, keys edges by frozensets,
sorts all of them, and matches corners against every rotation and reflection
of the boundary cycle.  It is slow (quadratic in the number of corners) but
plain, and the production function must return the same list on every input.
It reads T's faces in the order T stores them, as the production function
does, since the messages follow that order.
"""

from __future__ import annotations

from latticediss.combi import Triangulation, _faces


def _edge_faces(tris: list[frozenset]) -> dict[frozenset, list[frozenset]]:
    out: dict[frozenset, list[frozenset]] = {}
    for tri in tris:
        a, b, c = sorted(tri)
        for e in (frozenset((a, b)), frozenset((b, c)), frozenset((a, c))):
            out.setdefault(e, []).append(tri)
    return out


def _cyclic_variants(seq: tuple) -> set[tuple]:
    n = len(seq)
    out = set()
    for s in (seq, tuple(reversed(seq))):
        for k in range(n):
            out.add(s[k:] + s[:k])
    return out


def disk_errors(T: Triangulation) -> list[str]:
    """All violations of the disk contract, one message per condition."""
    errors: list[str] = []
    tris = [frozenset(t) for t in _faces(T._ids)]
    used = {v for tri in tris for v in tri}
    if not tris:
        return ["triangulation has no triangles"]
    for v in sorted(used):
        if v not in T.vertex_colors:
            errors.append(f"vertex {v} has no color")
    for v in sorted(T.vertex_colors):
        if v not in used:
            errors.append(f"vertex {v} lies in no triangle")

    edge_faces = _edge_faces(tris)
    for e, faces in sorted(edge_faces.items(), key=lambda kv: sorted(kv[0])):
        if len(faces) > 2:
            names = ", ".join(str(sorted(f)) for f in faces)
            errors.append(f"edge {sorted(e)} lies in {len(faces)} triangles: {names}")
    if errors:
        return errors  # topology below assumes a sane edge complex

    # boundary edges must chain into one closed cycle
    boundary = [e for e, faces in edge_faces.items() if len(faces) == 1]
    nbr: dict[int, list[int]] = {}
    for e in boundary:
        a, b = sorted(e)
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
        elif tuple(T.corners) not in _cyclic_variants(tuple(cycle)):
            errors.append(f"boundary cycle {cycle} does not match corners {list(T.corners)}")

    # the face-adjacency graph (shared edges) must be connected
    index = {t: i for i, t in enumerate(tris)}
    seen = {0}
    todo = [tris[0]]
    while todo:
        tri = todo.pop()
        a, b, c = sorted(tri)
        for e in (frozenset((a, b)), frozenset((b, c)), frozenset((a, c))):
            for other in edge_faces[e]:
                if index[other] not in seen:
                    seen.add(index[other])
                    todo.append(other)
    if len(seen) != len(tris):
        stray = tris[next(i for i in range(len(tris)) if i not in seen)]
        errors.append(f"triangle {sorted(stray)} is disconnected from the rest")

    V, E, F = len(used), len(edge_faces), len(tris)
    if V - E + F != 1:
        errors.append(f"Euler characteristic V-E+F = {V}-{E}+{F} = {V - E + F}, expected 1")

    # each vertex's incident triangles must form a single fan:
    # closed (cycle) for interior vertices, open (path) for boundary ones
    boundary_vertices = {v for e in boundary for v in e}
    star: dict[int, list[frozenset]] = {}
    for tri in tris:
        for v in tri:
            star.setdefault(v, []).append(tri)
    for v in sorted(used):
        link: dict[int, list[int]] = {}
        cnt = len(star[v])
        for tri in star[v]:
            a, b = sorted(tri - {v})
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
        degs = sorted(len(ns) for ns in link.values())
        ends = [u for u, ns in link.items() if len(ns) == 1]
        # connectivity of the link graph
        stack = [next(iter(link))]
        seen_l = set(stack)
        while stack:
            u = stack.pop()
            for x in link[u]:
                if x not in seen_l:
                    seen_l.add(x)
                    stack.append(x)
        connected = len(seen_l) == len(link)
        if v in boundary_vertices:
            ok = connected and len(ends) == 2 and all(d <= 2 for d in degs) and cnt == len(link) - 1
            kind = "open"
        else:
            ok = connected and not ends and all(d == 2 for d in degs) and cnt == len(link)
            kind = "closed"
        if not ok:
            errors.append(f"triangles around vertex {v} do not form one {kind} fan")
    return errors
