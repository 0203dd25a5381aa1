"""The paper's theorem on small polygons, from the definition of a tiling.

Every convex lattice polygon in [0,3]^2, taken up to translation, has an
area-1 lattice tiling (tiling_oracle's exhaustive search) exactly when
decide_contractible accepts its boundary word.  The box's eight symmetries
map lattice tilings to lattice tilings, so the search runs once per class
of polygons under them, and the decider answers for every polygon of the
class: the symmetries permute the colors and the reflections among them
reverse the word, and the decider's pass sees each image's word from
another corner.
"""

from dissection_oracle import is_dissection
from latticediss.dissect import Dissection
from latticediss.geometry import boundary_word, signed_area2, validate_convex
from latticediss.verify import verify_dissection
from latticediss.words import decide_contractible
from tiling_oracle import unit_tiling

BOX = 3
SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (BOX - x, y), lambda x, y: (x, BOX - y),
    lambda x, y: (BOX - x, BOX - y), lambda x, y: (y, x), lambda x, y: (BOX - y, x),
    lambda x, y: (y, BOX - x), lambda x, y: (BOX - y, BOX - x),
]


def convex_polygons(box: int):
    """Every strictly convex lattice polygon in [0,box]^2, as its vertex
    cycle counterclockwise from its lowest-leftmost vertex s: each next
    vertex turns left and lies at a larger angle around s than the last."""
    pts = [(x, y) for y in range(box + 1) for x in range(box + 1)]

    def cross(o, a, b):
        return signed_area2((o, a, b))

    def grow(path, rest):
        s, last = path[0], path[-1]
        if len(path) >= 3 and cross(path[-2], last, s) > 0:
            yield tuple(path)
        for q in rest:
            if cross(s, last, q) > 0 and (len(path) < 2 or cross(path[-2], last, q) > 0):
                yield from grow(path + [q], rest)

    for i, s in enumerate(pts):
        rest = pts[i + 1:]  # the points after s, lowest row first
        for q in rest:
            yield from grow([s, q], rest)


def canonical(vertices) -> tuple:
    """The least translated image of the vertex set under the box's symmetries."""
    images = []
    for f in SYMMETRIES:
        vs = [f(x, y) for x, y in vertices]
        x0, y0 = min(x for x, _ in vs), min(y for _, y in vs)
        images.append(tuple(sorted((x - x0, y - y0) for x, y in vs)))
    return min(images)


def test_unit_tilings_exist_exactly_for_contractible_words():
    polygons = [vs for vs in convex_polygons(BOX)
                if min(x for x, _ in vs) == 0 and min(y for _, y in vs) == 0]
    assert len(polygons) == 1633  # all of them, up to translation
    classes = {}
    for vs in polygons:
        classes.setdefault(canonical(vs), []).append(validate_convex(vs))
    verdicts = {True: 0, False: 0}
    for members in classes.values():
        P = members[0]
        tiling = unit_tiling(P)
        for Q in members:
            assert decide_contractible(boundary_word(Q))[0] == (tiling is not None), Q
        verdicts[tiling is not None] += 1
        if tiling is not None:
            assert verify_dissection(P, Dissection(tuple(tiling)), "unit").valid
            assert is_dissection(P, tiling)
    # 248 classes; 75 tile, and 62 of the others have an even doubled area
    assert verdicts == {True: 75, False: 173}
