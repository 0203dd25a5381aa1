import itertools
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import disk_reference
from catalan_reference import enumerate_diagonal_triangulations
from latticediss import combi
from latticediss.dissect import parse_dissection_json
from latticediss.errors import BoundExceeded, NotADisk, TooSmall
from latticediss.geometry import parse_polygon_json
from latticediss.verify import poof
from latticediss.combi import (
    Triangulation,
    boundary_word_of,
    disk_errors,
    find_tricolor,
    good_dissection,
    sperner_check,
    validate_disk,
)
from latticediss.words import CyclicWord, decide_contractible, exhaustive_contractible

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

QUAD_STAR = [(1, 2, 5), (2, 3, 5), (3, 4, 5), (4, 1, 5)]


def quad_star(colors):
    return Triangulation(dict(zip((1, 2, 3, 4, 5), colors)), QUAD_STAR, (1, 2, 3, 4))


def _annulus():
    outer = [0, 1, 2, 3]
    inner = [4, 5, 6, 7]
    tris = []
    for i in range(4):
        a, b = outer[i], outer[(i + 1) % 4]
        c, d = inner[i], inner[(i + 1) % 4]
        tris += [(a, b, c), (b, d, c)]
    return Triangulation({i: "A" for i in range(8)}, tris, tuple(outer))


# Complexes that break the disk contract, shared with the differential test.
MALFORMED = {
    "overused-edge": Triangulation(
        {i: "A" for i in range(1, 6)}, [(1, 2, 3), (1, 2, 4), (1, 2, 5)], (3, 4, 5)),
    "wrong-corners": Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (1, 2, 4, 3)),
    "pinched": Triangulation({i: "A" for i in range(1, 6)}, [(1, 2, 3), (1, 4, 5)], (2, 3, 4, 5)),
    "annulus": _annulus(),
    "missing-color-stray-vertex": Triangulation(
        {1: "A", 2: "B", 3: "C", 9: "D"}, [(1, 2, 3), (2, 3, 4)], (1, 2, 4, 3)),
    "no-triangles": Triangulation({1: "A"}, [], (1,)),
    "tetrahedron": Triangulation(dict(zip((1, 2, 3, 4), "ABCD")),
                                 [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], (1, 2, 3)),
    # one boundary cycle and V - E + F = 1 + 0: only face connectivity rejects it
    "triangle-beside-torus": Triangulation(
        {v: "A" for v in range(1, 11)},
        [(1, 2, 3)] + [tuple(4 + (i + k) % 7 for k in face)
                       for i in range(7) for face in ((0, 1, 3), (0, 2, 3))],
        (1, 2, 3)),
}


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_triangulation_is_immutable():
    T = quad_star("ABABA")
    for name in ("vertex_colors", "triangles", "corners", "other"):
        with pytest.raises(AttributeError):
            setattr(T, name, None)
    assert T.corners == (1, 2, 3, 4)
    assert repr(T) == "Triangulation(5 vertices, 4 triangles)"


# --- validate_disk -----------------------------------------------------------

def test_validate_disk_quad_star_ok():
    validate_disk(quad_star("ABABA"))


def test_validate_disk_single_triangle_ok():
    validate_disk(Triangulation({1: "A", 2: "B", 3: "C"}, [(1, 2, 3)], (1, 2, 3)))


def test_validate_disk_overused_edge():
    T = MALFORMED["overused-edge"]
    errs = disk_errors(T)
    assert any("edge [1, 2] lies in 3 triangles" in e for e in errs)
    with pytest.raises(NotADisk):
        validate_disk(T)


def test_validate_disk_catches_wrong_corners():
    assert any("does not match corners" in e for e in disk_errors(MALFORMED["wrong-corners"]))


def test_validate_disk_corners_up_to_rotation_reflection():
    validate_disk(Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (2, 3, 4, 1)))
    validate_disk(Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (4, 3, 2, 1)))


def test_validate_disk_two_triangles_sharing_vertex():
    # passes Euler but is not a disk: pinched at vertex 1
    errs = disk_errors(MALFORMED["pinched"])
    assert errs  # fan check and adjacency both fail
    assert any("fan" in e for e in errs)
    assert any("disconnected" in e for e in errs)


def test_validate_disk_annulus_fails():
    # triangulated annulus: two boundary cycles
    errs = disk_errors(MALFORMED["annulus"])
    assert any("Euler" in e for e in errs) or any("cycle" in e for e in errs)


def test_validate_disk_missing_color_and_stray_vertex():
    errs = disk_errors(MALFORMED["missing-color-stray-vertex"])
    assert any("vertex 4 has no color" in e for e in errs)
    assert any("vertex 9 lies in no triangle" in e for e in errs)


def test_validate_disk_closed_surface_has_no_boundary():
    # the four faces of a tetrahedron: every edge lies in two triangles
    assert disk_errors(MALFORMED["tetrahedron"]) == [
        "no boundary edges: not a disk with boundary",
        "Euler characteristic V-E+F = 4-6+4 = 2, expected 1",
    ]


@pytest.mark.parametrize("tri", [(1, "a", 2), (1, True, 3), (True, 2, 3), (1, 2), (1, 2, 3, 4),
                                 (1, [2], 3), 5])
def test_triangulation_rejects_bad_triangle(tri):
    # a str or bool id, (1, True, 3), which collapses to {1, 3}, an unhashable
    # id and a triangle that is not iterable
    with pytest.raises(ValueError, match=rf"triangle {re.escape(repr(tri))} is not 3 distinct"):
        Triangulation({}, [(4, 5, 6), tri], ())


def _fan(n, corners=None):
    return Triangulation({i: "A" for i in range(n)}, [(0, i, i + 1) for i in range(1, n - 1)],
                         tuple(range(n)) if corners is None else corners)


def _corner_variants(n, rng):
    k = rng.randrange(1, n)
    i, j = rng.sample(range(n), 2)
    swapped = list(range(n))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    ring = list(range(n))
    return {
        "rotated": tuple(ring[k:] + ring[:k]),
        "reflected": tuple(reversed(ring[k:] + ring[:k])),
        "swapped": tuple(swapped),
    }


def test_disk_errors_large_fan_linear_corner_matching():
    n = 4000
    validate_disk(_fan(n))
    variants = _corner_variants(n, random.Random(4000))
    validate_disk(_fan(n, variants["rotated"]))
    validate_disk(_fan(n, variants["reflected"]))
    assert disk_errors(_fan(n, variants["swapped"])) == [
        f"boundary cycle {list(range(n))} does not match corners {list(variants['swapped'])}"]


@pytest.mark.parametrize("n", [3, 4, 5, 300])
def test_disk_errors_corners_match_reference(n):
    rng = random.Random(n)
    for name, corners in _corner_variants(n, rng).items():
        T = _fan(n, corners)
        assert disk_errors(T) == disk_reference.disk_errors(T), name
    for corners in [(), (0,), tuple(range(n)) + (0,), tuple(range(1, n + 1))]:
        T = _fan(n, corners)
        assert disk_errors(T) == disk_reference.disk_errors(T), corners


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_disk_errors_matches_reference_on_malformed(name):
    T = MALFORMED[name]
    assert disk_errors(T) == disk_reference.disk_errors(T)


def _damaged_disks(T, rng):
    """Seeded damage of a valid disk, one Triangulation per kind."""
    tris = T.sorted_triangles()
    colors, corners = T.vertex_colors, list(T.corners)
    fresh = max(colors) + 1
    out = {}
    for k in (1, 3):
        keep = tris[:]
        for _ in range(k):
            del keep[rng.randrange(len(keep))]
        out[f"drop{k}"] = Triangulation(colors, keep, corners)
    faces = {}
    for t in tris:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            faces[e] = faces.get(e, 0) + 1
    a, b = rng.choice(sorted(e for e, c in faces.items() if c == 2))
    out["third-face"] = Triangulation({**colors, fresh: "A"}, tris + [(a, b, fresh)], corners)
    # pinch: relabel vertex u as a vertex v that shares no triangle with it
    u = rng.choice(sorted(colors))
    star = {w for t in tris if u in t for w in t}
    v = rng.choice(sorted(set(colors) - star))
    pinched = [tuple(v if w == u else w for w in t) for t in tris]
    out["pinch"] = Triangulation(colors, pinched, [v if w == u else w for w in corners])
    for kind, cs in _corner_variants(len(corners), rng).items():
        ring = [corners[i] for i in cs]
        out[kind] = Triangulation(colors, tris, ring)
    lost = rng.choice(sorted(colors))
    recolored = {w: c for w, c in colors.items() if w != lost}
    recolored[fresh] = "B"
    out["missing-color-stray-vertex"] = Triangulation(recolored, tris, corners)
    return out


@pytest.mark.parametrize("count", [30, 60, 120, 250, 600])
def test_disk_errors_matches_reference_on_damaged_poofed_disks(count):
    for seed in range(10):
        rng = random.Random(count * 100 + seed)
        req = inputs.foreign_request(rng, count, "valid", seed % 2 == 0)
        P = parse_polygon_json(req.polygon_text)
        _, D = parse_dissection_json(req.dissection_text)
        T, _ = poof(P, D)
        assert disk_errors(T) == disk_reference.disk_errors(T) == []
        for kind, bad in _damaged_disks(T, rng).items():
            errs = disk_errors(bad)
            assert errs == disk_reference.disk_errors(bad), (count, seed, kind)
            if kind in ("rotated", "reflected"):
                assert errs == [], (count, seed, kind)
            elif kind != "swapped":  # a swap of two of three corners is a reflection
                assert errs, (count, seed, kind)


# Injective relabellings of vertex ids.  disk_errors keys each edge by one int
# within the range of ids in use, which must stay unique and decode back to
# the edge for ids that are negative, sparse or beyond 2**64.
ID_MAPS = {
    "negative": lambda v: -3 * v - 1,
    "mixed-sign": lambda v: 7 * v - 20,
    "sparse": lambda v: v * 1_000_003 + v * v * 7919,
    "beyond-2**64": lambda v: 2**64 + 1 + v * 2**65,
    "below--2**64": lambda v: -(2**70) - v * (2**64 + 3),
}

# A complex of each kind the edge keys feed: (name, complex, is a disk).
KEYED_CASES = [
    ("valid-fan", _fan(9), True),
    ("valid-quad-star", quad_star("ABCAB"), True),
    ("third-face", MALFORMED["overused-edge"], False),
    ("third-face-on-fan", Triangulation({i: "A" for i in range(10)},
                                        [(0, i, i + 1) for i in range(1, 8)] + [(0, 4, 9)],
                                        tuple(range(9))), False),
    ("two-boundary-cycles", MALFORMED["annulus"], False),
    ("disconnected-face", MALFORMED["triangle-beside-torus"], False),
    ("face-beside-fan", Triangulation({i: "A" for i in range(12)},
                                      [(0, i, i + 1) for i in range(1, 8)] + [(9, 10, 11)],
                                      tuple(range(9))), False),
    ("wrong-corners", MALFORMED["wrong-corners"], False),
    ("swapped-corners", _fan(9, (0, 2, 1, 3, 4, 5, 6, 7, 8)), False),
]


def _relabelled(T, f):
    return Triangulation({f(v): c for v, c in T.vertex_colors.items()},
                         [[f(v) for v in t] for t in T.triangles], [f(v) for v in T.corners])


@pytest.mark.parametrize("name, T, is_disk", KEYED_CASES, ids=[c[0] for c in KEYED_CASES])
@pytest.mark.parametrize("id_map", sorted(ID_MAPS))
def test_disk_errors_matches_reference_on_relabelled_ids(name, T, is_disk, id_map):
    R = _relabelled(T, ID_MAPS[id_map])
    errs = disk_errors(R)
    assert errs == disk_reference.disk_errors(R)
    assert (errs == []) == is_disk, errs
    if not is_disk:  # the same conditions fail as under the original ids
        assert len(errs) == len(disk_errors(T))
    if name.endswith("corners"):  # the message lists the boundary cycle in walk order
        assert errs[0].startswith("boundary cycle ["), errs


@pytest.mark.parametrize("id_map", sorted(ID_MAPS))
def test_disk_errors_matches_reference_on_relabelled_poofed_disks(id_map):
    rng = random.Random(29)
    req = inputs.foreign_request(rng, 120, "valid", True)
    P = parse_polygon_json(req.polygon_text)
    _, D = parse_dissection_json(req.dissection_text)
    T = _relabelled(poof(P, D)[0], ID_MAPS[id_map])
    assert disk_errors(T) == disk_reference.disk_errors(T) == []
    for kind, bad in _damaged_disks(T, rng).items():
        assert disk_errors(bad) == disk_reference.disk_errors(bad), kind


# A piece of each message disk_errors gives.
DISK_MESSAGES = ("has no triangles", "has no color", "lies in no triangle", "triangles: [",
                 "no boundary edges", "touches", "more than one cycle", "does not match corners",
                 "disconnected", "Euler characteristic", "fan")


def _triple_check(T, rng):
    """combi._disk_errors on T's faces as one flat list of ids, three per
    face, in the order T stores them, each face's ids in a seeded order."""
    ids = []
    for t in combi._faces(T._ids):
        face = list(t)
        rng.shuffle(face)
        ids += face
    return combi._disk_errors(T.vertex_colors, ids, T.corners)


def test_disk_check_on_id_triples_matches_disk_errors():
    rng = random.Random(36)
    cases = [(name, T) for name, T in MALFORMED.items()]
    cases += [(f"{name} {id_map}", _relabelled(T, ID_MAPS[id_map]))
              for name, T, _ in KEYED_CASES for id_map in sorted(ID_MAPS)]
    for count in (30, 250):
        req = inputs.foreign_request(random.Random(count), count, "valid", True)
        P = parse_polygon_json(req.polygon_text)
        T, _ = poof(P, parse_dissection_json(req.dissection_text)[1])
        cases.append((f"poofed {count}", T))
        cases += [(f"poofed {count} {kind}", bad) for kind, bad in _damaged_disks(T, rng).items()]
    seen = set()
    for name, T in cases:
        errs = disk_errors(T)
        assert _triple_check(T, rng) == errs, name
        seen.update(kind for kind in DISK_MESSAGES if any(kind in e for e in errs))
    assert seen == set(DISK_MESSAGES)  # every condition fails somewhere


@pytest.mark.parametrize("ids, corners, errors", [
    ([0, 1, 2, 2, 0, 1], (0, 1, 2), [
        "no boundary edges: not a disk with boundary",
        "Euler characteristic V-E+F = 3-3+2 = 2, expected 1"]),
    ([0, 1, 2, 0, 2, 3, 0, 3, 4, 2, 3, 0], (0, 1, 2, 3, 4), [
        "edge [0, 2] lies in 3 triangles: [0, 1, 2], [0, 2, 3], [0, 2, 3]",
        "edge [0, 3] lies in 3 triangles: [0, 2, 3], [0, 3, 4], [0, 2, 3]"]),
], ids=["doubled-triangle", "repeated-fan-face"])
def test_checked_refuses_a_repeated_face(ids, corners, errors):
    # poof hands its flat id list over unchecked: a poofagon equal to another
    # face must fail the disk check, alone or inside a disk
    with pytest.raises(NotADisk) as exc:
        Triangulation._checked(dict.fromkeys(ids, "A"), ids, corners)
    assert exc.value.errors == errors


# --- boundary words and tricolors -------------------------------------------

def test_boundary_word_of():
    assert boundary_word_of(quad_star("ABABA")) == CyclicWord("ABAB")
    T = Triangulation({1: "A", 2: "B", 3: "C"}, [(1, 2, 3)], (1, 2, 3))
    assert boundary_word_of(T) == CyclicWord("ABC")


def test_find_tricolor():
    assert find_tricolor(quad_star("ABABA")) is None
    assert find_tricolor(quad_star("ABCDA")) == frozenset({2, 3, 5})
    T = Triangulation({1: "A", 2: "B", 3: "C"}, [(1, 2, 3)], (1, 2, 3))
    assert find_tricolor(T) == frozenset({1, 2, 3})


# --- good dissections ---------------------------------------------------------

def test_good_dissection_dodecagon():
    w = CyclicWord("ABABCCDCBBDB")
    T = good_dissection(w)
    assert T is not None
    assert len(T.triangles) == 10
    validate_disk(T)
    assert find_tricolor(T) is None
    assert boundary_word_of(T) == w


def test_good_dissection_none_for_noncontractible():
    assert good_dissection(CyclicWord("ABCD")) is None
    assert good_dissection(CyclicWord("ABCDACBADC")) is None


def test_good_dissection_triangle():
    T = good_dissection(CyclicWord("AAA"))
    assert T is not None and T.triangles == frozenset({frozenset({0, 1, 2})})
    validate_disk(T)
    with pytest.raises(TooSmall):
        good_dissection(CyclicWord("AB"))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ABCD", min_size=3, max_size=10))
def test_good_dissection_random_words(s):
    w = CyclicWord(s)
    T = good_dissection(w)
    ok, _ = decide_contractible(w)
    if not ok:
        assert T is None
        return
    assert T is not None
    assert len(T.triangles) == len(s) - 2
    validate_disk(T)
    assert find_tricolor(T) is None
    assert boundary_word_of(T) == w


# --- enumeration --------------------------------------------------------------

def test_catalan_counts():
    assert sum(1 for _ in enumerate_diagonal_triangulations(3)) == 1
    assert sum(1 for _ in enumerate_diagonal_triangulations(4)) == 2
    for n in range(3, 11):
        assert sum(1 for _ in enumerate_diagonal_triangulations(n)) == catalan(n - 2), n
    with pytest.raises(BoundExceeded):
        next(enumerate_diagonal_triangulations(15))
    with pytest.raises(BoundExceeded):
        next(enumerate_diagonal_triangulations(2))


def test_enumeration_yields_valid_unique_shapes():
    for n in range(3, 9):
        seen = set()
        for shape in enumerate_diagonal_triangulations(n):
            assert shape not in seen
            seen.add(shape)
            assert len(shape) == n - 2
            T = Triangulation({i: "A" for i in range(n)}, shape, tuple(range(n)))
            validate_disk(T)


def test_every_diagonal_triangulation_has_external_triangle():
    def is_external(i, k, j, n):
        # three cyclically consecutive corners (triples come sorted i < k < j)
        if k - i == 1 and j - k == 1:
            return True
        return i == 0 and j == n - 1 and (k == 1 or k == n - 2)

    for n in range(3, 9):
        for shape in enumerate_diagonal_triangulations(n):
            assert any(is_external(i, k, j, n) for i, k, j in shape)


# --- sperner ------------------------------------------------------------------

def test_sperner_decagon_commutator():
    rep = sperner_check(CyclicWord("ABCDACBADC"))
    assert rep.triangulations_examined == 1430
    assert rep.tricolor_free_count == 0
    assert not rep.contractible
    assert rep.star_tricolor == {"A": True, "B": True, "C": True, "D": True}


def test_sperner_dodecagon():
    rep = sperner_check(CyclicWord("ABABCCDCBBDB"))
    assert rep.contractible
    assert rep.tricolor_free_count >= 1
    assert rep.tricolor_free_example is not None


def test_sperner_two_color_word():
    rep = sperner_check(CyclicWord("AAB"))
    assert rep.triangulations_examined == 1
    assert rep.tricolor_free_count == 1


def test_sperner_bounds():
    with pytest.raises(BoundExceeded, match="up to length 200, got 201"):
        sperner_check(CyclicWord("A" * 201))
    with pytest.raises(BoundExceeded):
        sperner_check(CyclicWord("AB"))


def _enumerated_sperner(s, shapes):
    """(count, tricolor-free count, first tricolor-free shape) by listing."""
    free = [shape for shape in shapes
            if all(s[i] == s[k] or s[k] == s[j] or s[i] == s[j] for i, k, j in shape)]
    return len(shapes), len(free), free[0] if free else None


def test_sperner_recurrence_matches_enumeration():
    shapes = {n: list(enumerate_diagonal_triangulations(n)) for n in range(3, 11)}
    rng = random.Random(12)
    words = ["".join(t) for n in range(3, 8) for t in itertools.product("ABCD", repeat=n)]
    words += ["".join(rng.choices("ABCD", k=n)) for n in (8, 9, 10) for _ in range(300)]
    for s in words:
        rep = sperner_check(CyclicWord(s))
        got = (rep.triangulations_examined, rep.tricolor_free_count, rep.tricolor_free_example)
        assert got == _enumerated_sperner(s, shapes[len(s)]), s


def test_sperner_beyond_the_enumeration():
    # both figures brute-forced over all 2,674,440 shapes of the 16-gon
    rep = sperner_check(CyclicWord("ABABCCDCBBDBABAB"))
    assert rep.triangulations_examined == 2_674_440
    assert rep.tricolor_free_count == 145_224


def test_sperner_verdict_matches_decider_up_to_200_letters():
    # closed walks on trees are contractible, uniform words almost never
    # are; tree_walk_word is not used, since below 500 letters it is one
    # repeated letter
    rng = random.Random(5)
    words = []
    while len(words) < 8:
        w = inputs.closed_walk(rng, rng.randint(13, 200), rng.choice("ABCD"))
        if 13 <= len(w) <= 200:
            words.append(w)
    words += [inputs.random_word(rng, rng.randint(13, 200)) for _ in range(8)]
    verdicts = set()
    for s in words:
        w = CyclicWord(s)
        rep = sperner_check(w)
        assert (rep.tricolor_free_count > 0) == rep.contractible == decide_contractible(w)[0], s
        verdicts.add(rep.contractible)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ABCD", min_size=3, max_size=8))
def test_sperner_matches_exhaustive_oracle(s):
    rep = sperner_check(CyclicWord(s))
    assert rep.contractible == exhaustive_contractible(CyclicWord(s))

