import math

import pytest
from hypothesis import given, settings, strategies as st

from latticediss.errors import BoundExceeded, NotADisk, TooSmall
from latticediss.combi import (
    Triangulation,
    boundary_word_of,
    disk_errors,
    enumerate_diagonal_triangulations,
    find_tricolor,
    good_dissection,
    sperner_check,
    validate_disk,
)
from latticediss.words import CyclicWord, decide_contractible, exhaustive_contractible

QUAD_STAR = [(1, 2, 5), (2, 3, 5), (3, 4, 5), (4, 1, 5)]


def quad_star(colors):
    return Triangulation(dict(zip((1, 2, 3, 4, 5), colors)), QUAD_STAR, (1, 2, 3, 4))


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


# --- validate_disk -----------------------------------------------------------

def test_validate_disk_quad_star_ok():
    validate_disk(quad_star("ABABA"))


def test_validate_disk_single_triangle_ok():
    validate_disk(Triangulation({1: "A", 2: "B", 3: "C"}, [(1, 2, 3)], (1, 2, 3)))


def test_validate_disk_overused_edge():
    T = Triangulation(
        {i: "A" for i in range(1, 6)}, [(1, 2, 3), (1, 2, 4), (1, 2, 5)], (3, 4, 5)
    )
    errs = disk_errors(T)
    assert any("edge [1, 2] lies in 3 triangles" in e for e in errs)
    with pytest.raises(NotADisk):
        validate_disk(T)


def test_validate_disk_catches_wrong_corners():
    T = Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (1, 2, 4, 3))
    assert any("does not match corners" in e for e in disk_errors(T))


def test_validate_disk_corners_up_to_rotation_reflection():
    validate_disk(Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (2, 3, 4, 1)))
    validate_disk(Triangulation(dict(zip((1, 2, 3, 4, 5), "ABABA")), QUAD_STAR, (4, 3, 2, 1)))


def test_validate_disk_two_triangles_sharing_vertex():
    # passes Euler but is not a disk: pinched at vertex 1
    T = Triangulation(
        {i: "A" for i in range(1, 6)}, [(1, 2, 3), (1, 4, 5)], (2, 3, 4, 5)
    )
    errs = disk_errors(T)
    assert errs  # fan check and adjacency both fail
    assert any("fan" in e for e in errs)
    assert any("disconnected" in e for e in errs)


def test_validate_disk_annulus_fails():
    # triangulated annulus: two boundary cycles
    outer = [0, 1, 2, 3]
    inner = [4, 5, 6, 7]
    tris = []
    for i in range(4):
        a, b = outer[i], outer[(i + 1) % 4]
        c, d = inner[i], inner[(i + 1) % 4]
        tris += [(a, b, c), (b, d, c)]
    T = Triangulation({i: "A" for i in range(8)}, tris, tuple(outer))
    errs = disk_errors(T)
    assert any("Euler" in e for e in errs) or any("cycle" in e for e in errs)


def test_validate_disk_missing_color_and_stray_vertex():
    T = Triangulation({1: "A", 2: "B", 3: "C", 9: "D"}, [(1, 2, 3), (2, 3, 4)], (1, 2, 4, 3))
    errs = disk_errors(T)
    assert any("vertex 4 has no color" in e for e in errs)
    assert any("vertex 9 lies in no triangle" in e for e in errs)


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
    with pytest.raises(BoundExceeded):
        sperner_check(CyclicWord("A" * 13))
    with pytest.raises(BoundExceeded):
        sperner_check(CyclicWord("AB"))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ABCD", min_size=3, max_size=8))
def test_sperner_matches_exhaustive_oracle(s):
    rep = sperner_check(CyclicWord(s))
    assert rep.contractible == exhaustive_contractible(CyclicWord(s))

