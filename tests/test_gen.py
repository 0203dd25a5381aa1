import inspect

import pytest

from fuzz_reference import GenerationFailed, random_convex_polygon, random_dissection
from latticediss import gen
from latticediss.cli import build_parser, main
from latticediss.gen import realize_word
from latticediss.geometry import boundary_word, polygon_area2, validate_convex
from latticediss.verify import verify_dissection
from latticediss.words import CyclicWord


def test_random_polygon_basic():
    P = random_convex_polygon(3, 10, seed=42)
    assert len(P) == 3 and polygon_area2(P) > 0
    Q = random_convex_polygon(4, 10, seed=1)
    assert len(Q) == 4
    validate_convex(Q.vertices)  # idempotent revalidation
    with pytest.raises(ValueError):
        random_convex_polygon(2)


def test_random_polygon_deterministic():
    a = random_convex_polygon(7, 30, seed=9)
    b = random_convex_polygon(7, 30, seed=9)
    assert a.vertices == b.vertices
    c = random_convex_polygon(7, 30, seed=10)
    assert a.vertices != c.vertices


def test_random_polygon_respects_bound():
    for seed in range(50):
        P = random_convex_polygon(3 + seed % 10, 12, seed=seed)
        assert all(abs(x) <= 12 and abs(y) <= 12 for x, y in P.vertices)


def test_random_polygon_impossible_bound():
    with pytest.raises(GenerationFailed):
        random_convex_polygon(12, 2, seed=0)


def test_random_polygon_many_seeds():
    # generator outputs must pass their validator across a seed sweep
    for seed in range(1000):
        random_convex_polygon(3 + seed % 10, 30, seed=seed)


def test_realize_word_examples():
    P = realize_word(CyclicWord("ABCD"))
    assert P is not None and boundary_word(P) == CyclicWord("ABCD")
    P = realize_word(CyclicWord("ABCDACBADC"))
    assert P is not None and boundary_word(P) == CyclicWord("ABCDACBADC")
    P = realize_word(CyclicWord("ABABCCDCBBDB"))
    assert P is not None and boundary_word(P) == CyclicWord("ABABCCDCBBDB")


def test_realize_word_non_parity_letters():
    assert realize_word(CyclicWord("XYZ")) is None


def test_realize_word_tiny_bound_may_fail():
    out = realize_word(CyclicWord("AAAA"), coord_bound=1)
    assert out is None or boundary_word(out) == CyclicWord("AAAA")


def test_realize_word_random_words():
    # realization is optional, but whenever it succeeds the word must match
    import random

    rng = random.Random(3)
    realized = 0
    for _ in range(25):
        s = "".join(rng.choice("ABCD") for _ in range(rng.randint(3, 8)))
        P = realize_word(CyclicWord(s))
        if P is not None:
            realized += 1
            assert boundary_word(P) == CyclicWord(s)
    assert realized > 0


class _NoSearch:
    """A search budget that fails once the search takes its first node."""

    def __sub__(self, other):
        raise AssertionError("the search was entered")


def test_realize_word_skips_a_radius_with_fewer_directions_than_letters(monkeypatch):
    # A convex polygon uses each edge direction at most once.  The pool has
    # 16 directions at radius 2 and 176 at radius 8, the last radius, so a
    # 200-letter word is refused with no search node, and at bound 2 a
    # 17-letter word is too, while a 16-letter word is searched.
    monkeypatch.setattr(gen, "SEARCH_NODES", _NoSearch())
    assert realize_word(CyclicWord("ABCD" * 50)) is None
    assert realize_word(CyclicWord("ABCD" * 4 + "A"), coord_bound=2) is None
    for word, bound in (("ABCD" * 4, 2), ("ABCD" * 44, 8)):
        with pytest.raises(AssertionError, match="search was entered"):
            realize_word(CyclicWord(word), coord_bound=bound)


def test_realize_word_gives_up_when_the_search_budget_runs_out(monkeypatch, capsys):
    # ABCDACBADC is realized at the default budget (see the examples above);
    # 20 nodes per radius run out both before a node and inside a slot's loop.
    w = CyclicWord("ABCDACBADC")
    monkeypatch.setattr(gen, "SEARCH_NODES", 20)
    assert realize_word(w) is None
    assert main(["realize", "ABCDACBADC"]) == 10
    assert capsys.readouterr() == ("", "no convex lattice polygon realizing ABCDACBADC found "
                                       "within bound\n")


def test_realize_word_too_short():
    with pytest.raises(ValueError):
        realize_word(CyclicWord("AB"))


def test_random_dissection_depth0():
    tri = validate_convex([(0, 0), (2, 0), (1, 1)])
    D = random_dissection(tri, depth=0, seed=0)
    assert len(D) == 1 and set(D.triangles[0]) == set(tri.vertices)
    sq = validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
    D = random_dissection(sq, depth=0, seed=0)
    assert len(D) == 2
    assert verify_dissection(sq, D, "any").valid


def test_random_dissection_rectangle():
    rect = validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])
    D = random_dissection(rect, depth=5, seed=7)
    assert len(D) > 3
    assert verify_dissection(rect, D, "any").valid


def test_random_dissection_deterministic_and_valid():
    for seed in range(60):
        P = random_convex_polygon(3 + seed % 8, 20, seed=seed)
        D1 = random_dissection(P, depth=seed % 7, seed=seed)
        D2 = random_dissection(P, depth=seed % 7, seed=seed)
        assert D1.triangles == D2.triangles
        assert verify_dissection(P, D1, "any").valid


def test_random_dissection_splits_stop_gracefully():
    # a unit triangle has no usable lattice points: depth is a no-op
    tri = validate_convex([(0, 0), (1, 0), (0, 1)])
    D = random_dissection(tri, depth=10, seed=2)
    assert len(D) == 1


def test_generators_and_realize_default_to_bound_50():
    for fn in (random_convex_polygon, realize_word):
        assert inspect.signature(fn).parameters["coord_bound"].default == 50
    assert build_parser().parse_args(["realize", "ABCD"]).bound == 50
