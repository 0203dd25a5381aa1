"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is self-contained and deterministic.
"""

import itertools
import random
import time

import pytest

from catalan_reference import enumerate_diagonal_triangulations
from fuzz_reference import random_convex_polygon, random_dissection
from latticediss.cli import main
from latticediss.combi import boundary_word_of, disk_errors, sperner_check
from latticediss.dissect import Dissection, split_with_point, unit_dissection
from latticediss.geometry import (
    as_triangle,
    boundary_word,
    polygon_area2,
    signed_area2,
    validate_convex,
)
from latticediss.bench import run_bench
from latticediss.dissect import refine_triangle
from latticediss.verify import poof, verify_dissection, witness_noninteger
from latticediss.words import (
    CyclicWord,
    active_kernel,
    decide_contractible,
    exhaustive_contractible,
)
from word_reference import apply_step, contracting_positions, matrix_contractible

ABCD = "ABCD"


def _ok(w) -> bool:
    flag, _ = decide_contractible(w)
    return flag


@pytest.fixture(scope="module")
def exh_memo():
    return {}


@pytest.fixture(scope="module")
def diag_exists():
    """least rotation -> existence of an all-good diagonal triangulation,
    by full Catalan enumeration (independent of the decider)."""
    shapes_by_n = {n: list(enumerate_diagonal_triangulations(n)) for n in range(3, 9)}
    memo: dict[tuple, bool] = {}

    def query(lets: tuple) -> bool:
        key = min(lets[k:] + lets[:k] for k in range(len(lets)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = False
        for shape in shapes_by_n[len(key)]:
            if all(key[i] == key[j] or key[j] == key[m] or key[i] == key[m]
                   for i, j, m in shape):
                res = True
                break
        memo[key] = res
        return res

    return query


def test_criterion_1_oracle_equivalence(exh_memo):
    t0 = time.time()
    total = disagreements = 0
    for n in range(3, 10):
        for tup in itertools.product(ABCD, repeat=n):
            w = CyclicWord(tup)
            if _ok(w) != exhaustive_contractible(w, memo=exh_memo):
                disagreements += 1
            total += 1
    assert total == 349_504

    rng = random.Random(20260810)
    rand_total = rand_disagree = 0
    for _ in range(100_000):
        w = CyclicWord("".join(rng.choices(ABCD, k=rng.randint(1, 50))))
        if _ok(w) != matrix_contractible(w):
            rand_disagree += 1
        rand_total += 1
    elapsed = time.time() - t0
    assert disagreements == 0 and rand_disagree == 0
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s (budget 120s)"
    print(f"\n[criterion 1] PASS: decide==exhaustive on {total} words (len 3-9), "
          f"decide==matrix oracle on {rand_total} random words (len<=50), "
          f"0 disagreements, {elapsed:.1f}s")


def test_criterion_2_paper_verdicts():
    verdicts = {
        "ABCD": False,
        "ABCABC": False,
        "ABCDACBADC": False,
        "ABABCCDCBBDB": True,
    }
    for word, expect in verdicts.items():
        assert _ok(CyclicWord(word)) is expect, word
    print("\n[criterion 2] PASS: (ABCD), (ABCABC), (ABCDACBADC) not contractible; "
          "(ABABCCDCBBDB) contractible")


def test_criterion_3_good_dissection_brute_force(diag_exists):
    t0 = time.time()
    total = disagreements = 0
    for n in range(4, 9):
        for tup in itertools.product(ABCD, repeat=n):
            if _ok(CyclicWord(tup)) != diag_exists(tup):
                disagreements += 1
            total += 1
    elapsed = time.time() - t0
    assert total == 87_296 and disagreements == 0
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s (budget 300s)"
    print(f"\n[criterion 3] PASS: all-good diagonal triangulation existence (full "
          f"Catalan enumeration) == decide_contractible on {total} words (len 4-8), "
          f"{elapsed:.1f}s")


def test_criterion_4_diamond_lemma(exh_memo):
    t0 = time.time()
    words = steps = violations = 0
    for n in range(2, 9):
        for tup in itertools.product(ABCD, repeat=n):
            w = CyclicWord(tup)
            base = exhaustive_contractible(w, memo=exh_memo)
            words += 1
            for i in contracting_positions(w):
                child = apply_step(w, i)
                if exhaustive_contractible(child, memo=exh_memo) != base:
                    violations += 1
                steps += 1
    elapsed = time.time() - t0
    assert violations == 0
    print(f"\n[criterion 4] PASS: contractibility preserved across every legal "
          f"contracting step ({steps} steps over {words} words of length <=8), "
          f"{elapsed:.1f}s")


def test_criterion_5_sperner(diag_exists, capsys):
    t0 = time.time()
    rep = sperner_check(CyclicWord("ABCDACBADC"))
    assert rep.triangulations_examined == 1430
    assert rep.tricolor_free_count == 0

    assert main(["sperner", "ABCDACBADC"]) == 0
    out = capsys.readouterr().out
    assert '"triangulations_examined": 1430' in out and '"tricolor_free": 0' in out

    checked = star_checks = 0
    for n in range(3, 9):
        for tup in itertools.product(ABCD, repeat=n):
            contractible = _ok(CyclicWord(tup))
            free_exists = diag_exists(tup)
            assert free_exists == contractible, tup
            if not contractible:
                # every star coloring (one interior vertex) has a tricolor
                for center in set(tup):
                    assert any(
                        tup[i] != tup[(i + 1) % n]
                        and center != tup[i] and center != tup[(i + 1) % n]
                        for i in range(n)
                    ), (tup, center)
                    star_checks += 1
            checked += 1
    elapsed = time.time() - t0
    print(f"\n[criterion 5] PASS: sperner(ABCDACBADC) examined 1430, 0 tricolor-free; "
          f"biconditional holds for {checked} words (len 3-8) and {star_checks} star "
          f"colorings of non-contractible words, {elapsed:.1f}s")


def test_criterion_6_triangle_refinement():
    t0 = time.time()
    rng = random.Random(1106)
    done = 0
    pieces_total = 0
    while done < 1000:
        vs = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(3)]
        t = as_triangle(vs)
        a2 = signed_area2(t)
        if a2 == 0 or a2 % 2:
            continue
        D = refine_triangle(t)
        assert len(D) == abs(a2) // 2
        assert all(a == 2 for a in D.doubled_areas())
        tv = t if a2 > 0 else as_triangle((vs[0], vs[2], vs[1]))
        P = validate_convex(tv)
        assert verify_dissection(P, D, "unit").valid
        pieces_total += len(D)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s (budget 60s)"
    print(f"\n[criterion 6] PASS: 1000 random even-area triangles refined into "
          f"{pieces_total} unit triangles, all verified in mode=unit, {elapsed:.1f}s")


def test_criterion_7_end_to_end():
    t0 = time.time()
    master = random.Random(2206)
    contractible_count = impossible_count = witness_count = 0
    for i in range(200):
        n = master.randint(3, 12)
        P = random_convex_polygon(n, 30, seed=10_000 + i)
        w = boundary_word(P)
        U = unit_dissection(P)
        if _ok(w):
            assert U is not None
            assert len(U) == polygon_area2(P) // 2
            assert verify_dissection(P, U, "unit").valid
            contractible_count += 1
        else:
            assert U is None
            for j in range(20):
                D = random_dissection(P, depth=6, seed=1_000_000 + 100 * i + j)
                assert verify_dissection(P, D, "any").valid
                t = witness_noninteger(P, D)
                assert signed_area2(t) % 2 == 1
                witness_count += 1
            impossible_count += 1
    elapsed = time.time() - t0
    assert contractible_count + impossible_count == 200
    assert contractible_count > 0 and impossible_count > 0
    print(f"\n[criterion 7] PASS: 200 polygons ({contractible_count} contractible all "
          f"unit-dissected and verified; {impossible_count} impossible, {witness_count} "
          f"random dissections all yielded tricolor witnesses), {elapsed:.1f}s")


def _pentagon_instance():
    P = validate_convex([(0, 0), (4, 0), (5, 2), (2, 4), (0, 2)])
    fan = [
        as_triangle(((2, 4), (0, 2), (0, 0))),
        as_triangle(((2, 4), (0, 0), (4, 0))),
        as_triangle(((2, 4), (4, 0), (5, 2))),
    ]
    pieces = split_with_point(fan[1], (2, 0))
    return P, Dissection((fan[0], *pieces, fan[2])), 1


def _four_collinear_instance():
    P = validate_convex([(0, 0), (6, 0), (6, 4), (0, 4)])
    tris = [
        ((0, 0), (6, 0), (6, 2)),
        ((0, 0), (6, 2), (4, 2)),
        ((0, 0), (4, 2), (2, 2)),
        ((0, 0), (2, 2), (0, 2)),
        ((0, 2), (6, 2), (6, 4)),
        ((0, 2), (6, 4), (0, 4)),
    ]
    return P, Dissection(tuple(as_triangle(t) for t in tris)), 4


def _random_t_vertex_instances(count=3):
    """Deterministically scan seeds for fuzz dissections that poof with
    degenerate triangles (i.e. contain T-vertices)."""
    P = validate_convex([(0, 0), (3, 0), (3, 5), (0, 5)])
    found = []
    seed = 0
    while len(found) < count and seed < 500:
        D = random_dissection(P, depth=8, seed=seed)
        T, vmap = poof(P, D)
        degenerate = sum(
            1 for tri in T.triangles
            if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) == 0
        )
        if degenerate:
            found.append((P, D, T, vmap, degenerate))
        seed += 1
    return found


def test_criterion_8_poofing():
    t0 = time.time()
    instances = []
    for P, D, expected_degenerate in (_pentagon_instance(), _four_collinear_instance()):
        T, vmap = poof(P, D)
        instances.append((P, D, T, vmap, expected_degenerate))
    randoms = _random_t_vertex_instances(3)
    assert len(randoms) == 3
    instances += randoms

    for P, D, T, vmap, expected_degenerate in instances:
        assert disk_errors(T) == []
        degenerate = [
            tri for tri in T.triangles
            if signed_area2(as_triangle([vmap[i] for i in sorted(tri)])) == 0
        ]
        assert len(degenerate) == expected_degenerate
        nondegen = {
            frozenset(vmap[i] for i in tri)
            for tri in T.triangles if tri not in set(degenerate)
        }
        assert nondegen == {frozenset(t) for t in D.triangles}
        # corner colors already equal word(P): the zero-step contraction
        assert boundary_word_of(T) == boundary_word(P)
        assert len(T.corners) == len(P.vertices)
    elapsed = time.time() - t0
    print(f"\n[criterion 8] PASS: {len(instances)} dissections with T-vertices poofed "
          f"into valid disks (degenerate counts {[x[-1] for x in instances]}), "
          f"boundary words match, {elapsed:.1f}s")


def test_criterion_9_linear_time():
    lengths = [10_000, 100_000, 1_000_000]
    rows = run_bench(lengths, seed=7)
    times = {r.length: r.seconds for r in rows}
    r1 = times[100_000] / times[10_000]
    r2 = times[1_000_000] / times[100_000]
    assert r1 <= 20, f"time(1e5)/time(1e4) = {r1:.1f} exceeds 20"
    assert r2 <= 20, f"time(1e6)/time(1e5) = {r2:.1f} exceeds 20"
    assert times[1_000_000] < 1.0, f"1e6 letters took {times[1_000_000]:.3f}s"
    print(f"\n[criterion 9] PASS ({active_kernel()} kernel): "
          f"t(1e4)={times[10_000]*1e3:.2f}ms, t(1e5)={times[100_000]*1e3:.2f}ms, "
          f"t(1e6)={times[1_000_000]*1e3:.2f}ms; ratios {r1:.1f}, {r2:.1f} <= 20; "
          f"1e6 letters under 1s")
