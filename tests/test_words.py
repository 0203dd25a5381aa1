import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from latticediss import words
from latticediss.combi import Triangulation
from latticediss.dissect import Dissection, dissection_to_json, parse_dissection_json, unit_dissection
from latticediss.errors import BoundExceeded, IllegalStep, WordTooShort
from latticediss.words import (
    ContractionTrace,
    CyclicWord,
    _reduce_cyclic,
    decide_contractible,
    exhaustive_contractible,
)
from latticediss.geometry import validate_convex
from latticediss.sperner import sperner_check
from latticediss.verify import poof, verify_dissection
from word_reference import apply_step, contracting_positions, matrix_contractible, replay

ABCD = "ABCD"
small_words = st.text(alphabet=ABCD, min_size=1, max_size=9).map(CyclicWord)
medium_words = st.text(alphabet=ABCD, min_size=1, max_size=60).map(CyclicWord)


def brute_min_rotation(lets):
    n = len(lets)
    return min(lets[k:] + lets[:k] for k in range(n))


def brute_positions(w):
    # independent of contracting_positions: direct window scan
    n = len(w)
    lets = w.letters
    out = []
    for i in range(n):
        a, b, c = lets[(i - 1) % n], lets[i], lets[(i + 1) % n]
        if len({a, b, c}) < 3:
            out.append(i)
    return out


# --- CyclicWord -------------------------------------------------------------

def test_word_equality_is_rotation_invariant():
    assert CyclicWord("ABCD") == CyclicWord("CDAB")
    assert CyclicWord("ABCD") != CyclicWord("ACBD")
    assert hash(CyclicWord("ABCD")) == hash(CyclicWord("DABC"))
    assert CyclicWord("AAB") == CyclicWord("ABA")


def test_word_construction():
    assert CyclicWord("ABC").letters == "ABC"
    assert CyclicWord(["A", "B", "C"]).letters == "ABC"
    assert CyclicWord(iter("ABC")) == CyclicWord("ABC")
    for bad in (("red", "blue"), ("A", ""), (1, 2), "AÉ", ("A", "É")):
        with pytest.raises(ValueError):
            CyclicWord(bad)
    with pytest.raises(WordTooShort):
        CyclicWord("")
    with pytest.raises(WordTooShort):
        CyclicWord(())
    ok, stuck = decide_contractible(CyclicWord("AABCADBCD"))
    assert not ok
    assert isinstance(stuck.letters, str)
    assert contracting_positions(stuck) == []


def test_word_is_immutable_and_unequal_to_its_string():
    w = CyclicWord("AB")
    with pytest.raises(AttributeError):
        w.letters = "BA"
    assert w.letters == "AB"
    assert (w == "AB") is False


def test_word_indexing_is_cyclic():
    w = CyclicWord("ABC")
    assert w[3] == "A" and w[-1] == "C" and w[7] == "B"
    assert str(w.rotate(1)) == "BCA"
    assert str(w) == "ABC"


@given(st.text(alphabet="ABC", min_size=1, max_size=9), st.integers(0, 8),
       st.text(alphabet="ABC", min_size=1, max_size=9))
def test_equality_and_hash_follow_rotation(s, k, t):
    # == against brute-force rotation, on a rotation of s and on any t; equal
    # words hash equal
    k %= len(s)
    for u in (s[k:] + s[:k], t):
        same = brute_min_rotation(s) == brute_min_rotation(u)
        assert (CyclicWord(s) == CyclicWord(u)) is same
        assert not same or hash(CyclicWord(s)) == hash(CyclicWord(u))


# --- contracting steps ------------------------------------------------------

def test_contracting_positions_examples():
    assert contracting_positions(CyclicWord("ABCD")) == []
    # frozen from the window-scan oracle: only B (index 1) and C (index 3)
    w = CyclicWord("ABAC")
    assert brute_positions(w) == [1, 3]
    assert contracting_positions(w) == [1, 3]
    assert contracting_positions(CyclicWord("XX")) == [0, 1]
    assert contracting_positions(CyclicWord("XY")) == [0, 1]
    with pytest.raises(WordTooShort):
        contracting_positions(CyclicWord("A"))


@given(medium_words)
def test_contracting_positions_match_window_scan(w):
    if len(w) < 2:
        return
    assert contracting_positions(w) == brute_positions(w)


def test_apply_step_examples():
    assert apply_step(CyclicWord("ABAC"), 1) == CyclicWord("AAC")
    assert apply_step(CyclicWord("AAC"), 0) == CyclicWord("AC")
    for i in range(4):
        with pytest.raises(IllegalStep):
            apply_step(CyclicWord("ABCD"), i)
    with pytest.raises(WordTooShort):
        apply_step(CyclicWord("A"), 0)


# --- decide_contractible ----------------------------------------------------

PAPER_VERDICTS = [
    ("ABABCCDCBBDB", True),
    ("ABCDACBADC", False),
    ("ABCABC", False),
    ("ABCD", False),
    ("A", True),
]


@pytest.mark.parametrize("word,expect", PAPER_VERDICTS)
def test_decide_paper_examples(word, expect):
    ok, payload = decide_contractible(CyclicWord(word))
    assert ok is expect
    if ok:
        assert isinstance(payload, ContractionTrace)
    else:
        assert isinstance(payload, CyclicWord)


def test_trivially_contractible():
    for s in ("A", "AB", "AA", "AAAA", "ABABAB", "BBBBBBB"):
        ok, _ = decide_contractible(CyclicWord(s))
        assert ok, s


def test_trace_is_immutable_before_and_after_it_records():
    w = CyclicWord("ABACAD")
    ok, trace = decide_contractible(w)
    assert ok and isinstance(trace, ContractionTrace)
    for _ in range(2):  # the second pass runs after steps has been read
        for name in ("steps", "terminal", "_recorded", "_letters", "other"):
            with pytest.raises(AttributeError):
                setattr(trace, name, ())
        steps = trace.steps
    assert trace.steps == steps and len(steps) == len(w) - 2
    replay(trace, w)
    assert repr(trace) == "ContractionTrace(4 steps)"
    # a trace of a word that is not contractible fails at first use
    stuck = ContractionTrace("ABCD")
    assert repr(stuck) == "ContractionTrace(2 steps)"
    for _ in range(2):
        with pytest.raises(IllegalStep, match="not contractible"):
            stuck.steps


def _trace(read_steps):
    trace = decide_contractible(CyclicWord("ABACAD"))[1]
    if read_steps:
        trace.steps
    return trace


def _read_dissection():
    # verified once, so that its record also keeps the report and index
    P = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
    D = parse_dissection_json(dissection_to_json(P, unit_dissection(P)))[1]
    assert verify_dissection(P, D).valid and len(D._record) == 4
    return D


def _poofed():
    # (1, 1) lies inside the lower half's long side: poof adds a poofagon there
    P = validate_convex([(0, 0), (2, 0), (2, 2), (0, 2)])
    T = poof(P, Dissection((((0, 0), (2, 0), (2, 2)), ((0, 0), (1, 1), (0, 2)),
                            ((1, 1), (2, 2), (0, 2)))))[0]
    assert len(T.triangles) == 4
    return T


def _square():
    return validate_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
_HALVES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


# name -> (a fresh value, the attributes that must refuse setattr and delattr)
VALUES = {
    "CyclicWord": (lambda: CyclicWord("ABCA"), ("letters", "other")),
    "ContractionTrace": (lambda: _trace(False), ("_letters", "steps", "terminal", "_recorded")),
    "ContractionTrace-read": (lambda: _trace(True), ("_letters", "steps", "terminal", "_recorded")),
    "Triangulation": (lambda: Triangulation({0: "A", 1: "B", 2: "C"}, [(0, 1, 2)], (0, 1, 2)),
                      ("vertex_colors", "triangles", "corners")),
    "Triangulation-poofed": (_poofed, ("vertex_colors", "triangles", "corners")),
    "ConvexLatticePolygon": (_square, ("vertices",)),
    "Dissection": (lambda: Dissection(_HALVES), ("triangles", "_record")),
    "Dissection-read": (_read_dissection, ("triangles", "_record")),
    "VerifyReport": (lambda: verify_dissection(_square(), Dissection(_HALVES)),
                     ("valid", "checks", "triangle_count", "doubled_area_total")),
    "SpernerReport": (lambda: sperner_check(CyclicWord("ABCD")),
                      ("word", "contractible", "star_tricolor")),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_copy_pickle_and_refuse_changes(name):
    make, attributes = VALUES[name]
    value = make()
    for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        other = again(value)
        assert type(other) is type(value) and repr(other) == repr(value)
        if type(value).__eq__ is not object.__eq__:
            assert other == value
        if isinstance(value, Dissection):
            assert other._record == ()
        if isinstance(value, Triangulation):  # rebuilt from its faces, not its flat list
            assert other.triangles == value.triangles
        if isinstance(value, ContractionTrace):
            # rebuilt from the word alone: the steps are computed again
            assert "_recorded" not in other.__dict__
            assert other.steps == value.steps
    for attribute in attributes:
        with pytest.raises(AttributeError):
            setattr(value, attribute, ())
        with pytest.raises(AttributeError):
            delattr(value, attribute)


@given(medium_words)
def test_two_color_words_contract(w):
    if len(set(w.letters) - {"A", "B"}) == 0:
        ok, _ = decide_contractible(CyclicWord("".join(l for l in w)))
        assert ok


@settings(max_examples=300)
@given(medium_words)
def test_decide_success_traces_replay(w):
    ok, payload = decide_contractible(w)
    if ok:
        assert isinstance(payload, ContractionTrace)
        assert len(payload.terminal) <= 2
        assert len(payload) == len(w) - len(payload.terminal)
        replay(payload, w)
        if len(w) > 2:
            assert len(payload.terminal) == 2
    else:
        stuck = payload
        assert len(stuck) >= 3
        assert contracting_positions(stuck) == []


@settings(max_examples=200)
@given(medium_words, st.integers(min_value=0, max_value=59))
def test_decide_is_rotation_invariant(w, k):
    ok1, _ = decide_contractible(w)
    ok2, _ = decide_contractible(w.rotate(k))
    assert ok1 == ok2


def _trace_from_kernel(monkeypatch, w, kernel):
    """w's trace, its steps computed by kernel(codes, real_output) in place
    of the recording kernel: replay must catch a wrong kernel output."""
    monkeypatch.setattr(words, "_reduce_cyclic", lambda codes: kernel(codes, _reduce_cyclic(codes)))
    ok, trace = decide_contractible(w)
    assert ok
    return trace


def test_tampered_trace_rejected(monkeypatch):
    w = CyclicWord("AABB")
    replay(_trace_from_kernel(monkeypatch, w, lambda codes, out: out), w)

    def corrupt(codes, out):
        ok, deleted, final = out
        deleted[0] = (deleted[0] + 1) % len(codes)  # corrupt the first deleted position
        return ok, deleted, final

    with pytest.raises(IllegalStep, match="differ from terminal"):
        replay(_trace_from_kernel(monkeypatch, w, corrupt), w)
    # a position deleted twice, or one outside the word, fails the walk
    for deleted, bad in (([1, 1], 1), ([1, 4], 4), ([-1, 1], -1)):
        trace = _trace_from_kernel(monkeypatch, w, lambda codes, out: (True, deleted, [0, 2]))
        with pytest.raises(IllegalStep, match=f"deleted position {bad} is not a live letter"):
            replay(trace, w)


def test_replay_rejects_a_word_of_another_length():
    _, trace = decide_contractible(CyclicWord("AABBAAB"))
    for other in ("AAB", "AABBAABB"):
        with pytest.raises(IllegalStep, match=f"7-letter word replayed on a {len(other)}-letter"):
            replay(trace, CyclicWord(other))


@pytest.mark.parametrize("word, output, message", [
    # after deleting 0 from AAB, positions 1 and 2 are each other's neighbors
    ("AAB", (True, [0, 1], [2]), "shorter than 3"),
    ("ABCB", (True, [1, 2], [0, 3]), "all-distinct window"),
    ("AABB", (True, [1, 2], [2, 3]), "differ from terminal"),
])
def test_replay_rejects_illegal_kernel_output(monkeypatch, word, output, message):
    w = CyclicWord(word)
    trace = _trace_from_kernel(monkeypatch, w, lambda codes, out: output)
    with pytest.raises(IllegalStep, match=message):
        replay(trace, w)


# --- the verdict pass against the recording kernel -----------------------------
#
# These tests hold the verdict pass to the recording kernel, whose every
# step is replayed.

def tree_walk_word(rng, n, alphabet):
    """About n letters: the colors of a closed walk on a random tree whose
    adjacent nodes have distinct colors, a quarter of the visits written
    twice.  Contractible by construction."""
    out, path = [], [rng.choice(alphabet)]
    while True:
        out.append(path[-1] * rng.choice((1, 1, 1, 2)))
        if len(out) + len(path) >= n:
            break
        if len(path) > 1 and rng.random() < 0.5:
            path.pop()
        else:
            path.append(rng.choice([c for c in alphabet if c != path[-1]]))
    out.extend(reversed(path[:-1]))
    return "".join(out)


def check_against_recording_kernel(w):
    ok, payload = decide_contractible(w)
    ok_ref, _, final = _reduce_cyclic(w.letters.encode("ascii"))
    assert ok == ok_ref, w
    if not ok:
        assert payload.letters == "".join(w.letters[i] for i in final), w
        return ok
    n = len(w)
    assert len(payload) == max(n - 2, 0)  # before the trace is computed
    assert len(payload) == len(payload.steps) == n - len(payload.terminal)
    replay(payload, w)
    return ok


def test_verdict_pass_matches_recording_kernel_all_short_words():
    for n in range(1, 10):
        for tup in itertools.product(ABCD, repeat=n):
            check_against_recording_kernel(CyclicWord(tup))


@pytest.mark.parametrize("k", range(2, 7))
def test_verdict_pass_matches_recording_kernel_long_words(k):
    rng = random.Random(f"verdict-pass:{k}")
    alphabet = "ABCDEF"[:k]
    for _ in range(20):
        n = round(10 ** rng.uniform(1, 4))
        assert check_against_recording_kernel(CyclicWord(tree_walk_word(rng, n, alphabet)))
        check_against_recording_kernel(CyclicWord("".join(rng.choices(alphabet, k=n))))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_verdict_pass_matches_recording_kernel_at_small_chunks(monkeypatch, chunk):
    # The verdict pass reads the word _CHUNK letters at a time; the recording
    # kernel reads it whole.  The control codes are the ends of ASCII.
    monkeypatch.setattr(words, "_CHUNK", chunk)
    for n in range(1, 9):
        for tup in itertools.product(ABCD, repeat=n):
            check_against_recording_kernel(CyclicWord(tup))
    rng = random.Random(f"chunk:{chunk}")
    for _ in range(2000):
        n = rng.randint(1, 30)
        check_against_recording_kernel(CyclicWord("".join(rng.choices("ABCDE\x00\x7f", k=n))))


@pytest.mark.parametrize("k", [1, 2])
def test_verdict_pass_matches_recording_kernel_across_chunk_boundaries(k):
    # Words of k * _CHUNK - 3 ... k * _CHUNK + 3 letters, random or a tree
    # walk after a run of its first letter (contractible): a run or an x,y,x
    # pop straddles the last chunk boundary inside the word (or the word's
    # end), and the word's end mirrors its start, so the seam pass cancels
    # letters read on both sides of a chunk boundary.
    size = words._CHUNK
    rng = random.Random(f"chunk-boundary:{k}")
    for n in range(k * size - 3, k * size + 4):
        edge = size * ((n - 1) // size) or n - 2
        walk = tree_walk_word(rng, n // 2, ABCD)
        for base in ("".join(rng.choices(ABCD, k=n)), walk[0] * (n - len(walk)) + walk):
            assert len(base) == n
            x, y = rng.sample(ABCD, 2)
            for p in (edge - 1, edge):
                for middle in (x * 3, x + y + x):
                    check_against_recording_kernel(
                        CyclicWord(base[: p - 1] + middle + base[p + 2 :]))
            check_against_recording_kernel(CyclicWord(base))
            check_against_recording_kernel(CyclicWord(base[: n - 6] + base[5::-1]))


# The (deleted, left, right) steps that each contractible word's trace reads
# off the deletion order pinned below.
PINNED_STEPS = {
    "ABABCCDCBBDB": [(1, 0, 2), (2, 0, 3), (5, 4, 6), (6, 4, 7), (7, 4, 8), (4, 3, 8),
                     (8, 3, 9), (9, 3, 10), (10, 3, 11), (11, 3, 0)],
    "BCDBDC": [(3, 2, 4), (4, 2, 5), (2, 1, 5), (5, 1, 0)],
    "AAB": [(1, 0, 2)],
    "ABAB": [(1, 0, 2), (2, 0, 3)],
}


@pytest.mark.parametrize("word, output", [
    ("ABABCCDCBBDB", (True, [1, 2, 5, 6, 7, 4, 8, 9, 10, 11], [0, 3])),
    ("BCDBDC", (True, [3, 4, 2, 5], [0, 1])),
    ("AAB", (True, [1], [0, 2])),
    ("ABAB", (True, [1, 2], [0, 3])),
    ("ABCDACBADC", (False, [], list(range(10)))),
])
def test_recording_kernel_deletion_order(word, output):
    # The dissection JSON follows this order, so it is pinned exactly: the
    # kernel's deletion order and the steps of the trace.
    ok, deleted, final = _reduce_cyclic(word.encode("ascii"))
    assert (ok, list(deleted), list(final)) == output
    if ok:
        trace = ContractionTrace(word)
        assert list(trace.steps) == PINNED_STEPS[word] and list(trace.terminal) == final.tolist()


@pytest.mark.parametrize("use", ["steps", "terminal", "iter", "replay"])
def test_trace_runs_recording_kernel_once_on_first_use(monkeypatch, use):
    calls = []
    real = words._reduce_cyclic

    def counting(codes):
        calls.append(codes)
        return real(codes)

    monkeypatch.setattr(words, "_reduce_cyclic", counting)
    w = CyclicWord("ABABCCDCBBDB")
    ok, trace = decide_contractible(w)
    assert ok and len(trace) == 10
    assert not decide_contractible(CyclicWord("ABCDACBADC"))[0]
    assert calls == []
    for _ in range(2):
        if use == "replay":
            replay(trace, w)
        elif use == "iter":
            assert len(list(trace)) == 10
        else:
            getattr(trace, use)
    assert len(trace.steps) == 10 and len(trace.terminal) == 2
    assert calls == [b"ABABCCDCBBDB"]


# --- oracles ----------------------------------------------------------------

def test_exhaustive_examples():
    assert not exhaustive_contractible(CyclicWord("ABCD"))
    assert exhaustive_contractible(CyclicWord("ABAC"))
    assert not exhaustive_contractible(CyclicWord("ABCDACBADC"))
    with pytest.raises(BoundExceeded):
        exhaustive_contractible(CyclicWord("A" * 13))


def test_free_reduction_examples():
    # words whose edge loops do or do not freely cancel, by both the decider
    # and the matrix oracle
    for lets, expect in [("ABCABC", False), ("ABBA", True), ("ABCDACBADC", False),
                         ("A", True), ("ABAB", True), ("ABCD", False),
                         ("BCDBDC", True), ("ABCBDCBD", False)]:
        w = CyclicWord(lets)
        assert decide_contractible(w)[0] is expect, lets
        assert matrix_contractible(w) is expect, lets


def test_oracle_agreement_small_words():
    # decide == exhaustive == matrix oracle on every 4-color word
    # up to length 7 (lengths 8-9 are covered by the acceptance suite)
    memo = {}
    for n in range(1, 8):
        for tup in itertools.product(ABCD, repeat=n):
            w = CyclicWord(tup)
            ok, _ = decide_contractible(w)
            assert ok == exhaustive_contractible(w, memo=memo), w
            assert ok == matrix_contractible(w), w


@settings(max_examples=300, deadline=None)
@given(small_words)
def test_diamond_lemma_sampled(w):
    # contractibility is invariant under any single contracting step
    if len(w) < 2:
        return
    memo = {}
    base = exhaustive_contractible(w, memo=memo)
    for i in contracting_positions(w):
        assert exhaustive_contractible(apply_step(w, i), memo=memo) == base


@settings(max_examples=300, deadline=None)
@given(medium_words)
def test_decide_agrees_with_matrix_oracle_random(w):
    ok, _ = decide_contractible(w)
    assert ok == matrix_contractible(w)


@pytest.mark.parametrize("k", range(3, 7))
def test_matrix_oracle_agrees_on_long_words(k):
    # 10^3-10^4 letters, far beyond exhaustive_contractible: tree walks
    # (contractible), uniform words (almost never) and tree walks with one
    # letter changed (either verdict)
    rng = random.Random(f"matrix-oracle:{k}")
    alphabet = "ABCDEF"[:k]
    verdicts = set()
    for _ in range(8):
        n = round(10 ** rng.uniform(3, 4))
        walk = tree_walk_word(rng, n, alphabet)
        i = rng.randrange(len(walk))
        mutant = walk[:i] + rng.choice(alphabet) + walk[i + 1:]
        for lets in (walk, "".join(rng.choices(alphabet, k=n)), mutant):
            w = CyclicWord(lets)
            ok, _ = decide_contractible(w)
            assert ok == matrix_contractible(w), lets
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_exhaustive_memo_is_shared_correctly():
    memo = {}
    r1 = [exhaustive_contractible(CyclicWord(t), memo=memo)
          for t in itertools.product(ABCD, repeat=5)]
    r2 = [exhaustive_contractible(CyclicWord(t))
          for t in itertools.product(ABCD, repeat=5)]
    assert r1 == r2
