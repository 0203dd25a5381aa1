import itertools

import pytest
from hypothesis import given, settings, strategies as st

from latticediss.errors import BoundExceeded, IllegalStep, WordTooShort
from latticediss.words import (
    ContractionTrace,
    CyclicWord,
    apply_step,
    contracting_positions,
    decide_contractible,
    exhaustive_contractible,
    free_reduction_contractible,
)

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


def test_word_indexing_is_cyclic():
    w = CyclicWord("ABC")
    assert w[3] == "A" and w[-1] == "C" and w[7] == "B"
    assert str(w.rotate(1)) == "BCA"
    assert str(w) == "ABC"


@given(st.text(alphabet=ABCD, min_size=1, max_size=12))
def test_canonical_is_least_rotation(s):
    w = CyclicWord(s)
    assert w.canonical == brute_min_rotation(s)


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
        payload.replay(w)
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


def test_tampered_trace_rejected():
    w = CyclicWord("AABB")
    ok, trace = decide_contractible(w)
    assert ok
    flat = list(trace._flat)
    flat[0] = (flat[0] + 1) % len(w)  # corrupt the deleted index
    bad = ContractionTrace(flat, trace.terminal)
    with pytest.raises(IllegalStep):
        bad.replay(w)


# --- oracles ----------------------------------------------------------------

def test_exhaustive_examples():
    assert not exhaustive_contractible(CyclicWord("ABCD"))
    assert exhaustive_contractible(CyclicWord("ABAC"))
    assert not exhaustive_contractible(CyclicWord("ABCDACBADC"))
    with pytest.raises(BoundExceeded):
        exhaustive_contractible(CyclicWord("A" * 13))
    assert exhaustive_contractible(CyclicWord("A" * 13), max_len=13)


def test_free_reduction_examples():
    assert not free_reduction_contractible(CyclicWord("ABCABC"))
    assert free_reduction_contractible(CyclicWord("ABBA"))
    assert not free_reduction_contractible(CyclicWord("ABCDACBADC"))
    assert free_reduction_contractible(CyclicWord("A"))
    assert free_reduction_contractible(CyclicWord("ABAB"))


def test_oracle_agreement_small_words():
    # decide == exhaustive == free reduction on every 4-color word
    # up to length 7 (lengths 8-9 are covered by the acceptance suite)
    memo = {}
    for n in range(1, 8):
        for tup in itertools.product(ABCD, repeat=n):
            w = CyclicWord(tup)
            ok, _ = decide_contractible(w)
            assert ok == exhaustive_contractible(w, memo=memo), w
            assert ok == free_reduction_contractible(w), w


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
def test_decide_agrees_with_free_reduction_random(w):
    ok, _ = decide_contractible(w)
    assert ok == free_reduction_contractible(w)


def test_exhaustive_memo_is_shared_correctly():
    memo = {}
    r1 = [exhaustive_contractible(CyclicWord(t), memo=memo)
          for t in itertools.product(ABCD, repeat=5)]
    r2 = [exhaustive_contractible(CyclicWord(t))
          for t in itertools.product(ABCD, repeat=5)]
    assert r1 == r2
