"""Reference word operations for tests of ``words``: single contracting
steps, the replay of a contraction trace and the SL(2, Z) oracle.

``words.decide_contractible`` decides in one pass and never takes a step on
its own; ``words.exhaustive_contractible`` searches every step order but
only up to ``words.EXHAUSTIVE_BOUND`` letters.  This module gives the tests
the legal steps of a word one at a time, for the diamond lemma, a replay
that checks a trace's steps against its word, and an oracle for words of
any length that shares no algorithm with either.
"""

from __future__ import annotations

from itertools import combinations

from latticediss.errors import IllegalStep, WordTooShort
from latticediss.words import ContractionTrace, CyclicWord, _window_repeats


def contracting_positions(w: CyclicWord) -> list[int]:
    """All positions whose deletion is a legal contracting step."""
    n = len(w)
    if n < 2:
        raise WordTooShort("contracting steps need a word of length at least 2")
    lets = w.letters
    return [i for i in range(n) if _window_repeats(lets[i - 1], lets[i], lets[(i + 1) % n])]


def apply_step(w: CyclicWord, i: int) -> CyclicWord:
    """Delete letter i (a legal contracting position) from the word."""
    n = len(w)
    if n < 2:
        raise WordTooShort("cannot delete from a single-letter word")
    i %= n
    lets = w.letters
    if not _window_repeats(lets[i - 1], lets[i], lets[(i + 1) % n]):
        raise IllegalStep(f"position {i} of {w!r}: neighbors and letter are pairwise distinct")
    return CyclicWord(lets[:i] + lets[i + 1 :])


def replay(trace: ContractionTrace, w: CyclicWord) -> None:
    """Re-execute the trace's deletions against w, checking each one is legal.

    Reads the trace's steps and terminal; the traced word has len(steps) +
    len(terminal) letters.  Raises IllegalStep if w's length is not the
    traced word's, if a deleted position is not live (found by the walk that
    records the steps), if a step deletes from a word shorter than 3 or from
    an all-distinct window, or if the survivors differ from terminal.
    """
    steps, terminal = trace.steps, trace.terminal
    letters = w.letters
    n, traced = len(letters), len(steps) + len(terminal)
    if n != traced:
        raise IllegalStep(f"trace of a {traced}-letter word replayed on a {n}-letter word")
    dead = bytearray(n)
    for k, (d, l, r) in enumerate(steps):
        if n - k < 3:
            raise IllegalStep("step recorded on a word shorter than 3")
        cl, cd, cr = letters[l], letters[d], letters[r]
        if cl != cd and cd != cr and cl != cr:
            raise IllegalStep(f"step ({d},{l},{r}) deletes from an all-distinct window")
        dead[d] = 1
    survivors = [i for i in range(n) if not dead[i]]
    if tuple(survivors) != terminal:
        raise IllegalStep(f"survivors {survivors} differ from terminal {list(terminal)}")


def _mat_mul(m: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d = m
    e, f, g, h = k
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def matrix_contractible(w: CyclicWord) -> bool:
    """Oracle via the image of the word's loop in SL(2, Z).

    The cyclic letter pairs of w trace a loop in the complete graph on its
    labels, and w is contractible iff the loop is null-homotopic.  The
    graph's fundamental group is free on the edges x -> y, x < y, off the
    star at the least label.  The k-th such edge in lexicographic order maps
    to b^k a b^-k (its reverse to the inverse, edges in the star to 1), with
    Sanov's a = [[1, 2], [0, 1]] and b = [[1, 0], [2, 1]]; these conjugates
    freely generate a subgroup of SL(2, Z), so the loop is trivial iff its
    product of edge matrices is the identity.  No cancellation, no code
    shared with the deciders; entries grow exponentially with the loop's
    reduced length, so it is a test oracle, not a verdict path.
    """
    letters = w.letters
    edges = {}
    conj = (1, 2, 0, 1)  # a, row by row
    for x, y in combinations(sorted(set(letters))[1:], 2):
        p, q, r, s = edges[x, y] = conj
        edges[y, x] = (s, -q, -r, p)
        conj = _mat_mul(_mat_mul((1, 0, 2, 1), conj), (1, 0, -2, 1))  # b conj b^-1
    m = (1, 0, 0, 1)
    for pair in zip(letters, letters[1:] + letters[0]):
        if pair in edges:
            m = _mat_mul(m, edges[pair])
    return m == (1, 0, 0, 1)
