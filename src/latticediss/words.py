"""Cyclic words over color labels and the contractibility deciders.

A cyclic word is a string of one-character labels considered up to rotation.
A letter may be deleted ("contracting step") when it and its two cyclic
neighbors are not three pairwise distinct labels; a word is contractible when
such steps can shrink it to length < 3.  This module provides:

* decide_contractible — the production decider: one linear verdict pass that
  freely reduces the word's letter codes on a stack and then across the
  wrap-around, O(n) total, recording nothing.  On failure it returns the
  stuck cyclically-reduced word; on success a ContractionTrace, which
  computes the replayable deletion sequence on first use with the same pass,
  each letter's original position kept next to its code;
* exhaustive_contractible — an independent oracle searching every step order,
  for words of at most EXHAUSTIVE_BOUND = 12 letters;
* matrix_contractible — an independent oracle for words of any length: it
  multiplies out the image of the word's edge loop in SL(2, Z) under a
  faithful map and compares it with the identity, with no cancellation.

Words are stored as ASCII strings, so the decider works on the word's bytes
as its color codes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import BoundExceeded, IllegalStep, WordTooShort


def active_kernel() -> str:
    """Name of the decider kernel, recorded in benchmark results.

    The verdict pass and the recording kernel behind traces are both written
    in pure Python.
    """
    return "pure"


class CyclicWord:
    """A nonempty word of ASCII letters, equal to all of its rotations.

    Accepts a string (one letter per character) or an iterable of
    one-character strings, which are joined; letters is always a str.  Two
    words are equal when one is a rotation of the other, and the hash comes
    from the sorted letters, which every rotation shares.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str | Iterable[str]):
        if not isinstance(letters, str):
            labels = tuple(letters)
            if not all(isinstance(l, str) and len(l) == 1 for l in labels):
                raise ValueError("labels must be one-character strings")
            letters = "".join(labels)
        if not letters:
            raise WordTooShort("cyclic words must have at least one letter")
        if not letters.isascii():
            raise ValueError("labels must be ASCII characters")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def rotate(self, k: int) -> "CyclicWord":
        n = len(self.letters)
        k %= n
        return CyclicWord(self.letters[k:] + self.letters[:k])

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i: int) -> str:
        return self.letters[i % len(self.letters)]

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        a, b = self.letters, other.letters
        return len(a) == len(b) and b in a + a

    def __hash__(self) -> int:
        return hash("".join(sorted(self.letters)))

    def __str__(self) -> str:
        return self.letters

    def __repr__(self) -> str:
        return f"CyclicWord({self.letters!r})"


class ContractionTrace:
    """The deletion sequence that contracts a word, computed on first use.

    decide_contractible returns one for a contractible word without recording
    anything: the trace keeps the word's letter codes and runs the recording
    kernel, _reduce_cyclic, once, the first time steps, terminal, iteration or
    replay is used.  len() needs no kernel run: a word of n letters takes
    max(n - 2, 0) steps.  Each step is a (deleted, left, right) triple of
    original positions: the letter removed and its two cyclic neighbors at
    that moment.  The steps contract the word to terminal, the (at most 2)
    surviving original positions; replay checks the kernel's output against
    the word.
    """

    def __init__(self, codes: bytes):
        object.__setattr__(self, "_codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("ContractionTrace is immutable")

    @cached_property
    def _recorded(self) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        ok, flat, final = _reduce_cyclic(self._codes)
        if not ok:
            raise IllegalStep("the word of this trace is not contractible")
        it = iter(flat)
        return tuple(zip(it, it, it)), tuple(final)

    @property
    def terminal(self) -> tuple[int, ...]:
        return self._recorded[1]

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        return self._recorded[0]

    def __len__(self) -> int:
        return max(len(self._codes) - 2, 0)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.steps)

    def __repr__(self) -> str:
        return f"ContractionTrace({len(self)} steps)"

    def replay(self, w: "CyclicWord") -> None:
        """Re-execute the deletions against w, checking each one is legal.

        Raises IllegalStep if any recorded step's neighbors do not match the
        live word or would delete a letter from an all-distinct window, or if
        the survivors differ from terminal.
        """
        steps, terminal = self._recorded
        letters = w.letters
        n = len(letters)
        nxt = [(i + 1) % n for i in range(n)]
        prv = [(i - 1) % n for i in range(n)]
        alive = n
        dead = [False] * n
        for d, l, r in steps:
            if dead[d] or prv[d] != l or nxt[d] != r:
                raise IllegalStep(f"step ({d},{l},{r}) does not match the live word")
            if alive < 3:
                raise IllegalStep("step recorded on a word shorter than 3")
            cl, cd, cr = letters[l], letters[d], letters[r]
            if cl != cd and cd != cr and cl != cr:
                raise IllegalStep(f"step ({d},{l},{r}) deletes from an all-distinct window")
            nxt[l] = r
            prv[r] = l
            dead[d] = True
            alive -= 1
        survivors = [i for i in range(n) if not dead[i]]
        if tuple(survivors) != terminal:
            raise IllegalStep(f"survivors {survivors} differ from terminal {list(terminal)}")


def _window_repeats(a: str, b: str, c: str) -> bool:
    return a == b or b == c or a == c


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


def _reduce_cyclic(codes: bytes) -> tuple[bool, list[int], list[int]]:
    """The recording kernel behind ContractionTrace: _stuck_codes's reduction
    with positions.

    Works on the word's letter codes and returns (contractible, steps, final):
    steps is a flat sequence of (deleted, left, right) index triples in
    original-letter positions and final lists the surviving positions in
    order.  The stack of _stuck_codes becomes two parallel lists, the codes
    col and the original positions pos, and each pop or skipped code records
    the deleted letter with its two live neighbors.  Reduction stops as soon
    as the live word has length 2 (or 1), so on success steps has exactly
    n - len(final) triples and every triple names three distinct positions.
    On failure steps comes back empty: callers only need the stuck word, and
    large inputs stay cheap.
    """
    n = len(codes)
    # Slots 0 and 1 hold sentinel codes that equal no byte; live counts the
    # letters not deleted, those on the stack and those still to come.
    col = [-1, -2]
    pos = [-1, -1]
    live = n
    steps: list[int] = []
    for i, c in enumerate(codes):
        if live > 2 and c == col[-2]:
            # x,y,x: the middle letter's neighbors repeat; drop it
            steps += (pos[-1], pos[-2], i)
            col.pop()
            pos.pop()
            live -= 1
        if live > 2 and c == col[-1]:
            # equal pair: drop the newer letter
            steps += (i, pos[-1], i + 1 if i + 1 < n else pos[2])
            live -= 1
        else:
            col.append(c)
            pos.append(i)

    # Seam pass: the stack is fully reduced in its interior, so the only
    # candidate deletions sit next to the wrap-around.
    head, tail = 2, len(col) - 1
    while tail - head + 1 > 2:
        if col[tail] == col[head] or col[tail] == col[head + 1]:
            steps += (pos[head], pos[tail], pos[head + 1])
            head += 1
        elif col[tail - 1] == col[head]:
            steps += (pos[tail], pos[tail - 1], pos[head])
            tail -= 1
        else:
            return False, [], pos[head : tail + 1]
    return True, steps, pos[head : tail + 1]


def _stuck_codes(codes: bytes) -> bytes | None:
    """The verdict pass: None when the word is contractible, else the codes
    of its stuck word.

    A code equal to the stack top is skipped, and one equal to the code below
    the top pops the top (x,y,x -> x); the stack then holds the freely
    reduced word, and a seam pass runs across the wrap-around.
    _reduce_cyclic is this pass with positions and recorded deletions; on
    failure the stack holds the same codes as its survivors.
    """
    # Slots 0 and 1 hold sentinel codes that equal no byte; top and below
    # mirror the last two slots.
    stack = [-1, -2]
    push, pop = stack.append, stack.pop
    below, top = -1, -2
    for c in codes:
        if c == top:
            continue
        if c == below:
            pop()
            top, below = c, stack[-2]
        else:
            push(c)
            below, top = top, c

    head, tail = 2, len(stack) - 1
    while tail - head + 1 > 2:
        if stack[tail] == stack[head] or stack[tail] == stack[head + 1]:
            head += 1
        elif stack[tail - 1] == stack[head]:
            tail -= 1
        else:
            return bytes(stack[head : tail + 1])
    return None


def decide_contractible(w: CyclicWord) -> tuple[bool, ContractionTrace | CyclicWord]:
    """Decide contractibility in linear time, with one verdict pass.

    Returns (True, trace), where trace computes the full deletion sequence
    down to at most two letters on first use, or (False, stuck), where stuck
    is the live cyclic word at the point no contracting step applies anywhere.
    """
    codes = w.letters.encode("ascii")
    stuck = _stuck_codes(codes)
    if stuck is None:
        return True, ContractionTrace(codes)
    return False, CyclicWord(stuck.decode("ascii"))


EXHAUSTIVE_BOUND = 12


def exhaustive_contractible(w: CyclicWord, memo: dict | None = None) -> bool:
    """Search every contracting-step order; True iff some order reaches
    length <= 2.

    Independent of decide_contractible.  The search is exponential in the
    word's length, so words longer than EXHAUSTIVE_BOUND raise
    BoundExceeded.  memo (keyed by the lexicographically least rotation)
    defaults to a fresh dict per call; pass a shared dict to amortize bulk
    enumerations.
    """
    if len(w) > EXHAUSTIVE_BOUND:
        raise BoundExceeded(f"word of length {len(w)} exceeds the bound {EXHAUSTIVE_BOUND}")
    if memo is None:
        memo = {}

    def least(lets: str) -> str:
        return min(lets[k:] + lets[:k] for k in range(len(lets)))

    def go(lets: str) -> bool:
        if len(lets) <= 2:
            return True
        hit = memo.get(lets)
        if hit is not None:
            return hit
        n = len(lets)
        res = False
        for i in range(n):
            if _window_repeats(lets[i - 1], lets[i], lets[(i + 1) % n]):
                if go(least(lets[:i] + lets[i + 1 :])):
                    res = True
                    break
        memo[lets] = res
        return res

    return go(least(w.letters))


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
