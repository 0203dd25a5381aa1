"""Cyclic words over color labels and the contractibility deciders.

A cyclic word is a string of one-character labels considered up to rotation.
A letter may be deleted ("contracting step") when it and its two cyclic
neighbors are not three pairwise distinct labels; a word is contractible when
such steps can shrink it to length < 3.  This module provides:

* decide_contractible — the production decider: one linear verdict pass that
  freely reduces the word's letter codes on a stack and then across the
  wrap-around, O(n) total, recording nothing.  On failure it returns the
  stuck cyclically-reduced word; on success a ContractionTrace, which
  computes the replayable deletion sequence on first use;
* exhaustive_contractible — an independent oracle searching every step order,
  for words of at most EXHAUSTIVE_BOUND = 12 letters;
* matrix_contractible — an independent oracle for words of any length: it
  multiplies out the image of the word's edge loop in SL(2, Z) under a
  faithful map and compares it with the identity, with no cancellation.

Words are stored as ASCII strings, so the decider works on the word's bytes
as its color codes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .errors import BoundExceeded, IllegalStep, WordTooShort


def active_kernel() -> str:
    """Name of the decider kernel, recorded in benchmark results.

    The verdict pass and the recording kernel behind traces are both written
    in pure Python.
    """
    return "pure"


def _least_rotation(seq) -> int:
    """Booth's algorithm: start index of the lexicographically least rotation."""
    n = len(seq)
    s = seq + seq
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


class CyclicWord:
    """A nonempty word of ASCII letters, equal to all of its rotations.

    Accepts a string (one letter per character) or an iterable of
    one-character strings, which are joined; letters is always a str.
    Equality and hashing go through the canonical (lexicographically least)
    rotation, computed lazily.
    """

    __slots__ = ("letters", "_canon")

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
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    @property
    def canonical(self) -> str:
        c = self._canon
        if c is None:
            k = _least_rotation(self.letters)
            c = self.letters[k:] + self.letters[:k]
            object.__setattr__(self, "_canon", c)
        return c

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
        return len(self.letters) == len(other.letters) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def __str__(self) -> str:
        return self.letters

    def __repr__(self) -> str:
        return f"CyclicWord({self.letters!r})"


class Step(NamedTuple):
    """One recorded deletion: original indices of the letter and its
    cyclic neighbors at the moment it was removed."""

    deleted: int
    left: int
    right: int


class ContractionTrace:
    """The deletion sequence that contracts a word, computed on first use.

    decide_contractible returns one for a contractible word without recording
    anything: the trace keeps the word's letter codes and runs the recording
    kernel, _reduce_cyclic, once, the first time steps, terminal, iteration or
    replay is used.  len() needs no kernel run: a word of n letters takes
    max(n - 2, 0) steps.  The steps contract the word to terminal, the (at
    most 2) surviving original positions; replay checks the kernel's output
    against the word.
    """

    __slots__ = ("_codes", "_flat", "_terminal", "_steps")

    def __init__(self, codes: bytes):
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_flat", None)
        object.__setattr__(self, "_terminal", None)
        object.__setattr__(self, "_steps", None)

    def __setattr__(self, name, value):
        raise AttributeError("ContractionTrace is immutable")

    def _recorded(self) -> list[int]:
        f = self._flat
        if f is None:
            ok, f, final = _reduce_cyclic(self._codes)
            if not ok:
                raise IllegalStep("the word of this trace is not contractible")
            object.__setattr__(self, "_flat", f)
            object.__setattr__(self, "_terminal", tuple(final))
        return f

    @property
    def terminal(self) -> tuple[int, ...]:
        self._recorded()
        return self._terminal

    @property
    def steps(self) -> tuple[Step, ...]:
        s = self._steps
        if s is None:
            f = self._recorded()
            s = tuple(Step(f[i], f[i + 1], f[i + 2]) for i in range(0, len(f), 3))
            object.__setattr__(self, "_steps", s)
        return s

    def __len__(self) -> int:
        return max(len(self._codes) - 2, 0)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __repr__(self) -> str:
        return f"ContractionTrace({len(self)} steps)"

    def replay(self, w: "CyclicWord") -> None:
        """Re-execute the deletions against w, checking each one is legal.

        Raises IllegalStep if any recorded step's neighbors do not match the
        live word or would delete a letter from an all-distinct window, or if
        the survivors differ from terminal.
        """
        f = self._recorded()
        letters = w.letters
        n = len(letters)
        nxt = [(i + 1) % n for i in range(n)]
        prv = [(i - 1) % n for i in range(n)]
        alive = n
        dead = [False] * n
        for k in range(0, len(f), 3):
            d, l, r = f[k], f[k + 1], f[k + 2]
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
        if tuple(survivors) != self.terminal:
            raise IllegalStep(f"survivors {survivors} differ from terminal {list(self.terminal)}")


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
    """The recording stack reduction behind ContractionTrace.

    Works on the word's letter codes and returns (contractible, steps, final):
    steps is a flat sequence of (deleted, left, right) index triples in
    original-letter positions and final lists the surviving positions in
    order.  Reduction stops as soon as the live word has length 2 (or 1), so
    on success steps has exactly n - len(final) triples and every triple
    names three distinct positions.  On failure steps comes back empty:
    callers only need the stuck word, and large inputs stay cheap.
    """
    n = len(codes)
    if n <= 2:
        return True, [], list(range(n))

    # The stack holds each live letter's original position (pos) and code
    # (col).  Slots 0 and 1 hold sentinel codes that equal no byte, so the
    # comparisons below need no bounds checks; letters start at slot 2, and
    # the live length is top - 1 plus the last - i letters not yet pushed.
    pos = [-1, -1] + [0] * n
    col = [-1, -2] + [0] * n
    top = 1
    last = n - 1
    steps: list[int] = []

    for i, c in enumerate(codes):
        top += 1
        pos[top] = i
        col[top] = c
        # c stays the code of the stack top through both deletions below.
        while True:
            if c == col[top - 1]:
                # adjacent equal pair: drop the newer letter
                if top - 1 + last - i <= 2:
                    break
                top -= 1
                steps += (pos[top + 1], pos[top], i + 1 if i < last else pos[2])
            elif c == col[top - 2]:
                # x,y,x: the middle letter's neighbors repeat; drop it and
                # let the loop re-enter on the equal pair left behind
                if top - 1 + last - i <= 2:
                    break
                steps += (pos[top - 1], pos[top - 2], pos[top])
                top -= 1
                pos[top] = pos[top + 1]
                col[top] = c
            else:
                break

    # Seam pass: the linear stack is fully reduced in its interior, so the
    # only candidate deletions sit next to the wrap-around.
    head, tail = 2, top
    while tail - head + 1 > 2:
        f, b = pos[head], pos[tail]
        if col[tail] == col[head] or col[tail] == col[head + 1]:
            steps += (f, b, pos[head + 1])
            head += 1
            continue
        if col[tail - 1] == col[head]:
            steps += (b, pos[tail - 1], f)
            tail -= 1
            continue
        break

    final = pos[head : tail + 1]
    ok = tail - head + 1 <= 2
    return ok, steps if ok else [], final


def _stuck_codes(codes: bytes) -> bytes | None:
    """The verdict pass: None when the word is contractible, else the codes
    of its stuck word.

    The reduction of _reduce_cyclic on codes alone, with no positions and no
    steps.  A code equal to the stack top is skipped, and one equal to the
    code below the top pops the top (x,y,x -> x); the stack then holds the
    freely reduced word, and the same seam pass runs across the wrap-around.
    On failure the stack holds the same codes as _reduce_cyclic's survivors.
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
    BoundExceeded.  memo (keyed by canonical rotation) defaults to a fresh
    dict per call; pass a shared dict to amortize bulk enumerations.
    """
    if len(w) > EXHAUSTIVE_BOUND:
        raise BoundExceeded(f"word of length {len(w)} exceeds the bound {EXHAUSTIVE_BOUND}")
    if memo is None:
        memo = {}

    def canon(lets: str) -> str:
        k = _least_rotation(lets)
        return lets[k:] + lets[:k]

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
                if go(canon(lets[:i] + lets[i + 1 :])):
                    res = True
                    break
        memo[lets] = res
        return res

    return go(canon(w.letters))


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
