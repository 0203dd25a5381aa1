"""Cyclic words over color labels and the contractibility deciders.

A cyclic word is a string of one-character labels considered up to rotation.
A letter may be deleted ("contracting step") when it and its two cyclic
neighbors are not three pairwise distinct labels; a word is contractible when
such steps can shrink it to length < 3.  This module provides:

* decide_contractible — the production decider: one linear stack pass plus a
  seam pass across the wrap-around, O(n) total, returning a replayable
  deletion trace on success and the stuck cyclically-reduced word on failure;
* exhaustive_contractible — an independent oracle searching every step order;
* free_reduction_contractible — a second independent oracle that reduces the
  word's edge loop in the complete graph on its labels and tests whether the
  loop cancels away entirely.

Words are stored as ASCII strings, so the decider hands the kernel the
word's bytes as its color codes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import BoundExceeded, IllegalStep, WordTooShort


def active_kernel() -> str:
    """Name of the decider kernel, recorded in benchmark results.

    The package has one kernel, written in pure Python.
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
    """The deletion sequence a successful decision produced.

    Contains exactly n - len(terminal) steps; terminal lists the (at most 2)
    surviving original positions.  The flat step storage is kept as produced
    by the kernel and materialized into Step triples on demand.
    """

    __slots__ = ("_flat", "terminal", "_steps")

    def __init__(self, flat, terminal: tuple[int, ...]):
        if len(flat) % 3:
            raise ValueError("flat step storage must hold index triples")
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "terminal", tuple(terminal))
        object.__setattr__(self, "_steps", None)

    def __setattr__(self, name, value):
        raise AttributeError("ContractionTrace is immutable")

    @property
    def steps(self) -> tuple[Step, ...]:
        s = self._steps
        if s is None:
            f = self._flat
            s = tuple(Step(f[i], f[i + 1], f[i + 2]) for i in range(0, len(f), 3))
            object.__setattr__(self, "_steps", s)
        return s

    def __len__(self) -> int:
        return len(self._flat) // 3

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __repr__(self) -> str:
        return f"ContractionTrace({len(self)} steps, terminal={self.terminal})"

    def replay(self, w: "CyclicWord") -> None:
        """Re-execute the deletions against w, checking each one is legal.

        Raises IllegalStep if any recorded step's neighbors do not match the
        live word or would delete a letter from an all-distinct window, or if
        the survivors differ from terminal.
        """
        letters = w.letters
        n = len(letters)
        nxt = [(i + 1) % n for i in range(n)]
        prv = [(i - 1) % n for i in range(n)]
        alive = n
        dead = [False] * n
        f = self._flat
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
    """The linear stack reduction behind decide_contractible.

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


def decide_contractible(w: CyclicWord) -> tuple[bool, ContractionTrace | CyclicWord]:
    """Decide contractibility in linear time.

    Returns (True, trace) where trace replays the full deletion sequence down
    to at most two letters, or (False, stuck) where stuck is the live cyclic
    word at the point no contracting step applies anywhere.
    """
    letters = w.letters
    ok, flat, final = _reduce_cyclic(letters.encode("ascii"))
    if ok:
        return True, ContractionTrace(flat, tuple(final))
    return False, CyclicWord("".join([letters[i] for i in final]))


def exhaustive_contractible(
    w: CyclicWord, max_len: int = 12, memo: dict | None = None
) -> bool:
    """Search every contracting-step order; True iff some order reaches
    length <= 2.

    Independent of decide_contractible.  memo (keyed by canonical rotation)
    defaults to a fresh dict per call; pass a shared dict to amortize bulk
    enumerations.
    """
    if len(w) > max_len:
        raise BoundExceeded(f"word of length {len(w)} exceeds the bound {max_len}")
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


def free_reduction_contractible(w: CyclicWord) -> bool:
    """Oracle via loops in the complete graph on the word's labels.

    Consecutive distinct letters contribute a directed edge; the word is
    contractible iff that cyclic edge path freely cancels to nothing.  A
    backtrack (u -> v -> u) removes two entries of the vertex sequence; the
    loop is trivial iff the sequence shrinks below 3 entries.
    """
    # Collapse cyclically-adjacent equal letters: same-label runs visit one
    # graph vertex, contributing no edges.
    seq: list[str] = []
    for l in w.letters:
        if not seq or seq[-1] != l:
            seq.append(l)
    while len(seq) > 1 and seq[0] == seq[-1]:
        seq.pop()
    if len(seq) <= 2:
        return True

    # Linear pass: remove backtracks x,y,x.
    stack: list[str] = []
    for v in seq:
        stack.append(v)
        while len(stack) >= 3 and stack[-1] == stack[-3]:
            stack.pop()
            stack.pop()
    # Seam pass across the wrap-around.
    head, tail = 0, len(stack) - 1
    while tail - head + 1 >= 3:
        if stack[tail] == stack[head + 1]:
            # backtrack centered on the front entry
            head += 1
            tail -= 1
        elif stack[tail - 1] == stack[head]:
            # backtrack centered on the back entry
            tail -= 2
        else:
            break
    return tail - head + 1 <= 2
