"""Cyclic words over color labels and the contractibility deciders.

A cyclic word is a string of one-character labels considered up to rotation.
A letter may be deleted ("contracting step") when it and its two cyclic
neighbors are not three pairwise distinct labels; a word is contractible when
such steps can shrink it to length < 3.  This module provides:

* decide_contractible — the production decider: one linear verdict pass that
  freely reduces the word's letter codes on a bytearray stack, one byte per
  stacked letter, reading the word one bounded chunk at a time, and then
  reduces across the wrap-around, O(n) total, recording nothing.  On failure
  it returns the stuck cyclically-reduced word (stuck_positions gives where
  its letters were); on success a ContractionTrace, which keeps the word's
  letters and computes the deletion sequence on first use with the same
  pass, each letter's original position kept next to its code;
* exhaustive_contractible — an independent oracle searching every step order,
  for words of at most EXHAUSTIVE_BOUND = 12 letters, which the benchmark's
  own tests run against its reference decider, and so stays here.

A trace's replay against its word is a test's check, in
tests/word_reference.py: every start-up compiles this module.

Words are stored as ASCII strings, so the decider works on the word's bytes
as its color codes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from functools import cached_property

from .errors import BoundExceeded, IllegalStep, WordTooShort


def active_kernel() -> str:
    """Name of the decider kernel, recorded in benchmark results.

    The verdict pass and the recording kernel behind traces are both written
    in pure Python.
    """
    return "pure"


class Immutable:
    """Base of the package's value types: a value is set once and never
    changes.

    A subclass names its fields in __slots__, its constructor's arguments
    first and in order, and its constructor sets them with _set.  Assigning
    or deleting any attribute raises AttributeError.  copy and pickle
    rebuild the value through its constructor from those leading slots, so
    a slot after them starts afresh (a Dissection's _record) and nothing
    computed on first use (a ContractionTrace's steps) is carried over.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        n = self.__init__.__code__.co_argcount - 1
        return type(self), tuple(map(self.__getattribute__, self.__slots__[:n]))


class OneField(Immutable):
    """An Immutable value that is its one field, the first slot: equal to a
    value of the same type with an equal field, hashed and measured by len
    as the field, and shown as Type(field=...)."""

    __slots__ = ()

    def _field(self):
        return getattr(self, self.__slots__[0])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self) -> int:
        return hash(self._field())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.__slots__[0]}={self._field()!r})"

    def __len__(self) -> int:
        return len(self._field())


class CyclicWord(Immutable):
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
        self._set(letters)

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


class ContractionTrace(Immutable):
    """The deletion sequence that contracts a word, computed on first use.

    decide_contractible returns one for a contractible word without recording
    anything: the trace keeps the word's letters, the str the CyclicWord
    already holds, and runs the recording kernel, _reduce_cyclic, on their
    codes once, the first time steps, terminal or iteration is used.
    len() needs no kernel run: a word of n letters takes max(n - 2, 0)
    steps.  Each step is a (deleted, left, right) triple of original
    positions: the letter removed and its two cyclic neighbors at that
    moment, read off one linked-list walk over the kernel's deletion order.
    The steps contract the word to terminal, the (at most 2) surviving
    original positions, so a word of n letters has len(steps) +
    len(terminal) == n.
    """

    __slots__ = ("_letters", "__dict__")  # __dict__ holds _recorded once computed

    def __init__(self, letters: str):
        self._set(letters)

    @cached_property
    def _recorded(self) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        ok, deleted, final = _reduce_cyclic(self._letters.encode("ascii"))
        if not ok:
            raise IllegalStep("the word of this trace is not contractible")
        # The live positions as a cyclic doubly linked list: prv is nxt
        # turned by two, sharing its ints, and the steps share them too.  A
        # deleted position's nxt is -1.
        n = len(self._letters)
        nxt = list(range(1, n)) + [0]
        prv = nxt[-2:] + nxt[:-2]
        steps = []
        for d in deleted:
            if not 0 <= d < n or nxt[d] < 0:
                raise IllegalStep(f"deleted position {d} is not a live letter")
            l, r = prv[d], nxt[d]
            steps.append((prv[r], l, r))  # prv[r] is d
            nxt[l], prv[r], nxt[d] = r, l, -1
        return tuple(steps), tuple(final)

    @property
    def terminal(self) -> tuple[int, ...]:
        return self._recorded[1]

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        return self._recorded[0]

    def __len__(self) -> int:
        return max(len(self._letters) - 2, 0)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.steps)

    def __repr__(self) -> str:
        return f"ContractionTrace({len(self)} steps)"


def _window_repeats(a: str, b: str, c: str) -> bool:
    return a == b or b == c or a == c


def _reduce_cyclic(codes: bytes) -> tuple[bool, array, array]:
    """The recording kernel behind ContractionTrace: _stuck_codes's reduction
    with positions.

    Works on the word's letter codes and returns (contractible, deleted,
    final), two arrays of original positions: the deleted letters in
    deletion order, which ContractionTrace walks for their neighbors, and
    the survivors in order.  The stack of _stuck_codes, sentinels and all,
    keeps each stacked letter's position in pos beside it.  Reduction stops
    as soon as the live word has length 2 (or 1), so on success deleted has
    exactly n - len(final) positions.
    """
    col = bytearray(b"\xff\xfe")
    pos = array("q", (-1, -1))
    deleted = array("q")
    # live: the letters not deleted, those on the stack and those still to come
    live = len(codes)
    for i, c in enumerate(codes):
        if live > 2 and c == col[-2]:
            # x,y,x: the middle letter's neighbors repeat; drop it
            deleted.append(pos.pop())
            col.pop()
            live -= 1
        if live > 2 and c == col[-1]:
            # equal pair: drop the newer letter
            deleted.append(i)
            live -= 1
        else:
            col.append(c)
            pos.append(i)

    # Seam pass: the stack is fully reduced in its interior, so the only
    # candidate deletions sit next to the wrap-around.
    head, tail = 2, len(col) - 1
    while tail - head + 1 > 2:
        if col[tail] == col[head] or col[tail] == col[head + 1]:
            deleted.append(pos[head])
            head += 1
        elif col[tail - 1] == col[head]:
            deleted.append(pos[tail])
            tail -= 1
        else:
            return False, deleted, pos[head : tail + 1]
    return True, deleted, pos[head : tail + 1]


_CHUNK = 8192  # letters the verdict pass encodes at a time


def _stuck_codes(letters: str) -> bytes | None:
    """The verdict pass: None when the word is contractible, else the codes
    of its stuck word.

    Reads the ASCII letters _CHUNK at a time as codes.  A code equal to the
    stack top is skipped, and one equal to the code below the top pops the
    top (x,y,x -> x); the stack, a bytearray of one byte per letter, then
    holds the freely reduced word, and a seam pass runs across the
    wrap-around.  _reduce_cyclic is this pass with positions and recorded
    deletions; on failure the stack holds the same codes as its survivors.
    """
    # The top two codes live in below and top, off the bytearray, so a pop
    # is one call; they start as sentinel codes that equal no ASCII code,
    # which end up in slots 0 and 1.
    stack = bytearray()
    push, pop = stack.append, stack.pop
    below, top = 0xFF, 0xFE
    for i in range(0, len(letters), _CHUNK):
        for c in letters[i : i + _CHUNK].encode("ascii"):
            if c == top:
                continue
            if c == below:
                top, below = c, pop()
            else:
                push(below)
                below, top = top, c
    push(below)
    push(top)

    head, tail = 2, len(stack) - 1
    while tail - head + 1 > 2:
        if stack[tail] == stack[head] or stack[tail] == stack[head + 1]:
            head += 1
        elif stack[tail - 1] == stack[head]:
            tail -= 1
        else:
            return bytes(memoryview(stack)[head : tail + 1])
    return None


def decide_contractible(w: CyclicWord) -> tuple[bool, ContractionTrace | CyclicWord]:
    """Decide contractibility in linear time, with one verdict pass.

    Returns (True, trace), where trace computes the full deletion sequence
    down to at most two letters on first use, or (False, stuck), where stuck
    is the live cyclic word at the point no contracting step applies anywhere.
    """
    stuck = _stuck_codes(w.letters)
    if stuck is None:
        return True, ContractionTrace(w.letters)
    return False, CyclicWord(stuck.decode("ascii"))


def stuck_positions(w: CyclicWord) -> array:
    """The original positions of the stuck word's letters in the
    non-contractible w, in order: the recording kernel's survivor array,
    which spells the word the verdict pass's stack holds."""
    return _reduce_cyclic(w.letters.encode("ascii"))[2]


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
