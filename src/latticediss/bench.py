"""Timing harness for the contractibility decider.

Generates seeded random words, times decide_contractible on each, and fits
time against length by least squares; the decider is linear, so the
per-decade time ratios stay near 10 and the fit is tight.
"""

from __future__ import annotations

import random
import statistics
import timeit
from collections import namedtuple
from functools import partial

from .words import CyclicWord, decide_contractible


BenchRow = namedtuple("BenchRow", "length seconds")


def random_word(n: int, seed: int = 0) -> CyclicWord:
    rng = random.Random(seed)
    return CyclicWord("".join(rng.choices("ABCD", k=n)))


def _repeats(n: int) -> int:
    return max(3, min(20, 2_000_000 // max(n, 1)))


def time_decide(w: CyclicWord) -> float:
    """Best-of-N wall time of one decision, in seconds, timed with the garbage collector off."""
    return min(timeit.repeat(partial(decide_contractible, w), repeat=_repeats(len(w)), number=1))


def run_bench(lengths: list[int], seed: int = 0) -> list[BenchRow]:
    return [BenchRow(n, time_decide(random_word(n, seed=seed + n))) for n in lengths]


def linear_fit(rows: list[BenchRow]) -> tuple[float, float, float]:
    """(slope seconds/letter, intercept seconds, r^2) over the rows."""
    lengths = [r.length for r in rows]
    times = [r.seconds for r in rows]
    flat = len(set(times)) < 2  # at most one row or equal times: a flat line fits exactly
    if len(set(lengths)) < 2:  # no slope to fit: the mean time
        return 0.0, statistics.fmean(times) if times else 0.0, float(flat)
    slope, intercept = statistics.linear_regression(lengths, times)
    return slope, intercept, 1.0 if flat else statistics.correlation(lengths, times) ** 2


def format_table(rows: list[BenchRow]) -> str:
    lines = [f"{'length':>10} {'seconds':>12} {'ns/letter':>10}"]
    for r in rows:
        lines.append(
            f"{r.length:>10} {r.seconds:>12.6f} {1e9 * r.seconds / max(r.length, 1):>10.1f}"
        )
    ordered = sorted(rows, key=lambda r: r.length)
    for a, b in zip(ordered, ordered[1:]):
        ratio = b.seconds / a.seconds if a.seconds else float("inf")
        lines.append(f"time({b.length})/time({a.length}) = {ratio:.2f}")
    if len(ordered) >= 2:
        slope, intercept, r2 = linear_fit(ordered)
        lines.append(
            f"least-squares fit t = {slope:.3e}*n + {intercept:.3e}  (r^2 = {r2:.4f})"
        )
    return "\n".join(lines)
