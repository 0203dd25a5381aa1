"""Timing harness for the contractibility decider.

Generates seeded random words, times decide_contractible on each, and fits
time against length by least squares; the decider is linear, so the
per-decade time ratios stay near 10 and the fit is tight.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .words import CyclicWord, decide_contractible


@dataclass
class BenchRow:
    length: int
    seconds: float


def random_word(n: int, seed: int = 0) -> CyclicWord:
    rng = random.Random(seed)
    return CyclicWord("".join(rng.choices("ABCD", k=n)))


def _repeats(n: int) -> int:
    return max(3, min(20, 2_000_000 // max(n, 1)))


def time_decide(w: CyclicWord) -> float:
    """Best-of-N wall time of one decision, in seconds."""
    best = float("inf")
    for _ in range(_repeats(len(w))):
        t0 = time.perf_counter()
        decide_contractible(w)
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(lengths: list[int], seed: int = 0) -> list[BenchRow]:
    return [BenchRow(n, time_decide(random_word(n, seed=seed + n))) for n in lengths]


def linear_fit(rows: list[BenchRow]) -> tuple[float, float, float]:
    """(slope seconds/letter, intercept seconds, r^2) over the rows."""
    pts = [(r.length, r.seconds) for r in rows]
    m = len(pts)
    if m < 2:
        return 0.0, pts[0][1] if pts else 0.0, 1.0
    mean_n = sum(n for n, _ in pts) / m
    mean_t = sum(t for _, t in pts) / m
    sxx = sum((n - mean_n) ** 2 for n, _ in pts)
    sxy = sum((n - mean_n) * (t - mean_t) for n, t in pts)
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_t - slope * mean_n
    ss_res = sum((t - (slope * n + intercept)) ** 2 for n, t in pts)
    ss_tot = sum((t - mean_t) ** 2 for n, t in pts)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, intercept, r2


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
