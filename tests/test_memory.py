"""Memory guard: the CLI's dissect --unit and verify --mode unit, in process,
on the n x n and 2n x 2n squares under tracemalloc.

Both commands work on one slice of the triangles array at a time, so their
tracemalloc peaks must not follow the triangle count, which grows fourfold:
each peak may grow by less than GROWTH.  The peaks are exact on a given
Python version.  What verify keeps between slices is the sides no triangle
has cancelled yet, on a square its boundary's 4n unit sides, about 0.1 MB at
n = 200 against about 1.2 MB for a slice's work; so n stays small enough
for that to be a small part of the peak.  Up to a side of 256 every
coordinate is a small int that CPython caches, so the sizes compare like
with like.
"""

import contextlib
import io
import json
import tracemalloc

from latticediss.cli import main

N = 100
GROWTH = 1.10


def peak_mb(argv) -> float:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_cli_peaks_do_not_grow_with_the_triangles(tmp_path):
    peaks = {}
    for side in (N, N, 2 * N):  # the first run warms up what is built once
        poly, diss = tmp_path / f"p{side}.json", tmp_path / f"d{side}.json"
        poly.write_text(json.dumps([[0, 0], [side, 0], [side, side], [0, side]]))
        peaks[side] = (peak_mb(["dissect", str(poly), "--unit", "-o", str(diss)]),
                       peak_mb(["verify", str(poly), str(diss), "--mode", "unit"]))
    for name, small, large in zip(("dissect", "verify"), peaks[N], peaks[2 * N]):
        assert large < GROWTH * small, (
            f"{name}: tracemalloc peak {small:.3f} MB at {N * N} triangles and "
            f"{large:.3f} MB at {4 * N * N}")
