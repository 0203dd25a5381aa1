"""Memory guard: the CLI's dissect --unit, verify --mode unit and witness, in
process, on the n x n and 2n x 2n squares under tracemalloc; poof, which
must free its working set before its disk check; decide_contractible,
whose verdict pass holds one byte per stacked letter and one chunk of the
word, and whose trace keeps the word's own letters rather than a copy; and
the CLI's decide on a word that is not contractible, in bytes per letter.

The commands work on one slice of the triangles array at a time, so their
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
import gc
import io
import json
import random
import sys
import tracemalloc
from pathlib import Path

from latticediss import verify
from latticediss.cli import main
from latticediss.dissect import Dissection, dissection_to_json, parse_dissection_json
from latticediss.geometry import parse_polygon_json, validate_convex
from latticediss.words import CyclicWord, decide_contractible

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

N = 100
GROWTH = 1.10


def peak_mb(argv, code=0) -> float:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_cli_peaks_do_not_grow_with_the_triangles(tmp_path):
    peaks = {}
    for side in (N, N, 2 * N):  # the first run warms up what is built once
        poly, diss = tmp_path / f"p{side}.json", tmp_path / f"d{side}.json"
        poly.write_text(json.dumps([[0, 0], [side, 0], [side, side], [0, side]]))
        peaks[side] = (peak_mb(["dissect", str(poly), "--unit", "-o", str(diss)]),
                       peak_mb(["verify", str(poly), str(diss), "--mode", "unit"]),
                       # the square's word is contractible: the file is read through
                       peak_mb(["witness", str(poly), str(diss)], code=2))
    for name, small, large in zip(("dissect", "verify", "witness"), peaks[N], peaks[2 * N]):
        assert large < GROWTH * small, (
            f"{name}: tracemalloc peak {small:.3f} MB at {N * N} triangles and "
            f"{large:.3f} MB at {4 * N * N}")


def test_cli_witness_peak_does_not_grow_with_the_triangles(tmp_path):
    # an odd square, whose word is not contractible, cut into half cells: the
    # file is verified a slice at a time, then read again for the witness
    peaks = {}
    for side in (N + 1, N + 1, 2 * N + 1):
        poly, diss = tmp_path / f"p{side}.json", tmp_path / f"d{side}.json"
        P = validate_convex([(0, 0), (side, 0), (side, side), (0, side)])
        cells = [t for x in range(side) for y in range(side)
                 for t in (((x, y), (x + 1, y), (x + 1, y + 1)),
                           ((x, y), (x + 1, y + 1), (x, y + 1)))]
        poly.write_text(json.dumps(P.vertices))
        diss.write_text(dissection_to_json(P, Dissection(tuple(cells))))
        del cells
        peaks[side] = peak_mb(["witness", str(poly), str(diss)])
    assert peaks[2 * N + 1] < GROWTH * peaks[N + 1], peaks


def test_poof_holds_no_more_than_its_result_at_the_disk_check(monkeypatch):
    # What is in use when poof calls validate_disk must be no more than what
    # its returned (T, points) holds once it returns: the sorted point list
    # stays for the point map, but the triangle set and the point -> id map
    # that built T, about 42 KB here, must be gone by then.  A full
    # collection before each reading empties the free lists, whose blocks
    # tracemalloc counts as in use.
    req = inputs.foreign_request(random.Random(29), 500, "valid", True)
    P = parse_polygon_json(req.polygon_text)
    _, D = parse_dissection_json(req.dissection_text)
    verify.poof(P, D)  # warm up: verification kept on D, caches filled
    at_entry, check = [], verify.validate_disk

    def recording(T):
        gc.collect()
        at_entry.append(tracemalloc.get_traced_memory()[0])
        check(T)

    monkeypatch.setattr(verify, "validate_disk", recording)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = verify.poof(P, D)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(result[0].triangles) > 500 and len(at_entry) == 1
    assert at_entry[0] - base <= held, (
        f"{at_entry[0] - base} bytes in use at the disk check, {held} held by poof's result")


def decide_peak(text: str):
    """(tracemalloc peak in bytes, result) of decide_contractible on text,
    the result kept while the peak is read."""
    w = CyclicWord(text)
    gc.collect()
    tracemalloc.start()
    try:
        result = decide_contractible(w)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_decide_peak_does_not_grow_with_a_contractible_word():
    # A closed tree walk's stack stays about as deep as the tree, and the
    # trace keeps the word's letters: what is left is one chunk of codes.
    peaks = {}
    for n in (25_000, 25_000, 100_000):  # the first run warms up
        peak, (ok, _) = decide_peak(inputs.word_request(random.Random(n), n, "tree").text)
        assert ok
        peaks[n] = peak
    assert peaks[100_000] < GROWTH * peaks[25_000], peaks


def test_decide_peak_on_a_random_word_follows_its_stuck_word():
    # At the peak: the stack, one byte per letter of the freely reduced word,
    # beside one copy of the stuck word, or that copy beside the stuck word's
    # str; and one chunk of codes.
    peak, (ok, stuck) = decide_peak(
        inputs.word_request(random.Random(100_000), 100_000, "random").text)
    assert not ok
    assert peak <= 4 * len(stuck) + 64 * 1024, (
        f"{peak} bytes for a stuck word of {len(stuck)} letters")


def test_cli_decide_refusal_peak_per_letter(tmp_path):
    # decide on a uniform word runs the verdict pass, then the recording
    # kernel for the stuck positions: a byte and an 8-byte position per
    # stacked letter and a position per deletion, about 11 bytes per letter
    # in all, then the stuck lines, a bounded chunk at a time.  Lines that
    # unpack the positions into ints read about 20 bytes per letter, and a
    # kernel that records three ints per deletion about 70.  stderr goes to
    # a file, whose buffer does not grow with it.
    n = 100_000
    w = inputs.word_request(random.Random(5), n, "random").text
    with open(tmp_path / "stderr", "w") as err, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["decide", w]) == 10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 13 * n, f"{peak / n:.1f} bytes per letter"
