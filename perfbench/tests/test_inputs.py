"""The benchmark's generators: same seed, same bytes; labels hold by construction."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.reference import contractible, dissection_error, orient, polygon_area2
from perfbench.workloads import FOREIGN_TRIANGLES, UNIT_AREA2, WORD_LETTERS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def as_bytes(req) -> bytes:
    return json.dumps(req).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = WORKLOADS[name].make
    # Sizes start at the low end of each range: request i sits at quantile i*phi mod 1.
    first = [as_bytes(make(11, i)) for i in range(6)]
    assert first == [as_bytes(make(11, i)) for i in range(6)]
    assert first != [as_bytes(make(12, i)) for i in range(6)]


def test_memory_pass_requests_are_reproducible_and_at_the_top_of_their_range():
    for name in ("unit_pipeline", "foreign_check"):
        wl = WORKLOADS[name]
        assert as_bytes(wl.memory(3)) == as_bytes(wl.memory(3))
    [poly] = WORKLOADS["unit_pipeline"].memory(3)
    assert abs(polygon_area2(poly.vertices) - UNIT_AREA2[1]) <= 0.05 * UNIT_AREA2[1]
    [diss] = WORKLOADS["foreign_check"].memory(3)
    assert len(diss.triangles) >= FOREIGN_TRIANGLES[1]


def test_size_schedule_stays_in_range():
    sizes = [inputs.log_size(i, *WORD_LETTERS) for i in range(200)]
    assert min(sizes) == WORD_LETTERS[0] and max(sizes) <= WORD_LETTERS[1]
    assert sorted(sizes)[100] == pytest.approx(100_000, rel=0.1)  # log-uniform median


def test_tree_walk_words_are_contractible():
    for seed in range(20):
        rng = inputs.rng_for("test", seed, 0)
        n = rng.randrange(3, 400)
        w = inputs.tree_walk_word(rng, n)
        assert len(w) == n and set(w) <= set("ABCD")
        assert contractible(w)


def test_polygons_meet_their_spec():
    for i in range(12):
        req = WORKLOADS["unit_pipeline"].make(5, i)
        vs = req.vertices
        assert 3 <= len(vs) <= 12
        assert json.loads(req.text) == [list(v) for v in vs]
        assert all(orient(vs[k - 1], vs[k], vs[(k + 1) % len(vs)]) > 0 for k in range(len(vs)))
        assert req.contractible == (i % 4 != 3)


def test_foreign_labels():
    for i in range(9):
        req = WORKLOADS["foreign_check"].make(2, i)
        assert req.label == inputs.LABELS[i % 3]
        err = dissection_error(req.polygon, req.triangles)
        assert (err is None) == (req.label == "valid")
        area = sum(orient(*t) for t in req.triangles)
        assert (area == polygon_area2(req.polygon)) == (req.label != "drop")
        data = json.loads(req.dissection_text)
        assert [tuple(map(tuple, t)) for t in data["triangles"]] == list(req.triangles)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    # The benchmark alone, as in a directory holding only its own files.
    subprocess.run(["cp", "-r", str(ROOT / "perfbench"), str(tmp_path)], check=True)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "long_words",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
