import json
from pathlib import Path

import pytest

from latticediss.bench import BenchRow, format_table, linear_fit, random_word, run_bench


def test_random_word_deterministic():
    assert random_word(30, seed=5).letters == random_word(30, seed=5).letters
    assert len(random_word(100, seed=1)) == 100


def test_run_bench_rows():
    rows = run_bench([200, 400], seed=2)
    assert [r.length for r in rows] == [200, 400]
    assert all(r.seconds >= 0 for r in rows)


def test_linear_fit_exact_line():
    rows = [BenchRow(n, 2e-9 * n + 1e-6) for n in (1000, 2000, 4000)]
    slope, intercept, r2 = linear_fit(rows)
    assert abs(slope - 2e-9) < 1e-15
    assert r2 > 0.999999


@pytest.mark.parametrize("pts, fit", [
    ([], (0.0, 0.0, 1.0)),
    ([(5, 1.0)], (0.0, 1.0, 1.0)),
    ([(5, 1.0), (5, 2.0)], (0.0, 1.5, 0.0)),  # one length: no slope, nothing explained
    ([(5, 1.0), (5, 1.0)], (0.0, 1.0, 1.0)),
    ([(1, 1.0), (2, 1.0)], (0.0, 1.0, 1.0)),  # equal times: a flat line fits exactly
], ids=["no-rows", "one-row", "one-length", "one-point-twice", "equal-times"])
def test_linear_fit_degenerate_rows(pts, fit):
    assert linear_fit([BenchRow(n, t) for n, t in pts]) == fit


def test_format_table_contains_ratios():
    rows = [BenchRow(100, 1e-4), BenchRow(1000, 1e-3)]
    table = format_table(rows)
    assert "time(1000)/time(100)" in table and "10.00" in table


def test_bench_pipeline_records_name_revision_workload_and_command():
    root = Path(__file__).resolve().parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    records = json.loads((root / "BENCH_pipeline.json").read_text())["records"]
    assert records
    for r in records:
        assert isinstance(r["revision"], str) and r["revision"]
        assert r["workload"] in workloads
        assert r["command"].startswith("python3 perfbench/run.py ")
        assert f"--workload {r['workload']} " in r["command"]
        assert set(r["end_to_end"]) == metrics
        for m in r["end_to_end"].values():
            assert m["q1"] <= m["median"] <= m["q3"]
