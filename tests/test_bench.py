import gc
import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from latticediss.bench import BenchRow, format_table, linear_fit, random_word, run_bench
from latticediss.dissect import Dissection, parse_dissection_json
from latticediss.geometry import validate_convex
from latticediss.verify import poof, verify_dissection
from test_complexity import line_events

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402


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


def test_scale_record_names_no_local_path(tmp_path, monkeypatch):
    # tools/scale.py writes --parent's value as PARENT and --out's as its
    # file name, and names each tree it measured by a digest of its source.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("scale", root / "tools" / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    monkeypatch.setattr(scale, "mode_poof", lambda args, trees, work: iter(
        [({"count": 250}, lambda name, tree: ({}, ""))]))
    parent = tmp_path / "parent"
    (parent / "src" / "latticediss").mkdir(parents=True)
    (parent / "src" / "latticediss" / "words.py").write_text("# an older words.py\n")
    out = tmp_path / "scale.json"
    assert scale.main(["--mode", "poof", "--pairs", "3", f"--parent={parent}/",
                       "--out", str(out)]) == 0
    record = json.loads(out.read_text())["poof"]
    assert record["command"] == (
        "python3 tools/scale.py --mode poof --pairs 3 --parent PARENT --out scale.json")
    assert record["trees"] == {"parent": scale.source_digest(parent),
                               "change": scale.source_digest(root)}
    assert len(set(record["trees"].values())) == 2


def test_committed_scale_records_name_no_local_path():
    # each committed record's command is a tools/scale.py run that a reader
    # can repeat: the parent tree is PARENT, and --out, like every other
    # value, is no path
    records = json.loads((ROOT / "BENCH_scale.json").read_text())
    assert records
    for mode, record in records.items():
        words = record["command"].split()
        assert words[:2] == ["python3", "tools/scale.py"], mode
        assert len(words) % 2 == 0 and all(w.startswith("--") for w in words[2::2]), mode
        options = dict(zip(words[2::2], words[3::2]))
        assert options.get("--parent", "PARENT") == "PARENT", mode
        assert not any("/" in value for value in options.values()), mode


def _scale():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    return scale


@pytest.mark.parametrize("argv, size, pairs", [
    (["--sides", "4,8", "--pairs", "2"], "side", 2),
    (["--mode", "startup", "--pairs", "1"], "letters", 1),
], ids=["squares", "startup"])
def test_scale_runs_against_this_tree(argv, size, pairs, capsys):
    # every mode goes through one loop: each tree holds one value per round
    # and a median for every figure, and each result names its size
    assert _scale().main([*argv, "--parent", str(ROOT)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["problems"] == []
    for result in record["results"]:
        assert next(iter(result)) == size
        assert set(result["runs"]) == {"parent", "change"}
        for runs in result["runs"].values():
            figures = [f for f in runs if not f.endswith("_median")]
            assert figures and all(len(runs[f]) == pairs for f in figures)
            assert set(runs) == {*figures, *(f"{f}_median" for f in figures)}


def test_scale_summary_of_a_tree_with_no_figures_at_the_smallest_size():
    # a dissect that fails at the smallest side leaves that tree's runs empty
    fig = {"dissect_s": [1.0], "dissect_s_median": 1.0}
    results = [{"side": 4, "runs": {"parent": {}, "change": fig}},
               {"side": 8, "runs": {"parent": fig, "change": fig}}]
    assert _scale().summary(results) == {
        "parent_growth": {}, "change_growth": {"dissect_s_median": 1.0},
        "change_over_parent": {"4": {}, "8": {"dissect_s_median": 1.0}}}


def test_scale_medians_are_rounded():
    # canned rounds, no child: the mean of two middle values is written as
    # its decimal, not as the float sum's noise (16.200000000000003)
    scale = _scale()
    rounds = {"parent": iter([16.1, 16.3]), "change": iter([0.1, 0.2])}
    result, problems = scale.measure(
        {"parent": ROOT, "change": ROOT}, {"side": 200}, 2,
        lambda name, tree: ({"dissect_mb": next(rounds[name]), "poofed_tris": 5}, ""))
    assert problems == []
    assert json.dumps(result["runs"]) == json.dumps({
        "parent": {"dissect_mb": [16.1, 16.3], "poofed_tris": [5, 5],
                   "dissect_mb_median": 16.2, "poofed_tris_median": 5.0},
        "change": {"dissect_mb": [0.1, 0.2], "poofed_tris": [5, 5],
                   "dissect_mb_median": 0.15, "poofed_tris_median": 5.0}})


def test_scale_startup_fails_when_filling_the_cache_fails(monkeypatch, capsys):
    # canned children: the first, decide filling the cache, exits 3; every
    # timed child succeeds
    scale = _scale()
    calls = []
    outputs = {"decide": "contractible\n", "verify": '{"valid": true}\n', "-c": ""}

    def run(tree, args, **env):
        calls.append(args)
        out = next(out for cmd, out in outputs.items() if cmd in args)
        return 0.1, 10.0, 3 if len(calls) == 1 else 0, out

    monkeypatch.setattr(scale, "run", run)
    assert scale.main(["--mode", "startup", "--pairs", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == [
        "change decide (filling the cache) exited 3 with 'contractible\\n' at letters 4"]
    assert len(calls) == 3  # the cache-filling runs; no round runs a child after that


@pytest.mark.parametrize("out, valid", [
    ('{"valid": true, "checks": []}\n', True), ('{"valid": false}\n', False),
    ("[]\n", False), ("", False), ('{"valid": 1}', False)])
def test_scale_startup_verify_child_must_print_a_valid_report(out, valid):
    assert _scale().STARTUP_OUTPUT["verify"](out) is valid


def test_scale_ratio_over_a_zero_median_is_null():
    # canned results, no child: a growth or change-over-parent ratio whose
    # base median is 0 is written null, not left out
    def runs(gen0, us):
        return {"gen0_per_tri": [gen0], "gen0_per_tri_median": gen0,
                "us_per_tri": [us], "us_per_tri_median": us}

    results = [{"count": 250, "runs": {"parent": runs(0.5, 4.0), "change": runs(0.0, 2.0)}},
               {"count": 64000, "runs": {"parent": runs(0.25, 4.0), "change": runs(0.0, 3.0)}}]
    summary = _scale().summary(results)
    assert summary == {
        "parent_growth": {"gen0_per_tri_median": 0.5, "us_per_tri_median": 1.0},
        "change_growth": {"gen0_per_tri_median": None, "us_per_tri_median": 1.5},
        "change_over_parent": {"250": {"gen0_per_tri_median": 0.0, "us_per_tri_median": 0.5},
                               "64000": {"gen0_per_tri_median": 0.0, "us_per_tri_median": 0.75}}}
    assert '"change_growth": {"gen0_per_tri_median": null' in json.dumps(summary)
    results[0]["runs"]["parent"]["gen0_per_tri_median"] = 0
    assert _scale().summary(results)["change_over_parent"]["250"]["gen0_per_tri_median"] is None


def test_scale_poof_child_counts_as_in_process(tmp_path):
    # the poof child's untimed figures follow its timed poofs, and are the
    # line events, gen-0 collections and memory peak of one poof, and what
    # the read dissection holds, counted here
    scale = _scale()
    req = inputs.foreign_request(random.Random(250), 250, "valid", True)
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"polygon": req.polygon, "triangles": req.triangles}))
    _, _, code, out = scale.run(ROOT, ["-c", scale.POOF_CHILD, str(path), "2",
                                       str(ROOT / "tests")])
    assert code == 0
    child = json.loads(out)
    P = validate_convex([tuple(p) for p in req.polygon])
    seen = {}  # one tuple per point, as the child reads the request
    tris = tuple(tuple(seen.setdefault(p, p) for p in map(tuple, t))
                 for t in json.loads(path.read_text())["triangles"])
    assert len(poof(P, Dissection(tris))[0].triangles) == child["poofed"]
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    poof(P, Dissection(tris))
    assert child["gen0_per_tri"] == (gc.get_stats()[0]["collections"] - before) / len(tris)
    assert child["line_events_per_tri"] == line_events(poof, P, Dissection(tris)) / len(tris)
    text = path.read_text()
    parse_dissection_json(text)  # fills the caches, as the child's first read does
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read = parse_dissection_json(text)[1]
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    verify_dissection(P, read)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = poof(P, read)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(result[0].triangles) == child["poofed"]
    assert (child["peak_b_per_tri"], child["peak_over_read"]) == (peak / len(tris), peak / size)
