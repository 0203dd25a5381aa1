import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import latticediss
from latticediss import cli, words
from latticediss.cli import main
from latticediss.dissect import dissection_to_json, unit_dissection
from latticediss.geometry import boundary_word, parse_polygon_json
from latticediss.words import CyclicWord, decide_contractible

GOLDEN = Path(__file__).parent / "golden"

SQUARE = "[[0,0],[1,0],[1,1],[0,1]]"
TRIANGLE = "[[0,0],[4,0],[0,1]]"
RECT35 = "[[0,0],[3,0],[3,5],[0,5]]"
HALF_SPLIT = json.dumps({
    "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "triangles": [[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]],
})


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(SQUARE)
    return str(p)


def test_decide_words(tmp_path, capsys):
    stuck = "stuck: ABCDACBADC\nstuck positions: 0 1 2 3 4 5 6 7 8 9\n"
    assert main(["decide", "ABCDACBADC"]) == 10
    assert capsys.readouterr() == ("not-contractible\n", stuck)
    assert main(["decide", "ABABCCDCBBDB"]) == 0
    assert capsys.readouterr().out.strip() == "contractible"
    # the same refusal through the module entry point
    proc = _run_cli_to(subprocess.PIPE, ["decide", "ABCDACBADC"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (10, "not-contractible\n", stuck)


def test_decide_reports_stuck_word(capsys):
    assert main(["decide", "AABCADBCD"]) == 10
    out, err = capsys.readouterr()
    assert out == "not-contractible\n"
    assert err == "stuck: ABCADBCD\nstuck positions: 0 2 3 4 5 6 7 8\n"
    assert main(["decide", "ABABCCDCBBDB"]) == 0
    assert capsys.readouterr().err == ""


def test_decide_stuck_positions_spell_the_stuck_word(capsys):
    rng = random.Random("stuck-positions")
    seen = 0
    for _ in range(300):
        w = "".join(rng.choice("ABCD") for _ in range(rng.randint(3, 60)))
        if main(["decide", w]) == 0:
            capsys.readouterr()
            continue
        stuck_line, positions_line = capsys.readouterr().err.splitlines()
        stuck = stuck_line.removeprefix("stuck: ")
        positions = [int(i) for i in positions_line.removeprefix("stuck positions: ").split()]
        assert "".join(w[i] for i in positions) == stuck
        # spelled from the recording kernel's survivors, it is the verdict pass's word
        assert str(decide_contractible(CyclicWord(w))[1]) == stuck
        assert positions == sorted(set(positions))
        seen += 1
    assert seen > 100


def test_decide_polygon(square_file, capsys):
    assert main(["decide", "--polygon", square_file]) == 10
    out, err = capsys.readouterr()
    assert "word ABCD" in out and "not-contractible" in out
    assert err == ("stuck: ABCD\nstuck positions: 0 1 2 3\n"
                   "stuck corners: [[0, 0], [1, 0], [1, 1], [0, 1]]\n")


def test_decide_rejects_bad_word(capsys):
    assert main(["decide", "AB1"]) == 2
    assert "error" in capsys.readouterr().err


def test_decide_needs_exactly_one_input(square_file, capsys):
    for argv in (["decide", "ABCD", "--polygon", square_file], ["decide"],
                 ["decide", "ABCD", "--polygon", ""]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: decide needs exactly one of WORD or --polygon FILE\n"


@pytest.mark.parametrize("args", [
    ["verify", "--mode", "bogus", "a", "b"],
    ["dissect"],
    ["realize", "ABCD", "--bound", "x"],
    ["frobnicate"],
    [],
    ["decide"],
    ["decide", "ABCD", "--polygon", "p.json"],
    ["verify", "--diagnostics", "a", "b"],
], ids=["verify-bad-mode", "dissect-no-polygon", "realize-bound-not-int", "unknown-command",
        "no-command", "decide-neither", "decide-both", "verify-removed-flag"])
def test_usage_error_is_one_line(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def test_decide_polygon_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(SQUARE))
    assert main(["decide", "--polygon", "-"]) == 10
    assert "ABCD" in capsys.readouterr().out


def test_dissect_impossible(square_file, capsys):
    for unit in ([], ["--unit"]):
        assert main(["dissect", square_file, *unit]) == 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("no integral dissection exists (word ABCD not contractible)\n"
                       "stuck: ABCD\nstuck positions: 0 1 2 3\n"
                       "stuck corners: [[0, 0], [1, 0], [1, 1], [0, 1]]\n")


def test_dissect_refusal_decides_once(square_file, monkeypatch, capsys):
    calls = {"verdict": 0, "recording": 0}

    def counted(name, fn):
        def wrapper(codes):
            calls[name] += 1
            return fn(codes)
        return wrapper

    monkeypatch.setattr(words, "_stuck_codes", counted("verdict", words._stuck_codes))
    monkeypatch.setattr(cli, "_reduce_cyclic", counted("recording", cli._reduce_cyclic))
    assert main(["dissect", square_file]) == 10
    capsys.readouterr()
    assert calls == {"verdict": 1, "recording": 1}


def test_dissect_verify_roundtrip(tmp_path, capsys):
    # Each written file is pinned by its hash, so a change to refine's piece
    # order or to the writer shows here.
    for polygon, pieces, sha256 in [
        (TRIANGLE, 2, "11ad3f2c76199770d938cfa7985affb0f972e346fa025a9fa2688a6bfd354b50"),
        ("[[0, 0], [4, 0], [3, 2], [0, 2]]", 7,
         "9059095c151889f43c8d4f8d69c5c150db6df52728cfe98dbd9016caceea9491"),
    ]:
        poly = tmp_path / "poly.json"
        poly.write_text(polygon)
        out = tmp_path / "diss.json"
        assert main(["dissect", str(poly), "--unit", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        text = out.read_text()
        assert len(json.loads(text)["triangles"]) == pieces
        assert main(["dissect", str(poly), "--unit"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == text + "\n"
        # The copy from stdout keeps the writer's layout; copies in the layouts
        # of `python -m json.tool` and of its --compact go through the general
        # parser.  Every copy must give the same unit-mode report, which
        # accepts the dissection.
        data = json.loads(text)
        copies = {"stdout.json": stdout, "pretty.json": json.dumps(data, indent=4) + "\n",
                  "compact.json": json.dumps(data, separators=(",", ":")) + "\n"}
        for name, copy in copies.items():
            (tmp_path / name).write_text(copy)
        reports = []
        for name in ["diss.json", *copies]:
            assert main(["verify", str(poly), str(tmp_path / name), "--mode", "unit"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports == [reports[0]] * 4
        assert json.loads(reports[0])["valid"] is True


def test_dissect_without_output_writes_stdout(tmp_path, capsys):
    poly = tmp_path / "tri.json"
    poly.write_text(TRIANGLE)
    assert main(["dissect", str(poly), "--unit"]) == 0
    P = parse_polygon_json(TRIANGLE)
    assert capsys.readouterr().out == dissection_to_json(P, unit_dissection(P)) + "\n"


def test_dissect_integral_dodecagon(tmp_path, capsys):
    poly = tmp_path / "dodeca.json"
    assert main(["realize", "ABABCCDCBBDB", "-o", str(poly)]) == 0
    assert boundary_word(parse_polygon_json(poly.read_text())) == CyclicWord("ABABCCDCBBDB")
    out = tmp_path / "diss.json"
    assert main(["dissect", str(poly), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["triangles"]) == 10
    assert main(["verify", str(poly), str(out), "--mode", "integral"]) == 0
    capsys.readouterr()


def test_dissect_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[0,0],[1,0]]")
    assert main(["dissect", str(bad)]) == 2
    assert main(["dissect", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_verify_invalid_modes(square_file, tmp_path, capsys):
    diss = tmp_path / "half.json"
    diss.write_text(HALF_SPLIT)
    assert main(["verify", square_file, str(diss), "--mode", "any"]) == 0
    assert main(["verify", square_file, str(diss), "--mode", "integral"]) == 11
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not report["valid"]


def test_verify_truncated_dissection(square_file, tmp_path, capsys):
    diss = tmp_path / "short.json"
    diss.write_text(json.dumps({"triangles": [[[0, 0], [1, 0], [1, 1]]]}))
    assert main(["verify", square_file, str(diss)]) == 11
    report = json.loads(capsys.readouterr().out)
    names = {c["name"]: c["passed"] for c in report["checks"]}
    assert names["area-sum"] is False


@pytest.mark.parametrize("triangles", [
    [[[0, 0], [2, 0], [2, 2]], [[0, 0], [2, 0], [2, 2]]],
    [[[0, 0], [2, 0], [2, 2]], [[0, 0], [2, 0], [0, 2]]],
    [[[0, 0], [0, 0], [2, 2]], [[0, 0], [2, 0], [2, 2]], [[0, 0], [2, 2], [0, 2]]],
], ids=["two-copies", "crossed-halves", "repeated-vertex"])
@pytest.mark.parametrize("mode", ["any", "integral", "unit"])
def test_verify_rejects_overlap_and_degenerate(triangles, mode, tmp_path, capsys):
    poly = tmp_path / "square2.json"
    poly.write_text("[[0,0],[2,0],[2,2],[0,2]]")
    diss = tmp_path / "d.json"
    diss.write_text(json.dumps({"triangles": triangles}))
    assert main(["verify", str(poly), str(diss), "--mode", mode]) == 11
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False


def test_witness(square_file, tmp_path, capsys):
    diss = tmp_path / "half.json"
    diss.write_text(HALF_SPLIT)
    assert main(["witness", square_file, str(diss)]) == 0
    assert capsys.readouterr().out == (
        '{"triangle": [[0, 0], [1, 0], [1, 1]], "doubled_area": 1, "area": "1/2"}\n')


def test_witness_contractible_polygon_rejected(tmp_path, capsys):
    poly = tmp_path / "tri.json"
    poly.write_text("[[0,0],[2,0],[1,1]]")
    diss = tmp_path / "d.json"
    diss.write_text(json.dumps({"triangles": [[[0, 0], [2, 0], [1, 1]]]}))
    assert main(["witness", str(poly), str(diss)]) == 2
    assert "contractible" in capsys.readouterr().err


def test_sperner_cli(capsys):
    assert main(["sperner", "ABCDACBADC"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["triangulations_examined"] == 1430
    assert data["tricolor_free"] == 0
    assert main(["sperner", "AAB"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["triangulations_examined"] == 1 and data["tricolor_free"] == 1
    # a 16-gon, past the old 12-letter enumeration cap
    assert main(["sperner", "ABABCCDCBBDBABAB"]) == 0
    assert capsys.readouterr().out == (
        '{"word": "ABABCCDCBBDBABAB", "contractible": true, "triangulations_examined": 2674440, '
        '"tricolor_free": 145224, "biconditional": "ok", '
        '"star_tricolor": {"A": true, "B": true, "C": true, "D": true}}\n')
    assert main(["sperner", "A" * 201]) == 2
    assert capsys.readouterr().err == "error: sperner check supports words up to length 200, got 201\n"


def test_render_golden_square(square_file, tmp_path):
    out = tmp_path / "sq.svg"
    assert main(["render", square_file, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "square.svg").read_bytes()


def test_render_golden_pentagon(tmp_path):
    poly = tmp_path / "pent.json"
    poly.write_text("[[0,0],[4,0],[5,2],[2,4],[0,2]]")
    out = tmp_path / "pent.svg"
    assert main(["render", str(poly), str(GOLDEN / "pentagon_diss.json"), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "pentagon.svg").read_bytes()


# Each case gives the argv and a piece of text its error message must contain.
@pytest.mark.parametrize("args, named", [
    (["verify", "SQUARE", '{"triangles": [5]}'], "entry 5 "),
    (["verify", "SQUARE", '{"triangles": 5}'], '"triangles"'),
    (["verify", "SQUARE", '{"triangles": [[null, [1, 0], [1, 1]]]}'], "lattice point None "),
    (["verify", "SQUARE", '{"polygon": 5, "triangles": []}'], '"polygon"'),
    (["dissect", "TRIANGLE", "-o", "UNWRITABLE"], "no-such-dir"),
    (["render", "SQUARE", "-o", "UNWRITABLE"], "no-such-dir"),
    (["realize", "ABCD", "-o", "UNWRITABLE"], "no-such-dir"),
    (["verify", "SQUARE", "DEEP"], "nested too deeply"),
    (["decide", "--polygon", "DEEP"], "nested too deeply"),
    (["render", "[[0,0],[1000000000,0],[0,1]]", "-o", "OUT"], "1000000000 x 1"),
    (["decide", "--polygon", "[[0,0],[1],[0,1]]"], "[1] "),
    (["verify", "SQUARE", '{"triangles": [[[0,0],[2,0],[2,2,5]]]}'], "[2, 2, 5]"),
    (["verify", "SQUARE", '{"polygon": [[0,0,1]], "triangles": []}'], "[0, 0, 1]"),
    (["bench", "--lengths", "0"], "--lengths"),
    (["bench", "--lengths", "abc"], "--lengths"),
    (["realize", "ABCD", "--bound", "-1"], "--bound"),
    (["decide", ""], "words must be nonempty strings over A-Z, got ''"),
    (["verify", "SQUARE", '{"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]], '
      '"triangles": [[[0, 0], [1, 0], [1.5, 1]]]}'], "[1.5, 1]"),
    (["decide", "--polygon", ""], "cannot read "),
], ids=["triangle-number", "triangles-number", "null-vertex", "polygon-number",
        "dissect-unwritable", "render-unwritable", "realize-unwritable",
        "verify-deep-json", "decide-deep-json", "render-huge-polygon", "polygon-entry-not-pair",
        "triangle-vertex-not-pair", "polygon-vertex-not-pair", "bench-lengths-zero",
        "bench-lengths-not-int", "realize-bound-negative", "decide-empty-word",
        "written-layout-float", "decide-empty-polygon-path"])
def test_malformed_input_exits_2(args, named, tmp_path, capsys):
    files = {"SQUARE": SQUARE, "TRIANGLE": TRIANGLE, "DEEP": "[" * 10**5 + "]" * 10**5}
    argv = []
    for i, a in enumerate(args):
        if a in files or a.startswith(("{", "[")):
            path = tmp_path / f"in{i}.json"
            path.write_text(files.get(a, a))
            a = str(path)
        elif a == "UNWRITABLE":
            a = str(tmp_path / "no-such-dir" / "out")
        elif a == "OUT":
            a = str(tmp_path / "out")
        argv.append(a)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "out").exists()


def _run_cli_to(stdout, args, tmp_path, unbuffered=False):
    """Run the CLI as a module with stdout sent to the file descriptor stdout."""
    files = {"TRIANGLE": TRIANGLE, "SQUARE": SQUARE, "HALF_SPLIT": HALF_SPLIT}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(Path(latticediss.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "latticediss.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


def _assert_stdout_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout") and proc.stderr.count("\n") == 1, \
        proc.stderr


CLI_WRITES = pytest.mark.parametrize(
    "args", [["dissect", "TRIANGLE", "--unit"], ["verify", "SQUARE", "HALF_SPLIT"], ["decide", "ABCD"]],
    ids=["dissect", "verify", "decide"])


@pytest.mark.parametrize("unbuffered", [False, True])
@CLI_WRITES
def test_closed_stdout_exits_2(args, unbuffered, tmp_path):
    # a pipe whose read end is closed, as after `latticediss ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_to(write_end, args, tmp_path, unbuffered)
    finally:
        os.close(write_end)
    _assert_stdout_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@CLI_WRITES
def test_full_stdout_exits_2(args, tmp_path):
    # every write to /dev/full fails with ENOSPC, as on a full disk
    with open("/dev/full", "w") as full:
        _assert_stdout_error(_run_cli_to(full, args, tmp_path))


def test_render_refuses_polygons_beyond_max_span(tmp_path, capsys):
    for span, code in [(1000, 0), (1001, 2)]:
        poly, out = tmp_path / f"p{span}.json", tmp_path / f"p{span}.svg"
        poly.write_text(json.dumps([[0, 0], [0, -span], [1, 0]]))
        assert main(["render", str(poly), "-o", str(out)]) == code
        assert out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert err == ("error: polygon spans 1 x 1001 lattice units; "
                   "render draws at most 1000 in each direction\n")


def test_render_bad_file(tmp_path, capsys):
    assert main(["render", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()


def test_bench_cli(capsys):
    assert main(["bench", "--lengths", "500,1000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "time(1000)/time(500)" in out and "least-squares fit" in out
    assert main(["bench", "--lengths", ""]) == 0
    out = capsys.readouterr().out
    assert out.split() == ["length", "seconds", "ns/letter"]  # header-only table


def test_realize_cli(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["realize", "ABCD", "-o", str(out)]) == 0
    P = parse_polygon_json(out.read_text())
    assert boundary_word(P) == CyclicWord("ABCD")
    assert main(["realize", "ABCD"]) == 0
    assert capsys.readouterr().out == "[[0, 0], [1, 0], [3, 1], [2, 1]]\n"
    # a small bound steers the search to a polygon that fits
    assert main(["realize", "ABCD", "--bound", "1"]) == 0
    assert capsys.readouterr().out == "[[0, 0], [1, 0], [1, 1], [0, 1]]\n"
    # pinned, so a change to the search order shows here
    assert main(["realize", "ABABCCDCBBDB"]) == 0
    assert capsys.readouterr().out == ("[[0, -4], [1, -4], [4, -2], [5, 0], [5, 1], [3, 3], "
                                       "[0, 5], [-1, 5], [-3, 4], [-5, 2], [-4, -1], [-3, -2]]\n")
    # letters without a parity color give the impossible exit code
    assert main(["realize", "XYZW"]) == 10
    assert capsys.readouterr().err == ("no lattice polygon realizes XYZW: letters WXYZ have "
                                       "no parity color (the colors are A-D)\n")
    # a colored word with no polygon inside the bound also gives it
    assert main(["realize", "ABABCCDCB", "--bound", "1"]) == 10
    assert capsys.readouterr() == ("", "no convex lattice polygon realizing ABABCCDCB found "
                                       "within bound\n")


@pytest.mark.skipif(shutil.which("latticediss") is None, reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(
        ["latticediss", "decide", "ABCDACBADC"], capture_output=True, text=True
    )
    assert proc.returncode == 10
    assert proc.stdout.strip() == "not-contractible"
