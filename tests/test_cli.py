import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import latticediss
from fuzz_reference import random_dissection
from latticediss import cli, dissect, words
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
# The message of an int of 5,001 digits, over the interpreter's default limit
DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: "
               "value has 5001 digits\n")


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
    ["verify", "--mode", "x" * 100_000, "a", "b"],
    ["realize", "ABCD", "--bound", "x" * 100_000],
], ids=["verify-bad-mode", "dissect-no-polygon", "realize-bound-not-int", "unknown-command",
        "no-command", "decide-neither", "decide-both", "verify-removed-flag",
        "verify-mode-100000-characters", "realize-bound-100000-characters"])
def test_usage_error_is_one_line(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert len(err) < cli._MAX_ERROR, len(err)


def test_decide_polygon_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(SQUARE))
    assert main(["decide", "--polygon", "-"]) == 10
    assert "ABCD" in capsys.readouterr().out


def test_decide_word_stdin(monkeypatch, capsys):
    # A word too long for one command-line argument (Linux caps one at 128 KiB)
    # is read from stdin, with its surrounding whitespace stripped.
    w = "".join(random.Random("decide-stdin").choices("ABCD", k=200_000))
    expected = (main(["decide", w]), capsys.readouterr())
    assert expected[0] == 10 and expected[1].err.startswith("stuck: ")
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"\n {w}\n"))
    assert (main(["decide", "-"]), capsys.readouterr()) == expected
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["decide", "-"]) == 2
    assert capsys.readouterr() == ("", "error: words must be nonempty strings over A-Z, got ''\n")


def test_rejected_short_word_is_echoed_whole(capsys):
    assert main(["decide", "ABxCD"]) == 2
    assert capsys.readouterr() == (
        "", "error: words must be nonempty strings over A-Z, got 'ABxCD'\n")


def test_rejected_long_word_is_echoed_in_part(monkeypatch, capsys):
    # 500,000 letters and one bad character piped into `decide -`: the error
    # line shows the first 80 characters, the length and the bad character.
    monkeypatch.setattr(sys, "stdin", io.StringIO("A" * 300_000 + "a" + "B" * 200_000))
    assert main(["decide", "-"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: words must be nonempty strings over A-Z, got {'A' * 80!r}... "
        "(500001 characters, the first not in A-Z is 'a' at position 300000)\n"))


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
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(words, "_stuck_codes", counted("verdict", words._stuck_codes))
    monkeypatch.setattr(words, "_reduce_cyclic", counted("recording", words._reduce_cyclic))
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


def test_witness_names_the_checks_a_dropped_triangle_fails(square_file, tmp_path, capsys):
    data = json.loads(HALF_SPLIT)
    diss = tmp_path / "dropped.json"
    diss.write_text(json.dumps({"polygon": data["polygon"], "triangles": data["triangles"][1:]}))
    assert main(["witness", square_file, str(diss)]) == 2
    assert capsys.readouterr() == ("", "error: the dissection does not verify against the "
                                   "polygon; failed checks: boundary-chain, area-sum\n")


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


def test_render_legend_lies_inside_the_view_box(square_file, tmp_path):
    # the unit square is narrower than the legend: the canvas widens to hold it
    out = tmp_path / "sq.svg"
    assert main(["render", square_file, "-o", str(out)]) == 0
    svg = ElementTree.parse(out).getroot()
    x0, y0, width, height = map(int, svg.get("viewBox").split())
    ns = "{http://www.w3.org/2000/svg}"
    circles = [c for c in svg.iter(f"{ns}circle") if c.get("cy") == "25"]
    labels = list(svg.iter(f"{ns}text"))
    assert len(circles) == len(labels) == 4
    for c in circles:
        cx, cy, r = (int(c.get(k)) for k in ("cx", "cy", "r"))
        assert x0 <= cx - r and cx + r <= x0 + width and y0 <= cy - r, c.attrib
    for t in labels:  # a monospace glyph is narrower than its font size
        size = int(t.get("font-size"))
        x, y = int(t.get("x")), int(t.get("y"))
        assert x0 <= x and x + size * len(t.text) <= x0 + width and y0 <= y - size, t.attrib


# Each case gives the argv and a piece of text its error message must contain.
@pytest.mark.parametrize("args, named", [
    (["verify", "SQUARE", '{"triangles": [5]}'], "entry 5 "),
    (["verify", "SQUARE", '{"triangles": 5}'], '"triangles"'),
    (["verify", "SQUARE", '{"triangles": [[null, [1, 0], [1, 1]]]}'], "lattice point None "),
    (["verify", "SQUARE", '{"polygon": 5, "triangles": []}'], '"polygon"'),
    (["dissect", "TRIANGLE", "-o", "UNWRITABLE"], "no-such-dir"),
    (["render", "SQUARE", "-o", "UNWRITABLE"], "no-such-dir"),
    (["realize", "ABCD", "-o", "UNWRITABLE"], "no-such-dir"),
    (["verify", "SQUARE", "DEEP"], "in2.json: JSON is nested too deeply"),
    (["decide", "--polygon", "DEEP"], "in2.json: JSON is nested too deeply"),
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
    (["decide", "--polygon", "[[0,0],5,[0,1]]"], "lattice point 5 "),
    (["bench", "--lengths", ""], "--lengths must name at least one length"),
    (["bench", "--lengths", ","], "--lengths must name at least one length"),
    (["bench", "--lengths", "1000,10000001"], "--lengths must be at most 10000000, got 10000001"),
    (["bench", "--lengths", "9" * 5000], "--lengths must be at most 10000000, got 999"),
    (["bench", "--lengths", "x" * 100_000], "--lengths must be positive integers, got 'xxx"),
    (["decide", "--polygon", json.dumps([[0, 0], list(range(200_000)), [0, 1]])],
     "lattice point [0, 1, 2, "),
    (["verify", "SQUARE", json.dumps({"triangles": [list(range(200_000))]})],
     "triangle [0, 1, 2, "),
    (["decide", "--polygon", "NEWLINE"], "no\\nsuch: [Errno 2]"),
    (["verify", "NEWLINE", "SQUARE"], "no\\nsuch: [Errno 2]"),
    (["verify", "SQUARE", "NEWLINE"], "no\\nsuch: [Errno 2]"),
    (["verify", "-", "-"], "cannot both be read from stdin"),
    (["witness", "-", "-"], "cannot both be read from stdin"),
    (["render", "-", "-", "-o", "OUT"], "cannot both be read from stdin"),
    # a JSON syntax error names the file it is in, and stdin (empty here) as stdin
    (["verify", "SQUARE", "EMPTY"], "in2.json: Expecting value: line 1 column 1 (char 0)"),
    (["verify", "EMPTY", "SQUARE"], "in1.json: Expecting value: line 1 column 1 (char 0)"),
    (["decide", "--polygon", "EMPTY"], "in2.json: Expecting value: line 1 column 1 (char 0)"),
    (["decide", "--polygon", "-"], "error: stdin: Expecting value: line 1 column 1 (char 0)"),
    (["verify", "-", "SQUARE"], "error: stdin: Expecting value: line 1 column 1 (char 0)"),
    (["verify", "SQUARE", "-"], "error: stdin: Expecting value: line 1 column 1 (char 0)"),
    (["verify", "SQUARE", "TRUNCATED"], "in2.json: Expecting ',' delimiter: line 1"),
    (["witness", "SQUARE", "TRUNCATED"], "in2.json: Expecting ',' delimiter: line 1"),
    (["render", "SQUARE", "TRUNCATED", "-o", "OUT"], "in2.json: Expecting ',' delimiter: line 1"),
    # a dissection coordinate that is not an exact int, in the writer's layout
    (["verify", "SQUARE", "HALF_FLOAT"], "must be integers, got [0.5, 1]"),
    (["witness", "SQUARE", "HALF_FLOAT"], "must be integers, got [0.5, 1]"),
    (["render", "SQUARE", "HALF_FLOAT", "-o", "OUT"], "must be integers, got [0.5, 1]"),
    (["verify", "SQUARE", "HALF_TRUE"], "must be integers, got [True, 1]"),
    (["witness", "SQUARE", "HALF_TRUE"], "must be integers, got [True, 1]"),
    (["render", "SQUARE", "HALF_TRUE", "-o", "OUT"], "must be integers, got [True, 1]"),
    # an int over the interpreter's digit limit names its file, and the line
    # ends before Python's advice on raising the limit
    (["decide", "--polygon", "BIG"], f"in2.json: {DIGIT_LIMIT}"),
    (["verify", "SQUARE", "HALF_BIG"], f"in2.json: {DIGIT_LIMIT}"),
    (["witness", "SQUARE", "HALF_BIG"], f"in2.json: {DIGIT_LIMIT}"),
    (["render", "SQUARE", "HALF_BIG", "-o", "OUT"], f"in2.json: {DIGIT_LIMIT}"),
], ids=["triangle-number", "triangles-number", "null-vertex", "polygon-number",
        "dissect-unwritable", "render-unwritable", "realize-unwritable",
        "verify-deep-json", "decide-deep-json", "render-huge-polygon", "polygon-entry-not-pair",
        "triangle-vertex-not-pair", "polygon-vertex-not-pair", "bench-lengths-zero",
        "bench-lengths-not-int", "realize-bound-negative", "decide-empty-word",
        "written-layout-float", "decide-empty-polygon-path", "polygon-entry-number",
        "bench-lengths-empty", "bench-lengths-only-comma", "bench-lengths-over-cap",
        "bench-lengths-5000-digits", "bench-lengths-100000-characters",
        "polygon-entry-200000-ints", "triangle-entry-200000-ints",
        "decide-polygon-path-with-newline", "verify-polygon-path-with-newline",
        "verify-dissection-path-with-newline", "verify-both-stdin", "witness-both-stdin",
        "render-both-stdin", "verify-empty-dissection", "verify-empty-polygon",
        "decide-empty-polygon", "decide-empty-stdin-polygon", "verify-empty-stdin-polygon",
        "verify-empty-stdin-dissection", "verify-truncated", "witness-truncated",
        "render-truncated", "verify-float-coordinate", "witness-float-coordinate",
        "render-float-coordinate", "verify-true-coordinate", "witness-true-coordinate",
        "render-true-coordinate", "decide-polygon-5001-digits", "verify-5001-digits",
        "witness-5001-digits", "render-5001-digits"])
def test_malformed_input_exits_2(args, named, tmp_path, monkeypatch, capsys):
    files = {"SQUARE": SQUARE, "TRIANGLE": TRIANGLE, "DEEP": "[" * 10**5 + "]" * 10**5,
             "EMPTY": "", "TRUNCATED": HALF_SPLIT[:-3],
             "HALF_FLOAT": HALF_SPLIT.replace("[1, 0], [1, 1]]", "[1, 0], [0.5, 1]]"),
             "HALF_TRUE": HALF_SPLIT.replace("[1, 0], [1, 1]]", "[1, 0], [true, 1]]"),
             "BIG": f"[[0, 0], [{'1' * 5001}, 0], [0, 1]]",
             "HALF_BIG": HALF_SPLIT.replace("[1, 0], [1, 1]]", f"[1, 0], [{'1' * 5001}, 1]]")}
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
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
        elif a == "NEWLINE":  # a file that is not there, whose name holds a line break
            a = str(tmp_path / "no\nsuch")
        argv.append(a)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert len(err) < cli._MAX_ERROR, len(err)
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


def test_render_checks_the_span_before_reading_the_dissection(tmp_path, monkeypatch, capsys):
    # a polygon beyond MAX_SPAN is refused with neither a streamed nor a whole
    # read of the dissection, so a valid, a bad and a missing file all get
    # the span message
    def whole(path):
        raise AssertionError("read whole")

    reads = _counted_reads(monkeypatch)
    monkeypatch.setattr(dissect, "read_text", whole)
    poly, diss, out = tmp_path / "poly.json", tmp_path / "diss.json", tmp_path / "x.svg"
    poly.write_text("[[0,0],[1001,0],[1001,1],[0,1]]")
    P = parse_polygon_json(poly.read_text())
    halves = dissect.Dissection((((0, 0), (1001, 0), (1001, 1)), ((0, 0), (1001, 1), (0, 1))))
    for text in (dissection_to_json(P, halves), "not json", None):
        diss.unlink(missing_ok=True)
        if text is not None:
            diss.write_text(text)
        assert main(["render", str(poly), str(diss), "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("error: polygon spans 1001 x 1 lattice units; "
                                           "render draws at most 1000 in each direction\n")
        assert not out.exists()
    assert reads == []


def test_bench_cli(capsys):
    assert main(["bench", "--lengths", "500,1000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "time(1000)/time(500)" in out and "least-squares fit" in out
    # no length to time is an error, not a header-only table
    assert main(["bench", "--lengths", ""]) == 2
    assert capsys.readouterr() == ("", "error: --lengths must name at least one length\n")


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


def test_realize_refusal_shows_a_long_word_in_part(capsys):
    # 10,000 letters: each refusal line shows the first 80 and the length,
    # as decide's error line does
    assert main(["realize", "ABCD" * 2500]) == 10
    assert capsys.readouterr() == ("", f"no convex lattice polygon realizing {'ABCD' * 20}... "
                                       "(10000 characters) found within bound\n")
    assert main(["realize", "ABXY" * 2500]) == 10
    assert capsys.readouterr() == ("", f"no lattice polygon realizes {'ABXY' * 20}... "
                                       "(10000 characters): letters XY have no parity color "
                                       "(the colors are A-D)\n")


@pytest.mark.skipif(shutil.which("latticediss") is None, reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(
        ["latticediss", "decide", "ABCDACBADC"], capture_output=True, text=True
    )
    assert proc.returncode == 10
    assert proc.stdout.strip() == "not-contractible"


# --- slices: dissect --unit writes, and verify reads, a slice at a time ---------------

RECT46 = "[[0, 0], [4, 0], [4, 6], [0, 6]]"


def _verify_out(argv, capsys, stdin=None, monkeypatch=None):
    """(exit status, stdout, stderr) of one verify, witness or render run.
    A JSON error names its source first: stderr names the dissection file
    argv[2] as stdin, so that a file and stdin compare alike."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err.replace(f"error: {argv[2]}: ", "error: stdin: ")


@pytest.mark.parametrize("size", [1, 7, 24, 25, 60, 1 << 16])
def test_slices_give_the_whole_text_results(size, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dissect, "_SLICE", size)
    for polygon in (SQUARE, TRIANGLE, "[[0, 0], [4, 0], [3, 2], [0, 2]]"):
        poly = tmp_path / "poly.json"
        poly.write_text(polygon)
        out = tmp_path / "diss.json"
        assert main(["dissect", str(poly), "--unit", "-o", str(out)]) in (0, 10)
        capsys.readouterr()
        if not out.exists():
            continue
        P = parse_polygon_json(polygon)
        D = unit_dissection(P)
        assert out.read_text() == json.dumps({"polygon": P.vertices, "triangles": D.triangles})
        text = out.read_text()
        # whole, one triangle dropped (a failing chain), and one flipped
        tris = json.loads(text)["triangles"]
        variants = [text, json.dumps({"polygon": P.vertices, "triangles": tris[1:]}),
                    json.dumps({"polygon": P.vertices,
                                "triangles": [tris[0][::-1], *tris[1:]]}) + "\n"]
        for variant in variants:
            out.write_text(variant)
            for mode in ("any", "integral", "unit"):
                argv = ["verify", str(poly), str(out), "--mode", mode]
                assert _verify_out(argv, capsys) == _verify_out(
                    argv[:2] + ["-"] + argv[3:], capsys, variant, monkeypatch)


def _counted_reads(monkeypatch):
    """The paths of the streamed reads of dissection files, one per read."""
    reads, real = [], dissect._file_slices
    monkeypatch.setattr(dissect, "_file_slices", lambda path: reads.append(path) or real(path))
    return reads


def test_verify_reads_a_file_again_only_for_a_failing_chain(tmp_path, monkeypatch, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(RECT46)
    out = tmp_path / "diss.json"
    assert main(["dissect", str(poly), "--unit", "-o", str(out)]) == 0
    reads = _counted_reads(monkeypatch)
    data = json.loads(out.read_text())
    for triangles, expected in [(data["triangles"], 1), (data["triangles"][:-1], 2),
                                ([t[::-1] for t in data["triangles"]], 2)]:
        out.write_text(json.dumps({"polygon": data["polygon"], "triangles": triangles}))
        reads.clear()
        code = main(["verify", str(poly), str(out), "--mode", "unit"])
        capsys.readouterr()
        assert len(reads) == expected and code == (0 if expected == 1 else 11)


def test_witness_reads_a_file_once_unless_it_verifies(tmp_path, monkeypatch, capsys):
    # a valid file is read to verify it and again for the witness; one that
    # does not verify is read once, its dropped boundary-chain detail reading
    # nothing more; a file against a contractible-word polygon is not read
    poly, diss = tmp_path / "poly.json", tmp_path / "diss.json"
    reads = _counted_reads(monkeypatch)
    for polygon, drop, code, expected in ((RECT35, 0, 0, 2), (RECT35, 1, 2, 1),
                                          (RECT46, 0, 2, 0), (RECT46, 1, 2, 0)):
        poly.write_text(polygon)
        P = parse_polygon_json(polygon)
        D = random_dissection(P, depth=6, seed=1)
        diss.write_text(dissection_to_json(P, dissect.Dissection(D.triangles[drop:])))
        reads.clear()
        assert main(["witness", str(poly), str(diss)]) == code
        capsys.readouterr()
        assert len(reads) == expected, (polygon, drop)


def test_stdin_is_parsed_once_though_read_twice(tmp_path, monkeypatch, capsys):
    # a dropped triangle's boundary-chain detail and a witness each read the
    # slices a second time; stdin's whole-text parse serves both reads
    parses, real = [], dissect.parse_dissection_json
    monkeypatch.setattr(dissect, "parse_dissection_json",
                        lambda text: parses.append(text) or real(text))
    poly = tmp_path / "poly.json"
    poly.write_text(RECT35)
    P = parse_polygon_json(RECT35)
    D = random_dissection(P, depth=6, seed=1)
    for argv, triangles, code in ((["verify", str(poly), "-"], D.triangles[1:], 11),
                                  (["witness", str(poly), "-"], D.triangles, 0)):
        text = dissection_to_json(P, dissect.Dissection(triangles))
        parses.clear()
        assert _verify_out(argv, capsys, text, monkeypatch)[0] == code
        assert parses == [text], argv


def test_witness_on_a_contractible_polygon_reads_no_dissection(tmp_path, monkeypatch, capsys):
    # the precondition line comes before any read: a missing file and an
    # unreadable stdin both give it
    class Unread(io.StringIO):
        def read(self, *args):
            raise AssertionError("stdin read")

    poly = tmp_path / "poly.json"
    poly.write_text(RECT46)
    monkeypatch.setattr(sys, "stdin", Unread())
    for source in (str(tmp_path / "missing.json"), "-"):
        assert main(["witness", str(poly), source]) == 2
        assert capsys.readouterr() == ("", _PRECONDITIONS[0])


def _mutated(rng, text):
    """text with up to two JSON-ish tokens put in or written over."""
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(text) + 1)
        token = rng.choice([*"0123456789", "-", "], [", "]], [[", "[", "]", ", ", "1.5"])
        text = text[:i] + token + text[i + rng.randint(0, 1):]
    return text


@pytest.mark.parametrize("size", [3, 40, 1 << 16])
def test_verify_mutated_files_as_stdin(size, tmp_path, monkeypatch, capsys):
    # The mutated-text differential through the CLI: a file read a slice at a
    # time gives the report, exit status and message of the same text read
    # whole from stdin.
    monkeypatch.setattr(dissect, "_SLICE", size)
    rng = random.Random(f"cli-mutations-{size}")
    poly = tmp_path / "poly.json"
    poly.write_text(RECT46)
    P = parse_polygon_json(RECT46)
    base = dissection_to_json(P, unit_dissection(P))
    diss = tmp_path / "diss.json"
    codes = set()
    for _ in range(300):
        text = _mutated(rng, base)
        diss.write_text(text)
        mode = rng.choice(["any", "integral", "unit"])
        argv = ["verify", str(poly), str(diss), "--mode", mode]
        got = _verify_out(argv, capsys)
        assert got == _verify_out(argv[:2] + ["-"] + argv[3:], capsys, text, monkeypatch), text
        codes.add(got[0])
    assert codes == {0, 2, 11}


# each precondition line's start: the second goes on with the failed checks' names
_PRECONDITIONS = ("error: the polygon's boundary word is contractible\n",
                  "error: the dissection does not verify against the polygon; failed checks: ")


@pytest.mark.parametrize("size", [3, 40, 1 << 16])
def test_witness_files_as_stdin(size, tmp_path, monkeypatch, capsys):
    # witness reads a file in the writer's layout a slice at a time; valid,
    # dropped, flipped and mutated files, beside a polygon whose word is not
    # contractible and one whose word is, give the exit status, output and
    # message of the same text read whole from stdin
    monkeypatch.setattr(dissect, "_SLICE", size)
    rng = random.Random(f"cli-witness-{size}")
    poly, diss = tmp_path / "poly.json", tmp_path / "diss.json"
    outcomes = set()
    for polygon in (RECT35, RECT46):
        poly.write_text(polygon)
        P = parse_polygon_json(polygon)
        base = dissection_to_json(P, random_dissection(P, depth=6, seed=size))
        tris = json.loads(base)["triangles"]
        texts = [base, json.dumps({"polygon": P.vertices, "triangles": tris[1:]}),
                 json.dumps({"polygon": P.vertices, "triangles": [tris[0][::-1], *tris[1:]]})]
        texts += [_mutated(rng, base) for _ in range(100)]
        for text in texts:
            diss.write_text(text)
            got = _verify_out(["witness", str(poly), str(diss)], capsys)
            assert got == _verify_out(["witness", str(poly), "-"], capsys, text, monkeypatch), text
            outcomes.add(next((p for p in _PRECONDITIONS if got[2].startswith(p)), got[2][:6]))
    # a witness, parse errors and both preconditions
    assert outcomes == {"", "error:", *_PRECONDITIONS}


@pytest.mark.parametrize("size", [3, 40, 1 << 16])
def test_render_files_as_stdin(size, tmp_path, monkeypatch, capsys):
    # render reads a file in the writer's layout a slice at a time, and a
    # text that leaves the layout partway falls back to the whole read:
    # valid, dropped and mutated files give the exit status, message and
    # SVG bytes of the same text read whole from stdin
    monkeypatch.setattr(dissect, "_SLICE", size)
    rng = random.Random(f"cli-render-{size}")
    poly, diss = tmp_path / "poly.json", tmp_path / "diss.json"
    poly.write_text(RECT46)
    P = parse_polygon_json(RECT46)
    base = dissection_to_json(P, unit_dissection(P))
    tris = json.loads(base)["triangles"]
    texts = [base, json.dumps({"polygon": P.vertices, "triangles": tris[1:]})]
    texts += [_mutated(rng, base) for _ in range(100)]
    codes = set()
    for text in texts:
        diss.write_text(text)
        got = []
        for source, svg in ((str(diss), tmp_path / "a.svg"), ("-", tmp_path / "b.svg")):
            svg.unlink(missing_ok=True)
            code, _, err = _verify_out(["render", str(poly), source, "-o", str(svg)], capsys,
                                       text if source == "-" else None, monkeypatch)
            got.append((code, err, svg.read_bytes() if svg.exists() else None))
        assert got[0] == got[1], text
        codes.add(got[0][0])
    assert codes == {0, 2}


def test_witness_reads_a_written_file_a_slice_at_a_time(tmp_path, monkeypatch, capsys):
    # neither a witness nor either precondition reads the file whole
    def whole(path):
        raise AssertionError("read whole")

    monkeypatch.setattr(dissect, "read_text", whole)
    poly, diss = tmp_path / "poly.json", tmp_path / "diss.json"
    for polygon, expected in ((RECT35, 0), (RECT46, 2)):
        poly.write_text(polygon)
        P = parse_polygon_json(polygon)
        D = random_dissection(P, depth=6, seed=1)
        for triangles, code in ((D.triangles, expected), (D.triangles[1:], 2)):
            diss.write_text(dissection_to_json(P, dissect.Dissection(triangles)))
            assert main(["witness", str(poly), str(diss)]) == code
            capsys.readouterr()


def test_dissect_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    # a failure after the first slice is written removes the file
    real = dissect.unit_pieces

    def failing(D):
        yield from real(D)
        raise ValueError("refinement failed")

    monkeypatch.setattr(dissect, "_SLICE", 64)
    monkeypatch.setattr(dissect, "unit_pieces", failing)  # cmd_dissect imports it when run
    poly = tmp_path / "poly.json"
    poly.write_text(RECT46)
    out = tmp_path / "out"
    assert main(["dissect", str(poly), "--unit", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: refinement failed\n"
    assert not out.exists()
