#!/usr/bin/env python3
"""Time and size `dissect --unit` and `verify --mode unit` on large squares,
time poof per triangle on T-vertex dissections, or time the CLI's start-up.

    python3 tools/scale.py --sides 1000,2000 --pairs 3 --parent ../parent-tree \
        --out BENCH_scale.json
    python3 tools/scale.py --sides 600
    python3 tools/scale.py --mode poof --pairs 5 --parent ../parent-tree --out BENCH_scale.json
    python3 tools/scale.py --mode startup --pairs 15 --parent ../parent-tree --out BENCH_scale.json

Each run is a child process with PYTHONPATH set to a tree's src/; its wall
time is taken around it and its peak RSS from os.wait4 on that child alone
(ru_maxrss, in KB on Linux), both in a small launcher process that forks
the child, since ru_maxrss counts the forking process's resident size.
Every mode runs through one loop: for each size, --pairs rounds, each
running every tree once (with --parent, the parent tree and this one, in
alternating order), and each tree's round gives its figures and a digest
of its output, which must be the same in every tree.

- squares (the default): per side, `python -m latticediss.cli dissect
  --unit` on the side x side square, side**2 triangles, then `verify --mode
  unit` on its file, which must accept it; the digest is the file's bytes.
  Figures: dissect_s, dissect_mb, verify_s, verify_mb.  The run fails when
  this tree's dissect peaks over MAX_MB["dissect_mb"] = 60 MB or its verify
  over MAX_MB["verify_mb"] = 100 MB.
- poof: per n in POOF_COUNTS, one child on
  `perfbench.inputs.foreign_request(random.Random(n), n, "valid", True)`,
  made once here and handed to every child as its dissection text.  The
  child reads it with `parse_dissection_json` and `validate_convex`, and
  times `verify.poof`, which verifies first, on a fresh `Dissection` of the
  triangles read, POOF_REPS times with the collector on at each call (poof
  pauses it inside, through `geometry.collector_paused`), and each poof
  again with one read of its result's `triangles` view, which builds the
  frozen faces; then, untimed, it reads the text again and takes what the
  read dissection holds, verifies it, as foreign_check does before its
  poof, and takes the tracemalloc peak of its poof above the inputs, each
  after a full collection, as tests/test_memory.py does; then it counts
  the gen-0 collections of one more poof and the line events of another in
  the package's frames, with tests/test_complexity.py's line_events, which
  it imports only after the timed poofs.  Figures: us_per_tri (the fastest
  poof, in µs per input triangle), view_us_per_tri (the fastest poof with
  its read of the view), poofed_tris, gen0_per_tri (0 by construction:
  poof runs with the collector paused, and the count starts after a full
  collection, so anything else means the pause is gone),
  line_events_per_tri, peak_b_per_tri (that peak in bytes per input
  triangle) and peak_over_read (that peak over what the read dissection
  holds); the digest covers poof's triangles, corners, colors and point
  map.
- startup: `python -m latticediss.cli decide ABAB`, which must print
  `contractible` and nothing else; `python -m latticediss.cli verify
  square.json dissection.json --mode unit` on the 2 x 2 square and its
  unit dissection, four triangles around its centre, which this tool
  writes into its work directory, and which must print a report with
  `"valid": true`; and `python -c pass`, the bare interpreter, which must
  print nothing.  Each runs with the bytecode cache on and off.  On,
  PYTHONPYCACHEPREFIX points to a temporary directory that one untimed run
  of each per tree fills, so no tree is written; those runs are checked as
  the timed ones are.  Off, PYTHONDONTWRITEBYTECODE=1 runs a fresh copy of
  the tree's src/latticediss, so the package is compiled at every run, as
  in a new checkout, while the standard library keeps its cache.  Figures:
  {decide,verify,bare}_{cached,uncached}_{s,mb}; the digest is the
  children's output.

The last line of standard output is the record:

    {"command", "trees", "date", "python", "machine", "cpus",
     "results": [{<size fields>, "runs": {<tree>: {<figure>: [one value per
                  round], "<figure>_median": <median, to 6 places>}}}],
     "summary": {"<tree>_growth": {<median>: largest size over smallest},
                 "change_over_parent": {<size>: {<median>: change over parent}},
                 "<tree>_<command>_<cache>_over_bare_s": <decide or verify
                                                          less bare, startup>},
     "problems": [...]}

A ratio whose base median is 0 is written null, so the record shows that it
could not be formed.

The first size field names the size: side, count, or letters (startup's
one size, the decided word's).  --out also stores the record in a JSON file
under the mode's name, keeping the other modes' records.  The record's
command names no local path: --parent's value is written PARENT and --out's
as its file name; and its trees field maps each tree measured to a SHA-256
over its src/latticediss/*.py (each file's name and bytes, in sorted
order), so the record names the code it measured.  The exit status is 1
when a child fails, the trees' outputs differ, or a bound above is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import inputs  # noqa: E402

CLI = ["-m", "latticediss.cli"]  # the child arguments of a CLI run
MAX_MB = {"dissect_mb": 60, "verify_mb": 100}  # bounds on this tree's peak RSS figures
POOF_COUNTS = (250, 1000, 4001, 16000, 64000)  # triangles of the poof requests
POOF_REPS = 7  # timed poofs per child run, whose fastest the run records
# Times poof on the request in argv[1], argv[2] times, alone and with one
# read of T.triangles, then, untimed, reads the memory peak of one poof of
# the verified read dissection and counts the gen-0 collections and the
# line events of one poof each, with the line-event counter of the tests/
# directory in argv[3]; prints one JSON line.
POOF_CHILD = """
import gc, hashlib, json, sys, time
from latticediss.dissect import Dissection, parse_dissection_json
from latticediss.geometry import validate_convex
from latticediss.verify import poof, verify_dissection
with open(sys.argv[1]) as fh:
    text = fh.read()
polygon, read = parse_dissection_json(text)
P, tris = validate_convex(polygon), read.triangles
assert gc.isenabled()
times, viewed = [], []
for _ in range(int(sys.argv[2])):
    D = Dissection(tris)  # fresh, so poof verifies it
    start = time.perf_counter()
    T, points = poof(P, D)
    times.append(time.perf_counter() - start)
    T.triangles  # the frozen faces, as perfbench's check reads them
    viewed.append(time.perf_counter() - start)
faces = sorted(tuple(sorted(t)) for t in T.triangles)
shape = (faces, T.corners, sorted(T.vertex_colors.items()), sorted(points.items()))
digest, poofed = hashlib.sha256(repr(shape).encode()).hexdigest(), len(T.triangles)
del T, points, faces, shape, read
import tracemalloc
gc.collect()  # empties the free lists, whose blocks tracemalloc counts as in use
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
read = parse_dissection_json(text)[1]
gc.collect()
size = tracemalloc.get_traced_memory()[0] - base  # what the read dissection holds
tracemalloc.stop()
verify_dissection(P, read)  # as foreign_check verifies before its poof
gc.collect()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
result = poof(P, read)
peak = tracemalloc.get_traced_memory()[1] - base
tracemalloc.stop()
del result
sys.path.insert(0, sys.argv[3])
from test_complexity import line_events  # only now: loaded modules move the timings
D = Dissection(tris)  # built before the count: the constructor allocates a tuple per triangle
gc.collect()
before = gc.get_stats()[0]["collections"]
poof(P, D)
gen0 = gc.get_stats()[0]["collections"] - before
print(json.dumps({"us_per_tri": min(times) / len(tris) * 1e6,
                  "view_us_per_tri": min(viewed) / len(tris) * 1e6, "poofed": poofed,
                  "line_events_per_tri": line_events(poof, P, Dissection(tris)) / len(tris),
                  "gen0_per_tri": gen0 / len(tris), "peak_b_per_tri": peak / len(tris),
                  "peak_over_read": peak / size, "digest": digest}))
"""


# Runs the command in argv[1:] with stderr to os.devnull and writes its wall
# seconds, exit status and peak RSS in KB to stderr.  A child's ru_maxrss is
# at least the resident size of the process that forks it, so this launcher,
# which holds about 8 MB, forks each child, and not this script, which holds
# about 20.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
      file=sys.stderr)
"""


def run(tree: Path, args: list[str], **env: str) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit status, stdout) of one child
    `python *args`, with env added to its environment, forked by LAUNCHER."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **env)
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, sys.executable, *args],
                          env=env, capture_output=True, text=True, check=True)
    wall, code, kb = proc.stderr.split()
    return float(wall), int(kb) / 1024, int(code), proc.stdout  # ru_maxrss is in KB on Linux


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def source_digest(tree: Path) -> str:
    """SHA-256 over the name and bytes of each src/latticediss/*.py of tree,
    in sorted order."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "latticediss").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def shown_command(ap: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """The command line of the options not at their defaults, --parent's
    value written PARENT and --out's as its file name."""
    words = ["python3", "tools/scale.py"]
    for dest, value in vars(args).items():
        if value != ap.get_default(dest):
            shown = {"parent": "PARENT", "out": getattr(value, "name", value)}.get(dest, value)
            words += [f"--{dest.replace('_', '-')}", str(shown)]
    return " ".join(words)


def size_name(result: dict) -> str:
    """A result's first field and its value, which name its size."""
    return "{} {}".format(*next(iter(result.items())))


def measure(trees: dict[str, Path], size: dict, pairs: int, one_round) -> tuple[dict, list[str]]:
    """The result of `pairs` rounds at one size, and the problems found.
    one_round(name, tree) runs one tree once and gives ({figure: value},
    output digest), or a problem text when a child fails."""
    runs = {name: {} for name in trees}
    problems = []
    names = list(trees)
    for i in range(pairs):
        digests = {}
        for name in names if i % 2 == 0 else names[::-1]:
            got = one_round(name, trees[name])
            if isinstance(got, str):
                problems.append(f"{name} {got} at {size_name(size)}")
                continue
            figures, digests[name] = got
            for fig, value in figures.items():
                runs[name].setdefault(fig, []).append(value)
        if len(set(digests.values())) > 1:
            problems.append(f"the trees' outputs differ at {size_name(size)}")
    # The mean of two middle rounds, each rounded to at most 4 places, is
    # exact to 6: so 16.1 and 16.3 give 16.2, not 16.200000000000003.
    for r in runs.values():
        r.update({f"{fig}_median": round(statistics.median(values), 6)
                  for fig, values in r.items()})
    return {**size, "runs": runs}, problems


def mode_squares(args: argparse.Namespace, trees: dict[str, Path], work: Path):
    """(size, one_round) for each side of --sides."""
    poly, out = work / "square.json", work / "dissection.json"
    for side in map(int, args.sides.split(",")):
        poly.write_text(json.dumps([[0, 0], [side, 0], [side, side], [0, side]]))

        def one_round(name, tree):
            dissect_s, dissect_mb, code, _ = run(tree, [*CLI, "dissect", str(poly), "--unit",
                                                        "-o", str(out)])
            if code != 0:
                return f"dissect exited {code}"
            digest = sha256(out)
            verify_s, verify_mb, code, report = run(tree, [*CLI, "verify", str(poly), str(out),
                                                           "--mode", "unit"])
            out.unlink()
            if code != 0 or not json.loads(report)["valid"]:
                return f"verify exited {code}"
            return {"dissect_s": round(dissect_s, 3), "dissect_mb": round(dissect_mb, 1),
                    "verify_s": round(verify_s, 3), "verify_mb": round(verify_mb, 1)}, digest

        yield {"side": side, "triangles": side * side}, one_round


def mode_poof(args: argparse.Namespace, trees: dict[str, Path], work: Path):
    """(size, one_round) for each request of POOF_COUNTS."""
    for count in POOF_COUNTS:
        req = inputs.foreign_request(random.Random(count), count, "valid", True)
        path = work / f"request{count}.json"
        path.write_text(req.dissection_text)

        def one_round(name, tree):
            _, _, code, out = run(tree, ["-c", POOF_CHILD, str(path), str(POOF_REPS),
                                         str(ROOT / "tests")])
            if code != 0:
                return f"poof exited {code}"
            got = json.loads(out)
            return {"us_per_tri": round(got["us_per_tri"], 3),
                    "view_us_per_tri": round(got["view_us_per_tri"], 3),
                    "poofed_tris": got["poofed"],
                    "line_events_per_tri": round(got["line_events_per_tri"], 4),
                    "gen0_per_tri": round(got["gen0_per_tri"], 4),
                    "peak_b_per_tri": round(got["peak_b_per_tri"], 1),
                    "peak_over_read": round(got["peak_over_read"], 4)}, got["digest"]

        yield {"count": count, "triangles": len(req.triangles)}, one_round


STARTUP_SQUARE = [[0, 0], [2, 0], [2, 2], [0, 2]]
STARTUP_DISSECTION = {"polygon": STARTUP_SQUARE, "triangles": [  # doubled area 2 each
    [[0, 0], [2, 0], [1, 1]], [[2, 0], [2, 2], [1, 1]], [[2, 2], [0, 2], [1, 1]],
    [[0, 2], [0, 0], [1, 1]]]}


def valid_report(out: str) -> bool:
    """Whether out is a verify report that accepts the dissection."""
    try:
        return json.loads(out)["valid"] is True
    except (ValueError, KeyError, TypeError):
        return False


# Whether each start-up child's whole stdout is right
STARTUP_OUTPUT = {"decide": "contractible\n".__eq__, "verify": valid_report, "bare": "".__eq__}


def startup_runs(work: Path) -> dict[str, list[str]]:
    """The child arguments of each start-up child, verify's files written
    into work."""
    square, dissection = work / "square.json", work / "dissection.json"
    square.write_text(json.dumps(STARTUP_SQUARE))
    dissection.write_text(json.dumps(STARTUP_DISSECTION))
    return {"decide": [*CLI, "decide", "ABAB"],
            "verify": [*CLI, "verify", str(square), str(dissection), "--mode", "unit"],
            "bare": ["-c", "pass"]}


def startup_run(tree: Path, cmd: str, args: list[str], cache: str,
                env: dict) -> tuple[float, float, str] | str:
    """(wall seconds, peak RSS in MB, stdout) of one start-up child, or a
    problem text when it exits non-zero or its stdout fails STARTUP_OUTPUT."""
    wall, mb, code, out = run(tree, args, **env)
    if code != 0 or not STARTUP_OUTPUT[cmd](out):
        return f"{cmd} ({cache}) exited {code} with {out!r}"
    return wall, mb, out


def mode_startup(args: argparse.Namespace, trees: dict[str, Path], work: Path):
    """The one (size, one_round) of the start-up children."""
    # tree name -> cache setting -> (the tree the child imports, its added
    # environment); an empty variable counts as unset
    runs = startup_runs(work)
    setups, failed = {}, {}
    for name, tree in trees.items():
        fresh = work / name / "src" / "latticediss"
        fresh.mkdir(parents=True)
        for path in (tree / "src" / "latticediss").glob("*.py"):
            shutil.copyfile(path, fresh / path.name)
        cached = {"PYTHONPYCACHEPREFIX": str(work / f"{name}-pycache"),
                  "PYTHONDONTWRITEBYTECODE": ""}
        for cmd, args in runs.items():  # fill the cache, untimed: a failure fails every round
            got = startup_run(tree, cmd, args, "filling the cache", cached)
            if isinstance(got, str):
                failed.setdefault(name, got)
        setups[name] = {"cached": (tree, cached), "uncached": (
            work / name, {"PYTHONPYCACHEPREFIX": "", "PYTHONDONTWRITEBYTECODE": "1"})}

    def one_round(name, _):
        if name in failed:
            return failed[name]
        figures, outputs = {}, []
        for cache, (tree, env) in setups[name].items():
            for cmd, args in runs.items():
                got = startup_run(tree, cmd, args, cache, env)
                if isinstance(got, str):
                    return got
                wall, mb, out = got
                figures[f"{cmd}_{cache}_s"] = round(wall, 4)
                figures[f"{cmd}_{cache}_mb"] = round(mb, 1)
                outputs.append(out)
        return figures, "".join(outputs)

    yield {"letters": len("ABAB")}, one_round


def ratios(top: dict, bottom: dict) -> dict:
    """Each median of top over bottom's, where bottom has it: None where
    bottom's is 0."""
    return {fig: round(value / bottom[fig], 3) if bottom[fig] else None
            for fig, value in top.items() if fig.endswith("_median") and fig in bottom}


def summary(results: list[dict]) -> dict:
    """For each tree, each median at the largest size over the one at the
    smallest; with a parent, each of the change's medians over the parent's
    at each size; and for each tree, command and cache setting, decide's
    and verify's median time less the bare interpreter's."""
    out = {}
    first, last = results[0]["runs"], results[-1]["runs"]
    if len(results) > 1:
        out.update({f"{name}_growth": ratios(last[name], first[name]) for name in first})
    if "parent" in first:
        out["change_over_parent"] = {str(next(iter(r.values()))): ratios(
            r["runs"]["change"], r["runs"]["parent"]) for r in results}
    for name, r in first.items():
        for cmd in ("decide", "verify"):
            for cache in ("cached", "uncached"):
                if f"{cmd}_{cache}_s_median" in r and f"bare_{cache}_s_median" in r:
                    out[f"{name}_{cmd}_{cache}_over_bare_s"] = round(
                        r[f"{cmd}_{cache}_s_median"] - r[f"bare_{cache}_s_median"], 4)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("squares", "poof", "startup"), default="squares",
                    help="CLI dissect and verify on squares, poof per triangle, or CLI start-up")
    ap.add_argument("--sides", default="1000,2000", help="comma-separated even square sides")
    ap.add_argument("--pairs", type=int, default=1, help="runs per tree and size")
    ap.add_argument("--parent", type=Path, help="a tree of the parent commit to compare against")
    ap.add_argument("--out", type=Path, help="also write the record here")
    args = ap.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    mode = {"squares": mode_squares, "poof": mode_poof, "startup": mode_startup}[args.mode]
    work = Path(tempfile.mkdtemp(prefix="latticediss-scale-"))
    results, problems = [], []
    try:
        for size, one_round in mode(args, trees, work):
            result, found = measure(trees, size, args.pairs, one_round)
            results.append(result)
            problems += found
            for fig, bound in MAX_MB.items():  # figures of mode squares only
                worst = max(result["runs"]["change"].get(fig, ()), default=0)
                if worst > bound:
                    problems.append(f"{fig} {worst} over {bound} at {size_name(size)}")
    finally:
        shutil.rmtree(work)
    record = {
        "command": shown_command(ap, args),
        "trees": {name: source_digest(tree) for name, tree in trees.items()},
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": results,
        "summary": summary(results),
        "problems": problems,
    }
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.mode] = record
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
