#!/usr/bin/env python3
"""Time and size `dissect --unit` and `verify --mode unit` on large squares,
or time poof per triangle on T-vertex dissections.

    python3 tools/scale.py --sides 1000,2000 --pairs 3 --parent ../parent-tree \
        --out BENCH_scale.json
    python3 tools/scale.py --sides 600 --max-dissect-mb 60 --max-verify-mb 100
    python3 tools/scale.py --mode poof --pairs 5 --parent ../parent-tree --out BENCH_scale.json

Each run is a child process with PYTHONPATH set to a tree's src/.  In mode
squares (the default) the child is `python -m latticediss.cli`; its wall
time is taken around it and its peak RSS from os.wait4 on that child alone
(ru_maxrss, in KB on Linux).  The unit dissection of the side x side
square has side**2 triangles.  In mode poof the child times `verify.poof`,
which verifies first, on a fresh `Dissection` of
`perfbench.inputs.foreign_request(random.Random(n), n, "valid", True)` for
each n in POOF_COUNTS, POOF_REPS times with the collector on, and the run
records the fastest in µs per input triangle; the request is made once here
and handed to every child as a file.  Beside those wall times, one more
child per tree and count records two figures that do not depend on the
host's speed, from one untimed poof each: the gen-0 collections per input
triangle, and the line events per input triangle in the package's frames,
counted by tests/test_complexity.py's line_events.  With --parent, every
pair runs the parent tree and this one in alternating order, checks that
both give the same output (the dissection file's bytes, or a digest of
poof's triangles, corners, colors and point map), and the record holds
both; verify must accept every file.  The last line of standard output is
the record; --out also stores it in a JSON file under the mode's name,
keeping the other mode's record.  The record's command names no local
path: --parent's value is written PARENT and --out's as its file name; and
its trees field maps each tree measured to a SHA-256 over its
src/latticediss/*.py (each file's name and bytes, in sorted order), so the
record names the code it measured.  The exit status is 1 when a run of this
tree goes over --max-dissect-mb or --max-verify-mb, or when a check fails.
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
POOF_COUNTS = (250, 1000, 4001, 16000, 64000)  # triangles of the poof requests
POOF_REPS = 7  # poofs per child run, whose fastest the run records
# Times poof on the request in argv[1], argv[2] times; prints one JSON line.
POOF_CHILD = """
import gc, hashlib, json, sys, time
from latticediss.dissect import Dissection
from latticediss.geometry import validate_convex
from latticediss.verify import poof
with open(sys.argv[1]) as fh:
    data = json.load(fh)
P = validate_convex([tuple(p) for p in data["polygon"]])
seen = {}
tris = tuple(tuple(seen.setdefault(p, p) for p in map(tuple, t)) for t in data["triangles"])
assert gc.isenabled()
times = []
for _ in range(int(sys.argv[2])):
    D = Dissection(tris)  # fresh, so poof verifies it
    start = time.perf_counter()
    T, points = poof(P, D)
    times.append(time.perf_counter() - start)
shape = (T.sorted_triangles(), T.corners, sorted(T.vertex_colors.items()), sorted(points.items()))
print(json.dumps({"us_per_tri": [t / len(tris) * 1e6 for t in times],
                  "poofed": len(T.triangles),
                  "digest": hashlib.sha256(repr(shape).encode()).hexdigest()}))
"""
# Counts, untimed, the gen-0 collections and then the line events in the
# package's frames of one poof of the request in argv[1], with the line-event
# counter of the tests/ directory in argv[2]; prints one JSON line.
POOF_COUNT_CHILD = """
import gc, json, sys
from latticediss.dissect import Dissection
from latticediss.geometry import validate_convex
from latticediss.verify import poof
sys.path.insert(0, sys.argv[2])
from test_complexity import line_events
with open(sys.argv[1]) as fh:
    data = json.load(fh)
P = validate_convex([tuple(p) for p in data["polygon"]])
seen = {}
tris = tuple(tuple(seen.setdefault(p, p) for p in map(tuple, t)) for t in data["triangles"])
gc.collect()
before = gc.get_stats()[0]["collections"]
poof(P, Dissection(tris))
gen0 = gc.get_stats()[0]["collections"] - before
print(json.dumps({"line_events_per_tri": line_events(poof, P, Dissection(tris)) / len(tris),
                  "gen0_per_tri": gen0 / len(tris)}))
"""


def run(tree: Path, args: list[str]) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit status, stdout) of one child
    `python *args`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return wall, usage.ru_maxrss / 1024, proc.returncode, out  # ru_maxrss is in KB on Linux


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


def measure(trees: dict[str, Path], side: int, pairs: int, work: Path) -> tuple[dict, list[str]]:
    poly = work / "square.json"
    poly.write_text(json.dumps([[0, 0], [side, 0], [side, side], [0, side]]))
    runs = {name: {"dissect_s": [], "dissect_mb": [], "verify_s": [], "verify_mb": []}
            for name in trees}
    problems = []
    names = list(trees)
    for i in range(pairs):
        order = names if i % 2 == 0 else names[::-1]
        digests = {}
        for name in order:
            out = work / f"{name}.json"
            wall, mb, code, _ = run(trees[name], [*CLI, "dissect", str(poly), "--unit",
                                                  "-o", str(out)])
            if code != 0:
                problems.append(f"{name} dissect of side {side} exited {code}")
                continue
            runs[name]["dissect_s"].append(round(wall, 3))
            runs[name]["dissect_mb"].append(round(mb, 1))
            digests[name] = sha256(out)
            wall, mb, code, report = run(trees[name], [*CLI, "verify", str(poly), str(out),
                                                       "--mode", "unit"])
            if code != 0 or not json.loads(report)["valid"]:
                problems.append(f"{name} verify of side {side} exited {code}")
            runs[name]["verify_s"].append(round(wall, 3))
            runs[name]["verify_mb"].append(round(mb, 1))
            out.unlink()
        if len(set(digests.values())) > 1:
            problems.append(f"the trees write different dissections of side {side}")
    for r in runs.values():
        for cmd in ("dissect", "verify"):
            for unit in ("s", "mb"):
                if r[f"{cmd}_{unit}"]:
                    r[f"{cmd}_median_{unit}"] = statistics.median(r[f"{cmd}_{unit}"])
    return {"side": side, "triangles": side * side, "runs": runs}, problems


def summary(results: list[dict]) -> dict:
    """For each tree, each median peak at the largest side over the one at
    the smallest; with a parent, each of the change's median times over the
    parent's at each side."""
    out = {}
    first, last = results[0]["runs"], results[-1]["runs"]
    for name in first:
        out[f"{name}_peak_growth"] = {
            cmd: round(last[name][f"{cmd}_median_mb"] / first[name][f"{cmd}_median_mb"], 3)
            for cmd in ("dissect", "verify") if f"{cmd}_median_mb" in last[name]}
    if "parent" in first:
        out["change_over_parent_time"] = {
            str(r["side"]): {cmd: round(r["runs"]["change"][f"{cmd}_median_s"]
                                        / r["runs"]["parent"][f"{cmd}_median_s"], 3)
                             for cmd in ("dissect", "verify")
                             if all(f"{cmd}_median_s" in r["runs"][k] for k in r["runs"])}
            for r in results}
    return out


def measure_poof(trees: dict[str, Path], count: int, pairs: int,
                 work: Path) -> tuple[dict, list[str]]:
    req = inputs.foreign_request(random.Random(count), count, "valid", True)
    path = work / f"request{count}.json"
    path.write_text(json.dumps({"polygon": req.polygon, "triangles": req.triangles}))
    runs = {name: {"us_per_tri": []} for name in trees}
    problems = []
    names = list(trees)
    for i in range(pairs):
        order = names if i % 2 == 0 else names[::-1]
        digests = {}
        for name in order:
            _, _, code, out = run(trees[name], ["-c", POOF_CHILD, str(path), str(POOF_REPS)])
            if code != 0:
                problems.append(f"{name} poof of {count} triangles exited {code}")
                continue
            result = json.loads(out)
            runs[name]["us_per_tri"].append(round(min(result["us_per_tri"]), 3))
            runs[name]["poofed_tris"] = result["poofed"]
            digests[name] = result["digest"]
        if len(set(digests.values())) > 1:
            problems.append(f"the trees poof the {count}-triangle request differently")
    for name, r in runs.items():
        if r["us_per_tri"]:
            r["median_us_per_tri"] = statistics.median(r["us_per_tri"])
        _, _, code, out = run(trees[name], ["-c", POOF_COUNT_CHILD, str(path),
                                            str(ROOT / "tests")])
        if code != 0:
            problems.append(f"{name} poof count of {count} triangles exited {code}")
            continue
        r.update({k: round(v, 4) for k, v in json.loads(out).items()})
    return {"count": count, "triangles": len(req.triangles), "runs": runs}, problems


POOF_FIGURES = {"time": "median_us_per_tri", "line_events": "line_events_per_tri",
                "gen0": "gen0_per_tri"}  # summary name -> the per-triangle figure


def summary_poof(results: list[dict]) -> dict:
    """For each tree and figure, its value at the largest count over the one
    at the smallest; with a parent, the change's value over the parent's at
    each count."""
    out = {}
    first, last = results[0]["runs"], results[-1]["runs"]
    for name in first:
        for fig, key in POOF_FIGURES.items():
            if first[name].get(key) and key in last[name]:
                out[f"{name}_{fig}_growth"] = round(last[name][key] / first[name][key], 3)
    if "parent" in first:
        for fig, key in POOF_FIGURES.items():
            out[f"change_over_parent_{fig}"] = {
                str(r["count"]): round(r["runs"]["change"][key] / r["runs"]["parent"][key], 3)
                for r in results if all(v.get(key) for v in r["runs"].values())}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("squares", "poof"), default="squares",
                    help="CLI dissect and verify on squares, or poof per triangle")
    ap.add_argument("--sides", default="1000,2000", help="comma-separated even square sides")
    ap.add_argument("--pairs", type=int, default=1, help="runs per tree and size")
    ap.add_argument("--parent", type=Path, help="a tree of the parent commit to compare against")
    ap.add_argument("--max-dissect-mb", type=float, help="bound on this tree's dissect peak RSS")
    ap.add_argument("--max-verify-mb", type=float, help="bound on this tree's verify peak RSS")
    ap.add_argument("--out", type=Path, help="also write the record here")
    args = ap.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), "change": ROOT}
    work = Path(tempfile.mkdtemp(prefix="latticediss-scale-"))
    results, problems = [], []
    try:
        if args.mode == "poof":
            for count in POOF_COUNTS:
                result, found = measure_poof(trees, count, args.pairs, work)
                results.append(result)
                problems += found
        else:
            for side in map(int, args.sides.split(",")):
                result, found = measure(trees, side, args.pairs, work)
                results.append(result)
                problems += found
                change = result["runs"]["change"]
                for key, bound in (("dissect_mb", args.max_dissect_mb),
                                   ("verify_mb", args.max_verify_mb)):
                    if bound is not None and max(change[key], default=0) > bound:
                        problems.append(f"{key} {max(change[key])} over {bound} at side {side}")
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
        "summary": (summary_poof if args.mode == "poof" else summary)(results),
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
