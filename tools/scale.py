#!/usr/bin/env python3
"""Time and size `dissect --unit` and `verify --mode unit` on large squares.

    python3 tools/scale.py --sides 1000,2000 --pairs 3 --parent ../parent-tree \
        --out BENCH_scale.json
    python3 tools/scale.py --sides 600 --max-dissect-mb 60 --max-verify-mb 100

Each run is a child process, `python -m latticediss.cli`, with PYTHONPATH
set to a tree's src/; its wall time is taken around it and its peak RSS
from os.wait4 on that child alone (ru_maxrss, in KB on Linux).  The unit dissection of the side x side
square has side**2 triangles.  With --parent, every pair runs the parent
tree and this one in alternating order, checks that both write the same
bytes, and the record holds both; verify must accept every file.  The last
line of standard output is the record; it is also written to --out.  The
exit status is 1 when a run of this tree goes over --max-dissect-mb or
--max-verify-mb, or when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, args: list[str]) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit status, stdout) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "latticediss.cli", *args], env=env,
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
            wall, mb, code, _ = run(trees[name], ["dissect", str(poly), "--unit", "-o", str(out)])
            if code != 0:
                problems.append(f"{name} dissect of side {side} exited {code}")
                continue
            runs[name]["dissect_s"].append(round(wall, 3))
            runs[name]["dissect_mb"].append(round(mb, 1))
            digests[name] = sha256(out)
            wall, mb, code, report = run(trees[name], ["verify", str(poly), str(out),
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sides", default="1000,2000", help="comma-separated even square sides")
    ap.add_argument("--pairs", type=int, default=1, help="runs per tree and side")
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
        "command": "python3 tools/scale.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": results,
        "summary": summary(results),
        "problems": problems,
    }
    text = json.dumps(record, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
