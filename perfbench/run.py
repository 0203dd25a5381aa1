#!/usr/bin/env python3
"""Closed-loop benchmark of latticediss: one client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src`` with
nothing built, as the tier-1 tests run it.  A run

1. sets up (a fresh import of the package plus one warm-up request);
2. with ``--trace 0``, sends a fixed number of requests, S seconds' worth at
   reference speed (see below), setting up again six times along the way,
   and reports the median set-up as ``setup_s``; then it measures
   the tracemalloc peak of a few large requests in a separate, untimed pass;
3. with ``--trace 1``, sends half as many requests, each twice, traced and
   untraced in alternating order, reports per-layer totals from the spans
   and writes the spans to ``perfbench/out/``.

The number of requests depends only on the workload and S, never on how
fast the run goes, and it is a whole number of the workload's label cycles
(``CYCLE``).  So the same seed sends the same requests on every run and on
every commit, and ``attempted`` and ``failed`` repeat exactly.

The end-to-end times are wall times at a reference machine speed.  A virtual
machine that shares its host with others can swing in speed by up to twice,
within a fraction of a second as well as for minutes at a time; raw wall
times then differ by more than the regressions the benchmark must catch.
So a fixed pure-Python probe of about 2 ms runs just before and just after
every timed request and set-up, and each wall time is scaled by 2 ms over
the mean of those two probes: the result is the time at a speed where the
probe takes 2 ms.  The two probes that bracket a call track the speed during
it better than earlier probes do: on a 2-vCPU shared host, they cut the
run-to-run scatter of single request times by about a third against the
median of the nine probes before each request.
The raw wall-time figures and the probe's range go into the run record.

Inputs come from the benchmark's own seeded generators and every output is
checked against the benchmark's own reference code, outside the timed
region.  The garbage collector stays enabled and runs between phases.

The last line of standard output is the result JSON; the line before it
records the kernel, Python, revision, CPU count, seed and input sizes.
``correct`` is false when any check fails, except for one documented hole:
the verifier accepts ``overlap`` dissections of ``foreign_check``.  Those
requests still count as failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, direct  # noqa: E402

SETUPS = 7
PROBE_REFERENCE_NS = 2_000_000  # the probe's time at reference speed
MIN_REQUESTS = 48  # so that the ten samples beyond the tail are a quarter at most
CYCLE = 12  # request labels repeat every 12 requests in each workload
LOOP_DEADLINE_S = 110  # wall-clock cap on the request loop, so a run ends in time


def load_library() -> SimpleNamespace:
    """Import latticediss afresh and collect the functions the CLI calls."""
    for name in [m for m in sys.modules if m == "latticediss" or m.startswith("latticediss.")]:
        del sys.modules[name]
    pkg = importlib.import_module("latticediss")
    if Path(pkg.__file__).resolve().parent != SRC / "latticediss":
        raise SystemExit(f"error: imported latticediss from {pkg.__file__}, not from {SRC}")
    combi, dissect, geometry, verify, words = (
        importlib.import_module(f"latticediss.{m}")
        for m in ("combi", "dissect", "geometry", "verify", "words"))
    return SimpleNamespace(
        parse_polygon_json=geometry.parse_polygon_json,
        boundary_word=geometry.boundary_word,
        CyclicWord=words.CyclicWord,
        decide_contractible=words.decide_contractible,
        active_kernel=words.active_kernel,
        Dissection=dissect.Dissection,
        diagonal_dissection=dissect.diagonal_dissection,
        refine_triangle=dissect.refine_triangle,
        unit_dissection=dissect.unit_dissection,
        dissection_to_json=dissect.dissection_to_json,
        parse_dissection_json=dissect.parse_dissection_json,
        verify_dissection=verify.verify_dissection,
        poof=verify.poof,
        witness_noninteger=verify.witness_noninteger,
        validate_disk=combi.validate_disk,
    )


class Tracer:
    """In-memory spans (request, name, start ns, end ns) around public calls.
    Layer spans are children of their request's ``request`` span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0

    def call(self, name, fn, *args):
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.request, name, t0, perf_counter_ns()))


def probe_ns() -> int:
    """Wall time of a fixed pure-Python loop of about two milliseconds: tuples,
    integer arithmetic and dict stores, as in the package's own code."""
    t0 = perf_counter_ns()
    acc, seen = 0, {}
    for k in range(6000):
        t = (k, k + 1, 3 * k)
        acc += t[0] * t[2] - t[1]
        seen[k & 63] = t
    return perf_counter_ns() - t0


class Speed:
    """The machine's speed during a timed call, from probes run just before
    (``start``) and just after (``scale``) it.  Load from other machines on a
    shared host can slow this one by up to twice, and the probe slows with
    it; ``scale`` returns the factor that turns the call's wall time into the
    time it would take at a speed where the probe takes exactly 2 ms."""

    def __init__(self):
        self.samples: list[int] = []

    def _probe(self) -> int:
        self.samples.append(probe_ns())
        return self.samples[-1]

    def start(self) -> None:
        self.before = self._probe()

    def scale(self) -> float:
        return 2 * PROBE_REFERENCE_NS / (self.before + self._probe())


class Tally:
    """Latencies (wall and at reference speed), items and check outcomes of
    one loop."""

    def __init__(self):
        self.latencies: list[int] = []
        self.scaled: list[float] = []
        self.sizes: list[int] = []
        self.items = 0
        self.failed = 0
        self.known_hole = 0
        self.unexpected: list[str] = []
        self.counts: Counter = Counter()

    def add(self, i, ns, scale, size, outcome) -> None:
        self.latencies.append(ns)
        self.scaled.append(ns * scale)
        self.sizes.append(size)
        self.items += outcome.items
        self.counts.update(outcome.counts)
        if outcome.error:
            self.failed += 1
            if outcome.known_hole:
                self.known_hole += 1
            else:
                self.unexpected.append(f"request {i}: {outcome.error}")


def send(lib, wl, req, call, traced: bool):
    """One request: returns its wall time in ns and what it produced."""
    out: dict = {}
    t0 = perf_counter_ns()
    try:
        wl.run(lib, req, call, out, traced)
    except Exception as e:  # a failed request is counted, and the loop goes on
        out["exception"] = e
    return perf_counter_ns() - t0, out


class Setups:
    """Set-up samples: each a fresh import of the package plus one warm-up
    request.  Calling it sets up once more and returns the new library."""

    def __init__(self, wl, warm, speed: Speed):
        self.wl, self.warm, self.speed = wl, warm, speed
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.unexpected: list[str] = []

    def __call__(self) -> SimpleNamespace:
        gc.collect()
        self.speed.start()
        t0 = perf_counter_ns()
        lib = load_library()
        _, out = send(lib, self.wl, self.warm, direct, False)
        self.seconds.append((perf_counter_ns() - t0) / 1e9)
        self.scaled.append(self.seconds[-1] * self.speed.scale())
        outcome = self.wl.check(self.warm, out)
        if outcome.error and not outcome.known_hole:
            self.unexpected.append(f"warm-up: {outcome.error}")
        return lib


def request_count(wl, seconds: float) -> int:
    """Requests that take about `seconds` at reference speed: a whole number
    of label cycles, and at least MIN_REQUESTS."""
    cycles = math.ceil(seconds * wl.per_second / CYCLE)
    return max(cycles * CYCLE, MIN_REQUESTS)


def request_loop(lib, wl, seed: int, count: int, deadline: float, speed: Speed,
                 tracer=None, setups=None):
    """Closed loop over requests 0 .. count-1; it stops early only at the
    wall-clock deadline.  With a tracer each request runs twice, traced and
    untraced in alternating order.  With setups the package is set up again
    at even steps of the count, so that set-up samples span the run.
    Returns (untraced tally, traced tally or None)."""
    plain, traced = Tally(), Tally() if tracer else None
    marks = {count * k // SETUPS for k in range(1, SETUPS)} if setups else set()
    gc.collect()
    for i in range(count):
        if time.monotonic() >= deadline:
            break
        if i in marks:
            lib = setups()
        req = wl.make(seed, i)
        size = wl.size(req)
        answers = []
        order = ((False, True) if i % 2 else (True, False)) if tracer else (False,)
        for with_trace in order:
            speed.start()
            if with_trace:
                tracer.request = i
                t_start = perf_counter_ns()
                ns, out = send(lib, wl, req, tracer.call, True)
                scale = speed.scale()
                tracer.spans.append((i, "request", t_start, t_start + ns))
                if "poof" in out:  # time disk validation by re-running it on poof's result
                    try:
                        tracer.call("combi.validate_disk", lib.validate_disk, out["poof"][0])
                    except Exception as e:
                        traced.unexpected.append(f"request {i}: validate_disk: {e!r}")
            else:
                ns, out = send(lib, wl, req, direct, False)
                scale = speed.scale()
            answers.append(out.get("answer"))
            (traced if with_trace else plain).add(i, ns, scale, size, wl.check(req, out))
        if len(answers) == 2 and answers[0] != answers[1]:
            (traced or plain).unexpected.append(f"request {i}: traced and untraced outputs differ")
    return plain, traced


def peak_memory_mb(lib, wl, reqs):
    """Largest tracemalloc peak of one request above the memory in use before
    it, over the given requests; a separate pass, never a timed one."""
    peak, outs = 0, []
    gc.collect()
    tracemalloc.start()
    try:
        for req in reqs:
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outs.append(send(lib, wl, req, direct, False)[1])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20, [wl.check(req, out) for req, out in zip(reqs, outs)]


def tail(latencies):
    """(value, level %, samples beyond) of the highest percentile with ten
    samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def layer_metrics(spans, traced: Tally, plain: Tally) -> dict:
    ns = Counter()
    for _, name, t0, t1 in spans:
        ns[name] += t1 - t0
    covered = sum(v for k, v in ns.items() if k not in ("request", "combi.validate_disk"))
    c = traced.counts

    def sec(name):
        return ns[name] / 1e9

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    letters = c["letters"]
    return {
        "geometry.parse_s": (sec("geometry.parse"), "s"),
        "geometry.boundary_word_s": (sec("geometry.boundary_word"), "s"),
        "words.build_s": (sec("words.build"), "s"),
        "words.decide_s": (sec("words.decide"), "s"),
        "words.ns_per_letter": (per(sec("words.build") + sec("words.decide"),
                                    letters, 1e9), "ns/letter"),
        "words.letters": (letters, "count"),
        "words.stuck_letters": (c["stuck_letters"], "count"),
        "dissect.diagonal_s": (sec("dissect.diagonal") - sec("words.decide_in_diagonal"), "s"),
        "dissect.refine_s": (sec("dissect.refine"), "s"),
        "dissect.refine_us_per_unit_tri": (per(sec("dissect.refine"), c["unit_tris"], 1e6),
                                           "us/tri"),
        "dissect.diagonal_tris": (c["diagonal_tris"], "count"),
        "dissect.unit_tris": (c["unit_tris"], "count"),
        "dissect.to_json_s": (sec("dissect.to_json"), "s"),
        "dissect.parse_json_s": (sec("dissect.parse_json"), "s"),
        "dissect.json_bytes": (c["json_bytes"], "bytes"),
        "verify.verify_s": (sec("verify.verify"), "s"),
        "verify.us_per_tri": (per(sec("verify.verify"), c["verified_tris"], 1e6), "us/tri"),
        "verify.poof_s": (sec("verify.poof"), "s"),
        "verify.poof_us_per_tri": (per(sec("verify.poof"), c["poofed_tris"], 1e6), "us/tri"),
        "verify.witness_s": (sec("verify.witness"), "s"),
        "verify.accepted": (c["accepted"], "count"),
        "verify.rejected": (c["rejected"], "count"),
        "verify.wrong_verdicts": (c["wrong_verdicts"], "count"),
        "combi.validate_disk_s": (sec("combi.validate_disk"), "s"),
        "trace.overhead_share": (per(sum(traced.latencies), sum(plain.latencies), 1.0) - 1.0,
                                 "ratio"),
        "trace.uncovered_share": (per(ns["request"] - covered, ns["request"], 1.0),
                                  "ratio"),
        "error_rate": (per(traced.failed, len(traced.latencies), 1.0), "ratio"),
    }


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latticediss" / "__init__.py").is_file():
        print(f"error: no latticediss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.monotonic()
    deadline = t_start + LOOP_DEADLINE_S
    wl = WORKLOADS[args.workload]

    speed = Speed()
    setups = Setups(wl, wl.make(args.seed, 0), speed)
    lib = setups()
    unexpected: list[str] = []

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "kernel": lib.active_kernel(),
              "python": platform.python_version(), "revision": git_revision(),
              "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    count = request_count(wl, args.seconds / 2 if args.trace else args.seconds)
    record["requests_planned"] = count
    if args.trace:
        tracer = Tracer()
        plain, main_tally = request_loop(lib, wl, args.seed, count, deadline, speed, tracer)
        unexpected += plain.unexpected
        metrics = layer_metrics(tracer.spans, main_tally, plain)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        t_base = tracer.spans[0][2] if tracer.spans else 0
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "spans": [[r, n, t0 - t_base, t1 - t_base] for r, n, t0, t1 in tracer.spans],
            "metrics": {k: v for k, (v, _) in metrics.items()}}))
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        main_tally, _ = request_loop(lib, wl, args.seed, count, deadline, speed, setups=setups)
        t_mem = time.monotonic()
        memory_reqs = wl.memory(args.seed)
        peak_mb, outcomes = peak_memory_mb(lib, wl, memory_reqs)
        record["memory_pass_wall_s"] = time.monotonic() - t_mem
        unexpected += [f"memory pass: {o.error}" for o in outcomes if o.error and not o.known_hole]
        lat, wall = main_tally.scaled, main_tally.latencies
        tail_ns, level, beyond = tail(lat)
        record.update({
            "tail_level_pct": level, "tail_samples_beyond": beyond,
            "memory_pass_sizes": [wl.size(r) for r in memory_reqs],
            "wall_time_metrics": {
                "setup_s": statistics.median(setups.seconds),
                "us_per_item": sum(wall) / 1e3 / max(main_tally.items, 1),
                "req_p50_ms": statistics.median(wall) / 1e6,
                "req_tail_ms": tail(wall)[0] / 1e6},
        })
        metrics = {
            "setup_s": (statistics.median(setups.scaled), "s"),
            "us_per_item": (sum(lat) / 1e3 / max(main_tally.items, 1), "us"),
            "req_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "req_tail_ms": (tail_ns / 1e6, "ms"),
            "peak_mem_mb": (peak_mb, "MB"),
        }
    unexpected += setups.unexpected + main_tally.unexpected
    record["setup_samples_s"] = setups.seconds
    record["probe_ns"] = {"median": statistics.median(speed.samples),
                          "min": min(speed.samples), "max": max(speed.samples)}
    sizes = main_tally.sizes
    record.update({
        "requests": len(sizes), "items": main_tally.items,
        "input_sizes": {"min": min(sizes), "median": statistics.median(sizes), "max": max(sizes),
                        "total": sum(sizes)},
        "failed": main_tally.failed, "known_hole_failures": main_tally.known_hole,
        "unexpected_errors": unexpected[:20], "unexpected_error_count": len(unexpected),
    })
    record["wall_s"] = time.monotonic() - t_start
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(main_tally.latencies),
        "failed": main_tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
