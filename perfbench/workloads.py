"""The three workloads: their inputs, their requests and the checks on them.

A request calls the package's public functions the way the CLI commands do.
Every call goes through ``call(name, fn, *args)``; the untraced loop passes a
plain caller and the traced loop one that records a span named after the
layer.  Requests write what they produce into ``out`` as they go, so a check
still sees the verdict of a request that raised afterwards; ``out["answer"]``
holds what the traced and untraced runs of one request must agree on.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from . import inputs
from .reference import color, dissection_error, is_stuck, orient, polygon_area2, tricolor

UNIT_AREA2 = (1_000, 10_000)
WORD_LETTERS = (10_000, 1_000_000)
FOREIGN_TRIANGLES = (50, 500)


class Outcome(NamedTuple):
    items: int
    error: str | None
    known_hole: bool  # the error is the verifier's known acceptance of overlaps
    counts: dict


class Workload(NamedTuple):
    make: Callable  # (seed, i) -> request i
    memory: Callable  # seed -> the requests of the memory pass
    run: Callable  # (lib, request, call, out, traced) -> None
    check: Callable  # (request, out) -> Outcome
    size: Callable  # request -> its input size, for the run record
    per_second: float  # requests per second at reference speed, which sets a run's count


def direct(name, fn, *args):
    return fn(*args)


def _exception(out) -> str | None:
    e = out.get("exception")
    return None if e is None else f"{type(e).__name__}: {e}"


def _same_cycle(a: list, b: list) -> bool:
    return len(a) == len(b) and bool(a) and a[0] in b and (
        b[b.index(a[0]):] + b[:b.index(a[0])] == a)


# --- unit_pipeline: dissect --unit, then verify --mode unit --------------------

def unit_make(seed: int, i: int):
    # One polygon in four has a non-contractible boundary word.
    rng = inputs.rng_for("unit_pipeline", seed, i)
    return inputs.polygon_request(rng, inputs.log_size(i, *UNIT_AREA2), i % 4 != 3)


def unit_memory(seed: int):
    rng = inputs.rng_for("unit_pipeline", seed, "memory")
    return [inputs.polygon_request(rng, UNIT_AREA2[1], True)]


def unit_run(lib, req, call, out, traced: bool) -> None:
    P = call("geometry.parse", lib.parse_polygon_json, req.text)
    if traced:
        # unit_dissection's public stages, so that each is timed on its own.
        ok, res = call("words.decide", lib.decide_contractible,
                       call("geometry.boundary_word", lib.boundary_word, P))
        D = None
        if ok:
            diag = call("dissect.diagonal", lib.diagonal_dissection, P)
            # diagonal_dissection decides again inside; the same decision,
            # timed again right after it, is what its self time leaves out.
            call("words.decide_in_diagonal",
                 lambda: lib.decide_contractible(lib.boundary_word(P)))
            out["diagonal_tris"] = len(diag)
            pieces = []
            for t in diag.triangles:
                pieces.extend(call("dissect.refine", lib.refine_triangle, t).triangles)
            D = lib.Dissection(tuple(pieces))
        else:
            out["stuck_letters"] = len(res)
        out["letters"] = len(P.vertices)
    else:
        D = lib.unit_dissection(P)
    out["answer"] = None if D is None else D.triangles
    if D is None:
        return
    text = call("dissect.to_json", lib.dissection_to_json, P, D)
    out["json"] = text
    _, D2 = call("dissect.parse_json", lib.parse_dissection_json, text)
    out["report"] = call("verify.verify", lib.verify_dissection, P, D2, "unit")


def unit_check(req, out) -> Outcome:
    counts = {k: out[k] for k in ("diagonal_tris", "letters", "stuck_letters") if k in out}
    err = _exception(out)
    if err or "answer" not in out:
        return Outcome(0, err or "no dissection verdict", False, counts)
    if (out["answer"] is not None) != req.contractible:
        return Outcome(0, f"dissection {'built' if out['answer'] else 'refused'} for a polygon "
                          f"whose word is {'' if req.contractible else 'not '}contractible",
                       False, counts)
    if out["answer"] is None:
        return Outcome(0, None, False, counts)
    data = json.loads(out["json"])
    tris = [tuple(tuple(p) for p in t) for t in data["triangles"]]
    truth = dissection_error(req.vertices, tris, unit=True)
    report = out["report"]
    counts.update({"unit_tris": len(tris), "json_bytes": len(out["json"]),
                   "verified_tris": len(tris), "accepted": int(report.valid),
                   "rejected": int(not report.valid),
                   "wrong_verdicts": int(report.valid != (truth is None))})
    if not _same_cycle([tuple(p) for p in data["polygon"]], list(req.vertices)):
        return Outcome(len(tris), "dissection JSON names another polygon", False, counts)
    if truth is not None:
        return Outcome(len(tris), f"output is not a unit dissection: {truth}", False, counts)
    if not report.valid:
        return Outcome(len(tris), "verifier rejected a valid unit dissection", False, counts)
    return Outcome(len(tris), None, False, counts)


# --- long_words: decide WORD -----------------------------------------------------

def words_make(seed: int, i: int):
    # Even requests are closed tree walks (contractible), odd ones uniform.
    rng = inputs.rng_for("long_words", seed, i)
    return inputs.word_request(rng, inputs.log_size(i, *WORD_LETTERS), ("tree", "random")[i % 2])


def words_memory(seed: int):
    # A tenth of the largest size: tracemalloc slows the decider tenfold,
    # and its peak grows linearly with the word.
    return [inputs.word_request(inputs.rng_for("long_words", seed, f"memory-{kind}"),
                                WORD_LETTERS[1] // 10, kind) for kind in ("tree", "random")]


def words_run(lib, req, call, out, traced: bool) -> None:
    w = call("words.build", lib.CyclicWord, req.text)
    ok, res = call("words.decide", lib.decide_contractible, w)
    out["verdict"] = (ok, res)
    out["answer"] = ok


def words_check(req, out) -> Outcome:
    n = len(req.text)
    err = _exception(out)
    if err or "verdict" not in out:
        return Outcome(n, err or "no verdict", False, {})
    ok, res = out["verdict"]
    counts = {"letters": n}
    if ok != req.contractible:
        return Outcome(n, f"decided {ok} on a word whose verdict is {req.contractible}",
                       False, counts)
    if ok:
        if len(res.terminal) > 2 or len(res) != n - len(res.terminal):
            return Outcome(n, f"trace of {len(res)} steps leaves {len(res.terminal)} letters",
                           False, counts)
        return Outcome(n, None, False, counts)
    stuck = str(res)
    counts["stuck_letters"] = len(stuck)
    if not is_stuck(stuck):
        return Outcome(n, "the returned stuck word still has a contracting step", False, counts)
    return Outcome(n, None, False, counts)


# --- foreign_check: verify, then poof and witness, on T-vertex dissections -------

def foreign_make(seed: int, i: int):
    # Labels cycle valid, drop, overlap; polygons alternate contractible or not
    # by triples, so half the valid dissections also take the witness path.
    rng = inputs.rng_for("foreign_check", seed, i)
    return inputs.foreign_request(rng, inputs.log_size(i, *FOREIGN_TRIANGLES),
                                  inputs.LABELS[i % 3], (i // 3) % 2 == 0)


def foreign_memory(seed: int):
    rng = inputs.rng_for("foreign_check", seed, "memory")
    return [inputs.foreign_request(rng, FOREIGN_TRIANGLES[1], "valid", False)]


def foreign_run(lib, req, call, out, traced: bool) -> None:
    P = call("geometry.parse", lib.parse_polygon_json, req.polygon_text)
    _, D = call("dissect.parse_json", lib.parse_dissection_json, req.dissection_text)
    report = call("verify.verify", lib.verify_dissection, P, D, "any")
    out["valid"] = report.valid
    out["answer"] = (report.valid,)
    if not report.valid:
        return
    out["poof"] = call("verify.poof", lib.poof, P, D)
    ok, res = call("words.decide", lib.decide_contractible,
                   call("geometry.boundary_word", lib.boundary_word, P))
    out["decided"] = (ok, len(P.vertices), 0 if ok else len(res))
    witness = None if ok else call("verify.witness", lib.witness_noninteger, P, D)
    out["witness"] = witness
    out["answer"] = (True, ok, witness)


def _poof_error(req, T, points) -> str | None:
    coords = {i: tuple(p) for i, p in points.items()}
    if set(coords.values()) != {v for t in req.triangles for v in t}:
        return "poof vertices differ from the dissection's"
    if any(T.vertex_colors[i] != color(p) for i, p in coords.items()):
        return "poof colors a vertex with the wrong parity"
    if not _same_cycle([coords[i] for i in T.corners], list(req.polygon)):
        return "poof corners differ from the polygon's"
    ids = {p: i for i, p in coords.items()}
    tris = set(T.triangles)
    if any(frozenset(ids[v] for v in t) not in tris for t in req.triangles):
        return "poof lost a triangle of the dissection"
    extra = len(tris) - len(req.triangles)
    flat = sum(1 for t in tris if orient(*(coords[i] for i in t)) == 0)
    if extra != flat:
        return "poof added a triangle that is not degenerate"
    return None


def foreign_check(req, out) -> Outcome:
    n = len(req.triangles)
    err = _exception(out)
    valid = out.get("valid")
    counts = {"verified_tris": n}
    if valid is None:
        return Outcome(n, err or "no verdict", False, counts)
    expected = req.label == "valid"
    counts.update({"accepted": int(valid), "rejected": int(not valid),
                   "wrong_verdicts": int(valid != expected), "poofed_tris": n if valid else 0})
    if valid and req.label == "overlap":
        return Outcome(n, "verifier accepted an overlapping dissection", True, counts)
    if valid != expected:
        return Outcome(n, f"verifier {'accepted' if valid else 'rejected'} a {req.label} "
                          "dissection", False, counts)
    if err or not valid:
        return Outcome(n, err, False, counts)
    T, points = out["poof"]
    ok, letters, stuck = out["decided"]
    counts.update({"letters": letters, "stuck_letters": stuck})
    problem = _poof_error(req, T, points)
    if problem:
        return Outcome(n, problem, False, counts)
    if ok != req.contractible:
        return Outcome(n, f"decided {ok} on a polygon whose verdict is {req.contractible}",
                       False, counts)
    w = out["witness"]
    if not ok and (w is None or set(map(tuple, w)) not in [set(t) for t in req.triangles]
                   or not tricolor(tuple(map(tuple, w)))):
        return Outcome(n, f"witness {w} is not a tricolor triangle of the dissection",
                       False, counts)
    return Outcome(n, None, False, counts)


WORKLOADS = {
    "unit_pipeline": Workload(unit_make, unit_memory, unit_run, unit_check,
                              lambda r: polygon_area2(r.vertices), 9.6),
    "long_words": Workload(words_make, words_memory, words_run, words_check,
                           lambda r: len(r.text), 4.8),
    "foreign_check": Workload(foreign_make, foreign_memory, foreign_run, foreign_check,
                              lambda r: len(r.triangles), 21.6),
}
