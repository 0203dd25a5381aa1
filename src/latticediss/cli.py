"""Command-line interface.

Exit codes: 0 success/contractible, 10 impossible (no dissection or no
realization, or word not contractible), 11 verification failed, 2 usage or
parse errors and output that cannot be written, to a file or to stdout (a
closed pipe or a full disk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .errors import LatticeDissError
from .geometry import (
    DEFAULT_BOUND,
    MAX_SPAN,
    MODES,
    boundary_word,
    parse_polygon_json,
    polygon_to_json,
    read_text,
    signed_area2,
)
from .words import CyclicWord, decide_contractible, stuck_positions

# Each command imports the modules it runs beyond these, so that `decide`
# loads and compiles only words, geometry and errors.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMPOSSIBLE = 10
EXIT_INVALID = 11


_MAX_ERROR = 1000  # characters of an error message shown whole
# Each character that str.splitlines breaks a line at, as its escape: a path
# or an input that an error message echoes may hold one.
_LINE_BREAKS = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error_line(message: str) -> str:
    """The one `error: ...` line of message, its line breaks escaped; one
    over _MAX_ERROR characters, which may echo a whole input, is shown as its
    first part and its length."""
    message = message.translate(_LINE_BREAKS)
    if len(message) > _MAX_ERROR:
        message = f"{message[:_MAX_ERROR // 2]}... ({len(message)} characters)"
    return f"error: {message}\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error: ...` line on stderr, no usage text
        self.exit(EXIT_USAGE, _error_line(message))


def _write(path: str | None, chunks) -> None:
    """Write the text in chunks to path, or to stdout with a newline after
    it.  A file that cannot be written whole is removed."""
    if path is None or path == "-":
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:
                os.remove(path)
                raise
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


_SHOWN_LETTERS = 80  # letters of a rejected word that its error line shows
_STUCK_CHUNK = 8192  # stuck letters written to stderr at a time
_MAX_BENCH_LENGTH = 10**7  # letters of a bench word: building one this long peaks near 100 MB


def _shown(s: str, show=str, note: str = "") -> str:
    """show(s) for an error line, or, for s over _SHOWN_LETTERS characters,
    show of its first _SHOWN_LETTERS, then "...", its length and note."""
    if len(s) <= _SHOWN_LETTERS:
        return show(s)
    return f"{show(s[:_SHOWN_LETTERS])}... ({len(s)} characters{note})"


def _parse_word(s: str) -> CyclicWord:
    if s.isascii() and s.isalpha() and s.isupper():  # nonempty and all in A-Z
        return CyclicWord(s)
    note = ""
    if len(s) > _SHOWN_LETTERS:
        bad = next(i for i, ch in enumerate(s) if not "A" <= ch <= "Z")
        note = f", the first not in A-Z is {s[bad]!r} at position {bad}"
    raise ValueError(f"words must be nonempty strings over A-Z, got {_shown(s, repr, note)}")


def _print_stuck(w: CyclicWord, corners=None) -> None:
    """Say on stderr where reduction of the non-contractible w stopped: the
    stuck word, its letters' original positions and, given the polygon's
    corners, theirs.  The two lines are written _STUCK_CHUNK letters at a
    time, so they cost no more memory than the position array."""
    positions = stuck_positions(w)
    letters, write = w.letters, sys.stderr.write
    starts = range(0, len(positions), _STUCK_CHUNK)
    write("stuck: ")
    for s in starts:
        write("".join([letters[i] for i in positions[s:s + _STUCK_CHUNK]]))
    write("\nstuck positions:")
    for s in starts:
        write("".join([f" {i}" for i in positions[s:s + _STUCK_CHUNK]]))
    write("\n")
    if corners is not None:
        print(f"stuck corners: {json.dumps([corners[i] for i in positions])}", file=sys.stderr)


def cmd_decide(args) -> int:
    if args.polygon is not None:
        P = parse_polygon_json(read_text(args.polygon))
        w = boundary_word(P)
        print(f"word {w}")
    else:  # "-" reads the word from stdin, which takes words too long for an argument
        w = _parse_word(read_text("-").strip() if args.word == "-" else args.word)
    if decide_contractible(w)[0]:
        print("contractible")
        return EXIT_OK
    print("not-contractible")
    sys.stdout.flush()  # a stdout that cannot take the verdict fails before the stuck line
    _print_stuck(w, P.vertices if args.polygon is not None else None)
    return EXIT_IMPOSSIBLE


def cmd_dissect(args) -> int:
    from .dissect import diagonal_dissection, json_chunks, unit_pieces

    P = parse_polygon_json(read_text(args.polygon))
    D = diagonal_dissection(P)
    if D is None:
        w = boundary_word(P)
        print(f"no integral dissection exists (word {w} not contractible)", file=sys.stderr)
        _print_stuck(w, P.vertices)
        return EXIT_IMPOSSIBLE
    # The unit pieces are written as refinement makes them, a slice at a time.
    _write(args.output, json_chunks(P, unit_pieces(D) if args.unit else D.triangles))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .dissect import read_dissection
    from .verify import verify_slices

    P = parse_polygon_json(read_text(args.polygon))
    # A file in the writer's layout is read a slice at a time, and read
    # again only for a failing boundary-chain detail.
    report = read_dissection(args.dissection,
                             lambda slices: verify_slices(P, slices, args.mode, exact=True)[0])
    print(report.to_json())
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_witness(args) -> int:
    from .dissect import read_dissection
    from .verify import verify_slices, witness_slices

    P = parse_polygon_json(read_text(args.polygon))
    # A file in the writer's layout is read a slice at a time: once to
    # verify it, and once more for the witness only when it verifies.
    t = read_dissection(args.dissection, lambda slices: witness_slices(
        P, slices, lambda once: verify_slices(P, once, "any", exact=True)[0]))
    a2 = signed_area2(t)
    print(json.dumps({
        "triangle": t,
        "doubled_area": a2,
        "area": str(a2 // 2) if a2 % 2 == 0 else f"{a2}/2",
    }))
    return EXIT_OK


def cmd_sperner(args) -> int:
    from .sperner import sperner_check

    w = _parse_word(args.word)
    rep = sperner_check(w)
    print(json.dumps({
        "word": str(w),
        "contractible": rep.contractible,
        "triangulations_examined": rep.triangulations_examined,
        "tricolor_free": rep.tricolor_free_count,
        "biconditional": "ok",
        "star_tricolor": rep.star_tricolor,
    }))
    return EXIT_OK


def cmd_render(args) -> int:
    from .dissect import read_dissection
    from .svg import check_span, render_svg

    P = parse_polygon_json(read_text(args.polygon))
    check_span(P)  # before the dissection is read
    if args.dissection:
        text = read_dissection(args.dissection,
                               lambda slices: render_svg(P, chain.from_iterable(slices())))
    else:
        text = render_svg(P)
    _write(args.output, (text,))
    return EXIT_OK


def cmd_bench(args) -> int:
    lengths = []
    for item in filter(None, map(str.strip, args.lengths.split(","))):
        digits = item.lstrip("0")
        if not item.isdecimal() or not digits:
            raise ValueError(f"--lengths must be positive integers, got {item!r}")
        # compared as text first: int() refuses a string of over 4,300 digits
        if len(digits) > 8 or int(digits) > _MAX_BENCH_LENGTH:
            raise ValueError(f"--lengths must be at most {_MAX_BENCH_LENGTH}, got {item}")
        lengths.append(int(digits))
    if not lengths:
        raise ValueError("--lengths must name at least one length")
    from .bench import format_table, run_bench  # it loads statistics and timeit: only here

    print(format_table(run_bench(lengths, seed=args.seed)))
    return EXIT_OK


def cmd_realize(args) -> int:
    from .gen import realize_word

    w = _parse_word(args.word)
    if args.bound < 1:
        raise ValueError(f"--bound must be at least 1, got {args.bound}")
    P = realize_word(w, coord_bound=args.bound)
    if P is None:
        colorless = "".join(sorted(set(w.letters) - set("ABCD")))
        shown = _shown(w.letters)
        if colorless:
            print(f"no lattice polygon realizes {shown}: letters {colorless} have no parity "
                  "color (the colors are A-D)", file=sys.stderr)
        else:
            print(f"no convex lattice polygon realizing {shown} found within bound",
                  file=sys.stderr)
        return EXIT_IMPOSSIBLE
    _write(args.output, (polygon_to_json(P),))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latticediss",
        description="Dissect convex lattice polygons into lattice triangles of area 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide whether a word (or a polygon's boundary word) "
                       "is contractible; if not, print its stuck word to stderr")
    p.add_argument("word", nargs="?", help="cyclic word over A-Z, e.g. ABCDACBADC (- for stdin)")
    p.add_argument("--polygon", help="polygon JSON file instead of a word (- for stdin)")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("dissect", help="construct an integral (or unit, with --unit) dissection")
    p.add_argument("polygon", help="polygon JSON file (- for stdin)")
    p.add_argument("--unit", action="store_true",
                   help="refine to triangles of area exactly 1: writes exactly "
                        "doubled-area/2 triangles, so the JSON grows linearly with the area; "
                        "memory does not, as pieces are refined and written about 64 KB at a "
                        "time")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(fn=cmd_dissect)

    p = sub.add_parser("verify", help="verify a dissection file against a polygon file")
    p.add_argument("polygon")
    p.add_argument("dissection")
    p.add_argument("--mode", choices=MODES, default="any")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("witness", help="exhibit a non-integer-area triangle in a dissection")
    p.add_argument("polygon")
    p.add_argument("dissection")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("sperner", help="tricolor check over all diagonal triangulations, counted "
                       "by dynamic programming: 3-200 letters, under a second at 200")
    p.add_argument("word")
    p.set_defaults(fn=cmd_sperner)

    p = sub.add_parser("render", help="render a polygon (and optional dissection) as SVG")
    p.add_argument("polygon", help=f"polygon JSON file, at most {MAX_SPAN} lattice "
                   "units wide and tall (the grid draws a line per unit)")
    p.add_argument("dissection", nargs="?")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("bench", help="time the decider on random words and fit linearity")
    p.add_argument("--lengths", default="10000,100000,1000000",
                   help=f"comma-separated word lengths, each at most {_MAX_BENCH_LENGTH}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("realize", help="find a convex lattice polygon with a given boundary word")
    p.add_argument("word")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                   help=f"coordinate bound (default {DEFAULT_BOUND})")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(fn=cmd_realize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decide" and (args.word is None) == (args.polygon is None):
        parser.error("decide needs exactly one of WORD or --polygon FILE")
    try:
        if getattr(args, "dissection", None) == "-" and args.polygon == "-":
            raise ValueError("the polygon and the dissection cannot both be read from stdin")
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except OSError as e:
        # Every read and every file write wraps its OSError in a ValueError,
        # so this one came from stdout: a closed pipe or a full disk.  Send what
        # is still buffered, and the flush at exit, to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(_error_line(f"cannot write to stdout: {e}"))
        return EXIT_USAGE
    except (LatticeDissError, ValueError) as e:
        sys.stderr.write(_error_line(str(e)))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
