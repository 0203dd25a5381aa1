"""Every module of the package and of the test suite uses each name it
imports, the package reads each private name it defines at top level, no
module of the package imports a private name from another, each public
top-level def or class of the package is read by the package or the
benchmark or named in README's library map, importing the CLI and verify
loads none of the standard modules that only code generation, annotations
or `bench` would need, and each CLI command, and the benchmark's import,
loads only the package modules it runs."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "dumps")]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


def test_no_unused_imports_in_src_and_tests():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each private, non-dunder name bound by a top-level
    def, class or assignment."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def loaded_names(source: str | ast.AST) -> set[str]:
    """Every name the module (or an already parsed node) reads, bare or as
    an attribute."""
    names = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_private_definitions_and_loads_are_found():
    source = ("_A = 1\n_b: int = 2\n_c, d = 3, 4\n__all__ = []\n"
              "def _f():\n    _g = 5\nclass _K:\n    pass\nx.attr = y._h(_A)\n")
    assert private_definitions(source) == [(1, "_A"), (2, "_b"), (3, "_c"), (5, "_f"), (7, "_K")]
    assert loaded_names(source) == {"int", "x", "y", "_h", "_A"}


def test_every_private_name_in_src_is_read():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    loaded = set().union(*map(loaded_names, sources.values()))
    defined = [(path, line, name) for path, source in sources.items()
               for line, name in private_definitions(source)]
    assert len(defined) > 40  # the check sees the package's helpers
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in defined if name not in loaded] == []


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each _-prefixed name imported from a module of the
    same package (a relative import)."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level >= 1
            for alias in node.names if alias.name.startswith("_")]


def test_private_imports_are_found():
    source = ("from . import _a, b\nfrom .m import (\n    _c,\n    d,\n)\n"
              "from os import _exit\nfrom __future__ import annotations\n"
              "def f():\n    from ..n import _e\n")
    assert private_imports(source) == [(1, "_a"), (2, "_c"), (9, "_e")]


def test_no_module_in_src_imports_a_private_name_of_another():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each public top-level def or class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def outside_loads(source: str) -> set[str]:
    """Every name the module reads, except a top-level def or class's reads
    of its own name inside its own definition."""
    names = set()
    for node in ast.parse(source).body:
        own = getattr(node, "name", None)
        names |= loaded_names(node) - {own}
    return names


def library_map_names(readme: str) -> set[str]:
    """The last dotted component of each name that opens a backtick span in
    README's library map section."""
    section = readme.partition("\n## Library map\n")[2].partition("\n## ")[0]
    return {m.group(1) for m in re.finditer(r"`(?:\w+\.)*(\w+)[^`]*`", section)}


def test_public_definitions_and_map_names_are_found():
    source = "def f():\n    return f()\nclass K:\n    x = K\ndef _g():\n    pass\nh = K\n"
    assert public_definitions(source) == [(1, "f"), (3, "K")]
    assert outside_loads(source) == {"K"}
    readme = ("## Test\n`skip`\n## Library map\n| `words` | `a.b.c`, `d(x, y)` |\n"
              "## Next\n`skip`\n")
    assert library_map_names(readme) == {"words", "c", "d"}


def test_every_public_name_in_src_is_read_or_in_the_library_map():
    """The package defines only what its own modules or the benchmark read,
    or what README's library map names."""
    sources = {path: path.read_text(encoding="utf-8")
               for top in ("src", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    read = set().union(*map(outside_loads, sources.values()))
    mapped = library_map_names((ROOT / "README.md").read_text(encoding="utf-8"))
    defined = [(path, line, name) for path, source in sources.items()
               if path.is_relative_to(ROOT / "src")
               for line, name in public_definitions(source)]
    assert len(defined) > 60  # the check sees the package's public defs and classes
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in defined if name not in read | mapped] == []


# Standard modules a fresh import of the CLI and verify must not load:
# dataclasses (and inspect, which it pulls in) would generate code at every
# start-up, fractions pulls in decimal, statistics and timeit are bench's,
# and typing builds its classes for annotations that are never evaluated.
UNLOADED = ("dataclasses", "inspect", "fractions", "decimal", "statistics", "timeit", "typing")


def test_cli_and_verify_import_no_code_generation_or_bench_modules():
    # -S: no site module, whose .pth files could import anything first
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import latticediss.cli, latticediss.verify; "
             f"print(json.dumps([m for m in {UNLOADED!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    imported = {alias.name.partition(".")[0] if isinstance(node, ast.Import) else node.module
                for path in sorted((ROOT / "src").rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "dataclasses" not in imported


# The package modules each entry point loads, each run in a fresh
# interpreter: a CLI command through cli.main, as the console script runs
# it, and the five modules the benchmark imports.  A command imports the
# modules it runs beyond cli, words, geometry and errors, so `decide`
# compiles only those; only poof builds a disk, so no command loads combi,
# and the benchmark's import loads neither the CLI nor the Sperner check.
BASE = {"latticediss", "latticediss.cli", "latticediss.errors", "latticediss.geometry",
        "latticediss.words"}
CHECK = BASE | {"latticediss.dissect", "latticediss.verify"}
LOADED = {
    "decide": (["decide", "ABAB"], BASE),
    "decide-polygon": (["decide", "--polygon", "{square}"], BASE),
    "dissect": (["dissect", "{square}", "--unit"], BASE | {"latticediss.dissect"}),
    "verify": (["verify", "{square}", "{dissection}"], CHECK),
    "witness": (["witness", "{unit}", "{halves}"], CHECK),
    "sperner": (["sperner", "ABCD"], BASE | {"latticediss.sperner"}),
    "render": (["render", "{square}", "{dissection}", "-o", "{svg}"],
               BASE | {"latticediss.dissect", "latticediss.svg"}),
    "bench": (["bench", "--lengths", "10"], BASE | {"latticediss.bench"}),
    "realize": (["realize", "ABCD"], BASE | {"latticediss.gen"}),
    "benchmark-import": (None, CHECK - {"latticediss.cli"} | {"latticediss.combi"}),
}


@pytest.mark.parametrize("case", LOADED)
def test_each_entry_point_loads_only_the_package_modules_it_runs(case, tmp_path):
    argv, expected = LOADED[case]
    files = {"square": [[0, 0], [2, 0], [2, 2], [0, 2]], "unit": [[0, 0], [1, 0], [1, 1], [0, 1]],
             "dissection": {"polygon": [[0, 0], [2, 0], [2, 2], [0, 2]], "triangles": [
                 [[0, 0], [2, 0], [1, 1]], [[2, 0], [2, 2], [1, 1]],
                 [[2, 2], [0, 2], [1, 1]], [[0, 2], [0, 0], [1, 1]]]},
             "halves": {"polygon": [[0, 0], [1, 0], [1, 1], [0, 1]], "triangles": [
                 [[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]]}}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, value in files.items():
        paths[name].write_text(json.dumps(value))
    paths["svg"] = tmp_path / "out.svg"
    if argv is None:
        run = ("import latticediss.combi, latticediss.dissect, latticediss.geometry, "
               "latticediss.verify, latticediss.words; code = 0")
    else:  # the command's own output goes to a buffer, the modules to stdout
        run = ("import contextlib, io; from latticediss.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[2:])")
    # -S: no site module, whose .pth files could import anything first
    probe = (f"import json, sys; sys.path.insert(0, sys.argv[1])\n{run}\n"
             "print(json.dumps([code, sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'latticediss')]))")
    args = [a.format(**paths) for a in argv or ()]
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src"), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(expected)]
