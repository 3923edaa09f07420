"""A mutation sweep of the package against `folium verify`.

    PYTHONPATH=src python3 tests/mutation_sweep.py [--out PATH]

Each mutant changes one site of one module of src/descartes_folium in one of
four ways: it swaps a binary operator, flips a comparison, adds 1 to an
integer constant, or drops a unary `-` or `not`.  A fresh interpreter then
imports the mutated package and runs run_report(curve, "all", 0, 40) over q,
fp:5, fp:7 and fp:2 with a = 1, two mutants at a time.  fp:7 reaches the
p = 1 (mod 3) code, and fp:2 the smallest field.  The mutant is killed when
a row FAILs, the run raises (a MemoryError past the memory limit included),
or it passes the time limit; otherwise it survives.  The time limit is
LIMIT_FACTOR times the wall time of the same check on the unmutated package,
which runs first.  A run that only passed the time limit may have been
slowed by the load beside it, so that mutant runs again alone and counts as
killed only if that run kills it too.  The survivors, one line each, go to
tests/mutation_survivors.txt by default, under a header that states the time
limit, counts the kills by reason and names, as module:line:column and
mutation, each mutant that only the time limit killed.  A survivor may carry a third field, written by hand: why it is
equivalent, or which tier-1 test kills it.  A new sweep keeps that field
for every survivor whose module, column, mutation and quoted line still match.
At its end the sweep runs each kept `tier-1:` note's test on that note's
mutant, in a copy of the repository whose src/ holds the mutant, under the
fixed limit NOTED_TEST_LIMIT_S, since each is a whole pytest run, and lists
every note whose test passes there: such a note is stale, and the sweep
then exits 1.

The sweep uses the standard library only.  Its name keeps pytest from
collecting it: it takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "descartes_folium"
MODULES = ("parametrization", "laws", "geometry", "curve", "fields")
LIMIT_FACTOR = 30  # a mutant's time limit, in runs of the unmutated check
NOTED_TEST_LIMIT_S = 60
MEMORY_LIMIT = 1 << 30  # bytes of address space per mutant run
JOBS = 2  # mutants run at once

# No swap leads to `**` or `<<`, so a mutant cannot grow an integer without bound.
BINARY_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
    ast.LShift: ast.RShift,
    ast.RShift: ast.Add,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitAnd,
}
COMPARE_FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}

# Runs in the child: every row of both reports must pass for the mutant to survive.
CHECK = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
from descartes_folium import Folium, PrimeField, Rationals
from descartes_folium.verify import run_report
failed = []
for field in (Rationals(), PrimeField(5), PrimeField(7), PrimeField(2)):
    report = run_report(Folium(field, 1), "all", 0, 40)
    failed += [row["name"] for row in report["properties"] if not row["passed"]]
print(json.dumps(failed))
sys.exit(1 if failed else 0)
"""


def _annotations(tree: ast.Module) -> set:
    """The ids of every node inside an annotation, which `from __future__ import
    annotations` leaves unevaluated, so mutating one changes nothing."""
    roots = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    roots += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.returns]
    return {id(node) for root in roots for node in ast.walk(root)}


def sites(tree: ast.Module) -> list:
    """(node, kind, description) for every mutable site outside annotations, in source order."""
    found, skipped = [], _annotations(tree)
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY_SWAPS:
            found.append((node, "operator", f"{_symbol(node.op)} -> {_symbol(BINARY_SWAPS[type(node.op)]())}"))
        elif isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                flipped = COMPARE_FLIPS[type(op)]()
                found.append(((node, index), "comparison", f"{_symbol(op)} -> {_symbol(flipped)}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, "constant", f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
            found.append((node, "unary", f"drop {_symbol(node.op)}"))
    return sorted(found, key=lambda site: _position(site[0]))


def _position(target) -> tuple:
    node = target[0] if isinstance(target, tuple) else target
    return node.lineno, node.col_offset, target[1] if isinstance(target, tuple) else 0


def _symbol(op) -> str:
    return {
        ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
        ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
        ast.BitXor: "^", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.LtE: "<=",
        ast.Gt: ">", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
        ast.USub: "-", ast.Not: "not",
    }[type(op)]


class _DropUnary(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutate(source: str, index: int) -> str:
    """The module source with site `index` mutated."""
    tree = ast.parse(source)
    target, kind, _ = sites(tree)[index]
    if kind == "operator":
        target.op = BINARY_SWAPS[type(target.op)]()
    elif kind == "comparison":
        node, position = target
        node.ops[position] = COMPARE_FLIPS[type(node.ops[position])]()
    elif kind == "constant":
        target.value += 1
    else:
        tree = _DropUnary(target).visit(tree)
    return ast.unparse(ast.fix_missing_locations(tree))


# Why a run killed its mutant, in the order the header counts them.
ROW_FAILED, RAISED, TIME_LIMIT = "a failing row", "a raise", "the time limit"


def run_check(package_root: Path, limit_s: float) -> tuple:
    """(kill, detail) for the package under `package_root`: kill is None when every row
    passed, else ROW_FAILED, RAISED or TIME_LIMIT, when no verdict came in `limit_s` seconds."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", CHECK],
            env={"PYTHONPATH": str(package_root), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=limit_s,
        )
    except subprocess.TimeoutExpired:
        return TIME_LIMIT, f"no verdict in {limit_s:.1f} s"
    if done.returncode == 0:
        return None, "all rows passed"
    lines = done.stdout.strip().splitlines()
    if lines and lines[-1].startswith("["):
        return ROW_FAILED, f"{len(json.loads(lines[-1]))} rows failed"
    error = done.stderr.strip().splitlines()
    return RAISED, f"raised: {error[-1] if error else done.returncode}"


def run_mutant(module: str, source: str, index: int, scratch: Path, limit_s: float) -> tuple:
    root = scratch / f"{module}-{index}"
    shutil.copytree(PACKAGE, root / "descartes_folium", ignore=shutil.ignore_patterns("__pycache__"))
    (root / "descartes_folium" / f"{module}.py").write_text(mutate(source, index))
    try:
        return run_check(root, limit_s)
    finally:
        shutil.rmtree(root)


# Runs in the child: one tier-1 test under the same address-space limit as CHECK.
NOTED_TEST = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
import pytest
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def noted_test_passes(module: str, source: str, index: int, test: str, scratch: Path) -> bool:
    """True when the tier-1 test a note names passes on the mutant, so the note is stale.

    The test runs in a copy of the repository, so the tests that start the CLI
    in a child process import the mutant from that copy's src/ as well.
    """
    root = scratch / f"note-{module}-{index}"
    shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
    (root / "src" / "descartes_folium" / f"{module}.py").write_text(mutate(source, index))
    try:
        done = subprocess.run(
            [sys.executable, "-c", NOTED_TEST, test],
            cwd=root,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            timeout=NOTED_TEST_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    finally:
        shutil.rmtree(root)
    return done.returncode == 0


def _notes(path: Path) -> dict:
    """The hand-written third field of each survivor in an earlier list, keyed by module, column,
    mutation and quoted line: the line number may move, but the column only moves with the text."""
    notes = {}
    for line in path.read_text().splitlines() if path.exists() else []:
        if line and not line.startswith("#"):
            head, text, *note = line.split("  |  ")
            site, mutation = head.split("  ", 1)
            module, _, column = site.split(":")
            if note:
                notes[module, int(column), mutation, text] = note[0]
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tests" / "mutation_survivors.txt"))
    args = parser.parse_args(argv)

    begin = time.monotonic()
    kill, detail = run_check(PACKAGE.parent, NOTED_TEST_LIMIT_S)
    unmutated_s = time.monotonic() - begin
    limit_s = LIMIT_FACTOR * unmutated_s
    if kill:
        print(f"the unmutated package does not pass: {detail}", file=sys.stderr)
        return 2

    start = time.monotonic()
    notes = _notes(Path(args.out))
    lines, totals, noted, timed = [], [], [], []
    kills, rerun, spared = Counter(), 0, 0
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(JOBS) as pool:
        for module in MODULES:
            source = (PACKAGE / f"{module}.py").read_text()
            found = sites(ast.parse(source))
            run = functools.partial(run_mutant, module, source, scratch=Path(scratch), limit_s=limit_s)
            outcomes = [kill for kill, _ in pool.map(run, range(len(found)))]
            for index, kill in enumerate(outcomes):
                if kill == TIME_LIMIT:  # the pool is idle here, so this run is alone
                    rerun += 1
                    outcomes[index], _ = run(index)
                    spared += outcomes[index] is None
            kills.update(kill for kill in outcomes if kill)
            alive = 0
            for index, ((target, kind, description), kill) in enumerate(zip(found, outcomes)):
                line, column, _ = _position(target)
                if kill == TIME_LIMIT:
                    timed.append(f"{module}.py:{line}:{column} ({description})")
                if kill is None:
                    alive += 1
                    text = source.splitlines()[line - 1].strip()
                    note = notes.get((f"{module}.py", column, f"{kind}  {description}", text))
                    lines.append(f"{module}.py:{line}:{column}  {kind}  {description}  |  {text}" + (f"  |  {note}" if note else ""))
                    if note and note.startswith("tier-1: "):
                        noted.append(((module, source, index, note.removeprefix("tier-1: ")), lines[-1]))
            totals.append(f"{module}.py: {alive} of {len(found)} survived")
            print(totals[-1], flush=True)
        passes = pool.map(lambda note: noted_test_passes(*note[0], Path(scratch)), noted)
        stale = [line for (_, line), passed in zip(noted, passes) if passed]

    header = [
        "# Survivors of tests/mutation_sweep.py: run_report(curve, 'all', 0, 40) over q, fp:5, fp:7 and fp:2, a = 1.",
        "# One line per surviving mutant: module:line:column, kind, mutation, and the original line.",
        "# A third field, kept across sweeps, says 'equivalent: why' or 'tier-1: the test that kills it'.",
        *(f"# {total}" for total in totals),
        f"# time limit: {limit_s:.1f} s, {LIMIT_FACTOR} times the unmutated check's {unmutated_s:.2f} s",
        f"# kills: {', '.join(f'{kills[kind]} by {kind}' for kind in (ROW_FAILED, RAISED, TIME_LIMIT))};"
        f" {rerun} time-limit kills ran again alone, and {spared} of them survived that run",
        f"# killed by the time limit alone: {', '.join(timed) or 'none'}",
        f"# {len(lines)} survivors",
    ]
    Path(args.out).write_text("\n".join([*header, *lines]) + "\n")
    print(f"{len(lines)} survivors in {time.monotonic() - start:.0f} s; list in {args.out}")
    print(f"{len(noted)} tier-1 notes checked on their mutants; {len(stale)} name a test that passes there")
    for entry in stale:
        print(f"stale: {entry}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
