"""Shared helpers for the test suite."""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from descartes_folium import Folium, PrimeField, Rationals, cli

SRC = Path(__file__).resolve().parents[1] / "src"


def rational_curve(a=1) -> Folium:
    field = Rationals()
    return Folium(field, field.element(Fraction(a)))


def prime_curve(p: int, a=1) -> Folium:
    field = PrimeField(p)
    return Folium(field, field.element(a))


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function at every package module name bound to it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "descartes_folium" or module_name.startswith("descartes_folium."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, replacement)


def random_fraction(rng, max_num: int = 20, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_nonzero_fraction(rng, max_num: int = 20, max_den: int = 12) -> Fraction:
    while True:
        value = random_fraction(rng, max_num, max_den)
        if value != 0:
            return value


def nonzero_points(curve) -> list:
    return [point for point in curve.enumerate_points() if point != curve.origin]


def affine_points(curve) -> list:
    return [point for point in curve.enumerate_points() if point.is_affine]


def run_main(*argv) -> subprocess.CompletedProcess:
    """`folium *argv` run in this process: `cli.main` with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(), stderr.getvalue())


def python_process(*args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`, src/ on its PYTHONPATH, for tests of the process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=env)
