"""Every demo script runs to completion against the source tree."""

from pathlib import Path

import pytest

from helpers import python_process

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run in a scratch directory: the SVG demo writes its output file there
    proc = python_process(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
