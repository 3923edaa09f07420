"""Smoke test of the benchmark at a tiny size; it checks names, units and checks, never timings.

    PYTHONPATH=src python -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Size(
    verify_samples=5, ops_per_kind=1, trace_op_cycles=1, cli_variants=1, plot_samples=50,
    spawn_repeats=1,
)
# verify-fp's pools are exhaustive, so the smoke test runs it over fp:5 alone
TINY_SPECS = dict(worker.CURVE_SPECS, **{"verify-fp": ("fp:5",)})
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    (ROOT / "benchmarks" / "out").mkdir(exist_ok=True)


def _curves(workload):
    import descartes_folium

    return {
        spec: descartes_folium.Folium(descartes_folium.field_from_spec(spec), 1)
        for spec in TINY_SPECS[workload]
    }


def _check_line(wanted, result, extra):
    computed = {**result["metrics"], **extra}
    tally = result["tally"]
    line = run.result_line(wanted, computed, tally.attempted, tally.failed)
    assert line["correct"], result
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_appear_with_units(workload):
    setup_s, _ = worker.set_up(workload)
    result = workloads.MEASURE[workload](_curves(workload), 3, 0, TINY)
    _check_line(SPEC["end_to_end"], result, {"setup_s": setup_s})
    assert all(result["metrics"][name] > 0 for name in result["metrics"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_appear_with_units(workload):
    out = ROOT / "benchmarks" / "out"
    result = workloads.TRACE[workload](_curves(workload), 3, TINY, out, f"smoke-{workload}")
    probe = {"laws.exotic_fp65537.refused_share": workloads.exotic_probe(3, TINY)}
    _check_line(SPEC["per_layer"], result, probe)
    assert Path(result["details"]["spans"]).is_file()


def test_traced_counts_repeat_at_the_same_seed():
    out = ROOT / "benchmarks" / "out"
    counts = []
    for _ in range(2):
        metrics = workloads.trace_verify(_curves("verify-q"), 5, TINY, out, "smoke-repeat")["metrics"]
        counts.append({
            name: value for name, value in metrics.items()
            if name.endswith((".calls", ".instances", ".ops", ".lines")) or name == "trace.spans"
        })
    assert counts[0] == counts[1]
    assert counts[0]["curve.require_on_curve.calls"] > 0
    assert counts[0]["laws.apply_law.projmul.calls"] > 0


def test_instrumentation_is_undone():
    import descartes_folium.laws as laws
    import descartes_folium.verify as verify

    before = (laws.apply_law, verify.apply_law, verify.pbar, dict(verify.SUITES))
    restore = workloads.instrument(workloads.Tracer())
    assert verify.apply_law is not before[1]
    restore()
    assert (laws.apply_law, verify.apply_law, verify.pbar, dict(verify.SUITES)) == before


def test_ops_check_catches_a_wrong_result(monkeypatch):
    import descartes_folium.laws as laws

    real = laws.apply_law
    monkeypatch.setattr(laws, "apply_law", lambda c, law, p1, p2: real(c, law, p2, p2))
    result = workloads.measure_ops(_curves("ops-coords"), 3, 0, TINY)
    assert result["tally"].failed > 0


def test_verify_check_catches_a_failed_property(monkeypatch):
    import descartes_folium.verify as verify

    real = verify.run_report

    def failing(*args):
        report = real(*args)
        report["properties"][0]["passed"] = False
        return report

    monkeypatch.setattr(verify, "run_report", failing)
    result = workloads.measure_verify(_curves("verify-q"), 3, 0, TINY)
    assert result["tally"].failed > 0


def test_cli_check_catches_a_different_stdout(monkeypatch):
    import descartes_folium.cli as cli

    monkeypatch.setattr(cli, "point_text", lambda point: "not what the process prints")
    result = workloads.measure_cli(_curves("cli"), 3, 0, TINY)
    assert result["tally"].failed > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
