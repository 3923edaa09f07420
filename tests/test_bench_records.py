"""The committed benchmark records agree with their own runs.

Each BENCH_*.json at the repository root holds alternated parent/change runs
and a summary per set and workload.  Every summary row must recompute from
those runs: the medians, the interquartile range (statistics.quantiles,
inclusive method, Q3 - Q1), the per-pair ratios change / base rounded to 3
decimals, and the wins, counted as strict improvements.  Wins are checked for
latency, throughput and setup time; the peak RSS wins of the older records
count ties in more than one way, so they are left out.  Every run a row
summarizes exists once, exited 0 and failed no operation.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
LOWER_IS_BETTER = {"latency_p50_ms": True, "throughput_per_s": False, "peak_rss_mb": True, "setup_s": True}
WINS_CHECKED = ("latency_p50_ms", "throughput_per_s", "setup_s")


def _rows(record):
    return [(record.name, index) for index, _ in enumerate(json.loads(record.read_text())["summary"])]


ROWS = [row for record in RECORDS for row in _rows(record)]


def _iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _summarized_runs(record, row, side):
    """The run of `side` for each seed of the row, in seed order; each must exist once."""
    runs = []
    for seed in row["seeds"]:
        matches = [
            run
            for run in record["runs"]
            if (run["set"], run["workload"], run["seed"], run["side"]) == (row["set"], row["workload"], seed, side)
        ]
        assert len(matches) == 1, f"{row['set']} {row['workload']} seed {seed} {side}: {len(matches)} runs"
        runs.append(matches[0])
    return runs


def test_there_are_records():
    assert RECORDS and ROWS


@pytest.mark.parametrize("name, index", ROWS)
def test_summary_row_recomputes_from_its_runs(name, index):
    record = json.loads((ROOT / name).read_text())
    row = record["summary"][index]
    base = _summarized_runs(record, row, row["base"])
    new = _summarized_runs(record, row, row["new"])
    assert row["pairs"] == len(row["seeds"])
    for run in base + new:
        assert run["exit"] == 0 and run["result"]["failed"] == 0, (run["set"], run["workload"], run["seed"], run["side"])
    for metric, lower_is_better in LOWER_IS_BETTER.items():
        summary = row[metric]
        base_values = [run["result"]["metrics"][metric]["value"] for run in base]
        new_values = [run["result"]["metrics"][metric]["value"] for run in new]
        assert summary["base_median"] == pytest.approx(statistics.median(base_values), abs=1e-6), metric
        assert summary["new_median"] == pytest.approx(statistics.median(new_values), abs=1e-6), metric
        assert summary["base_iqr"] == pytest.approx(_iqr(base_values), abs=1e-6), metric
        assert summary["new_iqr"] == pytest.approx(_iqr(new_values), abs=1e-6), metric
        assert summary["ratios"] == [round(n / b, 3) for b, n in zip(base_values, new_values)], metric
        if metric in WINS_CHECKED:
            wins = sum(n < b if lower_is_better else n > b for b, n in zip(base_values, new_values))
            assert summary["new_wins"] == wins, metric
