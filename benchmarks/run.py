"""Benchmark of descartes-folium: one workload per call, measured in fresh child processes.

    python3 benchmarks/run.py --workload verify-q --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
`--trace 0` the run reports the end-to-end metrics listed in BENCHMARK.json,
with `--trace 1` the per-layer metrics of a traced run and the tracing
overhead.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the Python version, nproc, the git commit, the seed and the workload's own
figures.  The exit code is 1 when a correctness check failed and 2 when the
checkout cannot be benchmarked.  Workloads and metrics are described in
benchmarks/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-q", "verify-fp", "ops-coords", "cli")
# Set-up probes per run, half before and half after the measuring child, so
# they sample the machine over the whole run; the reported setup_s is the median.
SETUP_PROBES = 16
DEADLINE_S = 170


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def _worker(args, mode: str, deadline: float) -> dict:
    """Runs benchmarks/worker.py to its end and returns its last stdout line, parsed."""
    command = [
        sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError(f"worker ({mode}) passed the {DEADLINE_S} s deadline")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {child.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "descartes_folium" / "__init__.py").is_file():
        return _fail(f"no package at {ROOT / 'src' / 'descartes_folium'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (ROOT / "benchmarks" / "out").mkdir(exist_ok=True)

    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [_worker(args, "setup", deadline)["setup_s"] for _ in range(probes)]
        result = _worker(args, "run", deadline)
        setups += [_worker(args, "setup", deadline)["setup_s"] for _ in range(probes)]
    except RuntimeError as exc:
        return _fail(str(exc), 1)
    computed = dict(result["metrics"])
    if setups:
        computed["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        return _fail(f"metrics not produced: {', '.join(missing)}", 1)

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "failed_share": failed / attempted if attempted else 1.0,
        "setup_samples_s": setups,
        "details": result["details"],
    }
    print(json.dumps(record, sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<48} {computed[m['name']]:>16.6g} {m['unit']}")
    line = result_line(wanted, computed, attempted, failed)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result_line(wanted: list, computed: dict, attempted: int, failed: int) -> dict:
    """The last stdout line: every wanted metric by name, with its value and unit."""
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }


if __name__ == "__main__":
    sys.exit(main())
