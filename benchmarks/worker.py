"""One benchmark child process: set up, then measure or trace one workload.

    python3 benchmarks/worker.py --mode setup|run --workload <name> --seed <n>
        --seconds <s> --trace 0|1

Run from the root of a checkout.  Set-up is timed first and imports only
`sys` and `time` before its clock starts, so `setup_s` is the cost a user
pays: importing the package (`descartes_folium.cli` for the cli workload)
and building the workload's curves.  The last line of stdout is one JSON
object.
"""

import sys
import time

SETUP_KERNEL_SAMPLES = 5
CURVE_SPECS = {
    "verify-q": ("q",),
    "verify-fp": ("fp:5", "fp:13", "fp:31"),
    "ops-coords": ("q", "fp:65537"),
    "cli": ("q",),
}


def set_up(workload: str) -> tuple:
    """Imports the package and builds the workload's curves; returns (seconds, curves)."""
    start = time.perf_counter()
    import descartes_folium

    if workload == "cli":
        import descartes_folium.cli  # noqa: F401  (what `python -m descartes_folium` loads)
    curves = {
        spec: descartes_folium.Folium(descartes_folium.field_from_spec(spec), 1)
        for spec in CURVE_SPECS[workload]
    }
    return time.perf_counter() - start, curves


def main(argv: list) -> int:
    opts = dict(zip(argv[::2], argv[1::2]))
    workload = opts["--workload"]
    sys.path.insert(0, "src")  # the checkout's own package, never an installed copy
    setup_s, curves = set_up(workload)

    import json
    from pathlib import Path

    import descartes_folium

    if Path("src").resolve() not in Path(descartes_folium.__file__).resolve().parents:
        print(f"error: imported {descartes_folium.__file__}, not ./src", file=sys.stderr)
        return 2
    import refclock

    if opts["--mode"] == "setup":
        # Set-up is too short to hold a clock sample, so it is scaled by the
        # kernel's speed right after it (the package has imported fractions).
        clock = refclock.RefClock()
        for _ in range(SETUP_KERNEL_SAMPLES):
            clock.sample()
        print(json.dumps({"setup_s": setup_s * clock.scale()}))
        return 0

    import workloads

    seed = int(opts["--seed"])
    size = workloads.Size()
    if opts["--trace"] == "1":
        result = workloads.TRACE[workload](curves, seed, size, Path("benchmarks/out"), workload)
        result["metrics"]["laws.exotic_fp65537.refused_share"] = workloads.exotic_probe(seed, size)
    else:
        result = workloads.MEASURE[workload](curves, seed, float(opts["--seconds"]), size)
    tally = result.pop("tally")
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        **result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
