"""The benchmark's workloads: inputs made from the seed, expected results, timed loops.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned.  Expected results never come from the code
under test: `ops-coords` recomputes each answer from the parameters it drew
with `Oracle`, the verify workloads require every property to pass and the
report to repeat byte for byte, and `cli` compares each process's exit code,
stdout and written file with the same command run in-process through
`cli.main`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import descartes_folium.cli as cli
import descartes_folium.curve as curve_mod
import descartes_folium.fields as fields
import descartes_folium.geometry as geometry
import descartes_folium.laws as laws
import descartes_folium.verify as verify
from refclock import RefClock
from spans import Tracer, instrument, layer_metrics

A = 1  # the curve parameter of every workload
# southmul and westmul raise FieldTooLargeForScan over fp:65537 today, so
# the timed stream keeps them over q only; see METRICS.md.
EXOTIC_LAWS = ("southmul", "westmul")
Q_HEIGHT = 2**31
CLI_PLOT = "benchmarks/out/cli-plot.svg"
# The cli layer split is measured on the cli workload only; elsewhere the
# workload never reaches the cli layer and the split reads zero.
CLI_SPLIT_NOT_REACHED = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0}
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import descartes_folium.cli; "
    "print(time.perf_counter() - start)"
)


@dataclass(frozen=True)
class Size:
    """How much work one run does; `Size()` is what the benchmark runs."""

    verify_samples: int = 200
    ops_per_kind: int = 20
    trace_op_cycles: int = 20
    cli_variants: int = 2
    plot_samples: int = 2000
    spawn_repeats: int = 5


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# -- expected values, from plain numbers ----------------------------------


class Oracle:
    """The folium with a = 1 over q or fp:<p>, computed on Fractions or ints mod p."""

    def __init__(self, spec: str):
        self.p = None if spec == "q" else int(spec[3:])

    def num(self, value):
        return value % self.p if self.p else Fraction(value)

    def inv(self, value):
        return pow(value, -1, self.p) if self.p else 1 / Fraction(value)

    def canonical(self, x, y, z) -> tuple:
        for pivot in (z, x, y):
            if self.num(pivot) != 0:
                scale = self.inv(pivot)
                return (self.num(x * scale), self.num(y * scale), self.num(z * scale))
        raise ValueError("(0 : 0 : 0)")

    def pbar(self, t) -> tuple:
        return self.canonical(3 * A * t, 3 * A * t * t, 1 + t**3)

    def pbarbar(self, s) -> tuple:
        return self.canonical(3 * A * s * s, 3 * A * s, 1 + s**3)

    def sigma(self, point: tuple) -> tuple:
        x, y, z = point
        return self.canonical(y, x, z)

    def param(self, rng: random.Random, height: int):
        """A parameter other than 0 and -1, so every law and map below is defined."""
        while True:
            if self.p:
                t = rng.randrange(self.p)
            else:
                t = Fraction(rng.randint(-height, height), rng.randint(1, height))
            if self.num(t) not in (0, self.num(-1)):
                return t

    def raw(self, t, rng: random.Random) -> tuple:
        """pbar(t) scaled by a random nonzero factor, i.e. not in canonical form."""
        if self.p:
            scale = rng.randrange(1, self.p)
        else:
            scale = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice((1, -1))
        return tuple(self.num(c * scale) for c in self.pbar(t))

    def law(self, law: str, t1, t2) -> tuple:
        n, inv = self.num, self.inv
        if law in ("projmul", "projmul2", "fieldmul"):
            return self.pbar(n(t1 * t2))
        if law == "star":
            return self.pbar(n(-t1 * t2))
        if law == "addsouth":
            return self.pbar(n(t1 + t2))
        if law == "addwest":
            return self.pbarbar(n(inv(t1) + inv(t2)))
        if law == "southmul":
            return self.pbar(n((t1 + 1) * (t2 + 1) - 1))
        if law == "westmul":
            return self.sigma(self.pbar(n((inv(t1) + 1) * (inv(t2) + 1) - 1)))
        raise ValueError(law)

    def inverse(self, law: str, t) -> tuple:
        n, inv = self.num, self.inv
        if law in ("addsouth", "addwest"):
            return self.pbar(n(-t))
        if law == "southmul":
            return self.pbar(n(inv(t + 1) - 1))
        if law == "westmul":
            return self.sigma(self.pbar(n(inv(inv(t) + 1) - 1)))
        return self.sigma(self.pbar(t))

    def literal(self, point: tuple) -> str:
        x, y, z = point
        return f"({x}, {y})" if z == 1 else f"({x} : {y} : {z})"


# -- shared helpers ------------------------------------------------------


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def percentile(values: list, share: float):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


@contextlib.contextmanager
def _instrumented(tracer: Tracer):
    restore = instrument(tracer)
    try:
        yield
    finally:
        restore()


def _write_spans(tracer: Tracer, out_dir: Path, workload: str, seed: int) -> str:
    path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(path)
    return str(path)


# -- verify-q and verify-fp ----------------------------------------------


def _verdict(curves: dict, seed: int, samples: int, tally: Tally) -> tuple:
    """run_report(..., "all", ...) on every curve; returns ({spec: (start, end)}, reports)."""
    spans, reports = {}, []
    for spec, curve in curves.items():
        start = time.perf_counter()
        try:
            report = verify.run_report(curve, "all", seed, samples)
        except Exception as exc:  # a crash is a failed operation, reported below
            tally.record(False)
            report = {"field": spec, "error": repr(exc)}
        spans[spec] = (start, time.perf_counter())
        for prop in report.get("properties", ()):
            tally.record(prop["passed"])
        reports.append(report)
    return spans, reports


def _wall(spans: dict) -> float:
    return sum(end - start for start, end in spans.values())


def _verify_details(reports: list, first: list, tally: Tally) -> dict:
    """Checks a verdict against the run's first one; the digest must repeat."""
    for report, expected in zip(reports, first):
        if digest(report) != digest(expected):
            tally.record(False)
    return {report.get("field", "?"): digest(report) for report in reports}


def measure_verify(curves: dict, seed: int, seconds: float, size: Size) -> dict:
    tally = Tally()
    spans, first, instances = {spec: [] for spec in curves}, None, 0
    began = time.perf_counter()
    with RefClock() as clock:
        while True:
            per_field, reports = _verdict(curves, seed, size.verify_samples, tally)
            for spec, span in per_field.items():
                spans[spec].append(span)
            if first is None:
                first = reports
                instances = sum(p["instances"] for r in reports for p in r.get("properties", ()))
            digests = _verify_details(reports, first, tally)
            if time.perf_counter() - began + _wall(per_field) > seconds:
                break
    # per field, so a slow stretch of the machine during one report is dropped
    verify_s = sum(
        statistics.median(clock.normalize(*span) for span in field_spans)
        for field_spans in spans.values()
    )
    wall_s = sum(statistics.median(b - a for a, b in field_spans) for field_spans in spans.values())
    return {
        "metrics": {
            "latency_p50_ms": verify_s * 1000,
            "throughput_per_s": instances / verify_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "tally": tally,
        "details": {
            "verify_s": verify_s,
            "instances_per_s": instances / verify_s,
            "wall_verify_s": wall_s,
            "verdicts": len(next(iter(spans.values()))),
            "instances_per_verdict": instances,
            "report_digests": digests,
        },
    }


def trace_verify(curves: dict, seed: int, size: Size, out_dir: Path, workload: str) -> dict:
    tally = Tally()
    _, first = _verdict(curves, seed, size.verify_samples, tally)  # warm-up
    per_field, reports = _verdict(curves, seed, size.verify_samples, tally)
    untraced = _wall(per_field)
    _verify_details(reports, first, tally)
    tracer = Tracer()
    with _instrumented(tracer), tracer.span("bench.verdict"):
        per_field, reports = _verdict(curves, seed, size.verify_samples, tally)
    traced = _wall(per_field)
    digests = _verify_details(reports, first, tally)
    metrics = layer_metrics(tracer)
    metrics.update(CLI_SPLIT_NOT_REACHED)
    metrics["trace.overhead_share"] = traced / untraced - 1
    return {
        "metrics": metrics,
        "tally": tally,
        "details": {"report_digests": digests, "spans": _write_spans(tracer, out_dir, workload, seed)},
    }


# -- ops-coords ------------------------------------------------------------


def _ops_stream(curves: dict, seed: int, per_kind: int) -> list:
    """(label, curve, raw triples, call, expected) for every call of one cycle, shuffled."""
    rng = random.Random(seed)
    ops = []
    for spec, curve in curves.items():
        oracle = Oracle(spec)
        law_names = [law.value for law in laws.LawKind if spec == "q" or law.value not in EXOTIC_LAWS]

        def draw(count):
            ts = [oracle.param(rng, Q_HEIGHT) for _ in range(count)]
            return ts, [oracle.raw(t, rng) for t in ts]

        for _ in range(per_kind):
            for name in law_names:
                ts, raws = draw(2)
                law = laws.LawKind(name)
                ops.append((f"apply_law.{name}@{spec}", curve, raws,
                            lambda c, p, law=law: laws.apply_law(c, law, p[0], p[1]),
                            oracle.law(name, *ts)))
            name = rng.choice(law_names)
            ts, raws = draw(1)
            law = laws.LawKind(name)
            ops.append((f"law_inverse@{spec}", curve, raws,
                        lambda c, p, law=law: laws.law_inverse(c, law, p[0]),
                        oracle.inverse(name, ts[0])))
            ts, raws = draw(2)
            ops.append((f"third_intersection@{spec}", curve, raws,
                        lambda c, p: geometry.third_intersection(c, p[0], p[1]),
                        oracle.pbar(oracle.num(-oracle.inv(ts[0] * ts[1])))))
            ts, raws = draw(3)
            if rng.random() < 0.5:  # make the triple collinear: t1 t2 t3 = -1
                ts[2] = oracle.num(-oracle.inv(ts[0] * ts[1]))
                raws[2] = oracle.raw(ts[2], rng)
            ops.append((f"collinear3@{spec}", curve, raws,
                        lambda c, p: geometry.collinear3(c, p[0], p[1], p[2]),
                        oracle.num(ts[0] * ts[1] * ts[2]) == oracle.num(-1)))
            ts, raws = draw(1)
            ops.append((f"perp@{spec}", curve, raws,
                        lambda c, p: laws.perp(c, p[0]),
                        oracle.pbar(oracle.num(-oracle.inv(ts[0])))))
    rng.shuffle(ops)
    return ops


def _run_ops(ops: list, tally: Tally, tracer: Tracer | None = None) -> list:
    """Runs one cycle; returns (start, end) of each completed call."""
    of = curve_mod.ProjectivePoint.of
    spans = []
    for label, curve, raws, call, expected in ops:
        span = tracer.span(f"bench.op.{label}") if tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                result = call(curve, [of(curve.field, *raw) for raw in raws])
            except Exception:  # a refused or crashed call is a failed operation
                tally.record(False)
                continue
            end = time.perf_counter()
        if isinstance(result, bool):
            ok = result == expected
        else:
            ok = (result.x.value, result.y.value, result.z.value) == expected
        tally.record(ok)
        if ok:
            spans.append((start, end))
    return spans


def measure_ops(curves: dict, seed: int, seconds: float, size: Size) -> dict:
    tally = Tally()
    ops = _ops_stream(curves, seed, size.ops_per_kind)
    starts, ends = array("d"), array("d")
    rss = None
    began = time.perf_counter()
    with RefClock() as clock:
        while True:  # whole cycles only, so every run has the same mix
            cycle_start = time.perf_counter()
            for start, end in _run_ops(ops, tally):
                starts.append(start)
                ends.append(end)
            # after one cycle, so the stored times (more for a faster program) stay out of it
            rss = rss or peak_rss_mb()
            now = time.perf_counter()
            if now - began + (now - cycle_start) > seconds:
                break
    latencies = [clock.normalize(start, end) for start, end in zip(starts, ends)]
    p50_ms = statistics.median(latencies) * 1000
    ops_per_s = len(latencies) / sum(latencies)
    return {
        "metrics": {
            "latency_p50_ms": p50_ms,
            "throughput_per_s": ops_per_s,
            "peak_rss_mb": rss,
        },
        "tally": tally,
        "details": {
            "ops_per_s": ops_per_s,
            "op_p50_us": p50_ms * 1000,
            "op_p99_us": percentile(latencies, 0.99) * 1e6,
            "wall_op_p50_us": statistics.median(b - a for a, b in zip(starts, ends)) * 1e6,
            "calls": len(latencies),
            "calls_per_cycle": len(ops),
        },
    }


def exotic_probe(seed: int, size: Size) -> float:
    """Share of southmul/westmul calls over fp:65537 that raise; they exist there since p = 2 mod 3."""
    field = fields.field_from_spec("fp:65537")
    curve = curve_mod.Folium(field, A)
    oracle, rng = Oracle("fp:65537"), random.Random(seed)
    refused = attempted = 0
    for name in EXOTIC_LAWS:
        for _ in range(size.ops_per_kind):
            points = [curve_mod.ProjectivePoint.of(field, *oracle.raw(oracle.param(rng, 0), rng))
                      for _ in range(2)]
            attempted += 1
            try:
                laws.apply_law(curve, laws.LawKind(name), *points)
            except Exception:
                refused += 1
    return refused / attempted


def trace_ops(curves: dict, seed: int, size: Size, out_dir: Path, workload: str) -> dict:
    tally = Tally()
    ops = _ops_stream(curves, seed, size.ops_per_kind)
    _run_ops(ops, tally)  # warm-up
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(size.trace_op_cycles):  # alternate, so a slow stretch hits both sides
        untraced.append(_timed(lambda: _run_ops(ops, tally)))
        with _instrumented(tracer):
            traced.append(_timed(lambda: _run_ops(ops, tally, tracer)))
    metrics = layer_metrics(tracer)
    metrics.update(CLI_SPLIT_NOT_REACHED)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    return {
        "metrics": metrics,
        "tally": tally,
        "details": {"spans": _write_spans(tracer, out_dir, workload, seed)},
    }


# -- cli -------------------------------------------------------------------


def _cli_commands(seed: int, size: Size) -> list:
    """One cycle of argv lists: op, inv, chord, collinear, eval, branch, count, plot, verify."""
    rng = random.Random(seed)
    oracle = Oracle("q")
    law_names = [law.value for law in laws.LawKind]
    maps = ("pbar", "pbarbar", "paffine", "paffineprime")
    commands = []
    for variant in range(size.cli_variants):
        fmt = ["--format", "json"] if variant % 2 else []

        def point():
            t = oracle.param(rng, 9)
            # alternate the affine and the scaled projective literal
            return oracle.literal(oracle.pbar(t) if rng.random() < 0.5 else oracle.raw(t, rng)), t

        (p1, t1), (p2, t2), (p3, _) = point(), point(), point()
        if variant % 2 == 0:
            p3 = oracle.literal(oracle.pbar(oracle.num(-oracle.inv(t1 * t2))))
        commands += [
            ["op", *fmt, "--law", rng.choice(law_names), p1, p2],
            ["inv", *fmt, "--law", rng.choice(law_names), p3],
            ["chord", *fmt, p1, p2],
            ["collinear", *fmt, p1, p2, p3],
            ["eval", *fmt, "--map", maps[variant % 4], f"--t={oracle.param(rng, 9)}"],
            ["branch", *fmt, p2],
            ["count", *fmt, "--field", "fp:13"],
            ["plot", *fmt, "--samples", str(size.plot_samples),
             "--overlay", f"chord:{t1},{t2}", "--out", CLI_PLOT],
            ["verify", *fmt, *(("--field", "fp:5", "--suite", "axioms") if variant % 2
                               else ("--field", "fp:13", "--suite", "geometry"))],
        ]
    return commands


def _in_process(argv: list) -> tuple:
    """(exit code, stdout, plot bytes or None) of cli.main in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue(), _plot_bytes(argv)


def _plot_bytes(argv: list):
    return Path(CLI_PLOT).read_bytes() if argv[0] == "plot" else None


def _child_env() -> dict:
    src = str(Path("src").resolve())
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _spawn(argv: list, env: dict) -> tuple:
    """Runs one process to its end; returns ((start, end), completed process)."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    return (start, time.perf_counter()), done


def measure_cli(curves: dict, seed: int, seconds: float, size: Size) -> dict:
    tally = Tally()
    env = _child_env()
    commands = _cli_commands(seed, size)
    expected = [_in_process(argv) for argv in commands]
    spans = []
    # The kernel is sampled between processes, never beside one: running
    # next to the process under test, it would slow that process and itself.
    clock = RefClock()
    began = time.perf_counter()
    while True:  # whole cycles only, so every run has the same mix
        cycle_start = time.perf_counter()
        for argv, (code, stdout, plot) in zip(commands, expected):
            clock.sample()
            span, done = _spawn([sys.executable, "-m", "descartes_folium", *argv], env)
            ok = code == 0 and done.returncode == code and done.stdout == stdout
            ok = ok and _plot_bytes(argv) == plot
            tally.record(ok)
            if ok:
                spans.append(span)
        now = time.perf_counter()
        if now - began + (now - cycle_start) > seconds:
            break
    clock.sample()
    latencies = [clock.normalize(*span) for span in spans]
    p50_ms = statistics.median(latencies) * 1000
    return {
        "metrics": {
            "latency_p50_ms": p50_ms,
            "throughput_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        },
        "tally": tally,
        "details": {
            "cli_p50_ms": p50_ms,
            "cli_p90_ms": percentile(latencies, 0.9) * 1000,
            "wall_cli_p50_ms": statistics.median(b - a for a, b in spans) * 1000,
            "processes": len(latencies),
            "commands_per_cycle": len(commands),
        },
    }


def trace_cli(curves: dict, seed: int, size: Size, out_dir: Path, workload: str) -> dict:
    tally = Tally()
    env = _child_env()
    interpreter = []
    for _ in range(size.spawn_repeats):
        (start, end), _ = _spawn([sys.executable, "-c", "pass"], env)
        interpreter.append(end - start)
    imports = []
    for _ in range(size.spawn_repeats):
        _, done = _spawn([sys.executable, "-c", IMPORT_PROBE], env)
        tally.record(done.returncode == 0)
        imports.append(float(done.stdout) if done.returncode == 0 else float("nan"))
    commands = _cli_commands(seed, size)
    expected = [_in_process(argv) for argv in commands]  # also the warm-up
    tracer = Tracer()
    mains, traced = [], []
    for argv, want in zip(commands, expected):  # alternate, so a slow stretch hits both sides
        got = {}
        mains.append(_timed(lambda: got.update(untraced=_in_process(argv))))
        with _instrumented(tracer), tracer.span(f"bench.command.{argv[0]}"):
            traced.append(_timed(lambda: got.update(traced=_in_process(argv))))
        tally.record(want[0] == 0 and got["untraced"] == want and got["traced"] == want)
    metrics = layer_metrics(tracer)
    metrics["cli.interpreter_ms"] = statistics.median(interpreter) * 1000
    metrics["cli.import_ms"] = statistics.median(imports) * 1000
    metrics["cli.main_ms"] = statistics.median(mains) * 1000
    metrics["trace.overhead_share"] = sum(traced) / sum(mains) - 1
    return {
        "metrics": metrics,
        "tally": tally,
        "details": {"spans": _write_spans(tracer, out_dir, workload, seed)},
    }


MEASURE = {
    "verify-q": measure_verify,
    "verify-fp": measure_verify,
    "ops-coords": measure_ops,
    "cli": measure_cli,
}
TRACE = {
    "verify-q": trace_verify,
    "verify-fp": trace_verify,
    "ops-coords": trace_ops,
    "cli": trace_cli,
}
