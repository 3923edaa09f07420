"""Command line front end.

Every subcommand shares the global flags --field, --a, --format and --seed.
Point literals use `(x : y : z)` or the affine shorthand `(x, y)`; the text
the commands print parses back as input.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 domain error.  verify, plot and
--format json import what they need when they run, so a curve command
starts without loading them.  plot draws the real curve, so it refuses a
--field other than q.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .branches import classify_branch
from .curve import Folium, ProjectivePoint
from .errors import BadLiteral, FoliumError, UnorderedField
from .fields import Field, field_from_spec
from .geometry import chord_or_tangent, collinear3, third_intersection
from .laws import LawKind, apply_law, law_inverse, perp, proj_mul, star_mul
from .parametrization import ParamMap, pbar_inv

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def parse_point(field: Field, text: str) -> ProjectivePoint:
    """Parse `(x : y : z)` or the affine shorthand `(x, y)`."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise BadLiteral(f"bad point literal {text!r}; expected (x : y : z)")
        x, y, z = (field.from_literal(part) for part in parts)
        return ProjectivePoint(x, y, z)
    parts = body.split(",")
    if len(parts) != 2:
        raise BadLiteral(f"bad point literal {text!r}; expected (x : y : z) or (x, y)")
    x, y = (field.from_literal(part) for part in parts)
    return ProjectivePoint(x, y, field.one)


def point_text(point: ProjectivePoint) -> str:
    return str(point)


def point_json(point: ProjectivePoint) -> dict:
    return {"x": str(point.x), "y": str(point.y), "z": str(point.z)}


def line_json(line) -> dict:
    return {"m": str(line.m), "n": str(line.n), "p": str(line.p)}


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _curve(args) -> Folium:
    field = field_from_spec(args.field)
    return Folium(field, field.from_literal(args.a))


def _curve_point(curve: Folium, literal: str) -> ProjectivePoint:
    point = parse_point(curve.field, literal)
    curve.require_on_curve(point)
    return point


# -- the curve subcommands -----------------------------------------------


def _point_result(point: ProjectivePoint, **fields) -> tuple:
    return point_text(point), {**fields, "point": point_json(point)}


def _eval(curve: Folium, args) -> tuple:
    t = curve.field.from_literal(args.t)
    return _point_result(ParamMap(args.map).evaluate(curve, t), map=args.map, t=str(t))


def _op(curve: Folium, args, p1: ProjectivePoint, p2: ProjectivePoint) -> tuple:
    return _point_result(apply_law(curve, LawKind(args.law), p1, p2), law=args.law)


def _inv(curve: Folium, args, point: ProjectivePoint) -> tuple:
    return _point_result(law_inverse(curve, LawKind(args.law), point), law=args.law)


def _perp(curve: Folium, args, point: ProjectivePoint) -> tuple:
    return _point_result(perp(curve, point))


def _chord(curve: Folium, args, p1: ProjectivePoint, p2: ProjectivePoint) -> tuple:
    line = chord_or_tangent(curve, p1, p2)
    points = {
        "third": third_intersection(curve, p1, p2),
        "dot": proj_mul(curve, p1, p2),
        "star": star_mul(curve, p1, p2),
    }
    rows = [("line", str(line))] + [(name, point_text(P)) for name, P in points.items()]
    text = "\n".join(f"{name + ':':<7}{value}" for name, value in rows)
    payload = {name: point_json(P) for name, P in points.items()}
    return text, {"line": line_json(line), **payload}


def _collinear(curve: Folium, args, *points: ProjectivePoint) -> tuple:
    result = collinear3(curve, *points)
    identity = points[0].x * points[1].x * points[2].x + points[0].y * points[1].y * points[2].y
    t_product = None
    if all(point != curve.origin for point in points):
        t1, t2, t3 = (pbar_inv(curve, point) for point in points)
        t_product = str(t1 * t2 * t3)
    text = (
        f"collinear: {str(result).lower()} "
        f"(x1x2x3 + y1y2y3 = {identity}, t1t2t3 = {t_product or 'n/a'})"
    )
    return text, {"collinear": result, "coordinate_identity": str(identity), "t_product": t_product}


def _branch(curve: Folium, args, point: ProjectivePoint) -> tuple:
    label = classify_branch(curve, point).value
    return label, {"branch": label}


def _count(curve: Folium, args) -> tuple:
    enumerated = len(curve.enumerate_points())
    predicted = curve.field.characteristic
    match = enumerated == predicted
    return (
        f"enumerated: {enumerated}, predicted: {predicted}",
        {"enumerated": enumerated, "predicted": predicted, "match": match},
        EXIT_OK if match else EXIT_VERIFY_FAILED,
    )


_LAW = ("--law", {"required": True, "choices": [k.value for k in LawKind]})
_POINT = ("point", {"help": "point literal"})
_TWO_POINTS = (("p1", {"help": "first point literal"}), ("p2", {"help": "second point literal"}))
_THREE_POINTS = (("p1", {}), ("p2", {}), ("p3", {}))
_EVAL_ARGUMENTS = (
    ("--map", {"required": True, "choices": [m.value for m in ParamMap]}),
    ("--t", {"required": True, "help": "parameter value (field literal)"}),
)

# (name, help, arguments, compute): each argument is a (name or flag,
# add_argument keywords) pair, and every positional one is a point literal.
# `compute(curve, args, *points)` returns (text, payload[, exit code]).
_CURVE_COMMANDS = (
    ("eval", "evaluate a parametrization", _EVAL_ARGUMENTS, _eval),
    ("op", "apply a composition law to two points", (_LAW, *_TWO_POINTS), _op),
    ("inv", "invert a point under a law", (_LAW, _POINT), _inv),
    ("perp", "the perpendicular-chord involution", (_POINT,), _perp),
    ("chord", "chord/tangent data for two points", _TWO_POINTS, _chord),
    ("collinear", "test three points for collinearity", _THREE_POINTS, _collinear),
    ("branch", "branch label of a rational affine point", (_POINT,), _branch),
    ("count", "brute-force point count over fp:<p>", (), _count),
)


def _run_curve_command(arguments: tuple, compute, args) -> int:
    """Build the curve, then check each point literal on it in argv order, then compute."""
    curve = _curve(args)
    literals = [getattr(args, name) for name, _ in arguments if not name.startswith("-")]
    points = [_curve_point(curve, literal) for literal in literals]
    text, payload, *code = compute(curve, args, *points)
    _emit(args, text, payload)
    return code[0] if code else EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_report

    curve = _curve(args)
    report = run_report(curve, args.suite, seed=args.seed, samples=args.samples)
    failed = sum(1 for prop in report["properties"] if not prop["passed"])
    skipped = sum(1 for prop in report["properties"] if prop.get("note"))
    if args.format == "json":
        import json

        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for prop in report["properties"]:
            if prop.get("note"):
                status, detail = "SKIP", f" — {prop['note']}"
            else:
                status = "PASS" if prop["passed"] else "FAIL"
                detail = f" ({prop['instances']} instances)"
            if prop.get("counterexample"):
                detail += f" — counterexample: {prop['counterexample']}"
            print(f"{status} {prop['name']}{detail}")
        print(
            f"suite={report['suite']} field={report['field']} a={report['a']}: "
            f"{len(report['properties']) - failed - skipped} passed, {failed} failed, "
            f"{skipped} skipped"
        )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_plot(args) -> int:
    from .plotting import DEFAULT_EXCLUSION, parse_overlay, parse_rational, write_plot

    field = field_from_spec(args.field)
    if field.characteristic:
        raise UnorderedField(f"plot draws the real curve; it needs --field q, not {field}")
    exclusion = parse_rational(args.exclusion) if args.exclusion else DEFAULT_EXCLUSION
    overlays = [parse_overlay(text) for text in args.overlay]
    write_plot(
        args.out,
        parse_rational(args.a),
        parse_rational(args.t_min),
        parse_rational(args.t_max),
        args.samples,
        overlays=overlays,
        exclusion=exclusion,
    )
    _emit(
        args,
        f"wrote {args.out}",
        {"out": args.out, "samples": args.samples, "overlays": [o.kind for o in overlays]},
    )
    return EXIT_OK


# The most --samples that verify and plot take.  Far larger counts end in a MemoryError; at
# this bound `verify --suite all --field q` peaks at 268 MB, and every test, demo and
# benchmark takes 2,000 or fewer.
_MOST_SAMPLES = 100_000


def _samples(text: str, least: int | None = 1) -> int:
    """A --samples value: an int from `least` to _MOST_SAMPLES; plot passes least=None and
    refuses fewer than 2 samples itself."""
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if least is not None and samples < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {samples}")
    if samples > _MOST_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {_MOST_SAMPLES}, got {samples}")
    return samples


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that it reads a negative fraction such as -3/7 as a value, as it reads -3."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)$")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="q", help="base field: q or fp:<prime> (default q)")
    common.add_argument("--a", default="1", help="curve parameter a, a nonzero field literal (default 1)")
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites (default 0)")

    parser = _Parser(
        prog="folium",
        description="Exact arithmetic on the Descartes folium: parametrizations, "
        "composition laws, chord-tangent geometry, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    for name, help_text, arguments, compute in _CURVE_COMMANDS:
        p_command = sub.add_parser(name, parents=[common], help=help_text)
        for argument, options in arguments:
            p_command.add_argument(argument, **options)
        p_command.set_defaults(handler=functools.partial(_run_curve_command, arguments, compute))

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("--suite", default="all", help="suite name or all")
    p_verify.add_argument("--samples", type=_samples, default=1000, help="random instances over q (default 1000)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_plot = sub.add_parser("plot", parents=[common], help="emit an SVG (or CSV) of the real curve")
    p_plot.add_argument("--t-min", default="-0.9", dest="t_min", help="lower parameter bound")
    p_plot.add_argument("--t-max", default="4", dest="t_max", help="upper parameter bound")
    p_plot.add_argument("--samples", type=functools.partial(_samples, least=None), default=400)
    p_plot.add_argument("--overlay", action="append", default=[],
                        help="bisector | asymptote | point:<t> | tangent:<t> | chord:<t1>,<t2>")
    p_plot.add_argument("--exclusion", default=None,
                        help="half-width of the excluded window around t = -1 (default 1/1000)")
    p_plot.add_argument("--out", default="folium.svg", help="output path (.svg or .csv)")
    p_plot.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "handler", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except FoliumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
