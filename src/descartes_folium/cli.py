"""Command line front end.

Every subcommand shares the global flags --field, --a, --format and --seed.
Point literals use `(x : y : z)` or the affine shorthand `(x, y)`; the text
the commands print parses back as input.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .branches import classify_branch
from .curve import Folium, ProjectivePoint
from .errors import FoliumError
from .fields import Field, field_from_spec
from .geometry import chord_or_tangent, collinear3, third_intersection
from .laws import LawKind, apply_law, law_inverse, perp, proj_mul, star_mul
from .parametrization import ParamMap, pbar_inv
from .plotting import DEFAULT_EXCLUSION, parse_overlay, parse_rational, write_plot
from .verify import run_report

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
            raise ValueError(f"bad point literal {text!r}; expected (x : y : z)")
        x, y, z = (field.from_literal(part) for part in parts)
        return ProjectivePoint(x, y, z)
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad point literal {text!r}; expected (x : y : z) or (x, y)")
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


# -- subcommand handlers --------------------------------------------------


def _cmd_eval(args) -> int:
    curve = _curve(args)
    param_map = ParamMap(args.map)
    t = curve.field.from_literal(args.t)
    point = param_map.evaluate(curve, t)
    _emit(args, point_text(point), {"map": args.map, "t": str(t), "point": point_json(point)})
    return EXIT_OK


def _cmd_op(args) -> int:
    curve = _curve(args)
    law = LawKind(args.law)
    p1 = _curve_point(curve, args.p1)
    p2 = _curve_point(curve, args.p2)
    result = apply_law(curve, law, p1, p2)
    _emit(args, point_text(result), {"law": args.law, "point": point_json(result)})
    return EXIT_OK


def _cmd_inv(args) -> int:
    curve = _curve(args)
    law = LawKind(args.law)
    point = _curve_point(curve, args.point)
    result = law_inverse(curve, law, point)
    _emit(args, point_text(result), {"law": args.law, "point": point_json(result)})
    return EXIT_OK


def _cmd_perp(args) -> int:
    curve = _curve(args)
    point = _curve_point(curve, args.point)
    result = perp(curve, point)
    _emit(args, point_text(result), {"point": point_json(result)})
    return EXIT_OK


def _cmd_chord(args) -> int:
    curve = _curve(args)
    p1 = _curve_point(curve, args.p1)
    p2 = _curve_point(curve, args.p2)
    line = chord_or_tangent(curve, p1, p2)
    third = third_intersection(curve, p1, p2)
    dot = proj_mul(curve, p1, p2)
    star = star_mul(curve, p1, p2)
    text = "\n".join(
        [
            f"line:  {line}",
            f"third: {point_text(third)}",
            f"dot:   {point_text(dot)}",
            f"star:  {point_text(star)}",
        ]
    )
    _emit(
        args,
        text,
        {
            "line": line_json(line),
            "third": point_json(third),
            "dot": point_json(dot),
            "star": point_json(star),
        },
    )
    return EXIT_OK


def _cmd_collinear(args) -> int:
    curve = _curve(args)
    points = [_curve_point(curve, literal) for literal in (args.p1, args.p2, args.p3)]
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
    _emit(
        args,
        text,
        {"collinear": result, "coordinate_identity": str(identity), "t_product": t_product},
    )
    return EXIT_OK


def _cmd_branch(args) -> int:
    curve = _curve(args)
    point = _curve_point(curve, args.point)
    label = classify_branch(curve, point)
    _emit(args, label.value, {"branch": label.value})
    return EXIT_OK


def _cmd_count(args) -> int:
    curve = _curve(args)
    points = curve.enumerate_points()
    predicted = curve.field.characteristic
    match = len(points) == predicted
    _emit(
        args,
        f"enumerated: {len(points)}, predicted: {predicted}",
        {"enumerated": len(points), "predicted": predicted, "match": match},
    )
    return EXIT_OK if match else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    curve = _curve(args)
    report = run_report(curve, args.suite, seed=args.seed, samples=args.samples)
    failed = sum(1 for prop in report["properties"] if not prop["passed"])
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for prop in report["properties"]:
            if prop.get("note"):
                status = "SKIP"
            elif prop["passed"]:
                status = "PASS"
            else:
                status = "FAIL"
            detail = f" ({prop['instances']} instances)"
            if prop.get("note"):
                detail = f" — {prop['note']}"
            if prop.get("counterexample"):
                detail += f" — counterexample: {prop['counterexample']}"
            print(f"{status} {prop['name']}{detail}")
        print(
            f"suite={report['suite']} field={report['field']} a={report['a']}: "
            f"{len(report['properties']) - failed} passed, {failed} failed"
        )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_plot(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="q", help="base field: q or fp:<prime> (default q)")
    common.add_argument("--a", default="1", help="curve parameter a, a nonzero field literal (default 1)")
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites (default 0)")

    parser = argparse.ArgumentParser(
        prog="folium",
        description="Exact arithmetic on the Descartes folium: parametrizations, "
        "composition laws, chord-tangent geometry, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a parametrization")
    p_eval.add_argument("--map", required=True, choices=[m.value for m in ParamMap])
    p_eval.add_argument("--t", required=True, help="parameter value (field literal)")
    p_eval.set_defaults(handler=_cmd_eval)

    p_op = sub.add_parser("op", parents=[common], help="apply a composition law to two points")
    p_op.add_argument("--law", required=True, choices=[k.value for k in LawKind])
    p_op.add_argument("p1", help="first point literal")
    p_op.add_argument("p2", help="second point literal")
    p_op.set_defaults(handler=_cmd_op)

    p_inv = sub.add_parser("inv", parents=[common], help="invert a point under a law")
    p_inv.add_argument("--law", required=True, choices=[k.value for k in LawKind])
    p_inv.add_argument("point", help="point literal")
    p_inv.set_defaults(handler=_cmd_inv)

    p_perp = sub.add_parser("perp", parents=[common], help="the perpendicular-chord involution")
    p_perp.add_argument("point", help="point literal")
    p_perp.set_defaults(handler=_cmd_perp)

    p_chord = sub.add_parser("chord", parents=[common], help="chord/tangent data for two points")
    p_chord.add_argument("p1", help="first point literal")
    p_chord.add_argument("p2", help="second point literal")
    p_chord.set_defaults(handler=_cmd_chord)

    p_col = sub.add_parser("collinear", parents=[common], help="test three points for collinearity")
    p_col.add_argument("p1")
    p_col.add_argument("p2")
    p_col.add_argument("p3")
    p_col.set_defaults(handler=_cmd_collinear)

    p_branch = sub.add_parser("branch", parents=[common], help="branch label of a rational affine point")
    p_branch.add_argument("point", help="point literal")
    p_branch.set_defaults(handler=_cmd_branch)

    p_count = sub.add_parser("count", parents=[common], help="brute-force point count over fp:<p>")
    p_count.set_defaults(handler=_cmd_count)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("--suite", default="all", help="suite name or all")
    p_verify.add_argument("--samples", type=int, default=1000, help="random instances over q (default 1000)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_plot = sub.add_parser("plot", parents=[common], help="emit an SVG (or CSV) of the real curve")
    p_plot.add_argument("--t-min", default="-0.9", dest="t_min", help="lower parameter bound")
    p_plot.add_argument("--t-max", default="4", dest="t_max", help="upper parameter bound")
    p_plot.add_argument("--samples", type=int, default=400)
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
    except (FoliumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
