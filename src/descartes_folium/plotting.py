"""SVG and CSV emitters for the real affine curve.

All sampling happens in exact rational arithmetic on an exact grid; floats
appear only when coordinates are finally written out, so the emitted values
match exact evaluation to float precision.  Samples near the parameter of
the infinite point (|t + 1| below the exclusion half-width) are dropped and
the polyline breaks there, which keeps the asymptote blow-up off the canvas.
Output is a pure function of the inputs, byte for byte.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .curve import Folium
from .errors import BadLiteral, DegenerateRange, FileWriteError
from .fields import Rationals, _within_digit_limit
from .geometry import chord_or_tangent, tangent_at, third_intersection
from .parametrization import p_affine

DEFAULT_EXCLUSION = Fraction(1, 1000)

_SVG_SIZE = 640  # width and height of the canvas
_CURVE_STYLE = 'fill="none" stroke="#1f6fb4"'
_OVERLAY_LINE_STYLE = 'fill="none" stroke="#c44e52"'
_GUIDE_STYLE = 'fill="none" stroke="#999999"'


class Overlay(NamedTuple):
    """One plot overlay: a marked parameter, a chord, a tangent, or a guide line."""

    kind: str  # point | chord | tangent | bisector | asymptote
    params: tuple = ()


def parse_rational(text: str) -> Fraction:
    """A plot literal such as -0.9, 1e-3 or 3/7; a zero denominator is a BadLiteral, like any bad literal."""
    _within_digit_limit(text)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise BadLiteral(f"zero denominator in literal {text!r}") from exc
    except ValueError as exc:
        raise BadLiteral(f"bad plot literal {text!r}; expected a number such as -0.9, 1e-3 or 3/7") from exc


def parse_overlay(text: str) -> Overlay:
    """Parse the CLI overlay grammar: bisector | asymptote | point:<t> | tangent:<t> | chord:<t1>,<t2>."""
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head in ("bisector", "asymptote"):
        if tail:
            raise BadLiteral(f"overlay {head!r} takes no parameters")
        return Overlay(head)
    if head in ("point", "tangent"):
        return Overlay(head, (parse_rational(tail.strip()),))
    if head == "chord":
        parts = [part.strip() for part in tail.split(",")]
        if len(parts) != 2:
            raise BadLiteral("overlay chord takes two parameters: chord:<t1>,<t2>")
        return Overlay("chord", (parse_rational(parts[0]), parse_rational(parts[1])))
    raise BadLiteral(f"unknown overlay {text!r}")


def _sample_grid(t_min: Fraction, t_max: Fraction, samples: int) -> list:
    if samples < 2:
        raise DegenerateRange(f"need at least 2 samples, got {samples}")
    if not t_min < t_max:
        raise DegenerateRange(f"empty parameter range [{t_min}, {t_max}]")
    step = (t_max - t_min) / (samples - 1)
    return [t_min + i * step for i in range(samples)]


def sample_segments(
    curve: Folium,
    t_min: Fraction,
    t_max: Fraction,
    samples: int,
    exclusion: Fraction = DEFAULT_EXCLUSION,
) -> list:
    """Polyline segments [(t, x, y)] of the affine curve, split at the excluded window around t = -1.

    The window's half-width must be positive: with none, a segment would run straight across the asymptote.
    A range that leaves no segment of two samples is refused, so no renderer writes an empty plot.
    """
    if exclusion <= 0:
        raise DegenerateRange(f"the exclusion half-width must be positive, got {exclusion}")
    segments = [[]]
    for t in _sample_grid(t_min, t_max, samples):
        if abs(t + 1) < exclusion:
            if segments[-1]:
                segments.append([])
            continue
        point = p_affine(curve, curve.field.element(t))
        segments[-1].append((t, point.x.value, point.y.value))
    segments = [segment for segment in segments if len(segment) >= 2]
    if not segments:
        raise DegenerateRange("the sampled range contains no drawable segment")
    return segments


def render_csv(
    a,
    t_min,
    t_max,
    samples: int,
    exclusion: Fraction = DEFAULT_EXCLUSION,
) -> str:
    """CSV of (t, x, y) samples; floats at the boundary only."""
    curve = Folium(Rationals(), Fraction(a))
    rows = ["t,x,y"]
    for segment in sample_segments(curve, Fraction(t_min), Fraction(t_max), samples, exclusion):
        for t, x, y in segment:
            rows.append(f"{float(t)!r},{float(x)!r},{float(y)!r}")
    return "\n".join(rows) + "\n"


def _clip_line_to_box(m: float, n: float, c: float, box) -> tuple | None:
    # segment of the affine line m*x + n*y + c = 0 inside the bounding box
    x0, y0, x1, y1 = box
    hits = []
    if n != 0.0:
        for x in (x0, x1):
            y = -(m * x + c) / n
            if y0 - 1e-12 <= y <= y1 + 1e-12:
                hits.append((x, y))
    if m != 0.0:
        for y in (y0, y1):
            x = -(n * y + c) / m
            if x0 - 1e-12 <= x <= x1 + 1e-12:
                hits.append((x, y))

    def gap(ends):
        (ax, ay), (bx, by) = ends
        return (ax - bx) ** 2 + (ay - by) ** 2

    # the two crossings farthest apart, the first such pair in the order the hits were found
    ends = max(itertools.combinations(hits, 2), key=gap, default=None)
    return None if ends is None or gap(ends) == 0.0 else ends


def _overlay_elements(curve: Folium, overlays, box) -> tuple:
    shapes = []
    labels = []
    span = max(box[2] - box[0], box[3] - box[1])
    radius = span * 0.012

    def mark(point, text):
        x, y = float(point.x.value), float(point.y.value)
        shapes.append(f'<circle cx="{x!r}" cy="{y!r}" r="{radius!r}" fill="#222222"/>')
        labels.append((x + radius, y + radius, text))

    def rule(line, style, dashed=False):
        clipped = _clip_line_to_box(
            float(line.m.value), float(line.n.value), float(line.p.value), box
        )
        if clipped is None:
            return
        (ax, ay), (bx, by) = clipped
        dash = f' stroke-dasharray="{(span * 0.02)!r}"' if dashed else ""
        shapes.append(
            f'<line x1="{ax!r}" y1="{ay!r}" x2="{bx!r}" y2="{by!r}" {style}'
            f' stroke-width="{(span * 0.004)!r}"{dash}/>'
        )

    field = curve.field
    for overlay in overlays:
        if overlay.kind == "bisector":
            rule(curve.line(1, -1, 0), _GUIDE_STYLE, dashed=True)
        elif overlay.kind == "asymptote":
            # x + y + a = 0 is the asymptote of the real curve
            rule(curve.line(1, 1, curve.a), _GUIDE_STYLE, dashed=True)
        elif overlay.kind in ("point", "tangent"):
            (t,) = overlay.params
            point = p_affine(curve, field.element(t))
            if overlay.kind == "tangent":
                rule(tangent_at(curve, point), _OVERLAY_LINE_STYLE)
            mark(point, f"t={t}")
        elif overlay.kind == "chord":
            t1, t2 = overlay.params
            p1 = p_affine(curve, field.element(t1))
            p2 = p_affine(curve, field.element(t2))
            rule(chord_or_tangent(curve, p1, p2), _OVERLAY_LINE_STYLE)
            third = third_intersection(curve, p1, p2)
            mark(p1, f"t={t1}")
            mark(p2, f"t={t2}")
            if third.is_affine:
                t3 = -1 / (Fraction(t1) * Fraction(t2))
                mark(third, f"t={t3}")
    return shapes, labels


def render_svg(
    a,
    t_min,
    t_max,
    samples: int,
    overlays=(),
    exclusion: Fraction = DEFAULT_EXCLUSION,
) -> str:
    """Deterministic SVG document for the real curve with optional overlays."""
    curve = Folium(Rationals(), Fraction(a))
    segments = sample_segments(curve, Fraction(t_min), Fraction(t_max), samples, exclusion)

    xs = [float(x) for segment in segments for _, x, _ in segment]
    ys = [float(y) for segment in segments for _, _, y in segment]
    pad = 0.08 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    box = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    width = box[2] - box[0]
    height = box[3] - box[1]
    stroke = max(width, height) * 0.005

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="{box[0]!r} {(-box[3])!r} {width!r} {height!r}">',
        '<g transform="scale(1,-1)">',
    ]
    for segment in segments:
        coords = " ".join(f"{float(x)!r},{float(y)!r}" for _, x, y in segment)
        parts.append(f'<polyline {_CURVE_STYLE} stroke-width="{stroke!r}" points="{coords}"/>')
    shapes, labels = _overlay_elements(curve, overlays, box)
    parts.extend(shapes)
    parts.append("</g>")
    font = max(width, height) * 0.03
    for x, y, text in labels:
        parts.append(
            f'<text x="{x!r}" y="{(-y)!r}" font-size="{font!r}" '
            f'font-family="monospace">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(
    path: str,
    a,
    t_min,
    t_max,
    samples: int,
    overlays=(),
    exclusion: Fraction = DEFAULT_EXCLUSION,
) -> None:
    """Write SVG (or CSV when the path ends in .csv, which refuses overlays) to the given path."""
    try:
        if str(path).lower().endswith(".csv"):
            if overlays:
                raise BadLiteral(f"overlays are drawn only on an SVG plot, not on the CSV path {path}")
            payload = render_csv(a, t_min, t_max, samples, exclusion)
        else:
            payload = render_svg(a, t_min, t_max, samples, overlays, exclusion)
    except OverflowError as exc:  # an exact value beyond the float range at the output boundary
        raise BadLiteral("a plotted value is too large to write as a float") from exc
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise FileWriteError(f"cannot write plot to {path}: {exc}") from exc
