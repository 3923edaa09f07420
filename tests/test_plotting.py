"""The SVG/CSV emitters: determinism, float accuracy, and range guards."""

import re
import sys
from fractions import Fraction

import pytest

from descartes_folium import DegenerateRange, FileWriteError
from descartes_folium.parametrization import p_affine
from descartes_folium.plotting import (
    Overlay,
    parse_overlay,
    parse_rational,
    render_csv,
    render_svg,
    sample_segments,
    write_plot,
)
from helpers import rational_curve


def test_svg_deterministic():
    kwargs = dict(
        a=1,
        t_min=Fraction(-9, 10),
        t_max=4,
        samples=120,
        overlays=(Overlay("bisector"), Overlay("chord", (Fraction(2), Fraction(3)))),
    )
    assert render_svg(**kwargs) == render_svg(**kwargs)


def test_svg_coordinates_match_exact_evaluation():
    curve = rational_curve(1)
    document = render_svg(1, Fraction(-9, 10), 4, 60)
    polyline = re.search(r'points="([^"]+)"', document).group(1)
    pairs = [pair.split(",") for pair in polyline.split()]
    t_min, t_max, samples = Fraction(-9, 10), Fraction(4), 60
    step = (t_max - t_min) / (samples - 1)
    grid = [t_min + i * step for i in range(samples)]
    grid = [t for t in grid if abs(t + 1) >= Fraction(1, 1000)]
    assert len(pairs) == len(grid)
    for (x_text, y_text), t in zip(pairs, grid):
        point = p_affine(curve, curve.field.element(t))
        for text, exact in ((x_text, point.x.value), (y_text, point.y.value)):
            approx = float(text)
            assert abs(approx - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))


def test_excluded_window_splits_polyline():
    curve = rational_curve(1)
    segments = sample_segments(curve, Fraction(-2), Fraction(1), 301, Fraction(1, 100))
    assert len(segments) == 2
    for segment in segments:
        for t, _, _ in segment:
            assert abs(t + 1) >= Fraction(1, 100)


def test_csv_rows_are_exact_floats():
    rows = render_csv(1, -2, 1, 31).strip().splitlines()
    assert rows[0] == "t,x,y"
    curve = rational_curve(1)
    for row in rows[1:4]:
        t_text, x_text, y_text = row.split(",")
        t = Fraction(t_text)
        point = p_affine(curve, curve.field.element(t))
        assert float(x_text) == float(point.x.value)
        assert float(y_text) == float(point.y.value)


def test_mirrored_curve_for_negative_a():
    plus = render_csv(1, Fraction(1, 10), 1, 10)
    minus = render_csv(-1, Fraction(1, 10), 1, 10)
    for row_plus, row_minus in zip(plus.splitlines()[1:], minus.splitlines()[1:]):
        _, x_plus, y_plus = row_plus.split(",")
        _, x_minus, y_minus = row_minus.split(",")
        assert float(x_minus) == -float(x_plus)
        assert float(y_minus) == -float(y_plus)


def test_degenerate_ranges_rejected():
    with pytest.raises(DegenerateRange):
        render_svg(1, 2, 2, 100)
    with pytest.raises(DegenerateRange):
        render_svg(1, 0, 1, 1)
    with pytest.raises(DegenerateRange):
        render_svg(1, Fraction(-1001, 1000), Fraction(-999, 1000), 5)


def test_overlay_parsing():
    assert parse_overlay("bisector") == Overlay("bisector")
    assert parse_overlay("chord:2,3") == Overlay("chord", (Fraction(2), Fraction(3)))
    assert parse_overlay("tangent:1/2") == Overlay("tangent", (Fraction(1, 2),))
    assert parse_overlay("point:-1/6") == Overlay("point", (Fraction(-1, 6),))
    for bad in ("chord:2", "circle:1", "bisector:3", "point:x"):
        with pytest.raises(ValueError):
            parse_overlay(bad)


def test_overlay_repr_equality_and_immutability():
    chord = Overlay("chord", (Fraction(2), Fraction(3)))
    assert repr(chord) == "Overlay(kind='chord', params=(Fraction(2, 1), Fraction(3, 1)))"
    assert repr(Overlay("bisector")) == "Overlay(kind='bisector', params=())"
    assert chord == Overlay("chord", (Fraction(2), Fraction(3)))
    assert chord != Overlay("chord", (Fraction(3), Fraction(2)))
    assert hash(chord) == hash(Overlay("chord", (Fraction(2), Fraction(3))))
    with pytest.raises(AttributeError):
        chord.kind = "tangent"
    assert chord.kind == "chord"


def test_rational_literals():
    assert parse_rational("-0.9") == Fraction(-9, 10)
    assert parse_rational("3/7") == Fraction(3, 7)
    with pytest.raises(ValueError, match="zero denominator in literal '1/0'"):
        parse_rational("1/0")
    assert parse_rational("-3e-350") == Fraction(-3, 10**350)
    assert parse_rational("1_0e1_0") == 10**11
    for bad in ("nan", "inf", "-Infinity", "1e1__0", "1e5/3"):
        with pytest.raises(ValueError, match=f"^bad plot literal '{bad}'; expected a number"):
            parse_rational(bad)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer digit limit")
def test_million_digit_exponents_are_refused():
    limit = sys.get_int_max_str_digits()
    for text in ("1e-1000000", "1e1000000"):
        with pytest.raises(ValueError, match=f"^an integer of 1000001 digits is over the limit of {limit} digits$"):
            parse_rational(text)


def test_overlays_render_marks_and_labels():
    document = render_svg(
        1,
        Fraction(-9, 10),
        4,
        80,
        overlays=(
            Overlay("chord", (Fraction(2), Fraction(3))),
            Overlay("tangent", (Fraction(1),)),
            Overlay("asymptote"),
            Overlay("point", (Fraction(1, 2),)),
        ),
    )
    assert document.count("<circle") == 5  # chord marks three points, tangent and point one each
    assert "t=-1/6" in document
    assert "t=1/2" in document
    assert "stroke-dasharray" in document


def test_write_plot_failure_raises_file_write_error(tmp_path):
    with pytest.raises(FileWriteError):
        write_plot(str(tmp_path / "missing" / "plot.svg"), 1, 0, 1, 10)


def test_write_plot_svg_and_csv(tmp_path):
    svg_path = tmp_path / "curve.svg"
    csv_path = tmp_path / "curve.csv"
    write_plot(str(svg_path), 1, Fraction(-9, 10), 4, 50)
    write_plot(str(csv_path), 1, Fraction(-9, 10), 4, 50)
    assert svg_path.read_text().startswith("<?xml")
    assert csv_path.read_text().startswith("t,x,y")


@pytest.mark.parametrize(
    "name, a, t_max, overlays",
    [
        ("plot.csv", 1, Fraction(10**400), ()),  # t itself is written as a float
        ("plot.svg", Fraction(10**400), 4, ()),  # so are x and y, which scale with a
        ("plot.svg", 1, 4, (Overlay("tangent", (Fraction(10**400),)),)),
    ],
)
def test_values_beyond_the_float_range_are_a_value_error(tmp_path, name, a, t_max, overlays):
    with pytest.raises(ValueError, match=r"^a plotted value is too large to write as a float$"):
        write_plot(str(tmp_path / name), a, 0, t_max, 3, overlays)
    assert not (tmp_path / name).exists()
