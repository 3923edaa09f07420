"""Property tests of the command line: printed points parse back, and no input
ends in anything but exit 0, 2 or 3 with a message."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from descartes_folium import (
    Folium,
    FoliumError,
    LawKind,
    PrimeField,
    ProjectivePoint,
    Rationals,
    pbar,
)
from descartes_folium.cli import main, parse_point, point_text
from descartes_folium.fields import field_from_spec
from descartes_folium.parametrization import ParamMap

integers = st.integers(-10**30, 10**30)
FIELDS = {
    "q": (Rationals(), st.one_of(integers, st.fractions(max_denominator=10**12))),
    "fp:13": (PrimeField(13), integers),
}


@st.composite
def points(draw, spec):
    """Any projective point over the field, and curve points built by pbar."""
    field, values = FIELDS[spec]
    if draw(st.booleans()):
        a = draw(values.filter(lambda v: field.element(v) != field.zero))
        return pbar(Folium(field, a), draw(values))
    x, y, z = (field.element(draw(values)) for _ in range(3))
    if x.is_zero() and y.is_zero() and z.is_zero():
        z = field.one
    return ProjectivePoint(x, y, z)


@settings(max_examples=100)
@given(st.sampled_from(sorted(FIELDS)).flatmap(lambda spec: st.tuples(st.just(spec), points(spec))))
def test_point_text_parses_back(case):
    spec, point = case
    parsed = parse_point(FIELDS[spec][0], point_text(point))
    assert parsed == point
    assert point_text(parsed) == point_text(point)


def mostly(valid, junk):
    """`valid` nine times in ten and `junk` otherwise, so most inputs reach the curve code."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)


numbers = mostly(
    st.one_of(st.integers(-50, 50).map(str), st.fractions(max_denominator=50).map(str)),
    st.sampled_from(["1/0", "0/0", "-0", "+3", "1.5", "1e5", "", " ", "x", "١", "²", "∞"]),
)
raw_literals = mostly(
    st.one_of(
        st.tuples(numbers, numbers).map(lambda p: f"({p[0]}, {p[1]})"),
        st.tuples(numbers, numbers, numbers).map(lambda p: f"({p[0]} : {p[1]} : {p[2]})"),
        st.sampled_from(["(0, 0)", "(3/2, 3/2)", "(2/3, 4/3)", "(1 : -1 : 0)", "(0 : 0 : 0)"]),
    ),
    st.one_of(st.text(alphabet="()0123456789:,/+- ", max_size=16), st.text(max_size=12)),
)
field_specs = mostly(
    st.sampled_from(["q", "Q", " q ", "fp:2", "fp:5", "fp:7", "fp:13", "fp:31", "fp:65537"]),
    st.one_of(
        st.integers(-3, 10**4).map(lambda p: f"fp:{p}"),
        st.sampled_from(
            ["fp:", "fp:-5", "fp:3", "fp:9", "fp:4294967297", "fp:²", "fp:٧", "fp:1e3"]
        ),
        st.text(max_size=10),
    ),
)
a_values = mostly(
    st.sampled_from(["1", "2", "-1", "-3", "5"]), st.one_of(numbers, st.text(max_size=6))
)


@st.composite
def invocations(draw):
    """An argv: a curve subcommand whose point literals mostly lie on the drawn curve."""
    field_spec, a = draw(field_specs), draw(a_values)
    literals = raw_literals
    try:
        field = field_from_spec(field_spec)
        curve = Folium(field, field.from_literal(a))
    except (FoliumError, ValueError):
        pass
    else:
        finite = isinstance(field, PrimeField)
        params = st.integers(-20, 20) if finite else st.fractions(max_denominator=9)
        on_curve = params.map(lambda t: point_text(pbar(curve, t)))
        literals = mostly(on_curve, raw_literals)
    laws = st.sampled_from([k.value for k in LawKind])
    command = draw(
        st.one_of(
            st.tuples(laws, literals, literals).map(lambda c: ["op", "--law", *c]),
            st.tuples(laws, literals).map(lambda c: ["inv", "--law", *c]),
            st.tuples(st.sampled_from(["perp", "branch"]), literals).map(list),
            st.tuples(literals, literals).map(lambda c: ["chord", *c]),
            st.tuples(literals, literals, literals).map(lambda c: ["collinear", *c]),
            st.tuples(st.sampled_from([m.value for m in ParamMap]), numbers).map(
                lambda c: ["eval", "--map", c[0], "--t", c[1]]
            ),
        )
    )
    return [*command, f"--field={field_spec}", f"--a={a}"]


@settings(max_examples=150)
@given(invocations())
def test_fuzzed_input_ends_in_a_documented_exit(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 3:
        assert stderr.getvalue().startswith("error: ")
