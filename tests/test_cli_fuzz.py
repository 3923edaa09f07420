"""Property tests of the command line: printed points parse back, and no input
ends in anything but a documented exit code with a message."""

import sys

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
from descartes_folium.cli import parse_point, point_text
from descartes_folium.fields import field_from_spec
from descartes_folium.parametrization import ParamMap
from helpers import run_main

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


def _run(argv, codes):
    proc = run_main(*argv)
    assert proc.returncode in codes, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stdout + proc.stderr
    assert "Invalid literal for Fraction" not in proc.stderr
    if proc.returncode == 3:
        assert proc.stderr.startswith("error: ")


@settings(max_examples=150)
@given(invocations())
def test_fuzzed_input_ends_in_a_documented_exit(argv):
    _run(argv, (0, 2, 3))


# an integer literal one digit over the interpreter's conversion limit
OVER_LONG = "7" * (sys.get_int_max_str_digits() + 1)
counts = mostly(st.integers(-3, 5).map(str), st.sampled_from(["", "x", "1.5", "1e2", "٣", OVER_LONG]))
# exponents near and past the float range as often as small ones
exponents = st.one_of(st.integers(-20, 20), st.integers(300, 400), st.integers(-400, -300))
plot_numbers = mostly(
    st.one_of(
        numbers,
        st.decimals(-100, 100, places=3).map(str),
        st.tuples(st.integers(-9, 9), exponents).map(lambda c: f"{c[0]}e{c[1]}"),
    ),
    st.sampled_from(
        ["nan", "inf", "1_0", "-1", OVER_LONG, f"0.{OVER_LONG}", f"1/{OVER_LONG}", "1e-1000000", "-7e1000000"]
    ),
)
overlays = mostly(
    st.one_of(
        st.sampled_from(["bisector", "asymptote"]),
        st.tuples(st.sampled_from(["point", "tangent"]), plot_numbers).map(":".join),
        st.tuples(plot_numbers, plot_numbers).map(lambda c: f"chord:{c[0]},{c[1]}"),
    ),
    st.one_of(st.sampled_from(["bisector:1", "chord:1", "chord:1,2,3", "circle"]), st.text(max_size=8)),
)
small_suites = mostly(
    st.sampled_from(
        ["field", "count", "parametrize", "coincidence", "geometry", "collinearity",
         "southmul", "perpendicular", "branch", "fieldstructure"]
    ),
    st.sampled_from(["", "nope", "ALL", OVER_LONG]),
)
seeds = mostly(st.integers(-(10**30), 10**30).map(str), st.sampled_from(["", "x", "1.5", OVER_LONG]))
small_fields = mostly(
    st.sampled_from(["fp:5", "q"]),
    st.sampled_from(["fp:2", "fp:31", "fp:65537", "fp:10007", "fp:4", "zz", f"fp:{OVER_LONG}"]),
)


@st.composite
def tool_invocations(draw, out_dir):
    """An argv for verify, count or plot, with fuzzed counts, seeds, ranges and overlays."""
    field, a = f"--field={draw(small_fields)}", f"--a={draw(a_values)}"
    seed = f"--seed={draw(seeds)}"
    command = draw(st.sampled_from(["verify", "count", "plot"]))
    if command == "verify":
        return ["verify", field, a, seed, f"--suite={draw(small_suites)}", f"--samples={draw(counts)}"]
    if command == "count":
        return ["count", field, a, seed]
    out = out_dir / draw(st.sampled_from(["plot.svg", "plot.csv", "missing/plot.svg"]))
    samples = draw(mostly(st.integers(2, 5).map(str), counts))
    argv = ["plot", f"--a={draw(plot_numbers)}", seed, f"--samples={samples}", f"--out={out}"]
    for flag in ("--t-min", "--t-max", "--exclusion"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(plot_numbers)}")
    return argv + [f"--overlay={overlay}" for overlay in draw(st.lists(overlays, max_size=3))]


def test_fuzzed_tool_input_ends_in_a_documented_exit(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=200)
    @given(tool_invocations(out_dir))
    def check(argv):
        _run(argv, (0, 1, 2, 3))

    check()
