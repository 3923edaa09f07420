"""The command line surface: parsing, round trips, exit codes, determinism."""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from descartes_folium import (
    BadLiteral,
    Folium,
    FoliumError,
    PrimeField,
    ProjectivePoint,
    Rationals,
    field_from_spec,
)
from descartes_folium.cli import _MOST_SAMPLES, build_parser, parse_point
from descartes_folium.fields import MILLER_RABIN_BOUND
from descartes_folium.plotting import parse_overlay, parse_rational
from helpers import python_process, run_main


def run_cli(*argv, expect=0):
    proc = run_main(*argv)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


def test_eval_pbar():
    assert run_cli("eval", "--map", "pbar", "--t", "2").strip() == "(2/3 : 4/3 : 1)"


def test_eval_json():
    payload = json.loads(run_cli("eval", "--map", "pbarbar", "--t", "2", "--format", "json"))
    assert payload["point"] == {"x": "4/3", "y": "2/3", "z": "1"}


def test_cli_output_parses_back_as_input():
    emitted = run_cli("eval", "--map", "pbar", "--t", "5").strip()
    # the neutral element leaves the point unchanged, so the round trip is visible
    round_tripped = run_cli("op", "--law", "projmul", emitted, "(3/2, 3/2)").strip()
    assert round_tripped == emitted


def test_op_over_prime_field():
    out = run_cli("op", "--field", "fp:5", "--law", "projmul", "(4 : 3 : 1)", "(3, 4)")
    assert out.strip() == "(4 : 4 : 1)"


def test_op_all_laws_accept_affine_shorthand():
    # the vertex is a valid operand for every law
    for law in ("projmul", "projmul2", "star", "addsouth", "addwest",
                "southmul", "westmul", "fieldmul"):
        out = run_cli("op", "--law", law, "(3/2, 3/2)", "(3/2, 3/2)")
        assert out.strip().startswith("(")


def test_inv_and_perp():
    assert run_cli("inv", "--law", "projmul", "(2/3, 4/3)").strip() == "(4/3 : 2/3 : 1)"
    assert run_cli("inv", "--law", "addsouth", "(1 : -1 : 0)").strip() == "(3/2 : 3/2 : 1)"
    assert run_cli("perp", "(3/2, 3/2)").strip() == "(1 : -1 : 0)"


def test_chord_output():
    payload = json.loads(
        run_cli("chord", "(2/3, 4/3)", "(9/28 : 27/28 : 1)", "--format", "json")
    )
    assert payload["third"] == {"x": "-108/215", "y": "18/215", "z": "1"}
    assert payload["dot"] == {"x": "18/217", "y": "108/217", "z": "1"}
    assert payload["star"] == {"x": "18/215", "y": "-108/215", "z": "1"}
    assert set(payload["line"]) == {"m", "n", "p"}


def test_collinear_output():
    payload = json.loads(
        run_cli(
            "collinear",
            "(2/3, 4/3)",
            "(9/28 : 27/28 : 1)",
            "(-108/215 : 18/215 : 1)",
            "--format",
            "json",
        )
    )
    assert payload["collinear"] is True
    assert payload["coordinate_identity"] == "0"
    assert payload["t_product"] == "-1"


def test_branch_labels():
    assert run_cli("branch", "(0, 0)").strip() == "node"
    assert run_cli("branch", "(3/2, 3/2)").strip() == "vertex"
    assert run_cli("branch", "(2/3, 4/3)").strip() == "west-interior"


def test_count():
    payload = json.loads(run_cli("count", "--field", "fp:13", "--a", "3", "--format", "json"))
    assert payload == {"enumerated": 13, "predicted": 13, "match": True}
    assert run_cli("count", "--field", "fp:2").strip() == "enumerated: 2, predicted: 2"


def test_verify_text_and_exit_zero():
    out = run_cli("verify", "--field", "fp:5", "--suite", "coincidence", "--samples", "30")
    assert "PASS projmul_equals_projmul2" in out
    assert "0 failed" in out


def test_verify_skip_note_for_f7_southmul():
    out = run_cli("verify", "--field", "fp:7", "--suite", "southmul")
    assert "SKIP" in out and "epsilon roots" in out


def test_verify_summary_counts_skips_apart():
    out = run_cli("verify", "--field", "fp:7", "--suite", "southmul")
    assert out.count("SKIP") == 5
    assert out.splitlines()[-1].endswith(": 0 passed, 0 failed, 5 skipped")


def test_verify_southmul_runs_over_large_p_two_mod_three():
    out = run_cli("verify", "--field", "fp:65537", "--suite", "southmul", "--samples", "50")
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] * 5
    assert out.splitlines()[-1].endswith(": 5 passed, 0 failed, 0 skipped")


def test_op_southmul_over_large_p_two_mod_three():
    p = 65537

    def affine(t):  # pbar(t) = (3t : 3t^2 : 1 + t^3), scaled to z = 1
        d = pow(1 + t**3, -1, p)
        return f"({3 * t * d % p} : {3 * t * t * d % p} : 1)"

    t1, t2 = 2, 5
    out = run_cli("op", "--field", f"fp:{p}", "--law", "southmul", affine(t1), affine(t2))
    assert out.strip() == affine((t1 + 1) * (t2 + 1) - 1)


def test_composite_modulus_is_a_domain_error():
    proc = run_main("eval", "--field", "fp:4294967297", "--map", "paffine", "--t", "640")
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stderr == "error: 4294967297 is not prime\n"


def test_non_decimal_modulus_is_a_bad_field_spec():
    # '²' is a digit to str.isdigit but not to int()
    proc = run_main("eval", "--field", "fp:²", "--map", "pbar", "--t", "1")
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stderr == "error: bad field spec 'fp:²'; expected fp:<prime>\n"


def test_verify_json_deterministic():
    argv = ("verify", "--field", "fp:5", "--suite", "all", "--seed", "0",
            "--samples", "100", "--format", "json")
    assert run_cli(*argv) == run_cli(*argv)


def test_usage_errors_exit_two():
    run_cli("op", "--law", "projmul", "(2/3, 4/3)", expect=2)  # missing operand
    run_cli("nonsense", expect=2)
    run_cli(expect=2)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (("eval", "--map", "pbar"), "--t", "-3/7"),
        (("eval", "--map", "pbarbar", "--t", "2"), "--a", "-1/2"),
        (("plot", "--samples", "20"), "--t-min", "-1/2"),
        (("plot", "--samples", "20", "--t-min", "-3/4"), "--t-max", "-1/3"),
    ],
    ids=["--t", "--a", "--t-min", "--t-max"],
)
def test_a_negative_fraction_is_a_value_as_its_own_word(command, flag, value, tmp_path):
    # `--t -3/7` reads as `--t=-3/7` does, and as `--t -3` always has: not as a flag without its value
    outputs = []
    for words, out in (((flag, value), tmp_path / "apart.svg"), ((f"{flag}={value}",), tmp_path / "joined.svg")):
        extra = ("--out", str(out)) if command[0] == "plot" else ()
        proc = run_main(*command, *words, *extra)
        assert proc.returncode == 0, (words, proc.stderr)
        outputs.append(out.read_bytes() if extra else proc.stdout)
    assert outputs[0] == outputs[1]


def test_a_word_that_is_no_number_after_a_flag_stays_a_usage_error():
    proc = run_main("eval", "--map", "pbar", "--t", "-x")
    assert proc.returncode == 2 and "argument --t: expected one argument" in proc.stderr
    proc = run_main("eval", "--map", "pbar", "--t", "-3/7/2")
    assert proc.returncode == 2 and "argument --t: expected one argument" in proc.stderr


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_is_a_usage_error(samples):
    proc = run_main("verify", "--field", "fp:5", "--suite", "field", "--samples", samples)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"error: argument --samples: must be at least 1, got {samples}\n")


@pytest.mark.parametrize("command", [("verify", "--field", "q", "--suite", "parametrize"), ("plot", "--out", os.devnull)])
def test_samples_above_the_bound_is_a_usage_error(command):
    over = _MOST_SAMPLES + 1
    proc = run_main(*command, "--samples", str(over))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"error: argument --samples: must be at most {_MOST_SAMPLES}, got {over}\n")


def test_samples_at_the_bound_are_accepted():
    # parse only: a report or a plot at the bound would run for minutes
    for command in ("verify", "plot"):
        args = build_parser().parse_args([command, "--samples", str(_MOST_SAMPLES)])
        assert args.samples == _MOST_SAMPLES


def test_verify_q_with_one_sample_skips_the_empty_row():
    out = run_cli("verify", "--field", "q", "--suite", "all", "--samples", "1")
    assert "SKIP perpendicular_iff_vertex_collinear — skipped: no cases to check" in out
    assert "(0 instances)" not in out
    assert out.splitlines()[-1].endswith(": 79 passed, 0 failed, 4 skipped")


def test_domain_errors_exit_three():
    run_cli("op", "--law", "projmul", "(1, 1)", "(2/3, 4/3)", expect=3)  # off the curve
    run_cli("eval", "--field", "fp:9", "--map", "pbar", "--t", "1", expect=3)  # 9 is not prime
    run_cli("eval", "--map", "paffine", "--t", "-1", expect=3)  # parameter at infinity
    run_cli("verify", "--suite", "bogus", expect=3)
    run_cli("count", "--field", "q", expect=3)  # rationals cannot be enumerated
    run_cli("branch", "--field", "fp:5", "(0, 0)", expect=3)  # unordered field
    run_cli("eval", "--map", "pbar", "--t", "1", "--a", "0", expect=3)  # a must be nonzero


def test_an_internal_value_error_is_not_a_domain_error(monkeypatch):
    from descartes_folium import cli

    def broken(curve, point):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "perp", broken)
    with pytest.raises(ValueError, match="^an internal fault$"):
        cli.main(["perp", "(3/2, 3/2)"])


@pytest.mark.parametrize(
    "refused",
    [
        lambda: field_from_spec("fp:9"),
        lambda: field_from_spec("r"),
        lambda: PrimeField(3),
        lambda: PrimeField(1),
        lambda: PrimeField(MILLER_RABIN_BOUND),
        lambda: Rationals().from_literal("1.5"),
        lambda: Rationals().from_literal("1/0"),
        lambda: PrimeField(5).from_literal("1/2"),
        lambda: Folium(Rationals(), 0),
        lambda: ProjectivePoint.of(Rationals(), 0, 0, 0),
        lambda: parse_point(Rationals(), "(1 : 2)"),
        lambda: parse_point(Rationals(), "(1, 2, 3)"),
        lambda: parse_rational("nan"),
        lambda: parse_overlay("chord:1"),
    ],
)
def test_caller_input_refusals_are_bad_literals(refused):
    with pytest.raises(BadLiteral) as refusal:
        refused()
    assert isinstance(refusal.value, FoliumError) and isinstance(refusal.value, ValueError)


def test_op_rejects_node_for_multiplicative_law():
    run_cli("op", "--law", "projmul", "(0, 0)", "(2/3, 4/3)", expect=3)


def test_plot_writes_deterministic_svg(tmp_path):
    out1 = tmp_path / "one.svg"
    out2 = tmp_path / "two.svg"
    argv = ("plot", "--a", "1", "--t-min", "-0.9", "--t-max", "4", "--samples", "120",
            "--overlay", "chord:2,3", "--overlay", "bisector")
    run_cli(*argv, "--out", str(out1))
    run_cli(*argv, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<?xml")


def test_plot_csv(tmp_path):
    out = tmp_path / "curve.csv"
    run_cli("plot", "--a", "1", "--t-min", "-3", "--t-max", "3", "--samples", "50",
            "--out", str(out))
    assert out.read_text().startswith("t,x,y")


def test_plot_csv_refuses_overlays(tmp_path):
    # a CSV holds the curve's samples only, so an overlay would be dropped without a word
    out = tmp_path / "curve.csv"
    proc = run_main("plot", "--overlay", "chord:1,2", "--out", str(out))
    message = f"error: overlays are drawn only on an SVG plot, not on the CSV path {out}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)
    assert not out.exists()


def test_plot_degenerate_range_exits_three(tmp_path):
    run_cli("plot", "--t-min", "2", "--t-max", "2", "--out", str(tmp_path / "x.svg"), expect=3)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--t-min", "1/0"),
        ("--t-max", "1/0"),
        ("--a", "1/0"),
        ("--exclusion", "1/0"),
        ("--overlay", "point:1/0"),
        ("--overlay", "tangent:1/0"),
        ("--overlay", "chord:2,1/0"),
    ],
)
def test_plot_zero_denominator_is_a_domain_error(tmp_path, flag, value):
    proc = run_main("plot", flag, value, "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stderr == "error: zero denominator in literal '1/0'\n"


@pytest.mark.parametrize(
    "spec, message",
    [("fp:4", "4 is not prime"), ("fp:5", "plot draws the real curve; it needs --field q, not fp:5")],
    ids=["fp:4", "fp:5"],
)
def test_plot_refuses_a_field_other_than_q(tmp_path, spec, message):
    out = tmp_path / "x.svg"
    proc = run_main("plot", "--field", spec, "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")
    assert not out.exists()


ENUMERATION_SKIP = " — skipped: point enumeration requires p <= 10000"


@pytest.mark.parametrize(
    "suite, skipped",
    [
        ("count", ["point_count_equals_p"]),
        ("parametrize", ["pbar_image_is_whole_curve"]),
        ("geometry", ["slope_cubic_oracle"]),
    ],
)
def test_verify_skips_enumeration_above_its_bound(suite, skipped):
    out = run_cli("verify", "--field", "fp:65537", "--suite", suite, "--samples", "20")
    skips = [line for line in out.splitlines() if line.endswith(ENUMERATION_SKIP)]
    assert skips == [f"SKIP {name}{ENUMERATION_SKIP}" for name in skipped]


@pytest.mark.parametrize(
    "field, summary",
    [
        pytest.param("fp:65537", "74 passed, 0 failed, 9 skipped", id="fp:65537"),
        pytest.param("fp:2147483647", "60 passed, 0 failed, 23 skipped", id="fp:2147483647"),
    ],
)
def test_verify_all_over_large_primes_exits_zero(field, summary):
    out = run_cli("verify", "--field", field, "--suite", "all", "--samples", "20")
    skipped = [line.split()[1] for line in out.splitlines() if line.endswith(ENUMERATION_SKIP)]
    assert skipped == ["point_count_equals_p", "pbar_image_is_whole_curve", "slope_cubic_oracle"]
    assert out.splitlines()[-1].endswith(f": {summary}")


@pytest.mark.parametrize("seed", ["0", "7"])
def test_verify_existence_rows_pass_with_one_sample(seed):
    argv = ("verify", "--field", "q", "--suite", "coincidence", "--samples", "1", "--seed", seed)
    out = run_cli(*argv)
    assert out.splitlines()[-1].endswith(": 3 passed, 0 failed, 0 skipped")


LIMIT = sys.get_int_max_str_digits()
LONG = "7" * (LIMIT + 700)


@pytest.mark.skipif(LIMIT == 0, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--map", "pbar", "--t", LONG),
        ("eval", "--field", "fp:5", "--map", "pbar", "--t", LONG),
        ("eval", "--field", f"fp:{LONG}", "--map", "pbar", "--t", "1"),
        ("op", "--law", "projmul", f"(1 : {LONG} : 1)", "(0, 0)"),
        ("plot", "--t-max", LONG, "--out", os.devnull),
        ("plot", "--overlay", f"chord:1,0.{LONG}", "--out", os.devnull),
    ],
    ids=["eval-q", "eval-fp", "field", "point", "plot-t-max", "plot-overlay"],
)
def test_over_long_literal_names_the_digit_limit(argv):
    proc = run_main(*argv)
    message = f"error: an integer of {LIMIT + 700} digits is over the limit of {LIMIT} digits\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


@pytest.mark.skipif(LIMIT == 0, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_over_long_result_names_the_digit_limit(fmt):
    # pbar(t) has the denominator 1 + t^3, three times as long as t
    proc = run_main("eval", "--map", "pbar", "--t", "7" * (LIMIT // 2), "--format", fmt)
    message = f"error: cannot print a value of over {LIMIT} digits, the integer digit limit\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)
    t = 7 * (10 ** (LIMIT // 4) - 1) // 9  # all sevens; its pbar fits under the limit
    out = run_cli("eval", "--map", "pbar", "--t", str(t), "--format", fmt)
    x = Fraction(3 * t, 1 + t**3)
    assert str(x) in out and str(x * t) in out


@pytest.mark.skipif(LIMIT == 0, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("value", ["nan", "inf", "1e-1000000", "1e1000000"])
def test_plot_literal_refusals_name_the_literal(value):
    proc = run_main("plot", f"--t-min={value}", "--samples", "3", "--out", os.devnull)
    if "e" in value:
        message = f"an integer of 1000001 digits is over the limit of {LIMIT} digits"
    else:
        message = f"bad plot literal {value!r}; expected a number such as -0.9, 1e-3 or 3/7"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")


@pytest.mark.skipif(LIMIT == 0, reason="the interpreter converts integers of any length")
def test_in_process_runs_leave_the_interpreter_as_they_were():
    before = (sys.get_int_max_str_digits(), sys.stdout, sys.stderr, os.getcwd())
    codes = [
        run_main("eval", "--map", "pbar", "--t", LONG).returncode,
        run_main("plot", "--out", os.devnull).returncode,
        run_main("verify", "--format", "json").returncode,
    ]
    assert codes == [3, 0, 0]
    assert (sys.get_int_max_str_digits(), sys.stdout, sys.stderr, os.getcwd()) == before


def test_python_m_exits_with_the_code_main_returns():
    # Every other command test calls main in process; this one runs __main__.py's sys.exit(main()).
    for argv, code in [
        (("branch", "(0, 0)"), 0),
        (("nonsense",), 2),
        (("eval", "--field", "fp:9", "--map", "pbar", "--t", "1"), 3),
    ]:
        proc, inside = python_process("-m", "descartes_folium", *argv), run_main(*argv)
        assert inside.returncode == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, inside.stdout, inside.stderr)


ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_cli_mix_prints_the_same_bytes_in_and_out_of_process(monkeypatch, tmp_path):
    # The cli workload compares each child with cli.main in process and fails on any difference.
    # Hashes of points and elements include the field's identity hash, which differs from one
    # process to the next, so an output that follows a set's order, or a cache keyed by id(),
    # shows up here as a second pass or a child that prints other bytes, in most runs: a
    # child's order matches the in-process one only by chance.  The plot path is relative, so
    # the commands run in tmp_path and write nothing into the checkout.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from workloads import Size, _cli_commands, _in_process, _plot_bytes

    (tmp_path / "benchmarks" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    mixes = {seed: _cli_commands(seed, Size()) for seed in range(1, 11)}
    distinct = list(dict.fromkeys(tuple(argv) for commands in mixes.values() for argv in commands))
    first = {argv: _in_process(argv) for argv in distinct}
    assert [argv for argv, (code, _, _) in first.items() if code != 0] == []
    assert [argv for argv in distinct if _in_process(argv) != first[argv]] == []
    for argv in map(tuple, mixes[9]):
        child = python_process("-m", "descartes_folium", *argv, cwd=tmp_path)
        assert (child.returncode, child.stdout, _plot_bytes(argv)) == first[argv], argv


LAZY_MODULES = ("descartes_folium.verify", "descartes_folium.plotting", "dataclasses", "json")


def test_a_curve_command_loads_neither_verify_nor_plotting():
    # This process has imported everything already, so a fresh one runs the commands.
    probe = (
        "import sys\n"
        "from descartes_folium import cli\n"
        "codes = [cli.main(['eval', '--map', 'pbar', '--t', '2']),\n"
        "         cli.main(['op', '--law', 'projmul', '(3/2, 3/2)', '(2/3, 4/3)'])]\n"
        f"print(codes, [name for name in {LAZY_MODULES!r} if name in sys.modules])\n"
    )
    proc = python_process("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


# Pinned here, not derived: `__init__.py` derives `__all__` from its imports, so dropping
# an import or importing a stray public name must fail the test below.
PUBLIC_NAMES = (
    "BadLiteral", "BranchLabel", "CoincidentPoints", "DegenerateRange", "DivisionByZero",
    "DivisionByZeroPoint", "Field", "FieldElement", "FieldLacksUniqueCubeRoot",
    "FieldTooLargeForScan", "FileWriteError", "Folium", "FoliumError", "LawKind",
    "LineThroughOrigin", "MixedFields", "NotOnCurve", "OriginNotAllowed", "OriginNotInGroup",
    "ParamMap", "ParameterAtInfinity", "PointAtInfinity", "PrimeField", "ProjectiveLine",
    "ProjectivePoint", "PropertyResult", "Rationals", "SingularPoint", "SpecialPoints",
    "UnknownSuite", "UnorderedField", "VertexNotAllowed", "add_south", "add_west", "all_lines",
    "alpha", "alpha_inv", "apply_law", "chord_or_tangent", "classify_branch", "collinear3",
    "field_from_spec", "folium_add", "folium_div", "folium_inv", "folium_mul", "geometric_mul",
    "geometric_mul_via_vertex", "law_inverse", "law_neutral", "line_curve_intersections",
    "line_through", "neg", "p_affine", "p_affine_prime", "pbar", "pbar_inv", "pbarbar",
    "pbarbar_inv", "perp", "perpendicular_chord_check", "proj_inv", "proj_mul", "proj_mul2",
    "run_report", "run_suite", "sigma", "slope_cubic", "slope_cubic_check", "south_mul",
    "star_mul", "tangent_at", "third_intersection", "west_mul",
)


def test_the_package_serves_every_public_name():
    import descartes_folium
    from descartes_folium import verify

    assert descartes_folium.__all__ == list(PUBLIC_NAMES)
    namespace = {}
    exec("from descartes_folium import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name in ("PropertyResult", "run_report", "run_suite"):
        assert getattr(descartes_folium, name) is getattr(verify, name)
    with pytest.raises(AttributeError):
        descartes_folium.no_such_name
