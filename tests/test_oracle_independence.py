"""The oracles stay independent of the parametrization and the laws.

With pbar, pbarbar, p_affine, pbar_inv, the pair kernel (_pair_coordinates,
with _pair_point and _pair_param, which the charts and the laws run), the
on-curve kernel _cubic_vanishes and apply_law replaced, at every module
name that holds them, by functions that raise, the point enumeration, the
cubic evaluation, the line scan, the line-incidence filter, the sign-based
branch label and the cube-root residue scan still give their unpatched
answers, also inside a verify run whose chart memo the laws have filled.
The refusal texts of the scans and the canonical-form errors of
points and lines are pinned here too.  The element store of a prime field
(`_elements`) is not patched: it is element construction itself, which the
oracles share with everything else, not a kernel that a chart or a law runs
in their place.
"""

import sys
from fractions import Fraction

import pytest

from descartes_folium import (
    FieldTooLargeForScan,
    Folium,
    MixedFields,
    PrimeField,
    ProjectiveLine,
    ProjectivePoint,
    Rationals,
    pbar,
)
from descartes_folium import fields, parametrization, verify
from descartes_folium.fields import FieldElement
from descartes_folium.geometry import _curve_points_on_line, all_lines, roots_with_multiplicity
from descartes_folium.laws import apply_law
from descartes_folium.verify import _coordinate_label, run_suite
from helpers import run_main

PATCHED = {
    "pbar": pbar,
    "pbarbar": parametrization.pbarbar,
    "p_affine": parametrization.p_affine,
    "pbar_inv": parametrization.pbar_inv,
    "_pair_coordinates": fields._pair_coordinates,
    "_pair_point": parametrization._pair_point,
    "_pair_param": parametrization._pair_param,
    "_cubic_vanishes": fields._cubic_vanishes,
    "apply_law": apply_law,
}


def _forbid(monkeypatch):
    """Replace each patched function at every package module name bound to it."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "descartes_folium" and not module_name.startswith("descartes_folium."):
            continue
        for attribute, original in PATCHED.items():
            if getattr(module, attribute, None) is original:

                def refuse(*args, _name=attribute, **kwargs):
                    raise AssertionError(f"an oracle called {_name}")

                monkeypatch.setattr(module, attribute, refuse)
                replaced += 1
    assert replaced >= len(PATCHED)


def _answer(call):
    """A call's value, or its refusal as (type name, message)."""
    try:
        return call()
    except FieldTooLargeForScan as refusal:
        return ("FieldTooLargeForScan", str(refusal))


def _raw_points(field):
    values = [0, 1, -1, 2, 4]
    if not field.characteristic:
        values[3:] = [Fraction(2, 3), Fraction(4, 3), Fraction(3, 2)]
    return [
        ProjectivePoint.of(field, x, y, z)
        for x in values
        for y in values
        for z in (0, 1)
        if (x, y, z) != (0, 0, 0)
    ]


def _oracles(curve):
    field = curve.field
    points = _raw_points(field)
    answers = {
        "enumerate_points": _answer(curve.enumerate_points),
        "evaluate": [curve.evaluate(P) for P in points],
        "contains": [curve.contains(P) for P in points],
        "all_lines": _answer(lambda: list(all_lines(field))),
    }
    if field.characteristic:
        lines = [line for line in all_lines(field) if not line.through_origin]
        answers["incidence"] = [_curve_points_on_line(curve, line) for line in lines]
        answers["field suite"] = run_suite(curve, "field", seed=0, samples=40)
    else:
        on_curve = [P for P in points if P.is_affine and curve.contains(P)]
        on_curve += [ProjectivePoint.of(field, 9, 27, 28), ProjectivePoint.of(field, 27, 9, 28)]
        answers["labels"] = [_coordinate_label(curve, P) for P in on_curve]
    return answers


@pytest.mark.parametrize("field", [PrimeField(5), Rationals()], ids=["fp:5", "q"])
def test_oracles_give_the_same_answers_without_the_charts_and_laws(field, monkeypatch):
    curve = Folium(field, 1)
    expected = _oracles(curve)
    _forbid(monkeypatch)
    with pytest.raises(AssertionError, match="an oracle called pbar"):
        verify.pbar(curve, field.one)
    # a new curve, so the enumeration runs under the patch instead of answering from its cache
    assert _oracles(Folium(field, 1)) == expected


@pytest.mark.parametrize("field", [PrimeField(5), Rationals()], ids=["fp:5", "q"])
def test_oracles_give_the_same_answers_beside_a_filled_chart_memo(field, monkeypatch):
    expected = _oracles(Folium(field, 1))
    answers = []

    def probe(ctx):
        verify.SUITES["axioms"](ctx)  # the laws fill the run's chart memo
        assert ctx.curve._charted
        _forbid(monkeypatch)
        answers.append(_oracles(ctx.curve))
        return []

    monkeypatch.setitem(verify.SUITES, "probe", probe)
    # a new curve, so the enumeration runs under the patch instead of answering from its cache
    run_suite(Folium(field, 1), "probe", seed=0, samples=40)
    assert answers == [expected]


def test_oracle_answers_over_fp5():
    curve = Folium(PrimeField(5), 1)
    assert len(curve.enumerate_points()) == 5
    assert sum(1 for _ in all_lines(curve.field)) == 31
    scan = run_suite(curve, "field", seed=0, samples=40)[-1]
    assert (scan.name, scan.instances, scan.passed) == ("cube_root_unique_matches_congruence", 1, True)


def test_count_over_the_rationals_is_refused():
    proc = run_main("count", "--field", "q")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3,
        "",
        "error: point enumeration needs a finite prime field\n",
    )


@pytest.mark.parametrize(
    "field, message",
    [
        (Rationals(), "line enumeration needs a finite prime field"),
        (PrimeField(10007), "line enumeration requires p <= 10000"),
    ],
)
def test_all_lines_refuses_on_first_iteration(field, message):
    lines = all_lines(field)  # a generator: nothing runs before the first line
    with pytest.raises(FieldTooLargeForScan) as refusal:
        next(lines)
    assert str(refusal.value) == message


def test_enumeration_refusal_texts():
    with pytest.raises(FieldTooLargeForScan) as refusal:
        Folium(Rationals(), 1).enumerate_points()
    assert str(refusal.value) == "point enumeration needs a finite prime field"
    with pytest.raises(FieldTooLargeForScan) as refusal:
        Folium(PrimeField(10007), 1).enumerate_points()
    assert str(refusal.value) == "point enumeration requires p <= 10000"


def test_root_scan_refusal_text():
    field = PrimeField(10007)
    with pytest.raises(FieldTooLargeForScan) as refusal:
        roots_with_multiplicity(field, [field.one, field.zero, field.zero, field.one])
    assert str(refusal.value) == "root scan requires p <= 10000"


def test_canonical_form_error_texts():
    f5, q = PrimeField(5), Rationals()
    with pytest.raises(MixedFields, match=r"^point coordinates must share one field$"):
        ProjectivePoint(f5.one, q.one, q.one)
    with pytest.raises(MixedFields, match=r"^line coefficients must share one field$"):
        ProjectiveLine(q.one, q.one, f5.one)
    with pytest.raises(ValueError, match=r"^\(0 : 0 : 0\) is not a projective point$"):
        ProjectivePoint(q.zero, q.zero, q.zero)
    with pytest.raises(ValueError, match=r"^\(0 : 0 : 0\) is not a line$"):
        ProjectiveLine(f5.zero, f5.zero, f5.zero)


def test_canonical_form_skips_the_inverse_at_a_unit_pivot(monkeypatch):
    def refuse(self):
        raise AssertionError("inverse called at a unit pivot")

    monkeypatch.setattr(FieldElement, "inverse", refuse)
    q = Rationals()
    assert str(ProjectivePoint.of(q, Fraction(2, 3), 5, 1)) == "(2/3 : 5 : 1)"
    assert str(ProjectivePoint.of(q, 1, -1, 0)) == "(1 : -1 : 0)"
    assert str(ProjectivePoint.of(q, 0, 1, 0)) == "(0 : 1 : 0)"
    assert str(ProjectiveLine.of(q, 3, 4, 1)) == "[3 : 4 : 1]"
    assert str(ProjectiveLine.of(q, 1, 7, 0)) == "[1 : 7 : 0]"
    assert str(ProjectiveLine.of(q, 0, 1, 0)) == "[0 : 1 : 0]"
