"""Every law entry point behaves the same: apply_law, law_inverse and law_neutral
agree with the per-law functions, and each invalid operand raises one exact error."""

import copy
import pickle
from fractions import Fraction

import pytest

from descartes_folium import (
    DivisionByZeroPoint,
    FieldLacksUniqueCubeRoot,
    Folium,
    LawKind,
    MixedFields,
    NotOnCurve,
    OriginNotInGroup,
    PointAtInfinity,
    PrimeField,
    add_south,
    add_west,
    apply_law,
    folium_add,
    folium_div,
    folium_inv,
    folium_mul,
    law_inverse,
    law_neutral,
    neg,
    pbar,
    perp,
    proj_inv,
    proj_mul,
    proj_mul2,
    south_mul,
    star_mul,
    third_intersection,
    west_mul,
)
from descartes_folium.laws import LAWS
from helpers import prime_curve, rational_curve

CURVES = [("q", a) for a in (1, 2)] + [
    (f"fp:{p}", a) for p in (2, 5, 7, 13) for a in (1, 2) if a % p
]

OPS = {
    LawKind.PROJ_MUL: proj_mul,
    LawKind.PROJ_MUL2: proj_mul2,
    LawKind.STAR_MUL: star_mul,
    LawKind.ADD_SOUTH: add_south,
    LawKind.ADD_WEST: add_west,
    LawKind.SOUTH_MUL: south_mul,
    LawKind.WEST_MUL: west_mul,
    LawKind.FIELD_MUL: folium_mul,
}
INVERSES = {
    LawKind.PROJ_MUL: proj_inv,
    LawKind.PROJ_MUL2: proj_inv,
    LawKind.STAR_MUL: proj_inv,
    LawKind.ADD_SOUTH: neg,
    LawKind.ADD_WEST: neg,
    LawKind.SOUTH_MUL: lambda curve, point: law_inverse(curve, LawKind.SOUTH_MUL, point),
    LawKind.WEST_MUL: lambda curve, point: law_inverse(curve, LawKind.WEST_MUL, point),
    LawKind.FIELD_MUL: folium_inv,
}
NODE_EXCLUDED = (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL)
AFFINE = (LawKind.SOUTH_MUL, LawKind.WEST_MUL)
NODE_EXCLUDED_MESSAGE = "the node (0 : 0 : 1) is excluded here"
NODE_INVERSE_MESSAGE = "the node (0 : 0 : 1) has no multiplicative inverse"


def build_curve(spec, a):
    if spec == "q":
        return rational_curve(a)
    return prime_curve(int(spec.split(":")[1]), a)


def curve_points(curve):
    field = curve.field
    if isinstance(field, PrimeField):
        params = [field.element(r) for r in range(field.p)]
    else:
        params = [field.element(Fraction(v)) for v in (0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 7))]
    return list(dict.fromkeys(pbar(curve, t) for t in params))


def off_curve_point(curve):
    for x in range(1, 5):
        for y in range(1, 5):
            point = curve.point(x, y)
            if not curve.contains(point):
                return point
    raise AssertionError("no off-curve point with small coordinates")


def foreign_point(curve):
    other = PrimeField(7 if curve.field == PrimeField(5) else 5)
    return Folium(other, 1).vertex()


def expected_neutral(curve, law):
    if law is LawKind.STAR_MUL:
        return curve.infinity
    if law in (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.FIELD_MUL):
        return curve.vertex()
    return curve.origin


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and the message are both pinned
        return (type(exc), str(exc))


def expect_error(error, message, fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert (type(info.value), str(info.value)) == (error, message)


def gated(curve, law):
    return law in AFFINE and not curve.field.has_unique_cube_root()


def gate_message(curve):
    return (
        f"{curve.field} has epsilon roots, so the affine parametrization "
        "is not a bijection onto the affine curve"
    )


@pytest.mark.parametrize("spec,a", CURVES)
def test_dispatchers_agree_with_per_law_functions(spec, a):
    curve = build_curve(spec, a)
    points = curve_points(curve) + [off_curve_point(curve), foreign_point(curve)]
    for law in LawKind:
        assert law_neutral(curve, law) == expected_neutral(curve, law)
        for p1 in points:
            assert outcome(law_inverse, curve, law, p1) == outcome(INVERSES[law], curve, p1)
            for p2 in points:
                assert outcome(apply_law, curve, law, p1, p2) == outcome(OPS[law], curve, p1, p2)


@pytest.mark.parametrize("spec,a", CURVES)
def test_field_addition_is_add_south_with_the_node_as_neutral(spec, a):
    curve = build_curve(spec, a)
    on_curve = curve_points(curve)
    points = on_curve + [off_curve_point(curve), foreign_point(curve)]
    for p1 in points:
        for p2 in points:
            assert outcome(folium_add, curve, p1, p2) == outcome(add_south, curve, p1, p2)
    for point in on_curve:
        assert folium_add(curve, curve.origin, point) == point == folium_add(curve, point, curve.origin)


@pytest.mark.parametrize("spec,a", CURVES)
def test_invalid_operand_errors(spec, a):
    curve = build_curve(spec, a)
    invalid = [
        (off_curve_point(curve), NotOnCurve, "{point} is not on {curve}"),
        (foreign_point(curve), MixedFields, "{point} does not live over {field}"),
    ]
    for law in LawKind:
        good = expected_neutral(curve, law)
        bad_cases = list(invalid)
        if law in NODE_EXCLUDED:
            bad_cases.append((curve.origin, OriginNotInGroup, NODE_EXCLUDED_MESSAGE))
        if law in AFFINE:
            bad_cases.append((curve.infinity, PointAtInfinity, "{point} is not an affine point"))
        for bad, error, template in bad_cases:
            if gated(curve, law):
                error, message = FieldLacksUniqueCubeRoot, gate_message(curve)
            else:
                message = template.format(point=bad, curve=curve, field=curve.field)
            expect_error(error, message, apply_law, curve, law, bad, good)
            expect_error(error, message, apply_law, curve, law, good, bad)
            expect_error(error, message, OPS[law], curve, bad, good)
            expect_error(error, message, OPS[law], curve, good, bad)
            expect_error(error, message, law_inverse, curve, law, bad)
            expect_error(error, message, INVERSES[law], curve, bad)


@pytest.mark.parametrize("spec,a", CURVES)
def test_node_errors(spec, a):
    curve = build_curve(spec, a)
    node, vertex = curve.origin, curve.vertex()
    for fn in (perp, proj_inv):
        expect_error(OriginNotInGroup, NODE_EXCLUDED_MESSAGE, fn, curve, node)
    for pair in ((node, vertex), (vertex, node)):
        expect_error(OriginNotInGroup, NODE_EXCLUDED_MESSAGE, third_intersection, curve, *pair)
    expect_error(DivisionByZeroPoint, NODE_INVERSE_MESSAGE, law_inverse, curve, LawKind.FIELD_MUL, node)
    expect_error(DivisionByZeroPoint, NODE_INVERSE_MESSAGE, folium_inv, curve, node)
    expect_error(DivisionByZeroPoint, NODE_INVERSE_MESSAGE, folium_div, curve, vertex, node)
    assert folium_mul(curve, node, vertex) == node == folium_mul(curve, vertex, node)


@pytest.mark.parametrize("spec", ["fp:7", "fp:13"])
def test_affine_laws_refuse_fields_with_epsilon_roots(spec):
    curve = build_curve(spec, 1)
    node = curve.origin
    for law in AFFINE:
        expect_error(FieldLacksUniqueCubeRoot, gate_message(curve), apply_law, curve, law, node, node)
        expect_error(FieldLacksUniqueCubeRoot, gate_message(curve), OPS[law], curve, node, node)
        expect_error(FieldLacksUniqueCubeRoot, gate_message(curve), law_inverse, curve, law, node)
        expect_error(FieldLacksUniqueCubeRoot, gate_message(curve), INVERSES[law], curve, node)


def test_every_law_kind_finds_its_own_row_by_identity_hash():
    # LawKind hashes by identity, which holds only while every way of getting
    # a member returns the one singleton.
    for kind in LawKind:
        row = LAWS[kind]
        assert hash(kind) == object.__hash__(kind)
        for twin in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind), copy.copy(kind), LawKind(kind.value)):
            assert twin is kind and LAWS[twin] is row
    assert LAWS[LawKind("star")] is LAWS[LawKind.STAR_MUL]
