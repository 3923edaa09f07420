"""Curve membership, canonical forms, point keys, special points, and the enumeration oracle."""

import random
from fractions import Fraction

import pytest

from descartes_folium import (
    FieldTooLargeForScan,
    Folium,
    MixedFields,
    NotOnCurve,
    PrimeField,
    ProjectiveLine,
    ProjectivePoint,
    Rationals,
    SpecialPoints,
    pbar,
)
from helpers import attribute_writes, prime_curve, random_fraction, rational_curve


def test_canonical_affine_point():
    q = Rationals()
    point = ProjectivePoint.of(q, 6, 12, 9)
    assert (str(point.x), str(point.y), str(point.z)) == ("2/3", "4/3", "1")


def test_canonical_infinity_pivots_on_x():
    q = Rationals()
    assert ProjectivePoint.of(q, -2, 2, 0) == ProjectivePoint.of(q, 1, -1, 0)
    assert ProjectivePoint.of(q, 0, 5, 0) == ProjectivePoint.of(q, 0, 1, 0)


def test_canonicalization_scale_invariant():
    rng = random.Random(1)
    q = Rationals()
    base = ProjectivePoint.of(q, Fraction(2, 3), Fraction(4, 3), 1)
    for _ in range(50):
        lam = random_fraction(rng)
        if lam == 0:
            continue
        scaled = ProjectivePoint.of(q, Fraction(2, 3) * lam, Fraction(4, 3) * lam, lam)
        assert scaled == base
    f5 = PrimeField(5)
    base5 = ProjectivePoint.of(f5, 4, 3, 1)
    for lam in range(1, 5):
        assert ProjectivePoint.of(f5, 4 * lam, 3 * lam, lam) == base5


def test_canonicalization_idempotent():
    f7 = PrimeField(7)
    for x in range(7):
        for y in range(7):
            for z in range(7):
                if x == y == z == 0:
                    continue
                point = ProjectivePoint.of(f7, x, y, z)
                again = ProjectivePoint.of(f7, point.x, point.y, point.z)
                assert again == point


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjectivePoint.of(Rationals(), 0, 0, 0)
    with pytest.raises(ValueError):
        ProjectiveLine.of(Rationals(), 0, 0, 0)


def test_mixed_coordinate_fields_rejected():
    with pytest.raises(MixedFields):
        ProjectivePoint(Rationals().one, PrimeField(5).one, Rationals().one)


def test_points_hash_into_sets():
    f5 = PrimeField(5)
    seen = {ProjectivePoint.of(f5, 4, 3, 1), ProjectivePoint.of(f5, 8, 6, 2)}
    assert len(seen) == 1


def test_contains_examples():
    curve = rational_curve(1)
    assert curve.contains(curve.point(Fraction(2, 3), Fraction(4, 3)))
    assert curve.contains(curve.origin)
    assert rational_curve(Fraction(-7, 2)).contains(rational_curve(Fraction(-7, 2)).origin)
    f5 = prime_curve(5)
    assert f5.contains(f5.point(4, 3, 1))
    assert not curve.contains(curve.point(1, 1))


def test_folium_rejects_zero_a():
    with pytest.raises(ValueError):
        Folium(Rationals(), 0)


def test_vertex_examples():
    assert rational_curve(1).vertex() == rational_curve(1).point(Fraction(3, 2), Fraction(3, 2))
    assert prime_curve(5).vertex() == prime_curve(5).point(4, 4, 1)


def test_special_points_rational():
    curve = rational_curve(1)
    special = curve.special_points()
    assert isinstance(special, SpecialPoints)
    assert special.origin == curve.point(0, 0, 1)
    assert special.infinity == curve.point(1, -1, 0)
    assert special.vertex == curve.point(Fraction(3, 2), Fraction(3, 2))
    assert not special.vertex_equals_infinity
    assert special.points_at_infinity == [curve.infinity]


def test_special_points_f7_has_three_at_infinity():
    curve = prime_curve(7)
    special = curve.special_points()
    assert special.points_at_infinity == [
        curve.point(1, 6, 0),
        curve.point(1, 3, 0),
        curve.point(1, 5, 0),
    ]
    assert all(curve.contains(point) for point in special.points_at_infinity)


def test_special_points_f65537_has_one_at_infinity():
    curve = Folium(PrimeField(65537), 1)
    assert curve.special_points().points_at_infinity == [curve.infinity]


def test_special_points_char_two_vertex_collapses():
    curve = prime_curve(2)
    special = curve.special_points()
    assert special.vertex is None
    assert special.vertex_equals_infinity
    assert pbar(curve, curve.field.one) == curve.infinity


def test_special_points_repr_equality_and_immutability():
    assert repr(prime_curve(2).special_points()) == (
        "SpecialPoints(origin=(0 : 0 : 1), infinity=(1 : 1 : 0), vertex=None, "
        "vertex_equals_infinity=True, points_at_infinity=[(1 : 1 : 0)])"
    )
    assert repr(rational_curve(1).special_points()) == (
        "SpecialPoints(origin=(0 : 0 : 1), infinity=(1 : -1 : 0), vertex=(3/2 : 3/2 : 1), "
        "vertex_equals_infinity=False, points_at_infinity=[(1 : -1 : 0)])"
    )
    assert rational_curve(1).special_points() == rational_curve(1).special_points()
    assert rational_curve(1).special_points() != rational_curve(2).special_points()
    special = rational_curve(1).special_points()
    with pytest.raises(AttributeError):
        special.vertex = None
    assert special.vertex is not None


def test_enumerate_f5_exact_set():
    curve = prime_curve(5)
    expected = {
        curve.point(0, 0, 1),
        curve.point(1, 4, 0),
        curve.point(4, 4, 1),
        curve.point(4, 3, 1),
        curve.point(3, 4, 1),
    }
    assert set(curve.enumerate_points()) == expected


def test_enumerate_f2_and_f7():
    assert len(prime_curve(2).enumerate_points()) == 2
    assert len(prime_curve(7, a=2).enumerate_points()) == 7


def test_enumerate_count_matches_p_for_every_a():
    for p in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        field = PrimeField(p)
        for a in range(1, p):
            curve = Folium(field, a)
            points = curve.enumerate_points()
            assert len(points) == p, (p, a)
            assert len(set(points)) == p


def test_the_point_zero_one_zero_is_never_enumerated():
    # (0 : 1 : 0) has cubic value 1 in every characteristic.
    for p in (2, 5, 7, 13, 31):
        curve = prime_curve(p)
        assert curve.point(0, 1, 0) not in curve.enumerate_points(), p


@pytest.mark.parametrize("p", [2, 5, 7, 13, 31])
def test_a_repeated_enumeration_equals_a_new_instances_scan(p):
    curve = prime_curve(p)
    first, second = curve.enumerate_points(), curve.enumerate_points()
    assert first == second == prime_curve(p).enumerate_points()
    assert first is not second


def test_mutating_an_enumeration_leaves_the_next_one_alone():
    curve = prime_curve(7)
    expected = list(curve.enumerate_points())
    points = curve.enumerate_points()
    points.reverse()
    points.append(curve.point(0, 1, 0))
    del points[0]
    assert curve.enumerate_points() == expected


def test_enumerate_guards():
    with pytest.raises(FieldTooLargeForScan):
        rational_curve(1).enumerate_points()
    with pytest.raises(FieldTooLargeForScan):
        prime_curve(10007).enumerate_points()


def test_node_is_the_unique_singular_point():
    for p in (2, 5, 7, 11, 13):
        for a in (1, 2):
            if a % p == 0:
                continue
            curve = prime_curve(p, a)
            for point in curve.enumerate_points():
                assert curve.is_singular_point(point) == (point == curve.origin)


def test_singular_gradient_examples():
    curve = rational_curve(1)
    assert curve.is_singular_point(curve.origin)
    gx, gy, gz = curve.gradient(curve.vertex())
    assert (str(gx), str(gy), str(gz)) == ("9/4", "9/4", "-27/4")
    assert not curve.is_singular_point(curve.vertex())
    gx, gy, gz = curve.gradient(curve.infinity)
    assert (str(gx), str(gy), str(gz)) == ("3", "3", "3")
    assert not curve.is_singular_point(curve.infinity)


def test_singular_check_requires_curve_point():
    curve = rational_curve(1)
    with pytest.raises(NotOnCurve):
        curve.is_singular_point(curve.point(1, 0))


def test_a_point_defaults_to_the_affine_chart():
    q = Rationals()
    point = ProjectivePoint.of(q, 2, 3)
    assert point == ProjectivePoint.of(q, 2, 3, 1)
    assert (point.x.value, point.y.value, point.z.value) == (2, 3, 1)


def test_curves_are_equal_when_field_and_a_are():
    curve = rational_curve(1)
    assert curve == Folium(Rationals(), 1) and hash(curve) == hash(Folium(Rationals(), 1))
    assert curve != rational_curve(2)
    assert prime_curve(5) == prime_curve(5) != prime_curve(7)
    assert curve != "x^3 + y^3 - 3xy"


def test_lines_over_different_fields_differ():
    line = ProjectiveLine.of(PrimeField(5), 1, 1, 1)
    assert line == ProjectiveLine.of(PrimeField(5), 1, 1, 1)
    assert hash(line) == hash(ProjectiveLine.of(PrimeField(5), 1, 1, 1))
    assert line != ProjectiveLine.of(PrimeField(7), 1, 1, 1)
    assert line != ProjectiveLine.of(Rationals(), 1, 1, 1)


def test_line_canonical_form_and_incidence():
    q = Rationals()
    line = ProjectiveLine.of(q, 1, 1, -3)
    assert (str(line.m), str(line.n), str(line.p)) == ("-1/3", "-1/3", "1")
    assert line.contains(ProjectivePoint.of(q, Fraction(3, 2), Fraction(3, 2), 1))
    assert not line.contains(ProjectivePoint.of(q, 0, 0, 1))
    assert ProjectiveLine.of(q, 1, 1, 0).through_origin


def test_a_point_or_a_line_reads_unequal_to_a_non_instance():
    field = PrimeField(5)
    point, line = ProjectivePoint.of(field, 0, 0, 1), ProjectiveLine.of(field, 1, 1, 0)
    assert point != (0, 0, 1) and not point == "O"
    assert line != (1, 1, 0) and not line == point


def test_a_point_keeps_its_coordinates_its_key_and_its_mark_in_slots():
    assert ProjectivePoint.__slots__ == ("x", "y", "z", "key", "on")


def test_only_the_three_point_constructors_assign_a_coordinate_or_the_key():
    # the law tables read a point's key in place of its residues, so a key that fell out of step with the
    # coordinates would answer one pair's product for another
    writes = attribute_writes(("x", "y", "z", "key"))
    targets = {"__init__": "self", "of": "point", "_marked": "point"}
    assert writes == sorted(
        ("curve.py", f"ProjectivePoint.{name}", f"{target}.{attribute}")
        for name, target in targets.items()
        for attribute in ("x", "y", "z", "key")
    )


def _canonical_triples(residues):
    """The canonical triples of P^2(F_p) with entries from `residues`: (x, y, 1), (1, y, 0) and (0, 1, 0)."""
    return [(x, y, 1) for x in residues for y in residues] + [(1, y, 0) for y in residues] + [(0, 1, 0)]


def _assert_packed_keys(p, triples):
    field = PrimeField(p)
    points = [ProjectivePoint.of(field, *triple) for triple in triples]
    assert [(point.x.value, point.y.value, point.z.value) for point in points] == triples
    assert [point.key for point in points] == [x + p * (y + p * z) for x, y, z in triples]
    assert len({point.key for point in points}) == len(points)


@pytest.mark.parametrize("p", [2, 5, 7, 13, 31])
def test_every_point_of_the_plane_over_fp_carries_its_own_packed_key(p):
    triples = _canonical_triples(range(p))
    assert len(triples) == p * p + p + 1
    _assert_packed_keys(p, triples)


def test_points_over_fp_65537_carry_their_packed_keys():
    p = 65537
    _assert_packed_keys(p, _canonical_triples((0, 1, 2, p // 2, p - 2, p - 1)))
    field = PrimeField(p)
    # a triple that is not canonical is keyed by the form it is scaled to
    assert ProjectivePoint.of(field, 6, 4, 2).key == 3 + p * (2 + p)
    assert ProjectivePoint.of(field, -2, 2, 0).key == 1 + p * (p - 1)


@pytest.mark.parametrize("p", [2, 5, 7, 13, 31])
def test_every_constructor_keys_a_point_as_of_does(p):
    field = PrimeField(p)
    curve = Folium(field, 1)
    for t in range(p):
        chart = pbar(curve, t)
        built = ProjectivePoint(chart.x, chart.y, chart.z)
        read = ProjectivePoint.of(field, chart.x.value, chart.y.value, chart.z.value)
        assert chart.key == built.key == read.key
    assert curve.vertex().key == ProjectivePoint.of(field, 3, 3, 2).key
    assert curve.infinity.key == 1 + p * (p - 1)


def test_a_point_over_q_has_no_key():
    # no run over q keeps law tables, so nothing reads a rational point's key
    q = Rationals()
    curve = Folium(q, 1)
    points = (ProjectivePoint.of(q, 1, 2), ProjectivePoint(q.one, q.zero, q.one), pbar(curve, 2), curve.vertex(), curve.origin)
    assert [point.key for point in points] == [None] * len(points)
