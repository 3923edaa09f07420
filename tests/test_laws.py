"""Transported composition laws, their identities, and the curve-as-field."""

import itertools
import random
from fractions import Fraction

import pytest

from descartes_folium import (
    DivisionByZeroPoint,
    FieldLacksUniqueCubeRoot,
    LawKind,
    OriginNotInGroup,
    PointAtInfinity,
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
    p_affine,
    pbar,
    pbarbar,
    perp,
    proj_inv,
    proj_mul,
    proj_mul2,
    sigma,
    south_mul,
    star_mul,
    third_intersection,
    west_mul,
)
from descartes_folium import parametrization
from descartes_folium.laws import LAWS
from helpers import (
    affine_points,
    nonzero_points,
    patch_everywhere,
    prime_curve,
    random_fraction,
    random_nonzero_fraction,
    rational_curve,
)


def q_points(curve, *values):
    return [pbar(curve, curve.field.element(Fraction(v))) for v in values]


def test_proj_mul_transport_example():
    curve = rational_curve(1)
    p2, p3, p6 = q_points(curve, 2, 3, 6)
    assert proj_mul(curve, p2, p3) == p6


def test_proj_mul_neutral_and_inverse_pair():
    curve = rational_curve(1)
    vertex = curve.vertex()
    for point in q_points(curve, 2, -1, Fraction(1, 2), 5, Fraction(-7, 3)):
        assert proj_mul(curve, point, vertex) == point
    p2, p_half = q_points(curve, 2, Fraction(1, 2))
    assert proj_mul(curve, p2, p_half) == vertex


def test_multiplicative_laws_reject_the_node():
    curve = rational_curve(1)
    point = q_points(curve, 2)[0]
    for operation in (proj_mul, proj_mul2, star_mul):
        with pytest.raises(OriginNotInGroup):
            operation(curve, curve.origin, point)
        with pytest.raises(OriginNotInGroup):
            operation(curve, point, curve.origin)
    for operation in (perp, proj_inv):
        with pytest.raises(OriginNotInGroup):
            operation(curve, curve.origin)


def test_proj_mul2_equals_proj_mul_exhaustive_f5():
    curve = prime_curve(5)
    points = nonzero_points(curve)
    for p1, p2 in itertools.product(points, repeat=2):
        assert proj_mul2(curve, p1, p2) == proj_mul(curve, p1, p2)


def test_proj_mul2_transport_example():
    curve = rational_curve(1)
    field = curve.field
    lhs = proj_mul2(curve, pbarbar(curve, field.element(2)), pbarbar(curve, field.element(3)))
    assert lhs == pbarbar(curve, field.element(6))
    point = q_points(curve, 7)[0]
    assert proj_mul2(curve, point, curve.vertex()) == point


def test_proj_inv_examples():
    curve = rational_curve(1)
    point = curve.point(Fraction(2, 3), Fraction(4, 3))
    assert proj_inv(curve, point) == curve.point(Fraction(4, 3), Fraction(2, 3))
    assert proj_inv(curve, curve.infinity) == curve.infinity
    assert proj_inv(curve, curve.vertex()) == curve.vertex()
    assert proj_mul(curve, point, proj_inv(curve, point)) == curve.vertex()


def test_star_mul_examples():
    curve = rational_curve(1)
    p2, p3, p_minus6 = q_points(curve, 2, 3, -6)
    assert star_mul(curve, p2, p3) == p_minus6
    for point in q_points(curve, 2, Fraction(-3, 4), 5):
        assert star_mul(curve, point, curve.infinity) == point
        assert star_mul(curve, point, sigma(point)) == curve.infinity


def test_perp_examples():
    curve = rational_curve(1)
    assert perp(curve, curve.vertex()) == curve.infinity
    assert perp(curve, curve.infinity) == curve.vertex()
    p2 = q_points(curve, 2)[0]
    # pbar(-1/2) canonicalizes to (-12/7 : 6/7 : 1)
    expected = curve.point(Fraction(-12, 7), Fraction(6, 7))
    assert curve.contains(expected)
    assert perp(curve, p2) == expected
    for point in q_points(curve, 2, -4, Fraction(5, 3)):
        assert perp(curve, perp(curve, point)) == point


def test_add_south_examples():
    curve = rational_curve(1)
    p1 = q_points(curve, 1)[0]
    assert add_south(curve, p1, p1) == curve.point(Fraction(2, 3), Fraction(4, 3))
    for point in q_points(curve, 0, 1, -1, Fraction(2, 5)):
        assert add_south(curve, point, curve.origin) == point
    assert neg(curve, curve.infinity) == curve.vertex()


def test_add_west_examples():
    curve = rational_curve(1)
    field = curve.field
    p1 = q_points(curve, 1)[0]
    total = add_west(curve, p1, p1)
    assert total == pbar(curve, field.element(Fraction(1, 2)))
    assert total == curve.point(Fraction(4, 3), Fraction(2, 3))
    for point in q_points(curve, 0, 2, Fraction(-1, 3)):
        assert add_west(curve, point, curve.origin) == point
    # the two additive laws are distinct
    assert add_south(curve, p1, p1) != add_west(curve, p1, p1)


def test_additive_negation_shared():
    curve = rational_curve(2)
    rng = random.Random(11)
    for _ in range(200):
        t = curve.field.element(random_fraction(rng))
        point = pbar(curve, t)
        opposite = neg(curve, point)
        assert add_south(curve, point, opposite) == curve.origin
        assert add_west(curve, point, opposite) == curve.origin


def test_south_mul_transport_example():
    curve = rational_curve(1)
    field = curve.field
    # shifted parameters: t = 1 -> tau = 2, t = 2 -> tau = 3, product 6 -> t = 5
    lhs = south_mul(curve, p_affine(curve, field.element(1)), p_affine(curve, field.element(2)))
    assert lhs == p_affine(curve, field.element(5))
    for point in q_points(curve, 1, 2, Fraction(-1, 2)):
        assert south_mul(curve, point, curve.origin) == point
        assert west_mul(curve, point, curve.origin) == point


def test_sigma_intertwines_south_and_west():
    curve = rational_curve(1)
    rng = random.Random(12)
    for _ in range(200):
        t1 = random_fraction(rng)
        t2 = random_fraction(rng)
        if t1 == -1 or t2 == -1:
            continue
        p1, p2 = q_points(curve, t1, t2)
        assert sigma(south_mul(curve, p1, p2)) == west_mul(curve, sigma(p1), sigma(p2))


def test_exotic_laws_gated_on_cube_root():
    curve = prime_curve(7)
    points = affine_points(curve)
    with pytest.raises(FieldLacksUniqueCubeRoot):
        south_mul(curve, points[0], points[1])
    with pytest.raises(FieldLacksUniqueCubeRoot):
        west_mul(curve, points[0], points[1])


def test_exotic_laws_reject_points_at_infinity():
    curve = rational_curve(1)
    point = q_points(curve, 2)[0]
    with pytest.raises(PointAtInfinity):
        south_mul(curve, point, curve.infinity)
    with pytest.raises(PointAtInfinity):
        west_mul(curve, curve.infinity, point)


def test_field_extension_examples():
    curve = rational_curve(1)
    for point in q_points(curve, 0, 1, 2, -1):
        assert folium_mul(curve, curve.origin, point) == curve.origin
        assert folium_mul(curve, point, curve.origin) == curve.origin
    with pytest.raises(DivisionByZeroPoint):
        folium_inv(curve, curve.origin)
    with pytest.raises(DivisionByZeroPoint):
        folium_div(curve, q_points(curve, 2)[0], curve.origin)
    assert folium_div(curve, curve.origin, q_points(curve, 2)[0]) == curve.origin
    p2, p3 = q_points(curve, 2, 3)
    assert folium_div(curve, proj_mul(curve, p2, p3), p3) == p2


def test_f5_field_tables_match_base_field():
    curve = prime_curve(5)
    field = curve.field
    elements = [field.element(r) for r in range(5)]
    for u, v in itertools.product(elements, repeat=2):
        assert add_south(curve, pbar(curve, u), pbar(curve, v)) == pbar(curve, u + v)
        assert folium_mul(curve, pbar(curve, u), pbar(curve, v)) == pbar(curve, u * v)


def test_f5_distributivity_exhaustive():
    curve = prime_curve(5)
    points = curve.enumerate_points()
    for p1, p2, p3 in itertools.product(points, repeat=3):
        lhs = folium_mul(curve, p1, add_south(curve, p2, p3))
        rhs = add_south(curve, folium_mul(curve, p1, p2), folium_mul(curve, p1, p3))
        assert lhs == rhs


def _law_pool(curve, law):
    if law in (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL):
        return nonzero_points(curve)
    if law in (LawKind.SOUTH_MUL, LawKind.WEST_MUL):
        return affine_points(curve)
    return curve.enumerate_points()


@pytest.mark.parametrize("p", [2, 5, 11, 13])
def test_group_axioms_exhaustive_small_primes(p):
    curve = prime_curve(p)
    unique_cube_root = curve.field.has_unique_cube_root()
    for law in LawKind:
        if law in (LawKind.SOUTH_MUL, LawKind.WEST_MUL) and not unique_cube_root:
            continue
        pool = _law_pool(curve, law)
        neutral = law_neutral(curve, law)
        for point in pool:
            assert apply_law(curve, law, point, neutral) == point
            inverse_ok = not (law is LawKind.FIELD_MUL and point == curve.origin)
            if inverse_ok:
                inverse = law_inverse(curve, law, point)
                assert apply_law(curve, law, point, inverse) == neutral
        for p1, p2 in itertools.product(pool, repeat=2):
            assert apply_law(curve, law, p1, p2) == apply_law(curve, law, p2, p1)
        for p1, p2, p3 in itertools.product(pool, repeat=3):
            lhs = apply_law(curve, law, apply_law(curve, law, p1, p2), p3)
            rhs = apply_law(curve, law, p1, apply_law(curve, law, p2, p3))
            assert lhs == rhs


@pytest.mark.parametrize("a", [1, 2, Fraction(-3)])
def test_group_axioms_random_rationals(a):
    curve = rational_curve(a)
    field = curve.field
    rng = random.Random(13)
    vertex = curve.vertex()
    for _ in range(1000):
        t1, t2, t3 = (field.element(random_nonzero_fraction(rng)) for _ in range(3))
        p1, p2, p3 = (pbar(curve, t) for t in (t1, t2, t3))
        assert proj_mul(curve, proj_mul(curve, p1, p2), p3) == proj_mul(
            curve, p1, proj_mul(curve, p2, p3)
        )
        assert proj_mul(curve, p1, p2) == proj_mul(curve, p2, p1)
        assert proj_mul(curve, p1, proj_inv(curve, p1)) == vertex
        assert star_mul(curve, star_mul(curve, p1, p2), p3) == star_mul(
            curve, p1, star_mul(curve, p2, p3)
        )
        assert add_south(curve, add_south(curve, p1, p2), p3) == add_south(
            curve, p1, add_south(curve, p2, p3)
        )


def test_inverse_coincidence_across_laws():
    curve = rational_curve(1)
    rng = random.Random(14)
    for _ in range(200):
        point = pbar(curve, curve.field.element(random_nonzero_fraction(rng)))
        swap = sigma(point)
        assert proj_inv(curve, point) == swap
        assert law_inverse(curve, LawKind.PROJ_MUL2, point) == swap
        assert law_inverse(curve, LawKind.STAR_MUL, point) == swap
        assert star_mul(curve, point, swap) == curve.infinity
        assert law_inverse(curve, LawKind.ADD_SOUTH, point) == law_inverse(
            curve, LawKind.ADD_WEST, point
        )


def test_star_parity_chains_small_lengths_f5():
    curve = prime_curve(5)
    infinity = curve.infinity
    vertex = curve.vertex()
    points = nonzero_points(curve)
    for length in (2, 3, 4, 5):
        for chain in itertools.product(points, repeat=length):
            star_acc, dot_acc = chain[0], chain[0]
            for point in chain[1:]:
                star_acc = star_mul(curve, star_acc, point)
                dot_acc = proj_mul(curve, dot_acc, point)
            if length % 2 == 0:
                assert star_acc == proj_mul(curve, dot_acc, infinity)
                assert dot_acc == star_mul(curve, star_acc, vertex)
            else:
                assert star_acc == dot_acc


def test_star_cube_reaches_infinity_exactly_on_infinite_points():
    # P * P * P = pbar(t^3), which is I exactly when t^3 = -1; over fields
    # with epsilon roots that locus is the three points at infinity.
    f5 = prime_curve(5)
    assert [
        point
        for point in nonzero_points(f5)
        if star_mul(f5, star_mul(f5, point, point), point) == f5.infinity
    ] == [f5.infinity]
    f7 = prime_curve(7)
    locus = {
        point
        for point in nonzero_points(f7)
        if star_mul(f7, star_mul(f7, point, point), point) == f7.infinity
    }
    assert locus == set(f7.special_points().points_at_infinity)
    curve = rational_curve(1)
    rng = random.Random(15)
    for _ in range(100):
        t = curve.field.element(random_nonzero_fraction(rng))
        point = pbar(curve, t)
        cubed = star_mul(curve, star_mul(curve, point, point), point)
        assert cubed == pbar(curve, t * t * t)
        assert (cubed == curve.infinity) == (point == curve.infinity)


def test_law_neutrals():
    curve = rational_curve(1)
    assert law_neutral(curve, LawKind.PROJ_MUL) == curve.vertex()
    assert law_neutral(curve, LawKind.PROJ_MUL2) == curve.vertex()
    assert law_neutral(curve, LawKind.FIELD_MUL) == curve.vertex()
    assert law_neutral(curve, LawKind.STAR_MUL) == curve.infinity
    for law in (LawKind.ADD_SOUTH, LawKind.ADD_WEST, LawKind.SOUTH_MUL, LawKind.WEST_MUL):
        assert law_neutral(curve, law) == curve.origin


def test_south_west_inverses():
    curve = rational_curve(1)
    rng = random.Random(16)
    for _ in range(200):
        t = random_fraction(rng)
        if t == -1:
            continue
        point = pbar(curve, curve.field.element(t))
        assert south_mul(curve, point, law_inverse(curve, LawKind.SOUTH_MUL, point)) == curve.origin
        assert west_mul(curve, point, law_inverse(curve, LawKind.WEST_MUL, point)) == curve.origin


class _RowRead(Exception):
    """Raised by a patched LAWS row, to show who reads it."""


def _raise(*args):
    raise _RowRead


# Each name with the row it reads and the column of that row it calls: "op" or "inverse".
NAMED = [
    (proj_mul, LawKind.PROJ_MUL, "op"),
    (proj_mul2, LawKind.PROJ_MUL2, "op"),
    (proj_inv, LawKind.PROJ_MUL, "inverse"),
    (star_mul, LawKind.STAR_MUL, "op"),
    (add_south, LawKind.ADD_SOUTH, "op"),
    (neg, LawKind.ADD_SOUTH, "inverse"),
    (add_west, LawKind.ADD_WEST, "op"),
    (south_mul, LawKind.SOUTH_MUL, "op"),
    (west_mul, LawKind.WEST_MUL, "op"),
    (folium_add, LawKind.ADD_SOUTH, "op"),
    (folium_mul, LawKind.FIELD_MUL, "op"),
    (folium_inv, LawKind.FIELD_MUL, "inverse"),
]


@pytest.mark.parametrize("name, kind, column", NAMED, ids=[name.__name__ for name, _, _ in NAMED])
def test_each_per_law_name_reads_its_row_of_the_law_table(name, kind, column, monkeypatch):
    # a row patched in LAWS reaches the name as it reaches apply_law and law_inverse
    curve = rational_curve(1)
    point = curve.vertex()
    monkeypatch.setitem(LAWS, kind, LAWS[kind]._replace(**{column: _raise}))
    if column == "op":
        calls = [lambda: name(curve, point, point), lambda: apply_law(curve, kind, point, point)]
    else:
        calls = [lambda: name(curve, point), lambda: law_inverse(curve, kind, point)]
    for call in calls:
        with pytest.raises(_RowRead):
            call()


def test_the_node_checks_read_the_pair_param_that_the_laws_read(monkeypatch):
    # perp and third_intersection read a slope through the pair reader that proj_mul reads, which
    # refuses the node, so a wrapper installed at every name bound to the reader sees all of them
    curve = rational_curve(1)
    vertex = curve.vertex()
    patch_everywhere(monkeypatch, parametrization._pair_param, _raise)
    calls = [
        lambda: perp(curve, vertex),
        lambda: third_intersection(curve, vertex, vertex),
        lambda: apply_law(curve, LawKind.PROJ_MUL, vertex, vertex),
    ]
    for call in calls:
        with pytest.raises(_RowRead):
            call()
