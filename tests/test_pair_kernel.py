"""The laws on slope pairs against element arithmetic on the drawn parameters.

Every law composes the int slope pairs (n : d) of its operands and divides
once, in the pair kernel `fields._pair_coordinates`, through the canonical
scaling `fields._scaled`.  The kernel is homogeneous: every representative
(kn : kd) of a slope gives it the same point, at infinity too.  The reference here
builds each point as (3at : 3at^2 : 1 + t^3), or its swap for the pbarbar
laws, with element arithmetic and the canonicalizing constructor, and
applies the law's field operation to the parameters t it drew: over q at
2^31 heights, over fp:65537, and over every residue of fp:7 and fp:13, where
the epsilon roots give two more points at infinity.  The node, V and I are
drawn everywhere.  Refusals are part of the reference: the node under a
multiplicative law and under perp and third_intersection, a point at
infinity or a field with epsilon roots under an exotic law, the node's field
inverse, and p_affine where 1 + t^3 = 0.

The chart memo of a verify run is scoped here too: it is open only while
run_suite runs, it answers one object per slope and chart, and the kernel
runs once per memo key.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from descartes_folium import (
    DivisionByZeroPoint,
    FieldElement,
    FieldLacksUniqueCubeRoot,
    Folium,
    LawKind,
    NotOnCurve,
    OriginNotInGroup,
    ParameterAtInfinity,
    PointAtInfinity,
    ProjectivePoint,
    apply_law,
    fields,
    law_inverse,
    parametrization,
    pbar,
    perp,
    third_intersection,
    west_mul,
)
from descartes_folium.parametrization import p_affine, p_affine_prime, pbarbar
from descartes_folium.verify import SUITES, run_report, run_suite
from helpers import prime_curve, rational_curve


def _point(curve, t, swap=False):
    """(3at : 3at^2 : 1 + t^3), or (3at^2 : 3at : 1 + t^3) when `swap`, by element arithmetic."""
    x, y, w = curve.three_a * t, curve.three_a * t * t, t * t * t + 1
    return ProjectivePoint(y, x, w) if swap else ProjectivePoint(x, y, w)


def _reciprocal(t):
    """The pbarbar parameter x/y of the point with pbar parameter t; 0 at the node."""
    return t if t.is_zero() else t.inverse()


# Each law's parameter of pbar(t), field operation, chart of the result and inverse.
REFERENCE = {
    LawKind.PROJ_MUL: (lambda t: t, lambda u, v: u * v, lambda c, w: _point(c, w), lambda u: u.inverse()),
    LawKind.PROJ_MUL2: (_reciprocal, lambda u, v: u * v, lambda c, w: _point(c, w, True), lambda u: u.inverse()),
    LawKind.STAR_MUL: (lambda t: t, lambda u, v: -(u * v), lambda c, w: _point(c, w), lambda u: u.inverse()),
    LawKind.ADD_SOUTH: (lambda t: t, lambda u, v: u + v, lambda c, w: _point(c, w), lambda u: -u),
    LawKind.ADD_WEST: (_reciprocal, lambda u, v: u + v, lambda c, w: _point(c, w, True), lambda u: -u),
    LawKind.SOUTH_MUL: (lambda t: t + 1, lambda u, v: u * v, lambda c, w: _point(c, w - 1), lambda u: u.inverse()),
    LawKind.WEST_MUL: (
        lambda t: _reciprocal(t) + 1,
        lambda u, v: u * v,
        lambda c, w: _point(c, w - 1, True),
        lambda u: u.inverse(),
    ),
    LawKind.FIELD_MUL: (lambda t: t, lambda u, v: u * v, lambda c, w: _point(c, w), lambda u: u.inverse()),
}
NONZERO = (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL)
AFFINE = (LawKind.SOUTH_MUL, LawKind.WEST_MUL)


def _refusal(curve, kind, ts):
    """The error the law must raise on the points pbar(t), t in ts, or None."""
    if kind in NONZERO and any(t.is_zero() for t in ts):
        return OriginNotInGroup
    if kind in AFFINE:
        if curve.field.epsilon_roots() is not None:
            return FieldLacksUniqueCubeRoot
        if any((t * t * t + 1).is_zero() for t in ts):
            return PointAtInfinity
    return None


def _outcome(call):
    """The call's point, or the type of the FoliumError it raised."""
    try:
        return call()
    except (OriginNotInGroup, FieldLacksUniqueCubeRoot, PointAtInfinity, DivisionByZeroPoint) as refusal:
        return type(refusal)


def _pools():
    """(curve, parameters): q at 2^31 heights and fp:65537 drawn, fp:7 and fp:13 whole."""
    rng, height = random.Random(21), 2**31
    for a in (1, Fraction(-5, 7)):
        curve = rational_curve(a)
        drawn = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(6)]
        yield curve, [curve.field.element(t) for t in (0, 1, -1, *drawn)]
    curve = prime_curve(65537, 2)
    yield curve, [curve.field.element(t) for t in (0, 1, -1, *(rng.randrange(65537) for _ in range(6)))]
    for p in (7, 13):
        curve = prime_curve(p, 2)
        yield curve, [curve.field.element(t) for t in range(p)]


POOLS = list(_pools())
POOL_IDS = ["q:a=1", "q:a=-5/7", "fp:65537", "fp:7", "fp:13"]


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_the_laws_on_slope_pairs_match_element_arithmetic(curve, ts):
    points = {t: _point(curve, t) for t in ts}
    for kind, (param, op, chart, inverse) in REFERENCE.items():
        for t1, t2 in itertools.product(ts, repeat=2):
            expected = _refusal(curve, kind, (t1, t2)) or chart(curve, op(param(t1), param(t2)))
            assert _outcome(lambda: apply_law(curve, kind, points[t1], points[t2])) == expected, (kind, t1, t2)
        for t in ts:
            expected = _refusal(curve, kind, (t,))
            if expected is None:
                u = param(t)
                expected = DivisionByZeroPoint if u.is_zero() and kind is LawKind.FIELD_MUL else chart(curve, inverse(u))
            assert _outcome(lambda: law_inverse(curve, kind, points[t])) == expected, (kind, t)


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_perp_and_third_intersection_on_slope_pairs_match_element_arithmetic(curve, ts):
    points = {t: _point(curve, t) for t in ts}
    for t in ts:
        expected = OriginNotInGroup if t.is_zero() else _point(curve, -t.inverse())
        assert _outcome(lambda: perp(curve, points[t])) == expected, t
    for t1, t2 in itertools.product(ts, repeat=2):
        if t1.is_zero() or t2.is_zero():
            expected = OriginNotInGroup
        else:
            expected = _point(curve, -(t1 * t2).inverse())
        assert _outcome(lambda: third_intersection(curve, points[t1], points[t2])) == expected, (t1, t2)


@pytest.mark.parametrize("curve, ts", POOLS, ids=POOL_IDS)
def test_the_affine_charts_refuse_exactly_the_parameters_at_infinity(curve, ts):
    at_infinity = 0
    for t in ts:
        if (t * t * t + 1).is_zero():
            at_infinity += 1
            for affine_map in (p_affine, p_affine_prime):
                with pytest.raises(ParameterAtInfinity, match=rf"^t = {t} satisfies t\^3 = -1; no affine image$"):
                    affine_map(curve, t)
        else:
            assert p_affine(curve, t) == _point(curve, t) and p_affine_prime(curve, t) == _point(curve, t, True)
    # -1 everywhere, and the two epsilon roots over fp:7 and fp:13
    assert at_infinity == (1 if curve.field.epsilon_roots() is None else 3)


def _homogeneity_pairs(curve):
    """Slope pairs with the points at infinity among them: a grid over q, every (t : 1) and (1 : 0) over F_p."""
    p = curve.field.characteristic
    if not p:
        return [(n, d) for n in range(-3, 4) for d in range(4) if n or d]  # (-1 : 1), (-2 : 2) and (-3 : 3) at infinity
    residues = range(p) if p < 100 else (0, 1, 2, 12345, p - 1)
    return [(1, 0), *((t, 1) for t in residues)]


@pytest.mark.parametrize(
    "curve, at_infinity",
    [(rational_curve(Fraction(2, 3)), 3), (prime_curve(7), 3), (prime_curve(65537, 2), 1)],
    ids=["q", "fp:7", "fp:65537"],
)
def test_the_pair_kernel_gives_every_representative_of_a_slope_one_point(curve, at_infinity):
    # (kn : kd) is the slope (n : d) for every nonzero k, so the kernel must not read the pair's format
    field, a3 = curve.field, curve.three_a.value
    points = {(n, d): fields._pair_coordinates(field, a3, n, d) for n, d in _homogeneity_pairs(curve)}
    for (n, d), point in points.items():
        for k in (2, -3, 5):
            assert fields._pair_coordinates(field, a3, k * n, k * d) == point, (n, d, k)
    assert sum(z.is_zero() for _, _, z in points.values()) == at_infinity


@pytest.mark.parametrize("curve", [rational_curve(Fraction(2, 3)), prime_curve(5), prime_curve(65537, 2)], ids=str)
def test_a_law_call_divides_only_in_the_pair_kernel(curve, monkeypatch):
    # _quotient is the body of element division and of the public inverse charts; with it and
    # FieldElement.inverse refused, every law, inverse, perp and third intersection of chart points
    # still answers, so none of them divides outside the kernel
    points = [curve.origin, curve.infinity, curve.vertex(), *(pbar(curve, t) for t in (2, -3, 5))]
    if not curve.field.characteristic:
        points.append(pbar(curve, Fraction(2**31 - 1, 2**31 + 11)))
    expected = [_outcome(call) for call in _law_calls(curve, points)]

    def refuse(*args):
        raise AssertionError("a law divided outside the pair kernel")

    for name, module in list(sys.modules.items()):
        if name.startswith("descartes_folium") and getattr(module, "_quotient", None) is fields._quotient:
            monkeypatch.setattr(module, "_quotient", refuse)
    monkeypatch.setattr(FieldElement, "inverse", refuse)
    assert [_outcome(call) for call in _law_calls(curve, points)] == expected


THIN_PATH_CURVES = [rational_curve(Fraction(2, 3)), prime_curve(5), prime_curve(65537, 2)]


@pytest.mark.parametrize("curve", THIN_PATH_CURVES, ids=str)
def test_a_law_call_asks_no_on_curve_check_of_points_the_curve_built(curve, monkeypatch):
    # a chart point carries its curve's mark, so reading its slope pair needs no call to
    # require_on_curve; the same points rebuilt from raw coordinates are checked
    points = [curve.origin, curve.infinity, curve.vertex(), *(pbar(curve, t) for t in (2, -3)), pbarbar(curve, 5)]
    raw = [curve.point(P.x.value, P.y.value, P.z.value) for P in points]
    checked = []
    real = Folium.require_on_curve
    monkeypatch.setattr(Folium, "require_on_curve", lambda self, point: checked.append(point) or real(self, point))
    built = [_outcome(call) for call in _law_calls(curve, points)]
    assert checked == [] and any(isinstance(outcome, ProjectivePoint) for outcome in built)
    assert [_outcome(call) for call in _law_calls(curve, raw)] == built
    assert set(checked) == set(raw)


@pytest.mark.parametrize("curve", THIN_PATH_CURVES, ids=str)
def test_an_off_curve_point_is_refused_unless_the_curve_built_it(curve):
    # off the curve for each a here: 1 + 8 - 6a is 5, 3 and -3
    off = curve.point(1, 2)
    twin = Folium(curve.field, curve.a)
    assert twin == curve and twin is not curve
    forged = ProjectivePoint._marked(off.x, off.y, off.z, twin)  # vouched for by an equal curve, not this one
    on = pbar(curve, 2)
    for bad in (off, forged):
        for kind in LawKind:
            for operands in ((bad, on), (on, bad)):
                with pytest.raises(NotOnCurve):
                    apply_law(curve, kind, *operands)
            with pytest.raises(NotOnCurve):
                law_inverse(curve, kind, bad)
        with pytest.raises(NotOnCurve):
            perp(curve, bad)
        for operands in ((bad, on), (on, bad)):
            with pytest.raises(NotOnCurve):
                third_intersection(curve, *operands)


@pytest.mark.parametrize("curve", [*THIN_PATH_CURVES, prime_curve(13)], ids=str)
def test_a_law_call_raises_its_first_refusal_in_operand_order(curve):
    # the field, then the first operand (its on-curve and node checks), then the second
    off = curve.point(1, 2)
    for kind in (LawKind.PROJ_MUL, LawKind.PROJ_MUL2, LawKind.STAR_MUL):
        with pytest.raises(OriginNotInGroup):
            apply_law(curve, kind, curve.origin, off)
        with pytest.raises(NotOnCurve):
            apply_law(curve, kind, off, curve.origin)
    for kind in (LawKind.SOUTH_MUL, LawKind.WEST_MUL):
        lacking = curve.field.epsilon_roots() is not None
        with pytest.raises(FieldLacksUniqueCubeRoot if lacking else NotOnCurve):
            apply_law(curve, kind, off, curve.infinity)
        with pytest.raises(FieldLacksUniqueCubeRoot if lacking else PointAtInfinity):
            apply_law(curve, kind, curve.infinity, off)


def _law_calls(curve, points):
    for kind in LawKind:
        for P, Q in itertools.product(points, repeat=2):
            yield lambda kind=kind, P=P, Q=Q: apply_law(curve, kind, P, Q)
        for P in points:
            yield lambda kind=kind, P=P: law_inverse(curve, kind, P)
    for P in points:
        yield lambda P=P: perp(curve, P)
        for Q in points:
            yield lambda P=P, Q=Q: third_intersection(curve, P, Q)


def _in_a_run(curve, monkeypatch, probe):
    """probe(curve) called inside run_suite, through a suite of its own; its value."""
    seen = []
    monkeypatch.setitem(SUITES, "probe", lambda ctx: seen.append(probe(ctx.curve)) or [])
    run_suite(curve, "probe")
    return seen[0]


MEMO_CURVES = [rational_curve(Fraction(2, 3)), prime_curve(13, 2)]


@pytest.mark.parametrize("curve", MEMO_CURVES, ids=str)
def test_the_chart_memo_is_open_only_inside_a_run(curve, monkeypatch):
    assert curve._charted is None
    run_suite(curve, "parametrize", seed=0, samples=20)
    assert curve._charted is None

    def raising(ctx):
        pbar(ctx.curve, 2)
        raise RuntimeError("a row raised")

    monkeypatch.setitem(SUITES, "raising", raising)
    with pytest.raises(RuntimeError, match="a row raised"):
        run_suite(curve, "raising")
    assert curve._charted is None


@pytest.mark.parametrize("curve", MEMO_CURVES, ids=str)
def test_a_run_answers_one_point_per_slope_and_chart(curve, monkeypatch):
    # the slope 2/5, V at 1/1, and the node at 1/0, each as (n : d), (3n : 3d) and (-n : -d)
    slopes = [(2, 5), (1, 1), (1, 0)]

    def charts(curve):
        return [
            [parametrization._pair_point(curve, k * n, k * d, swap) for k in (1, 3, -1)]
            for n, d in slopes
            for swap in (False, True)
        ]

    inside = _in_a_run(curve, monkeypatch, charts)
    for same in inside:
        assert same[0] is same[1] is same[2]
    assert inside[0][0] != inside[1][0]  # pbar and pbarbar keep their own points
    assert inside[-1][0] == curve.origin
    outside = charts(curve)
    assert outside == inside
    assert all(P is not Q for row, same in zip(outside, inside) for P, Q in zip(row, same))
    t = curve.field.element(2) / curve.field.element(5)
    first, again = pbar(curve, t), pbar(curve, t)
    assert first == again and first is not again


@pytest.mark.parametrize("curve", MEMO_CURVES, ids=str)
def test_a_memo_answer_keeps_the_affine_refusal(curve, monkeypatch):
    def refusal(curve):
        at_infinity = pbar(curve, -1)
        message = rf"^t = {curve.field.element(-1)} satisfies t\^3 = -1; no affine image$"
        with pytest.raises(ParameterAtInfinity, match=message):
            p_affine(curve, -1)
        return at_infinity, pbar(curve, -1), pbarbar(curve, 1)

    at_infinity, again, swapped = _in_a_run(curve, monkeypatch, refusal)
    assert at_infinity is again and at_infinity.is_at_infinity and swapped.is_affine


@pytest.mark.parametrize("curve", [rational_curve(Fraction(2, 3)), prime_curve(11, 2)], ids=str)
def test_a_run_charts_westmul_as_it_charts_p_affine_prime(curve, monkeypatch):
    # westmul builds its result by sigma inside the chart, so inside a run a product is one point;
    # fp:11 has no epsilon roots, which the affine laws need
    def products(curve):
        P, Q = pbar(curve, 2), pbar(curve, curve.field.element(1) / 3)
        tau = (parametrization.pbarbar_inv(curve, P) + 1) * (parametrization.pbarbar_inv(curve, Q) + 1)
        return west_mul(curve, P, Q), west_mul(curve, P, Q), p_affine_prime(curve, tau - 1)

    first, again, charted = _in_a_run(curve, monkeypatch, products)
    assert first is again is charted


def test_each_run_starts_with_an_empty_memo(monkeypatch):
    curve = prime_curve(5)

    def size_then_chart(curve):
        size = len(curve._charted)
        pbar(curve, 2)
        return size

    assert [_in_a_run(curve, monkeypatch, size_then_chart) for _ in range(2)] == [0, 0]


@pytest.mark.parametrize(
    "curve, calls",
    [(rational_curve(), 3255), (prime_curve(5), 10), (prime_curve(13), 26), (prime_curve(31), 62)],
    ids=["q", "fp:5", "fp:13", "fp:31"],
)
def test_a_verdict_runs_the_kernel_once_per_memo_key(curve, calls, monkeypatch):
    kernel, key = parametrization._pair_coordinates, parametrization._chart_key
    ran, keys = [], set()

    def counted(field, a3, n, d):
        ran.append((n, d))
        return kernel(field, a3, n, d)

    def recorded(p, n, d, swap):
        keys.add(key(p, n, d, swap))
        return key(p, n, d, swap)

    monkeypatch.setattr(parametrization, "_pair_coordinates", counted)
    monkeypatch.setattr(parametrization, "_chart_key", recorded)
    run_report(curve, "all", 1, 200)
    assert len(ran) == len(keys) == calls


@pytest.mark.parametrize("p", [5, 13])
def test_the_residue_front_answers_the_point_of_the_key_path(p, monkeypatch):
    # every residue pair (n : d) but (0 : 0), with both swaps: a front hit, here for (n + p : d - 2p),
    # is the very point that the memo holds under the pair's key, and the point built outside a run
    pairs = [(n, d, swap) for n in range(p) for d in range(p) if n or d for swap in (False, True)]

    def answers(curve):
        found = []
        for n, d, swap in pairs:
            first = parametrization._pair_point(curve, n, d, swap)
            assert curve._front[n, d, swap] is first
            again = parametrization._pair_point(curve, n + p, d - 2 * p, swap)
            keyed = curve._charted[parametrization._chart_key(p, n, d, swap)]
            found.append(first is again is keyed)
        return found, len(curve._front)

    curve = prime_curve(p)
    found, filed = _in_a_run(curve, monkeypatch, answers)
    assert all(found) and filed == len(pairs)
    inside = _in_a_run(curve, monkeypatch, lambda curve: [parametrization._pair_point(curve, *pair) for pair in pairs])
    assert inside == [parametrization._pair_point(curve, *pair) for pair in pairs]


@pytest.mark.parametrize("curve", [rational_curve(), prime_curve(179), prime_curve(65537)], ids=str)
def test_no_front_opens_where_pairs_of_points_are_sampled(curve, monkeypatch):
    # past p = 173 a run keeps no law tables, so the chart memo has no residue front either
    assert _in_a_run(curve, monkeypatch, lambda curve: (curve._front, curve._charted)) == (None, {})
