"""Seeded faults that `verify` must catch.

Each entry patches one fault into the package with monkeypatch and names the
suites that catch it: over q and over fp:5 (seed 0, 40 samples) each of them
must then FAIL at least one row.  Only those suites run, not `all`.  `star`
is named for the faults it catches: with its parity chains read from law
tables it takes about 16 ms warm over fp:5 (CPython 3.11, 2 vCPUs), a little
more than `axioms` over q.
Unpatched, every suite passes; tests/golden pins both reports.  The first
eight faults sit in the charts, which the public maps and the laws share:
four in the pair kernel `_pair_coordinates`, one of them a kernel that
hands back its triple of ints unscaled, which `ProjectivePoint._marked`
stores as it stands, one in `_scaled`, the one
canonical scaling that the kernel and every point and line constructor
share, one in `_pair_point`, which builds a point from the kernel, one in
`_chart_key`, which keys the chart memo that a run opens, and one in the
pair inverse chart `_pair_param`.  `_scaled` is point construction, which
the oracles share as they share the element store, so
tests/test_oracle_independence.py does not patch it; its fault FAILs the
chart suites all the same.
One gives the curve 4a where it prints a, which only a row that builds a
point from the printed a can tell.  Six patch a row of the law table LAWS,
whose columns hold the chart flag and the operations on slope pairs
(n : d), t = n/d.  Every per-law name reads its row there when called, so
such a fault reaches each suite that composes points with that law, not
`axioms` alone: star without its sign also FAILs `star`, and an addsouth
that is not a group also FAILs `fieldstructure`; only `law_neutral` reads
the neutral column, so a wrong neutral stays an `axioms` fault.  Two of them give
addsouth an operation that is not commutative or not associative, which a
product table keyed on unordered pairs, or one that answered the wrong
pair, would let pass.  Two name pbar for the chart of a swapped law:
addwest, caught by `coincidence` and `fieldstructure`, and westmul, which
then reads and builds through p_affine and is caught by `coincidence` and
`southmul`.  The four multiplicative rows get no such fault: t -> 1/t is an
automorphism of their group (it fixes 1 and -1, and pbar sends 1/0 to the
node as it sends 0), and pbarbar = pbar . (t -> 1/t), so either chart
carries the same law; projmul2 through pbar passes every suite.
tests/mutation_sweep.py mutates int constants, never True or False, so no
mutant flips the flag.  One swaps the first two coefficients of the chord
that `line_through` builds on stored values; the rows that test a chord's
points by the element arithmetic of `ProjectiveLine.contains` FAIL under
it, and over q so does the perpendicular suite's vertex-chord row.  Two
empty the line-point oracle and the root finder, which a geometry row that
checked nothing would let pass.  Five add one to
a reflected operator or to `**`.  Three break `field_axioms` at its
associativity, commutativity and identity checks in turn: `*` plus one, a
`+` that answers its left operand, which still associates, and a `-x` that
answers x.  The last gives the checker a `folium_inv` that answers the node
where it must refuse it.  A fault that survives is a gap
in the suites: add a property that catches it, never drop the fault.  The
`neg`-as-identity fault is pinned by test_law_dispatch.py instead: it
replaces the name `neg`, and `verify` reads the additive inverses from the
law table through `law_inverse`, never through that name.  An element store
that answers the next residue is tested apart too: only F_p stores its
elements, so that fault has no q case.  So is a `-` whose Q pair form is
(n2 d1 - n1 d2, d1 d2), the sign flipped: only Q reads the pair forms, so
over F_p the `field` suite passes under it and the fault has no fp:5 case.
The pair forms are element arithmetic, which the oracles share by design,
so tests/test_oracle_independence.py does not patch them.  So is a
perpendicularity check that always holds: the suite that reads it skips
over F_p.  So is a point key that drops y, `_marked` keying x + p*p*z: the
law tables read the keys, so over fp:5 and fp:13 it FAILs `axioms`, `star`,
`geometry`, `collinearity` and `fieldstructure`, and `southmul` over fp:5,
but no run over q keeps law tables, so there every suite passes under it.
Under the eight field faults, over q, fp:5 and fp:13, and under
the store and pair-form faults, `field_axioms`'s first failing case is
pinned with its count and text, so a check that moved it would show.
"""

import operator

import pytest

from descartes_folium import Field, FieldElement, Folium, PrimeField, ProjectiveLine, ProjectivePoint, Rationals
from descartes_folium import fields, geometry, laws, parametrization, verify
from descartes_folium.fields import _quotient
from descartes_folium.laws import LAWS, LawKind
from descartes_folium.verify import SUITES, run_suite
from helpers import patch_everywhere


def _patch_pair_coordinates(monkeypatch, replacement):
    """Replace fields._pair_coordinates at parametrization's name for it; `replacement` gets the real one first."""
    real = parametrization._pair_coordinates
    monkeypatch.setattr(parametrization, "_pair_coordinates", lambda field, a3, n, d: replacement(real, field, a3, n, d))


def _slope(field, n, d):
    """The element t = n/d of a slope pair, by element arithmetic."""
    return field.element(n) / field.element(d)


def _wrong_chart_coefficient(monkeypatch):
    # 6a in place of 3a in the kernel's triple (3a n d^2 : 3a n^2 d : n^3 + d^3)
    _patch_pair_coordinates(monkeypatch, lambda real, field, a3, n, d: real(field, a3 + a3, n, d))


def _chart_point_keeps_w(monkeypatch):
    # an affine chart point divided by w = 1 + t^3 that keeps z = w: (3at/w : 3at^2/w : w), still
    # marked, which is the point (3at/w^2 : 3at^2/w^2 : 1)
    def pair_coordinates(real, field, a3, n, d):
        x, y, z = real(field, a3, n, d)
        if z.is_zero():
            return x, y, z
        return x, y, _slope(field, n, d) ** 3 + 1

    _patch_pair_coordinates(monkeypatch, pair_coordinates)


def _w_zero_branch_dropped(monkeypatch):
    # a kernel that always pivots on z, dividing by w = 1 + t^3, so t^3 = -1 divides by zero where
    # the pivot must move to x
    def pair_coordinates(real, field, a3, n, d):
        t = _slope(field, n, d)
        x = field.element(a3) * t / (t * t * t + 1)
        return x, x * t, field.one

    _patch_pair_coordinates(monkeypatch, pair_coordinates)


def _kernel_skips_the_scaling(monkeypatch):
    # the kernel's triple of ints (A n d^2 : A n^2 d : B (n^3 + d^3)) as elements, never divided by its
    # pivot, so a chart point is marked in a form that no constructor gives
    def pair_coordinates(field, a3, n, d):
        x, y, z = a3.numerator * n * d * d, a3.numerator * n * n * d, a3.denominator * (n * n * n + d * d * d)
        return field.element(x), field.element(y), field.element(z)

    monkeypatch.setattr(parametrization, "_pair_coordinates", pair_coordinates)


def _scaled_divides_y_twice(monkeypatch):
    # the shared scaling divides y by the pivot twice, in chart points and raw points alike
    real = fields._scaled
    patch_everywhere(
        monkeypatch, real, lambda field, pivot, x, y, z: real(field, pivot, x, _quotient(field, y, pivot).value, z)
    )


def _scaled_chart_ignores_swap(monkeypatch):
    # pbarbar builds pbar's point whenever 1 + t^3 is nonzero, in the public charts and the laws alike
    real = parametrization._pair_point

    def pair_point(curve, n, d, swap=False):
        point = real(curve, n, d, swap)
        return real(curve, n, d) if point.is_affine else point

    patch_everywhere(monkeypatch, real, pair_point)


def _chart_memo_drops_swap(monkeypatch):
    # inside a run, pbar and pbarbar of one slope share a memo key, so each answers the other's stored point
    real = parametrization._chart_key
    monkeypatch.setattr(parametrization, "_chart_key", lambda p, n, d, swap: real(p, n, d, False))


def _inverse_chart_divides_the_wrong_way(monkeypatch):
    # pbar's inverse chart reads the pair (x : y), the pbarbar parameter, in place of (y : x)
    real = parametrization._pair_param
    patch_everywhere(monkeypatch, real, lambda curve, point, swap=False, domain="all": real(curve, point, True, domain))


def _chart_leaves_y_unreduced(monkeypatch):
    # y = x t stored as the bare product, which over F_p can reach p or more
    def pair_coordinates(real, field, a3, n, d):
        x, y, z = real(field, a3, n, d)
        if z.is_zero() or x.is_zero():  # at infinity, or the node, where y = 0 t = 0 anyway
            return x, y, z
        return x, FieldElement(field, x.value * _slope(field, n, d).value), z

    _patch_pair_coordinates(monkeypatch, pair_coordinates)


def _three_a_is_4a(monkeypatch):
    # the curve keeps 4a where it prints a; every chart, law and oracle reads three_a alike
    real = Folium.__init__

    def init(self, field, a):
        real(self, field, a)
        self.three_a = field.element(4) * self.a

    monkeypatch.setattr(Folium, "__init__", init)


def _wrong_law_op(monkeypatch):
    # star without its sign: the pair product (n1 n2 : d1 d2) in place of (-n1 n2 : d1 d2)
    star = LAWS[LawKind.STAR_MUL]._replace(op=LAWS[LawKind.PROJ_MUL].op)
    monkeypatch.setitem(LAWS, LawKind.STAR_MUL, star)


def _wrong_neutral(monkeypatch):
    # the slope pair (1 : 1), V, in place of (0 : 1), O
    monkeypatch.setitem(LAWS, LawKind.ADD_SOUTH, LAWS[LawKind.ADD_SOUTH]._replace(neutral=(1, 1)))


def _add_south_op(op):
    # addsouth through another operation on the slope pairs
    return lambda monkeypatch: monkeypatch.setitem(LAWS, LawKind.ADD_SOUTH, LAWS[LawKind.ADD_SOUTH]._replace(op=op))


def _difference(n1, d1, n2, d2):
    # u - v for u = n1/d1 and v = n2/d2
    return n1 * d2 - n2 * d1, d1 * d2


def _not_associative(n1, d1, n2, d2):
    # u + v + u^2 v^2: commutative, with neutral 0, but it does not associate
    d = d1 * d2
    return (n1 * d2 + n2 * d1) * d + n1 * n1 * n2 * n2, d * d


def _reads_through_pbar(kind):
    # the law's row names pbar for its chart in place of pbarbar
    return lambda monkeypatch: monkeypatch.setitem(LAWS, kind, LAWS[kind]._replace(swap=False))


def _identity_sigma(monkeypatch):
    patch_everywhere(monkeypatch, parametrization.sigma, lambda point: point)


def _third_intersection_is_proj_mul(monkeypatch):
    patch_everywhere(monkeypatch, geometry.third_intersection, laws.proj_mul)


def _chord_swaps_coefficients(monkeypatch):
    # the chord [m : n : p] answered as [n : m : p], the line through the points' mirror images
    real = geometry.line_through

    def line_through(p1, p2):
        line = real(p1, p2)
        return ProjectiveLine(line.n, line.m, line.p)

    patch_everywhere(monkeypatch, real, line_through)


def _collinear3_always_true(monkeypatch):
    patch_everywhere(monkeypatch, geometry.collinear3, lambda curve, *points: True)


def _finds_nothing(original):
    # an oracle that returns no points, or a root finder that returns no roots
    return lambda monkeypatch: patch_everywhere(monkeypatch, original, lambda *args: [])


def _wrong_epsilon_roots(monkeypatch):
    # -1 twice: a cube root of -1, but no root of e^2 - e + 1
    def roots(field):
        minus_one = -field.one
        return (minus_one, minus_one)

    monkeypatch.setattr(Field, "epsilon_roots", roots)


def _plus_one(name):
    # the operator's result plus one, where it has a result
    def patch(monkeypatch):
        real = getattr(FieldElement, name)

        def method(self, other):
            result = real(self, other)
            return result if result is NotImplemented else result + 1

        monkeypatch.setattr(FieldElement, name, method)

    return patch


def _replaced(name, method):
    # FieldElement's operator replaced by `method`
    return lambda monkeypatch: monkeypatch.setattr(FieldElement, name, method)


def _node_inverse_is_the_node(monkeypatch):
    # the checker's folium_inv answers its operand, so the node's inverse is the node, not a refusal
    monkeypatch.setattr(verify, "folium_inv", lambda curve, point: point)


# Each fault with the suites that catch it over q and over fp:5.
CHART_SUITES = ("parametrize", "axioms", "coincidence", "geometry", "collinearity", "fieldstructure")
FAULTS = {
    "wrong_chart_coefficient": (_wrong_chart_coefficient, ("parametrize", "geometry", "star")),
    "chart_point_keeps_w": (_chart_point_keeps_w, (*CHART_SUITES, "southmul", "star")),
    "w_zero_branch_dropped": (_w_zero_branch_dropped, (*CHART_SUITES, "star")),
    "kernel_skips_the_scaling": (
        _kernel_skips_the_scaling,
        ("parametrize", "axioms", "coincidence", "geometry", "southmul", "fieldstructure", "star"),
    ),
    "scaled_divides_y_twice": (_scaled_divides_y_twice, CHART_SUITES),
    "scaled_chart_ignores_swap": (_scaled_chart_ignores_swap, ("parametrize", "axioms", "coincidence", "fieldstructure")),
    "chart_memo_drops_swap": (_chart_memo_drops_swap, ("parametrize", "axioms", "coincidence", "fieldstructure")),
    "inverse_chart_divides_the_wrong_way": (_inverse_chart_divides_the_wrong_way, (*CHART_SUITES, "southmul", "star")),
    "three_a_is_4a": (_three_a_is_4a, ("parametrize",)),
    "wrong_law_op": (_wrong_law_op, ("axioms", "star")),
    "wrong_neutral": (_wrong_neutral, ("axioms",)),
    "non_commutative_op": (_add_south_op(_difference), ("axioms", "fieldstructure")),
    "non_associative_op": (_add_south_op(_not_associative), ("axioms", "fieldstructure")),
    "addwest_reads_through_pbar": (_reads_through_pbar(LawKind.ADD_WEST), ("coincidence", "fieldstructure")),
    "westmul_reads_through_p_affine": (_reads_through_pbar(LawKind.WEST_MUL), ("coincidence", "southmul")),
    "identity_sigma": (_identity_sigma, ("parametrize", "axioms", "southmul", "fieldstructure")),
    "third_intersection_is_proj_mul": (_third_intersection_is_proj_mul, ("geometry", "collinearity")),
    "chord_swaps_coefficients": (_chord_swaps_coefficients, ("geometry", "collinearity")),
    "collinear3_always_true": (_collinear3_always_true, ("collinearity", "star")),
    "line_points_find_nothing": (_finds_nothing(geometry._curve_points_on_line), ("geometry",)),
    "roots_find_nothing": (_finds_nothing(geometry.roots_with_multiplicity), ("geometry",)),
    "wrong_epsilon_roots": (_wrong_epsilon_roots, ("field",)),
    "radd_plus_one": (_plus_one("__radd__"), ("field",)),
    "rsub_plus_one": (_plus_one("__rsub__"), ("field",)),
    "rmul_plus_one": (_plus_one("__rmul__"), ("field",)),
    "rtruediv_plus_one": (_plus_one("__rtruediv__"), ("field",)),
    "pow_plus_one": (_plus_one("__pow__"), ("field",)),
    # associativity, commutativity and the identities in turn: over q each breaks field_axioms at its own check
    "mul_plus_one": (_plus_one("__mul__"), ("field",)),
    "add_answers_its_left_operand": (_replaced("__add__", lambda self, other: self), ("field",)),
    "neg_answers_its_operand": (_replaced("__neg__", lambda self: self), ("field",)),
    "node_inverse_is_the_node": (_node_inverse_is_the_node, ("fieldstructure",)),
}

FIELDS = {"q": Rationals, "fp:5": lambda: PrimeField(5)}


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("fault", FAULTS)
def test_every_seeded_fault_fails_a_row(fault, spec, monkeypatch):
    field = FIELDS[spec]()
    patch, suites = FAULTS[fault]
    patch(monkeypatch)
    curve = Folium(field, 1)
    for suite in suites:
        rows = run_suite(curve, suite, seed=0, samples=40)
        assert [row.name for row in rows if not row.passed], f"{fault} survived the {suite} suite over {spec}"


@pytest.mark.parametrize("spec", FIELDS)
def test_a_wrong_chart_coefficient_fails_the_affine_row(spec, monkeypatch):
    # inside a run p_affine and pbar answer one memo point, so only the affine formula can tell
    _wrong_chart_coefficient(monkeypatch)
    rows = run_suite(Folium(FIELDS[spec](), 1), "parametrize", seed=0, samples=40)
    assert "affine_matches_projective" in [row.name for row in rows if not row.passed]


def _field_axioms(field):
    rows = run_suite(Folium(field, 1), "field", seed=0, samples=40)
    [row] = [row for row in rows if row.name == "field_axioms"]
    return row


@pytest.mark.parametrize("p", [5, 13])
def test_a_store_that_answers_the_next_residue_fails_the_field_axioms(p, monkeypatch):
    # only F_p stores its elements, so this fault has no q case and stays out of FAULTS
    field = PrimeField(p)
    monkeypatch.setattr(field, "_elements", tuple(FieldElement(field, (r + 1) % p) for r in range(p)))
    row = _field_axioms(field)
    assert (row.passed, row.instances, row.counterexample) == (False, 1, "1, 1, 1")


def test_a_perpendicular_check_that_always_holds_fails_the_equivalence_row(monkeypatch):
    # perpendicularity needs the ordered field of rationals, so the suite skips over F_p and this fault has no
    # fp:5 case; the vertex-chord row still passes, since every vertex chord is perpendicular
    monkeypatch.setattr(verify, "perpendicular_chord_check", lambda curve, P, Q: True)
    rows = run_suite(Folium(Rationals(), 1), "perpendicular", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["perpendicular_iff_vertex_collinear"]


def test_wrong_epsilon_roots_fail_where_the_field_has_roots(monkeypatch):
    # over fp:7 the cube-root scan agrees with any non-None pair, so the roots themselves are checked
    _wrong_epsilon_roots(monkeypatch)
    rows = run_suite(Folium(PrimeField(7), 1), "field", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["epsilon_roots_consistent"]


def test_epsilon_roots_that_go_missing_fail_where_the_field_has_roots(monkeypatch):
    # has_unique_cube_root is a closed form on p, so the roots row compares them with an independent fact
    monkeypatch.setattr(Field, "epsilon_roots", lambda field: None)
    rows = run_suite(Folium(PrimeField(7), 1), "field", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["epsilon_roots_consistent"]


def test_an_unreduced_chart_coordinate_fails_a_row(monkeypatch):
    # over q there is nothing to reduce; over fp:5 the stored product compares unequal to its residue,
    # also to the affine formula's y, which element arithmetic reduces
    _chart_leaves_y_unreduced(monkeypatch)
    rows = run_suite(Folium(PrimeField(5), 1), "parametrize", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == [
        "pbar_image_is_whole_curve",
        "sigma_inverts_parameter",
        "affine_matches_projective",
    ]


@pytest.mark.parametrize(
    "wrong", [lambda m: 2 * m, lambda m: 0, lambda m: m + 1], ids=["doubled", "zeroed", "plus_one"]
)
def test_impossible_multiplicities_fail_the_split_line_row(wrong, monkeypatch):
    # over fp:5 the root points stay right, so only the multiplicities themselves can tell
    real = geometry.roots_with_multiplicity
    monkeypatch.setattr(
        geometry, "roots_with_multiplicity", lambda field, coeffs: [(r, wrong(m)) for r, m in real(field, coeffs)]
    )
    rows = run_suite(Folium(PrimeField(5), 1), "geometry", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["split_lines_satisfy_identities"]


@pytest.mark.parametrize(
    "fault, failures",
    [
        (
            "non_commutative_op",
            [
                ("addsouth_associative", 2, "(0 : 0 : 1), (0 : 0 : 1), (8 : 8 : 1)"),
                ("addsouth_commutative", 2, "(0 : 0 : 1), (8 : 8 : 1)"),
                ("addsouth_inverse", 2, "(8 : 8 : 1)"),
            ],
        ),
        (
            "non_associative_op",
            [
                ("addsouth_associative", 185, "(8 : 8 : 1), (8 : 8 : 1), (5 : 10 : 1)"),
                ("addsouth_inverse", 2, "(8 : 8 : 1)"),
            ],
        ),
    ],
)
def test_a_law_that_is_not_a_group_fails_its_rows_from_the_tables(fault, failures, monkeypatch):
    # over fp:13 the rows take every pair and triple of the pool and read their products from the
    # law tables; an unordered key would drop addsouth_commutative from the first list
    FAULTS[fault][0](monkeypatch)
    rows = run_suite(Folium(PrimeField(13), 1), "axioms", seed=0, samples=40)
    assert [(row.name, row.instances, row.counterexample) for row in rows if not row.passed] == failures


# field_axioms's first failing case, as (instances, counterexample), under each field fault over q, fp:5 and fp:13
# (seed 0, 40 samples): a check that ran once per distinct argument, not once per triple, must fail at the same case
FIELD_AXIOMS_FIRST_FAILURES = {
    "radd_plus_one": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "rsub_plus_one": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "rmul_plus_one": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "rtruediv_plus_one": ((1, "-1/27, -89/17, 31/32"), (26, "1, 0, 0"), (170, "1, 0, 0")),
    "pow_plus_one": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "mul_plus_one": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "add_answers_its_left_operand": ((1, "-1/27, -89/17, 31/32"), (1, "0, 0, 0"), (1, "0, 0, 0")),
    "neg_answers_its_operand": ((1, "-1/27, -89/17, 31/32"), (26, "1, 0, 0"), (170, "1, 0, 0")),
}
PINNED_FIELDS = {"q": Rationals, "fp:5": lambda: PrimeField(5), "fp:13": lambda: PrimeField(13)}


@pytest.mark.parametrize("spec", PINNED_FIELDS)
@pytest.mark.parametrize("fault", FIELD_AXIOMS_FIRST_FAILURES)
def test_a_field_fault_fails_field_axioms_at_its_pinned_first_case(fault, spec, monkeypatch):
    FAULTS[fault][0](monkeypatch)
    row = _field_axioms(PINNED_FIELDS[spec]())
    expected = FIELD_AXIOMS_FIRST_FAILURES[fault][list(PINNED_FIELDS).index(spec)]
    assert (row.passed, row.instances, row.counterexample) == (False, *expected)


@pytest.mark.parametrize("spec", PINNED_FIELDS)
def test_a_rational_difference_with_its_sign_flipped_fails_the_field_axioms(spec, monkeypatch):
    # `-` rebuilt with the Q pair form of v - u; F_p reads the int operator, never the pair forms, so this
    # fault has no fp:5 case and stays out of FAULTS: over F_p the suite passes, and over q -u = 0 - u is u
    flipped = fields._ring_operation(operator.sub, lambda n1, d1, n2, d2: (n2 * d1 - n1 * d2, d1 * d2))
    monkeypatch.setattr(FieldElement, "__sub__", flipped)
    row = _field_axioms(PINNED_FIELDS[spec]())
    expected = {"q": (False, 1, "-1/27, -89/17, 31/32"), "fp:5": (True, 125, None), "fp:13": (True, 2197, None)}
    assert (row.passed, row.instances, row.counterexample) == expected[spec]


def _table_key_drops_y(monkeypatch):
    # each chart point keyed x + p*p*z, so (x : y : z) and (x : y' : z) share a key and a law table answers
    # the product of one pair for another
    real = ProjectivePoint._marked.__func__

    def marked(cls, x, y, z, on):
        point = real(cls, x, y, z, on)
        p = x.field.characteristic
        point.key = x.value + p * p * z.value if p else None
        return point

    monkeypatch.setattr(ProjectivePoint, "_marked", classmethod(marked))


# the failing rows of each suite under that fault (seed 0, 40 samples)
TABLE_KEY_FAILURES = {
    "q": {},
    "fp:5": {"axioms": 24, "star": 4, "geometry": 3, "collinearity": 1, "southmul": 5, "fieldstructure": 4},
    "fp:13": {"axioms": 18, "star": 5, "geometry": 3, "collinearity": 1, "fieldstructure": 4},
}


@pytest.mark.parametrize("spec", PINNED_FIELDS)
def test_a_table_key_that_drops_y_fails_every_suite_that_reads_a_law_table(spec, monkeypatch):
    # only a run over a small F_p keeps law tables, so over q the fault reaches no row and stays out of FAULTS
    _table_key_drops_y(monkeypatch)
    curve = Folium(PINNED_FIELDS[spec](), 1)
    failures = {}
    for suite in SUITES:
        failed = sum(not row.passed for row in run_suite(curve, suite, seed=0, samples=40))
        if failed:
            failures[suite] = failed
    assert failures == TABLE_KEY_FAILURES[spec]
