"""Seeded faults that `verify` must catch.

Each entry patches one fault into the package with monkeypatch and names the
suites that catch it: over q and over fp:5 (seed 0, 40 samples) each of them
must then FAIL at least one row.  Only those suites run, not `all`.  `star`
is named for the faults it catches: with its parity chains read from law
tables it takes about 30 ms over fp:5, as `axioms` and `geometry` do over q.
Unpatched, every suite passes; tests/golden pins both reports.  The first
six faults sit in the charts, which the public maps and the laws share:
three in the pair kernel `_pair_coordinates`, one in `_pair_point`, which
builds a point from it, one in the key of the chart memo that a run opens,
and one in the pair inverse chart `_pair_param`.
One gives the curve 4a where it prints a, which only a row that builds a
point from the printed a can tell.  Four patch a row of the law table LAWS,
whose columns hold the operations on slope pairs (n : d), t = n/d.  Every
per-law name reads its row there when called, so such a
fault reaches each suite that composes points with that law, not `axioms`
alone: star without its sign also FAILs `star`, and an addsouth that is not
a group also FAILs `fieldstructure`; only `law_neutral` reads the neutral
column, so a wrong neutral stays an `axioms` fault.  Two of them give
addsouth an operation that is not commutative or not associative, which a
product table keyed on unordered pairs, or one that answered the wrong
pair, would let pass.  Two empty the line-point oracle and the root finder,
which a geometry row that checked nothing would let pass.  The last five
add one to a reflected operator or to `**`.  A fault that survives is a gap
in the suites: add a property that catches it, never drop the fault.  The
`neg`-as-identity fault is pinned by test_law_dispatch.py instead: it
replaces the name `neg`, and `verify` reads the additive inverses from the
law table through `law_inverse`, never through that name.  An element store
that answers the next residue is tested apart too: only F_p stores its
elements, so that fault has no q case.
"""

import sys

import pytest

from descartes_folium import FieldElement, Folium, PrimeField, Rationals, geometry, laws, parametrization
from descartes_folium.laws import LAWS, LawKind
from descartes_folium.verify import run_suite


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace a function at every package module name bound to it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "descartes_folium" or module_name.startswith("descartes_folium."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, replacement)


def _patch_pair_coordinates(monkeypatch, replacement):
    """Replace fields._pair_coordinates at parametrization's name for it; `replacement` gets the real one first."""
    real = parametrization._pair_coordinates
    monkeypatch.setattr(parametrization, "_pair_coordinates", lambda field, a3, n, d: replacement(real, field, a3, n, d))


def _slope(field, n, d):
    """The element t = n/d of a slope pair, by element arithmetic."""
    return field.element(n) / field.element(d)


def _wrong_chart_coefficient(monkeypatch):
    # 6a in place of 3a, in the branch that scales (x : x t : 1) itself
    _patch_pair_coordinates(monkeypatch, lambda real, field, a3, n, d: real(field, a3 + a3, n, d))


def _chart_point_keeps_w(monkeypatch):
    # the scaled branch divides by w but keeps z = w: (3at/w : 3at^2/w : w), still marked,
    # which is the point (3at/w^2 : 3at^2/w^2 : 1)
    def pair_coordinates(real, field, a3, n, d):
        x, y, z = real(field, a3, n, d)
        if z.is_zero():
            return x, y, z
        return x, y, _slope(field, n, d) ** 3 + 1

    _patch_pair_coordinates(monkeypatch, pair_coordinates)


def _w_zero_branch_dropped(monkeypatch):
    # every parameter takes the scaled branch, so t^3 = -1 divides by zero
    def pair_coordinates(real, field, a3, n, d):
        t = _slope(field, n, d)
        x = field.element(a3) * t / (t * t * t + 1)
        return x, x * t, field.one

    _patch_pair_coordinates(monkeypatch, pair_coordinates)


def _scaled_chart_ignores_swap(monkeypatch):
    # pbarbar builds pbar's point whenever 1 + t^3 is nonzero, in the public charts and the laws alike
    real = parametrization._pair_point

    def pair_point(curve, n, d, swap=False, affine=False):
        point = real(curve, n, d, swap, affine)
        return real(curve, n, d, False, affine) if point.is_affine else point

    _patch_everywhere(monkeypatch, real, pair_point)


def _chart_memo_drops_swap(monkeypatch):
    # inside a run, pbar and pbarbar of one slope share a memo key, so each answers the other's stored point
    real = parametrization._chart_key
    monkeypatch.setattr(parametrization, "_chart_key", lambda p, n, d, swap: real(p, n, d, False))


def _inverse_chart_divides_the_wrong_way(monkeypatch):
    # pbar's inverse chart reads the pair (x : y), the pbarbar parameter, in place of (y : x)
    real = parametrization._pair_param
    _patch_everywhere(monkeypatch, real, lambda curve, point, swap=False: real(curve, point, True))


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


def _identity_sigma(monkeypatch):
    _patch_everywhere(monkeypatch, parametrization.sigma, lambda point: point)


def _third_intersection_is_proj_mul(monkeypatch):
    _patch_everywhere(monkeypatch, geometry.third_intersection, laws.proj_mul)


def _collinear3_always_true(monkeypatch):
    _patch_everywhere(monkeypatch, geometry.collinear3, lambda curve, *points: True)


def _finds_nothing(original):
    # an oracle that returns no points, or a root finder that returns no roots
    return lambda monkeypatch: _patch_everywhere(monkeypatch, original, lambda *args: [])


def _wrong_epsilon_roots(monkeypatch):
    # -1 twice: a cube root of -1, but no root of e^2 - e + 1
    def roots(field):
        minus_one = -field.one
        return (minus_one, minus_one)

    monkeypatch.setattr(Rationals, "epsilon_roots", roots)
    monkeypatch.setattr(PrimeField, "epsilon_roots", roots)


def _plus_one(name):
    # the operator's result plus one, where it has a result
    def patch(monkeypatch):
        real = getattr(FieldElement, name)

        def method(self, other):
            result = real(self, other)
            return result if result is NotImplemented else result + 1

        monkeypatch.setattr(FieldElement, name, method)

    return patch


# Each fault with the suites that catch it over q and over fp:5.
CHART_SUITES = ("parametrize", "axioms", "coincidence", "geometry", "collinearity", "fieldstructure")
FAULTS = {
    "wrong_chart_coefficient": (_wrong_chart_coefficient, ("parametrize", "geometry", "star")),
    "chart_point_keeps_w": (_chart_point_keeps_w, (*CHART_SUITES, "southmul", "star")),
    "w_zero_branch_dropped": (_w_zero_branch_dropped, (*CHART_SUITES, "star")),
    "scaled_chart_ignores_swap": (_scaled_chart_ignores_swap, ("parametrize", "axioms", "coincidence", "fieldstructure")),
    "chart_memo_drops_swap": (_chart_memo_drops_swap, ("parametrize", "axioms", "coincidence", "fieldstructure")),
    "inverse_chart_divides_the_wrong_way": (_inverse_chart_divides_the_wrong_way, (*CHART_SUITES, "southmul", "star")),
    "three_a_is_4a": (_three_a_is_4a, ("parametrize",)),
    "wrong_law_op": (_wrong_law_op, ("axioms", "star")),
    "wrong_neutral": (_wrong_neutral, ("axioms",)),
    "non_commutative_op": (_add_south_op(_difference), ("axioms", "fieldstructure")),
    "non_associative_op": (_add_south_op(_not_associative), ("axioms", "fieldstructure")),
    "identity_sigma": (_identity_sigma, ("parametrize", "axioms", "southmul", "fieldstructure")),
    "third_intersection_is_proj_mul": (_third_intersection_is_proj_mul, ("geometry", "collinearity")),
    "collinear3_always_true": (_collinear3_always_true, ("collinearity", "star")),
    "line_points_find_nothing": (_finds_nothing(geometry._curve_points_on_line), ("geometry",)),
    "roots_find_nothing": (_finds_nothing(geometry.roots_with_multiplicity), ("geometry",)),
    "wrong_epsilon_roots": (_wrong_epsilon_roots, ("field",)),
    "radd_plus_one": (_plus_one("__radd__"), ("field",)),
    "rsub_plus_one": (_plus_one("__rsub__"), ("field",)),
    "rmul_plus_one": (_plus_one("__rmul__"), ("field",)),
    "rtruediv_plus_one": (_plus_one("__rtruediv__"), ("field",)),
    "pow_plus_one": (_plus_one("__pow__"), ("field",)),
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


@pytest.mark.parametrize("p", [5, 13])
def test_a_store_that_answers_the_next_residue_fails_the_field_axioms(p, monkeypatch):
    # only F_p stores its elements, so this fault has no q case and stays out of FAULTS
    field = PrimeField(p)
    monkeypatch.setattr(field, "_elements", tuple(FieldElement(field, (r + 1) % p) for r in range(p)))
    rows = run_suite(Folium(field, 1), "field", seed=0, samples=40)
    assert "field_axioms" in [row.name for row in rows if not row.passed]


def test_wrong_epsilon_roots_fail_where_the_field_has_roots(monkeypatch):
    # over fp:7 the cube-root scan agrees with any non-None pair, so the roots themselves are checked
    _wrong_epsilon_roots(monkeypatch)
    rows = run_suite(Folium(PrimeField(7), 1), "field", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["epsilon_roots_consistent"]


def test_an_unreduced_chart_coordinate_fails_a_row(monkeypatch):
    # over q there is nothing to reduce; over fp:5 the stored product compares unequal to its residue
    _chart_leaves_y_unreduced(monkeypatch)
    rows = run_suite(Folium(PrimeField(5), 1), "parametrize", seed=0, samples=40)
    assert [row.name for row in rows if not row.passed] == ["pbar_image_is_whole_curve", "sigma_inverts_parameter"]


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
