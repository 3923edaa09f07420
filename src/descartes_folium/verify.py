"""Named verification suites for every structure the curve carries.

Each suite checks a family of identities: exhaustively over small prime
fields, and on seeded random samples over the rationals.  A suite returns
one PropertyResult per identity; a result with instances = 0 and a note
records a suite that does not apply to the chosen field (for example the
affine exotic laws when epsilon roots exist).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .branches import BranchLabel, classify_branch
from .curve import Folium
from .errors import DivisionByZeroPoint, UnknownSuite
from .fields import PrimeField
from .geometry import (
    all_lines,
    chord_or_tangent,
    collinear3,
    geometric_mul,
    geometric_mul_via_vertex,
    line_curve_intersections,
    line_through,
    perpendicular_chord_check,
    slope_cubic,
    slope_cubic_check,
    third_intersection,
)
from .laws import (
    LAWS,
    LawKind,
    add_south,
    add_west,
    apply_law,
    folium_inv,
    folium_mul,
    law_inverse,
    law_neutral,
    perp,
    proj_inv,
    proj_mul,
    proj_mul2,
    south_mul,
    star_mul,
    west_mul,
)
from .parametrization import (
    alpha,
    alpha_inv,
    p_affine,
    p_affine_prime,
    pbar,
    pbar_inv,
    pbarbar,
    pbarbar_inv,
    sigma,
)

EXHAUSTIVE_PAIR_BOUND = 30_000
EXHAUSTIVE_TRIPLE_BOUND = 3_000
EXHAUSTIVE_CHAIN_BOUND = 5_000
LINE_SCAN_PRIME_BOUND = 31


@dataclass
class PropertyResult:
    name: str
    instances: int
    passed: bool
    counterexample: str | None = None
    note: str | None = None


def _run(name: str, cases, predicate) -> PropertyResult:
    instances = 0
    for case in cases:
        instances += 1
        if not predicate(*case):
            witness = ", ".join(str(part) for part in case) or "(no arguments)"
            return PropertyResult(name, instances, False, counterexample=witness)
    return PropertyResult(name, instances, True)


def _exists(name: str, cases, predicate) -> PropertyResult:
    instances = 0
    for case in cases:
        instances += 1
        if predicate(*case):
            return PropertyResult(name, instances, True)
    return PropertyResult(name, instances, False, counterexample="no witness found")


def _skip(name: str, note: str) -> PropertyResult:
    return PropertyResult(name, 0, True, note=note)


class _Context:
    """Deterministic case pools for one suite run."""

    def __init__(self, curve: Folium, seed: int, samples: int):
        self.curve = curve
        self.rng = random.Random(seed)
        self.samples = max(1, samples)
        self.finite = isinstance(curve.field, PrimeField)
        self._params: dict = {}
        self._points: dict = {}

    def _random_fraction(self):
        return self.curve.field.element(
            Fraction(self.rng.randint(-12, 12), self.rng.randint(1, 8))
        )

    def params(self, kind: str) -> list:
        if kind not in self._params:
            field = self.curve.field
            if self.finite:
                pool = [field.element(r) for r in range(field.p)]
            else:
                anchors = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3), 3]
                pool = [field.element(v) for v in anchors]
                while len(pool) < self.samples:
                    pool.append(self._random_fraction())
            if kind in ("nonzero", "nonzero_affine"):
                pool = [t for t in pool if not t.is_zero()]
            if kind in ("affine", "nonzero_affine"):
                pool = [t for t in pool if not (t * t * t + 1).is_zero()]
            self._params[kind] = pool
        return self._params[kind]

    def points(self, kind: str) -> list:
        if kind not in self._points:
            self._points[kind] = [pbar(self.curve, t) for t in self.params(kind)]
        return self._points[kind]

    def tuples(self, kind: str, arity: int, params: bool = False) -> list:
        """Tuples of points (or of parameters) from the named pool."""
        pool = self.params(kind) if params else self.points(kind)
        bound = EXHAUSTIVE_PAIR_BOUND if arity <= 2 else EXHAUSTIVE_TRIPLE_BOUND
        return self.product_or_draws(pool, arity, bound, self.samples)

    def product_or_draws(self, pool: list, arity: int, bound: int, count: int) -> list:
        """All tuples over a finite field when at most `bound`, else `count` seeded draws."""
        if self.finite and len(pool) ** arity <= bound:
            return list(itertools.product(pool, repeat=arity))
        return [tuple(self.rng.choice(pool) for _ in range(arity)) for _ in range(count)]

    def affine_gate_note(self) -> str | None:
        """None when the affine exotic laws apply; otherwise the reason they do not."""
        if self.curve.field.has_unique_cube_root():
            return None
        return "skipped: the field has epsilon roots (no unique cube root of -1)"


# -- suites ---------------------------------------------------------------


def _suite_field(ctx: _Context) -> list:
    field = ctx.curve.field
    results = []

    if ctx.finite and field.p <= 13:
        elements = [field.element(r) for r in range(field.p)]
        triples = list(itertools.product(elements, repeat=3))
    else:
        triples = [
            tuple(field.random_element(ctx.rng) for _ in range(3))
            for _ in range(ctx.samples)
        ]

    zero, one = field.zero, field.one

    def axioms(u, v, w):
        if (u + v) + w != u + (v + w) or (u * v) * w != u * (v * w):
            return False
        if u + v != v + u or u * v != v * u:
            return False
        if u * (v + w) != u * v + u * w:
            return False
        if u + zero != u or u * one != u or u + (-u) != zero:
            return False
        if not u.is_zero() and u * u.inverse() != one:
            return False
        return True

    results.append(_run("field_axioms", triples, axioms))

    def epsilon_consistent():
        roots = field.epsilon_roots()
        if roots is None:
            return field.has_unique_cube_root()
        e1, e2 = roots
        return (
            not field.has_unique_cube_root()
            and e1 * e1 * e1 == -one
            and e2 * e2 * e2 == -one
            and e1 * e2 == one
        )

    results.append(_run("epsilon_roots_consistent", [()], epsilon_consistent))

    if ctx.finite:
        p = field.p
        if p < 1 << 16:
            # A residue scan, independent of the closed form behind has_unique_cube_root.
            cube_roots = sum(1 for x in range(p) if (x * x * x + 1) % p == 0)
            results.append(
                _run(
                    "cube_root_unique_matches_congruence",
                    [()],
                    lambda: field.has_unique_cube_root() == (cube_roots == 1),
                )
            )
        else:
            results.append(
                _skip("cube_root_unique_matches_congruence", "skipped: p too large to scan")
            )
    else:
        results.append(
            _run("rationals_have_unique_cube_root", [()], field.has_unique_cube_root)
        )
    return results


def _suite_count(ctx: _Context) -> list:
    if not ctx.finite:
        return [_skip("point_count_equals_p", "skipped: enumeration needs a finite prime field")]
    points = ctx.curve.enumerate_points()
    expected = ctx.curve.field.p
    ok = len(points) == expected and len(set(points)) == len(points)
    witness = None if ok else f"enumerated {len(points)} points, expected {expected}"
    return [PropertyResult("point_count_equals_p", 1, ok, counterexample=witness)]


def _suite_parametrize(ctx: _Context) -> list:
    curve = ctx.curve
    results = []
    params = [(t,) for t in ctx.params("all")]
    results.append(
        _run("pbar_round_trip", params, lambda t: pbar_inv(curve, pbar(curve, t)) == t)
    )
    results.append(
        _run(
            "pbarbar_round_trip",
            params,
            lambda t: pbarbar_inv(curve, pbarbar(curve, t)) == t,
        )
    )
    results.append(
        _run("pbar_lands_on_curve", params, lambda t: curve.contains(pbar(curve, t)))
    )
    if ctx.finite:
        image = {pbar(curve, t) for t in ctx.params("all")}
        ok = image == set(curve.enumerate_points())
        results.append(
            PropertyResult(
                "pbar_image_is_whole_curve",
                len(image),
                ok,
                counterexample=None if ok else "image and enumeration disagree",
            )
        )
    else:
        results.append(
            _skip("pbar_image_is_whole_curve", "skipped: surjectivity scan needs a finite prime field")
        )
    points = [(P,) for P in ctx.points("all")]
    results.append(
        _run(
            "pbar_point_round_trip",
            points,
            lambda P: pbar(curve, pbar_inv(curve, P)) == P,
        )
    )
    results.append(_run("sigma_involution", points, lambda P: sigma(sigma(P)) == P))
    results.append(
        _run(
            "sigma_inverts_parameter",
            [(t,) for t in ctx.params("nonzero")],
            lambda t: sigma(pbar(curve, t)) == pbar(curve, t.inverse()),
        )
    )
    results.append(
        _run(
            "affine_matches_projective",
            [(t,) for t in ctx.params("affine")],
            lambda t: p_affine(curve, t) == pbar(curve, t)
            and p_affine_prime(curve, t) == pbarbar(curve, t),
        )
    )
    results.append(
        _run(
            "alpha_round_trip",
            [(t,) for t in ctx.params("all")],
            lambda t: alpha(alpha_inv(t)) == t and alpha_inv(alpha(t)) == t,
        )
    )
    return results


def _law_axioms(ctx: _Context, kind: LawKind) -> list:
    curve = ctx.curve
    law = LAWS[kind]
    names = [f"{kind.value}_{prop}" for prop in ("associative", "commutative", "neutral", "inverse")]
    note = ctx.affine_gate_note() if law.chart.affine else None
    if note is not None:
        return [_skip(name, note) for name in names]
    neutral = law_neutral(curve, kind)
    return [
        _run(
            names[0],
            ctx.tuples(law.domain, 3),
            lambda P, Q, R: apply_law(curve, kind, apply_law(curve, kind, P, Q), R)
            == apply_law(curve, kind, P, apply_law(curve, kind, Q, R)),
        ),
        _run(
            names[1],
            ctx.tuples(law.domain, 2),
            lambda P, Q: apply_law(curve, kind, P, Q) == apply_law(curve, kind, Q, P),
        ),
        # under fieldmul the node absorbs, and indeed O * V == O == P there
        _run(
            names[2],
            ctx.tuples(law.domain, 1),
            lambda P: apply_law(curve, kind, P, neutral) == P,
        ),
        _run(
            names[3],
            ctx.tuples(law.units or law.domain, 1),
            lambda P: apply_law(curve, kind, P, law_inverse(curve, kind, P)) == neutral,
        ),
    ]


def _suite_axioms(ctx: _Context) -> list:
    results = []
    for law in LawKind:
        results.extend(_law_axioms(ctx, law))
    return results


def _suite_coincidence(ctx: _Context) -> list:
    curve = ctx.curve
    results = [
        _run(
            "projmul_equals_projmul2",
            ctx.tuples("nonzero", 2),
            lambda P, Q: proj_mul(curve, P, Q) == proj_mul2(curve, P, Q),
        )
    ]
    tiny = ctx.finite and curve.field.p == 2
    if tiny:
        results.append(
            _skip("additive_laws_differ", "skipped: the two points over F_2 admit a single structure")
        )
    else:
        results.append(
            _exists(
                "additive_laws_differ",
                ctx.tuples("all", 2),
                lambda P, Q: add_south(curve, P, Q) != add_west(curve, P, Q),
            )
        )
    note = ctx.affine_gate_note()
    if note is not None or tiny:
        results.append(
            _skip(
                "exotic_affine_laws_differ",
                note or "skipped: the affine curve over F_2 is a single point",
            )
        )
    else:
        results.append(
            _exists(
                "exotic_affine_laws_differ",
                ctx.tuples("affine", 2),
                lambda P, Q: south_mul(curve, P, Q) != west_mul(curve, P, Q),
            )
        )
    return results


def _chain_cases(ctx: _Context) -> list:
    pool = ctx.points("nonzero")
    cases = []
    for length in range(2, 8):
        count = max(10, ctx.samples // 20)
        cases.extend(ctx.product_or_draws(pool, length, EXHAUSTIVE_CHAIN_BOUND, count))
    return cases


def _suite_star(ctx: _Context) -> list:
    curve = ctx.curve
    infinity = curve.infinity
    vertex = curve.vertex()
    results = []
    results.append(
        _run("i_squared_is_v", [()], lambda: proj_mul(curve, infinity, infinity) == vertex)
    )
    results.append(
        _run(
            "i_cubed_is_i",
            [()],
            lambda: proj_mul(curve, proj_mul(curve, infinity, infinity), infinity)
            == infinity,
        )
    )
    pairs = ctx.tuples("nonzero", 2)
    results.append(
        _run(
            "star_equals_dot_times_i",
            pairs,
            lambda P, Q: star_mul(curve, P, Q)
            == proj_mul(curve, proj_mul(curve, P, Q), infinity),
        )
    )
    results.append(
        _run(
            "dot_equals_star_star_v",
            pairs,
            lambda P, Q: proj_mul(curve, P, Q)
            == star_mul(curve, star_mul(curve, P, Q), vertex),
        )
    )

    def chain_identities(*points):
        star_acc, dot_acc = points[0], points[0]
        for point in points[1:]:
            star_acc = star_mul(curve, star_acc, point)
            dot_acc = proj_mul(curve, dot_acc, point)
        if len(points) % 2 == 0:
            return star_acc == proj_mul(curve, dot_acc, infinity) and dot_acc == star_mul(
                curve, star_acc, vertex
            )
        return star_acc == dot_acc

    results.append(_run("parity_chain_identities", _chain_cases(ctx), chain_identities))

    singles = ctx.tuples("nonzero", 1)
    results.append(
        _run(
            "perp_equals_inverse_dot_i",
            singles,
            lambda P: perp(curve, P) == proj_mul(curve, proj_inv(curve, P), infinity)
            and perp(curve, P) == star_mul(curve, proj_inv(curve, P), vertex),
        )
    )
    results.append(_run("perp_involution", singles, lambda P: perp(curve, perp(curve, P)) == P))
    results.append(_run("i_perp_is_v", [()], lambda: perp(curve, infinity) == vertex))
    results.append(_run("v_perp_is_i", [()], lambda: perp(curve, vertex) == infinity))

    minus_one = -curve.field.one

    def star_cube_locus(P):
        t = pbar_inv(curve, P)
        cubed = star_mul(curve, star_mul(curve, P, P), P)
        return (cubed == infinity) == (t * t * t == minus_one)

    results.append(_run("star_cube_locus", singles, star_cube_locus))

    one = curve.field.one

    def perp_parameter_collinearity(s1, s2, s3):
        points = [perp(curve, pbar(curve, s)) for s in (s1, s2, s3)]
        return collinear3(curve, *points) == (s1 * s2 * s3 == one)

    results.append(
        _run(
            "perp_parameter_collinearity",
            ctx.tuples("nonzero", 3, params=True),
            perp_parameter_collinearity,
        )
    )
    return results


def _suite_geometry(ctx: _Context) -> list:
    curve = ctx.curve
    results = []
    pairs = ctx.tuples("nonzero", 2)
    results.append(
        _run(
            "geometric_mul_matches_projmul",
            pairs,
            lambda P, Q: geometric_mul(curve, P, Q) == proj_mul(curve, P, Q),
        )
    )
    results.append(
        _run(
            "vertex_route_matches_projmul",
            pairs,
            lambda P, Q: geometric_mul_via_vertex(curve, P, Q) == proj_mul(curve, P, Q),
        )
    )

    def incident(P, Q):
        line = chord_or_tangent(curve, P, Q)
        third = third_intersection(curve, P, Q)
        return line.contains(third) and third != curve.origin

    results.append(_run("third_intersection_incident", pairs, incident))

    cubic_pairs = pairs if ctx.finite else pairs[: max(20, ctx.samples // 10)]

    def cubic_oracle(P, Q):
        line = chord_or_tangent(curve, P, Q)
        c2, c1 = slope_cubic(curve, line)
        for point in (P, Q, third_intersection(curve, P, Q)):
            t = pbar_inv(curve, point)
            if not (((t + c2) * t + c1) * t + 1).is_zero():
                return False
        return slope_cubic_check(curve, line)

    results.append(_run("slope_cubic_oracle", cubic_pairs, cubic_oracle))

    if ctx.finite and curve.field.p <= LINE_SCAN_PRIME_BOUND:
        minus_one = -curve.field.one

        def split_line_identities(line):
            intersections = line_curve_intersections(curve, line)
            if sum(mult for _, mult in intersections) != 3:
                return True  # not fully split over the base field
            triple = []
            for point, mult in intersections:
                triple.extend([point] * mult)
            p1, p2, p3 = triple
            if not (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero():
                return False
            t_product = pbar_inv(curve, p1) * pbar_inv(curve, p2) * pbar_inv(curve, p3)
            if t_product != minus_one:
                return False
            dot = proj_mul(curve, proj_mul(curve, p1, p2), p3)
            star = star_mul(curve, star_mul(curve, p1, p2), p3)
            return dot == curve.infinity and star == curve.infinity and collinear3(curve, *triple)

        cases = [(line,) for line in all_lines(curve.field) if not line.through_origin]
        results.append(_run("split_lines_satisfy_identities", cases, split_line_identities))
    else:
        results.append(
            _skip(
                "split_lines_satisfy_identities",
                "skipped: exhaustive line enumeration needs a prime field with p <= 31",
            )
        )
    return results


def _suite_collinearity(ctx: _Context) -> list:
    curve = ctx.curve
    infinity = curve.infinity
    minus_one = -curve.field.one
    results = []

    def equivalences(P1, P2, P3):
        t_product = (
            pbar_inv(curve, P1) * pbar_inv(curve, P2) * pbar_inv(curve, P3)
        )
        target = t_product == minus_one
        if collinear3(curve, P1, P2, P3) != target:
            return False
        dot = proj_mul(curve, proj_mul(curve, P1, P2), P3)
        star = star_mul(curve, star_mul(curve, P1, P2), P3)
        return (dot == infinity) == target and (star == infinity) == target

    results.append(
        _run("collinearity_equivalences", ctx.tuples("nonzero", 3), equivalences)
    )

    def constructed(P1, P2):
        P3 = third_intersection(curve, P1, P2)
        line = chord_or_tangent(curve, P1, P2)
        return collinear3(curve, P1, P2, P3) and line.contains(P3)

    results.append(
        _run("constructed_triples_collinear", ctx.tuples("nonzero", 2), constructed)
    )
    results.append(
        _run(
            "node_triples_collinear",
            ctx.tuples("all", 2),
            lambda P, Q: collinear3(curve, curve.origin, P, Q),
        )
    )
    return results


def _suite_southmul(ctx: _Context) -> list:
    curve = ctx.curve
    names = (
        "southmul_transport",
        "westmul_transport",
        "sigma_intertwines_south_west",
        "south_neutral_node",
        "west_neutral_node",
    )
    note = ctx.affine_gate_note()
    if note is not None:
        return [_skip(name, note) for name in names]
    results = []
    tau_pairs = ctx.tuples("nonzero", 2, params=True)

    def south_transport(tau1, tau2):
        lhs = south_mul(
            curve,
            p_affine(curve, alpha(tau1)),
            p_affine(curve, alpha(tau2)),
        )
        return lhs == p_affine(curve, alpha(tau1 * tau2))

    results.append(_run(names[0], tau_pairs, south_transport))

    def west_transport(tau1, tau2):
        lhs = west_mul(
            curve,
            p_affine_prime(curve, alpha(tau1)),
            p_affine_prime(curve, alpha(tau2)),
        )
        return lhs == p_affine_prime(curve, alpha(tau1 * tau2))

    results.append(_run(names[1], tau_pairs, west_transport))

    affine_pairs = ctx.tuples("affine", 2)
    results.append(
        _run(
            names[2],
            affine_pairs,
            lambda P, Q: sigma(south_mul(curve, P, Q))
            == west_mul(curve, sigma(P), sigma(Q)),
        )
    )
    singles = ctx.tuples("affine", 1)
    results.append(
        _run(names[3], singles, lambda P: south_mul(curve, P, curve.origin) == P)
    )
    results.append(
        _run(names[4], singles, lambda P: west_mul(curve, P, curve.origin) == P)
    )
    return results


def _suite_perpendicular(ctx: _Context) -> list:
    curve = ctx.curve
    names = ("vertex_chord_perpendicular", "perpendicular_iff_vertex_collinear")
    if ctx.finite:
        return [_skip(name, "skipped: perpendicularity needs the ordered field of rationals") for name in names]
    vertex = curve.vertex()
    one = curve.field.one
    params = [t for t in ctx.params("nonzero_affine") if t != one]

    def forward(t):
        P = pbar(curve, t)
        Q = third_intersection(curve, vertex, P)
        return (
            perpendicular_chord_check(curve, P, Q)
            and collinear3(curve, vertex, P, Q)
            and line_through(vertex, P).contains(Q)
        )

    results = [_run(names[0], [(t,) for t in params], forward)]

    def equivalence(t1, t2):
        P, Q = pbar(curve, t1), pbar(curve, t2)
        if perpendicular_chord_check(curve, P, Q) != collinear3(curve, vertex, P, Q):
            return False
        # the constructed perpendicular partner pbar(-1/t1) must land on the vertex chord
        R = pbar(curve, -t1.inverse())
        return perpendicular_chord_check(curve, P, R) and collinear3(curve, vertex, P, R)

    pairs = [
        (t1, t2)
        for (t1, t2) in ctx.tuples("nonzero_affine", 2, params=True)
        if t1 != one and t2 != one
    ]
    results.append(_run(names[1], pairs, equivalence))
    return results


_SIGMA_LABEL = {
    BranchLabel.SOUTH_INTERIOR: BranchLabel.WEST_INTERIOR,
    BranchLabel.WEST_INTERIOR: BranchLabel.SOUTH_INTERIOR,
    BranchLabel.VERTEX: BranchLabel.VERTEX,
    BranchLabel.NODE: BranchLabel.NODE,
}


def _coordinate_label(curve: Folium, point) -> BranchLabel:
    # independent sign-based oracle; valid over the rationals
    sign = 1 if curve.a.value > 0 else -1
    x = sign * point.x.value
    y = sign * point.y.value
    if x == 0 and y == 0:
        return BranchLabel.NODE
    if x < 0:
        return BranchLabel.SOUTH_INTERIOR
    if y < 0:
        return BranchLabel.WEST_INTERIOR
    if x == y:
        return BranchLabel.VERTEX
    return BranchLabel.SOUTH_INTERIOR if y < x else BranchLabel.WEST_INTERIOR


def _suite_branch(ctx: _Context) -> list:
    curve = ctx.curve
    names = ("sigma_swaps_branches", "labels_match_coordinate_oracle")
    if ctx.finite:
        return [_skip(name, "skipped: branches need the ordered field of rationals") for name in names]
    points = ctx.tuples("affine", 1)

    def swaps(P):
        return classify_branch(curve, sigma(P)) == _SIGMA_LABEL[classify_branch(curve, P)]

    def oracle(P):
        return classify_branch(curve, P) == _coordinate_label(curve, P)

    return [_run(names[0], points, swaps), _run(names[1], points, oracle)]


def _suite_fieldstructure(ctx: _Context) -> list:
    curve = ctx.curve
    origin = curve.origin
    results = []
    singles = ctx.tuples("all", 1)
    results.append(
        _run(
            "node_absorbs",
            singles,
            lambda P: folium_mul(curve, origin, P) == origin
            and folium_mul(curve, P, origin) == origin,
        )
    )
    results.append(
        _run(
            "distributivity_on_curve",
            ctx.tuples("all", 3),
            lambda P, Q, R: folium_mul(curve, P, add_south(curve, Q, R))
            == add_south(curve, folium_mul(curve, P, Q), folium_mul(curve, P, R)),
        )
    )
    param_pairs = ctx.tuples("all", 2, params=True)
    results.append(
        _run(
            "pbar_transports_field_ops",
            param_pairs,
            lambda u, v: pbar(curve, u + v) == add_south(curve, pbar(curve, u), pbar(curve, v))
            and pbar(curve, u * v) == folium_mul(curve, pbar(curve, u), pbar(curve, v)),
        )
    )
    results.append(
        _run(
            "pbarbar_transports_field_ops",
            param_pairs,
            lambda u, v: pbarbar(curve, u + v)
            == add_west(curve, pbarbar(curve, u), pbarbar(curve, v))
            and pbarbar(curve, u * v)
            == folium_mul(curve, pbarbar(curve, u), pbarbar(curve, v)),
        )
    )
    results.append(
        _run(
            "sigma_field_isomorphism",
            ctx.tuples("all", 2),
            lambda P, Q: sigma(add_south(curve, P, Q)) == add_west(curve, sigma(P), sigma(Q))
            and sigma(folium_mul(curve, P, Q)) == folium_mul(curve, sigma(P), sigma(Q)),
        )
    )

    def node_inverse_rejected():
        try:
            folium_inv(curve, origin)
        except DivisionByZeroPoint:
            return True
        return False

    results.append(_run("node_inverse_rejected", [()], node_inverse_rejected))
    return results


SUITES = {
    "field": _suite_field,
    "count": _suite_count,
    "parametrize": _suite_parametrize,
    "axioms": _suite_axioms,
    "coincidence": _suite_coincidence,
    "star": _suite_star,
    "geometry": _suite_geometry,
    "collinearity": _suite_collinearity,
    "southmul": _suite_southmul,
    "perpendicular": _suite_perpendicular,
    "branch": _suite_branch,
    "fieldstructure": _suite_fieldstructure,
}


def run_suite(curve: Folium, name: str, seed: int = 0, samples: int = 1000) -> list:
    """Run one named suite (or `all`) and return its PropertyResults."""
    if name == "all":
        ctx = _Context(curve, seed, samples)
        results = []
        for suite in SUITES.values():
            results.extend(suite(ctx))
        return results
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise UnknownSuite(f"unknown suite {name!r}; choose from: {known}")
    return SUITES[name](_Context(curve, seed, samples))


def run_report(curve: Folium, name: str, seed: int = 0, samples: int = 1000) -> dict:
    """Machine-checkable report: {suite, field, a, properties: [...]}; deterministic under a fixed seed."""
    properties = []
    for result in run_suite(curve, name, seed=seed, samples=samples):
        entry = {
            "name": result.name,
            "instances": result.instances,
            "passed": result.passed,
        }
        if result.counterexample is not None:
            entry["counterexample"] = result.counterexample
        if result.note is not None:
            entry["note"] = result.note
        properties.append(entry)
    return {
        "suite": name,
        "field": curve.field.spec_string(),
        "a": str(curve.a),
        "properties": properties,
    }
