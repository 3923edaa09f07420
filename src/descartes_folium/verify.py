"""Named verification suites for every structure the curve carries.

Each property is a declared row, a `_Prop`: a name, a skip note or None,
a lazy case builder and a predicate.  A universal row holds when the
predicate holds on every case; an existence row (`exists=True`) holds when
it holds on one.  A suite maps a case context to its rows, and one runner,
`_evaluate`, turns each row into a PropertyResult.  The runner alone counts
instances, formats a counterexample and emits a skip (instances = 0 and a
note), including the skip for an oracle that raises FieldTooLargeForScan and
for a universal row whose cases came out empty, which never passes.  Any
other FoliumError fails its row, naming the case and the error.

Cases are exhaustive over prime fields up to EXHAUSTIVE_PAIR_BOUND and
seeded random samples over the rationals and over larger primes.  Where an
existence row's cases are sampled, it goes on to its pool's pairs in order,
so a witness the draws missed still counts.

Over prime fields small enough that every pair of points is a case
(p * p <= EXHAUSTIVE_PAIR_BOUND, so p <= 173), every row that composes two
points reads the binary law from a lazy Cayley table, `_table`: the rows of
`axioms` and `coincidence`, every dot (proj_mul) and star (star_mul) product
of the `star`, `geometry` and `collinearity` suites, their parity chains and
`_collinearity_tests` included, the exotic laws of `southmul`, and
`folium_mul`, `add_south` and `add_west` in `fieldstructure`.  The tables
belong to the run: `_Context` holds one per law callable, so every suite
that names the same law reads one table, and a run computes each law's
product of an ordered pair once.  `axioms` reads each kind's law by its
name in this module as the suite is built, as the other suites do, so a
name patched here reaches every row of that law.  A table is keyed on the
coordinates of the ordered pair, the six residues of (P, Q), so a lookup
hashes ints rather than points and a law that is not commutative still
fails its row; it fills as the cases run, so the first failing case and its
text are those of the direct calls, and a product that raises is never
stored.  A table stores each result as the law returns it: the chart memo
below already makes equal results one point.  The tables are freed with
the context when run_suite returns.  Over the rationals and larger primes,
where products rarely repeat, a table is the law bound to the curve.

run_suite opens the curve's chart memo for the length of the run and closes
it in a `finally`, so every chart and law of the run builds one point per
slope and chart (see parametrization).  Under the same bound as the tables
it also opens the memo's residue front, which answers a slope pair by its
residues before the memo's key is computed.  The law tables stay beside
the memo: the memo saves the kernel, but a table also saves the law's own
checks and the composition of the slope pairs for each repeated pair, and
without the tables a warm `run_report(all)` takes about six times as long
over fp:5 and three times over fp:13 (CPython 3.11, 2 vCPUs).

`field_axioms` runs the checks that read only (u, v), commutativity, and
those that read only u, the identities, the reflected operators, the powers
and the inverse, once per distinct argument in a run.  Each verdict is kept
in a dict of the suite run keyed on the stored values, not on the elements,
so a fault in `FieldElement.__eq__` or `__hash__` cannot merge two cases.
Each part is read at its place in the chain of checks, and a raise is never
stored, so the first failing case and its text are those of checking every
triple in full.

The geometry suite's slope-cubic row asks the line oracle once per chord
line: many chords share a line, so a suite-local cache holds the points
`_curve_points_on_line` finds on it and the verdict of slope_cubic_check on
those same points (`geometry._slope_cubic_holds`), and each pair checks its
own P, Q and third point against that answer.  The split-line row asks the
oracle itself, once for each line of the plane.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .branches import BranchLabel, classify_branch
from .curve import Folium
from .errors import DivisionByZeroPoint, FieldTooLargeForScan, FoliumError, UnknownSuite
from .geometry import (
    _curve_points_on_line,
    _slope_cubic_holds,
    all_lines,
    chord_or_tangent,
    collinear3,
    geometric_mul,
    geometric_mul_via_vertex,
    line_curve_intersections,
    line_through,
    perpendicular_chord_check,
    slope_cubic,
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

# Sampled parameter pools start from these; a prime field keeps the integers.
_ANCHORS = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3), 3)


@dataclass
class PropertyResult:
    name: str
    instances: int
    passed: bool
    counterexample: str | None = None
    note: str | None = None


class _Prop(NamedTuple):
    """One property row: its cases are built, and its predicate run, only when `skip` is None."""

    name: str
    holds: Callable[..., bool]
    cases: Callable[[], Iterable[tuple]] = lambda: [()]
    skip: str | None = None
    exists: bool = False  # holds on one witness rather than on every case
    # the counterexample text of a failing case
    witness: Callable[..., str] = lambda *case: ", ".join(map(str, case)) or "(no arguments)"


def _gate(applies: bool, note: str) -> str | None:
    """The skip note of a row that does not apply to the field, None for one that does."""
    return None if applies else note


def _evaluate(prop: _Prop) -> PropertyResult:
    """Run one row; the only place a PropertyResult is built."""
    if prop.skip is not None:
        return PropertyResult(prop.name, 0, True, note=prop.skip)
    instances, counterexample, case = 0, None, None
    try:
        for case in prop.cases():
            instances += 1
            if bool(prop.holds(*case)) == prop.exists:
                if not prop.exists:
                    counterexample = prop.witness(*case)
                break
            case = None  # an error before the next case comes from building it
        else:
            if prop.exists:
                counterexample = "no witness found"
    except FieldTooLargeForScan as refusal:
        return PropertyResult(prop.name, 0, True, note=f"skipped: {refusal}")
    except FoliumError as fault:  # a domain error inside a row is that row's failure
        where = "building the cases" if case is None else prop.witness(*case)
        return PropertyResult(prop.name, instances, False, f"{where} raised {type(fault).__name__}: {fault}")
    if instances == 0 and not prop.exists:  # a universal row over no cases checked nothing
        return PropertyResult(prop.name, 0, True, note="skipped: no cases to check")
    return PropertyResult(prop.name, instances, counterexample is None, counterexample)


class _Context:
    """Deterministic case pools for one suite run."""

    def __init__(self, curve: Folium, seed: int, samples: int):
        self.curve = curve
        self.rng = random.Random(seed)
        self.samples = max(1, samples)
        self.finite = curve.field.characteristic != 0
        self.exhaustive = 0 < curve.field.characteristic <= EXHAUSTIVE_PAIR_BOUND
        # The run's law tables, one per law callable, where every ordered pair of points is a case: the one
        # bound of the tables and of the chart memo's residue front.  None over q and larger primes.
        self.tables = {} if self.exhaustive and curve.field.characteristic ** 2 <= EXHAUSTIVE_PAIR_BOUND else None
        self.affine_note = _gate(
            curve.field.has_unique_cube_root(),
            "skipped: the field has epsilon roots (no unique cube root of -1)",
        )
        self._params: dict = {}
        self._points: dict = {}

    def _draw(self):
        field = self.curve.field
        if self.finite:
            return field.random_element(self.rng)
        return field.element(Fraction(self.rng.randint(-12, 12), self.rng.randint(1, 8)))

    def params(self, kind: str) -> list:
        """Every residue of a field up to EXHAUSTIVE_PAIR_BOUND, else anchors plus seeded draws."""
        if kind not in self._params:
            field = self.curve.field
            if self.exhaustive:
                pool = [field.element(r) for r in range(field.characteristic)]
            else:
                pool = [field.element(v) for v in _ANCHORS if not self.finite or isinstance(v, int)]
                while len(pool) < self.samples:
                    pool.append(self._draw())
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

    def tuples(self, kind: str, arity: int, params: bool = False) -> Callable[[], list]:
        """A case builder: tuples of points (or of parameters) from the named pool, drawn once."""

        @functools.cache
        def build():
            pool = self.params(kind) if params else self.points(kind)
            bound = EXHAUSTIVE_PAIR_BOUND if arity <= 2 else EXHAUSTIVE_TRIPLE_BOUND
            return self.product_or_draws(pool, arity, bound, self.samples)

        return build

    def witness_pairs(self, kind: str) -> Callable[[], Iterable[tuple]]:
        """An existence row's case builder: the drawn point pairs, then, when those were
        sampled, the pool's own pairs in order (no rng, at most EXHAUSTIVE_PAIR_BOUND), so
        a witness that the draws missed is still found."""
        drawn = self.tuples(kind, 2)

        def build():
            cases, pool = drawn(), self.points(kind)
            if self.whole(pool, 2, EXHAUSTIVE_PAIR_BOUND):
                return cases
            ordered = itertools.product(pool, repeat=2)
            return itertools.chain(cases, itertools.islice(ordered, EXHAUSTIVE_PAIR_BOUND))

        return build

    def whole(self, pool: list, arity: int, bound: int) -> bool:
        """True when the cases are every tuple over a whole small field's pool."""
        return self.exhaustive and len(pool) ** arity <= bound

    def product_or_draws(self, pool: list, arity: int, bound: int, count: int) -> list:
        """All tuples over a whole small field when at most `bound`, else `count` seeded draws."""
        if self.whole(pool, arity, bound):
            return list(itertools.product(pool, repeat=arity))
        return [tuple(self.rng.choice(pool) for _ in range(arity)) for _ in range(count)]

    def singles(self, kind: str) -> Callable[[], list]:
        """A case builder: one-parameter cases over the named pool."""
        return lambda: [(t,) for t in self.params(kind)]


def _table(ctx: _Context, law: Callable) -> Callable:
    """`(P, Q) -> law(curve, P, Q)`: the run's lazy Cayley table of `law` where the context keeps
    tables, else the law bound to the curve (the module docstring describes the tables)."""
    curve = ctx.curve
    if ctx.tables is None:
        return functools.partial(law, curve)
    products = ctx.tables.setdefault(law, {})

    def product(P, Q):
        key = (P.x.value, P.y.value, P.z.value, Q.x.value, Q.y.value, Q.z.value)
        value = products.get(key)
        if value is None:
            value = products[key] = law(curve, P, Q)
        return value

    return product


# -- suites: each returns its rows, in report order -------------------------


def _suite_field(ctx: _Context) -> list:
    field = ctx.curve.field
    p = field.characteristic
    zero, one = field.zero, field.one

    def triples():
        if ctx.exhaustive and p**3 <= EXHAUSTIVE_TRIPLE_BOUND:
            return list(itertools.product(ctx.params("all"), repeat=3))
        return [
            tuple(field.random_element(ctx.rng) for _ in range(3))
            for _ in range(ctx.samples)
        ]

    # the run's verdicts of the checks that read (u, v) alone and u alone, keyed on the stored values
    commutes, singles = {}, {}

    def single(u):
        if u + zero != u or u * one != u or u + (-u) != zero:
            return False
        # the reflected operators and powers against the forward ones
        if 1 + u != u + 1 or 1 - u != one - u or 3 * u != u * 3 or u**3 != u * u * u:
            return False
        return u.is_zero() or (u * u.inverse() == one and 1 / u == one / u and u**-2 == one / (u * u))

    def axioms(u, v, w):
        if (u + v) + w != u + (v + w) or (u * v) * w != u * (v * w):
            return False
        pair = u.value, v.value
        if pair not in commutes:
            commutes[pair] = u + v == v + u and u * v == v * u
        if not commutes[pair] or u * (v + w) != u * v + u * w:
            return False
        if u.value not in singles:
            singles[u.value] = single(u)
        return singles[u.value]

    def epsilon_consistent():
        roots = field.epsilon_roots()
        if roots is None:
            return field.has_unique_cube_root()
        e1, e2 = roots
        # sum and product 1 make them the two roots of e^2 - e + 1 (Vieta)
        return (
            not field.has_unique_cube_root()
            and e1 * e1 * e1 == -one
            and e2 * e2 * e2 == -one
            and e1 * e2 == one
            and e1 + e2 == one
        )

    def cube_root_scan():
        # A residue scan, independent of the closed form behind has_unique_cube_root.
        cube_roots = sum(1 for x in range(p) if (x * x * x + 1) % p == 0)
        return field.has_unique_cube_root() == (cube_roots == 1)

    if ctx.finite:
        cube_root = _Prop(
            "cube_root_unique_matches_congruence",
            cube_root_scan,
            skip=_gate(p < 1 << 16, "skipped: p too large to scan"),
        )
    else:
        cube_root = _Prop("rationals_have_unique_cube_root", field.has_unique_cube_root)
    return [
        _Prop("field_axioms", axioms, triples),
        _Prop("epsilon_roots_consistent", epsilon_consistent),
        cube_root,
    ]


def _suite_count(ctx: _Context) -> list:
    curve = ctx.curve
    p = curve.field.characteristic
    return [
        _Prop(
            "point_count_equals_p",
            lambda points: len(points) == p and len(set(points)) == len(points),
            lambda: [(curve.enumerate_points(),)],
            skip=_gate(ctx.finite, "skipped: enumeration needs a finite prime field"),
            witness=lambda points: f"enumerated {len(points)} points, expected {p}",
        )
    ]


def _suite_parametrize(ctx: _Context) -> list:
    curve = ctx.curve
    params = ctx.singles("all")

    def image_and_enumeration():
        # one case per point of either set: the sets agree iff every case lies in both
        enumerated = set(curve.enumerate_points())
        image = {pbar(curve, t) for t in ctx.params("all")}
        return [(P in image, P in enumerated) for P in image | enumerated]

    def points():
        return [(P,) for P in ctx.points("all")]

    def vertex_of_a():
        # built from the printed a, not from three_a, which every chart, law and oracle reads
        v = curve.a * 3 / 2
        vertex = curve.point(v, v)
        return curve.contains(vertex) and curve.vertex() == vertex

    def affine_formula(t):
        # each chart against (3at/(1+t^3), 3at^2/(1+t^3)) by element arithmetic, or its swap: inside a run
        # p_affine and pbar answer one memo point, so they cannot check each other
        charted = p_affine(curve, t), pbar(curve, t), p_affine_prime(curve, t), pbarbar(curve, t)
        x = curve.three_a * t / (1 + t * t * t)
        P, swapped = curve.point(x, y := x * t), curve.point(y, x)
        return charted == (P, P, swapped, swapped)

    return [
        _Prop("pbar_round_trip", lambda t: pbar_inv(curve, pbar(curve, t)) == t, params),
        _Prop(
            "pbarbar_round_trip", lambda t: pbarbar_inv(curve, pbarbar(curve, t)) == t, params
        ),
        _Prop("pbar_lands_on_curve", lambda t: curve.contains(pbar(curve, t)), params),
        _Prop(
            "vertex_of_a_on_curve",
            vertex_of_a,
            skip=_gate(curve.field.characteristic != 2, "skipped: 2 = 0 in F_2, so 3a/2 does not exist"),
            witness=lambda: f"a = {curve.a}",
        ),
        _Prop(
            "pbar_image_is_whole_curve",
            lambda in_image, enumerated: in_image and enumerated,
            image_and_enumeration,
            skip=_gate(ctx.finite, "skipped: surjectivity scan needs a finite prime field"),
            witness=lambda *_: "image and enumeration disagree",
        ),
        _Prop("pbar_point_round_trip", lambda P: pbar(curve, pbar_inv(curve, P)) == P, points),
        _Prop("sigma_involution", lambda P: sigma(sigma(P)) == P, points),
        _Prop(
            "sigma_inverts_parameter",
            lambda t: sigma(pbar(curve, t)) == pbar(curve, t.inverse()),
            ctx.singles("nonzero"),
        ),
        _Prop("affine_matches_projective", affine_formula, ctx.singles("affine")),
        _Prop(
            "alpha_round_trip",
            lambda t: alpha(alpha_inv(t)) == t and alpha_inv(alpha(t)) == t,
            params,
        ),
    ]


def _law_axioms(ctx: _Context, kind: LawKind, named: Callable) -> list:
    curve = ctx.curve
    law = LAWS[kind]
    skip = ctx.affine_note if law.domain == "affine" else None
    neutral = functools.cache(lambda: law_neutral(curve, kind))
    # without tables there is nothing to share, and apply_law names the kind of each call to a tracer
    op = functools.partial(apply_law, curve, kind) if ctx.tables is None else _table(ctx, named)
    rows = [
        (
            "associative",
            lambda P, Q, R: op(op(P, Q), R) == op(P, op(Q, R)),
            ctx.tuples(law.domain, 3),
        ),
        ("commutative", lambda P, Q: op(P, Q) == op(Q, P), ctx.tuples(law.domain, 2)),
        # under fieldmul the node absorbs, and indeed O * V == O == P there
        ("neutral", lambda P: op(P, neutral()) == P, ctx.tuples(law.domain, 1)),
        (
            "inverse",
            lambda P: op(P, law_inverse(curve, kind, P)) == neutral(),
            ctx.tuples(law.units or law.domain, 1),
        ),
    ]
    return [_Prop(f"{kind.value}_{prop}", holds, cases, skip) for prop, holds, cases in rows]


def _suite_axioms(ctx: _Context) -> list:
    # each kind's law by its name in this module, read as the suite is built, so where the run keeps
    # tables these rows share them with every other suite, and a name patched here reaches them as well
    named = (proj_mul, proj_mul2, star_mul, add_south, add_west, south_mul, west_mul, folium_mul)
    return [row for kind, law in zip(LawKind, named) for row in _law_axioms(ctx, kind, law)]


def _suite_coincidence(ctx: _Context) -> list:
    tiny = ctx.curve.field.characteristic == 2
    dot, dot2 = _table(ctx, proj_mul), _table(ctx, proj_mul2)
    south, west = _table(ctx, add_south), _table(ctx, add_west)
    south_exotic, west_exotic = _table(ctx, south_mul), _table(ctx, west_mul)
    return [
        _Prop(
            "projmul_equals_projmul2",
            lambda P, Q: dot(P, Q) == dot2(P, Q),
            ctx.tuples("nonzero", 2),
        ),
        _Prop(
            "additive_laws_differ",
            lambda P, Q: south(P, Q) != west(P, Q),
            ctx.witness_pairs("all"),
            skip=_gate(not tiny, "skipped: the two points over F_2 admit a single structure"),
            exists=True,
        ),
        _Prop(
            "exotic_affine_laws_differ",
            lambda P, Q: south_exotic(P, Q) != west_exotic(P, Q),
            ctx.witness_pairs("affine"),
            skip=ctx.affine_note
            or _gate(not tiny, "skipped: the affine curve over F_2 is a single point"),
            exists=True,
        ),
    ]


def _chain_cases(ctx: _Context) -> list:
    pool = ctx.points("nonzero")
    cases = []
    for length in range(2, 8):
        count = max(10, ctx.samples // 20)
        cases.extend(ctx.product_or_draws(pool, length, EXHAUSTIVE_CHAIN_BOUND, count))
    return cases


def _chain_folds(star: Callable, dot: Callable) -> Callable[[tuple], tuple]:
    """A function from a chain of points to its left folds under the binary laws (star, dot).

    Each chain is folded from its first point.  Over the small fields where
    chains are exhaustive, `star` and `dot` are the suite's law tables, so a
    product that chains share is a lookup.
    """
    return lambda points: (functools.reduce(star, points), functools.reduce(dot, points))


def _suite_star(ctx: _Context) -> list:
    curve = ctx.curve
    infinity = curve.infinity
    vertex = curve.vertex()
    minus_one = -curve.field.one
    one = curve.field.one
    pairs = ctx.tuples("nonzero", 2)
    singles = ctx.tuples("nonzero", 1)
    star, dot = _table(ctx, star_mul), _table(ctx, proj_mul)
    fold = _chain_folds(star, dot)

    def chain_identities(*points):
        star_acc, dot_acc = fold(points)
        if len(points) % 2 == 0:
            return star_acc == dot(dot_acc, infinity) and dot_acc == star(star_acc, vertex)
        return star_acc == dot_acc

    def star_cube_locus(P):
        t = pbar_inv(curve, P)
        cubed = star(star(P, P), P)
        return (cubed == infinity) == (t * t * t == minus_one)

    # perp(pbar(s)) once per parameter of the suite run; the cache is freed with the rows
    perp_of = functools.cache(lambda s: perp(curve, pbar(curve, s)))

    def perp_parameter_collinearity(s1, s2, s3):
        points = [perp_of(s) for s in (s1, s2, s3)]
        return collinear3(curve, *points) == (s1 * s2 * s3 == one)

    return [
        _Prop("i_squared_is_v", lambda: dot(infinity, infinity) == vertex),
        _Prop("i_cubed_is_i", lambda: dot(dot(infinity, infinity), infinity) == infinity),
        _Prop("star_equals_dot_times_i", lambda P, Q: star(P, Q) == dot(dot(P, Q), infinity), pairs),
        _Prop("dot_equals_star_star_v", lambda P, Q: dot(P, Q) == star(star(P, Q), vertex), pairs),
        _Prop("parity_chain_identities", chain_identities, lambda: _chain_cases(ctx)),
        _Prop(
            "perp_equals_inverse_dot_i",
            lambda P: perp(curve, P) == dot(proj_inv(curve, P), infinity)
            and perp(curve, P) == star(proj_inv(curve, P), vertex),
            singles,
        ),
        _Prop("perp_involution", lambda P: perp(curve, perp(curve, P)) == P, singles),
        _Prop("i_perp_is_v", lambda: perp(curve, infinity) == vertex),
        _Prop("v_perp_is_i", lambda: perp(curve, vertex) == infinity),
        _Prop("star_cube_locus", star_cube_locus, singles),
        _Prop(
            "perp_parameter_collinearity",
            perp_parameter_collinearity,
            ctx.tuples("nonzero", 3, params=True),
        ),
    ]


def _suite_geometry(ctx: _Context) -> list:
    curve = ctx.curve
    pairs = ctx.tuples("nonzero", 2)
    dot, star = _table(ctx, proj_mul), _table(ctx, star_mul)

    def incident(P, Q):
        line = chord_or_tangent(curve, P, Q)
        third = third_intersection(curve, P, Q)
        return line.contains(third) and third != curve.origin

    @functools.cache
    def line_oracle(line):
        # the oracle's answer for one chord line, asked once per line of the suite run and freed with the rows
        found = set(_curve_points_on_line(curve, line))
        return found, _slope_cubic_holds(curve, line, slope_cubic(curve, line), found)

    def cubic_oracle(P, Q):
        # the chord's own three points must be among those the line oracle finds
        found, cubic_holds = line_oracle(chord_or_tangent(curve, P, Q))
        return {P, Q, third_intersection(curve, P, Q)} <= found and cubic_holds

    def split_line_identities(line):
        # the slope cubic's root points must be exactly the points the line oracle finds, each
        # at least once, and a cubic never has exactly two roots counted with multiplicity
        intersections = line_curve_intersections(curve, line)
        multiplicities = [mult for _, mult in intersections]
        if min(multiplicities, default=1) < 1 or sum(multiplicities) not in (0, 1, 3):
            return False
        if {point for point, _ in intersections} != set(_curve_points_on_line(curve, line)):
            return False
        if sum(multiplicities) != 3:
            return True  # not fully split over the base field
        triple = []
        for point, mult in intersections:
            triple.extend([point] * mult)
        p1, p2, p3 = triple
        identity = (p1.x * p2.x * p3.x + p1.y * p2.y * p3.y).is_zero()
        return identity and all(_collinearity_tests(curve, dot, star, *triple))

    return [
        _Prop(
            "geometric_mul_matches_projmul",
            lambda P, Q: geometric_mul(curve, P, Q) == dot(P, Q),
            pairs,
        ),
        _Prop(
            "vertex_route_matches_projmul",
            lambda P, Q: geometric_mul_via_vertex(curve, P, Q) == dot(P, Q),
            pairs,
        ),
        _Prop("third_intersection_incident", incident, pairs),
        _Prop(
            "slope_cubic_oracle",
            cubic_oracle,
            lambda: pairs() if ctx.finite else pairs()[: max(20, ctx.samples // 10)],
        ),
        _Prop(
            "split_lines_satisfy_identities",
            split_line_identities,
            lambda: [(line,) for line in all_lines(curve.field) if not line.through_origin],
            skip=_gate(
                0 < curve.field.characteristic <= LINE_SCAN_PRIME_BOUND,
                "skipped: exhaustive line enumeration needs a prime field with p <= 31",
            ),
        ),
    ]


def _collinearity_tests(curve: Folium, dot: Callable, star: Callable, P1, P2, P3) -> tuple:
    """The four tests that agree on three non-node points: collinear3, t1 t2 t3 = -1,
    and P1 P2 P3 = I under the binary laws dot (proj_mul) and star (star_mul)."""
    t_product = pbar_inv(curve, P1) * pbar_inv(curve, P2) * pbar_inv(curve, P3)
    return (
        collinear3(curve, P1, P2, P3),
        t_product == -curve.field.one,
        dot(dot(P1, P2), P3) == curve.infinity,
        star(star(P1, P2), P3) == curve.infinity,
    )


def _suite_collinearity(ctx: _Context) -> list:
    curve = ctx.curve
    dot, star = _table(ctx, proj_mul), _table(ctx, star_mul)

    def equivalences(P1, P2, P3):
        return len(set(_collinearity_tests(curve, dot, star, P1, P2, P3))) == 1

    def constructed(P1, P2):
        P3 = third_intersection(curve, P1, P2)
        line = chord_or_tangent(curve, P1, P2)
        return collinear3(curve, P1, P2, P3) and line.contains(P3)

    return [
        _Prop("collinearity_equivalences", equivalences, ctx.tuples("nonzero", 3)),
        _Prop("constructed_triples_collinear", constructed, ctx.tuples("nonzero", 2)),
        _Prop(
            "node_triples_collinear",
            lambda P, Q: collinear3(curve, curve.origin, P, Q),
            ctx.tuples("all", 2),
        ),
    ]


def _suite_southmul(ctx: _Context) -> list:
    curve = ctx.curve
    skip, O = ctx.affine_note, curve.origin
    tau_pairs = ctx.tuples("nonzero", 2, params=True)
    singles = ctx.tuples("affine", 1)
    south, west = _table(ctx, south_mul), _table(ctx, west_mul)

    def transport(mul, chart):
        def holds(tau1, tau2):
            lhs = mul(chart(curve, alpha(tau1)), chart(curve, alpha(tau2)))
            return lhs == chart(curve, alpha(tau1 * tau2))

        return holds

    return [
        _Prop("southmul_transport", transport(south, p_affine), tau_pairs, skip),
        _Prop("westmul_transport", transport(west, p_affine_prime), tau_pairs, skip),
        _Prop(
            "sigma_intertwines_south_west",
            lambda P, Q: sigma(south(P, Q)) == west(sigma(P), sigma(Q)),
            ctx.tuples("affine", 2),
            skip,
        ),
        _Prop("south_neutral_node", lambda P: south(P, O) == P, singles, skip),
        _Prop("west_neutral_node", lambda P: west(P, O) == P, singles, skip),
    ]


def _suite_perpendicular(ctx: _Context) -> list:
    curve = ctx.curve
    skip = _gate(not ctx.finite, "skipped: perpendicularity needs the ordered field of rationals")
    vertex = curve.vertex()
    one = curve.field.one

    def forward(t):
        P = pbar(curve, t)
        Q = third_intersection(curve, vertex, P)
        return (
            perpendicular_chord_check(curve, P, Q)
            and collinear3(curve, vertex, P, Q)
            and line_through(vertex, P).contains(Q)
        )

    def equivalence(t1, t2):
        P, Q = pbar(curve, t1), pbar(curve, t2)
        if perpendicular_chord_check(curve, P, Q) != collinear3(curve, vertex, P, Q):
            return False
        # the constructed perpendicular partner pbar(-1/t1) must land on the vertex chord
        R = pbar(curve, -t1.inverse())
        return perpendicular_chord_check(curve, P, R) and collinear3(curve, vertex, P, R)

    def pairs():
        return [
            (t1, t2)
            for (t1, t2) in ctx.tuples("nonzero_affine", 2, params=True)()
            if t1 != one and t2 != one
        ]

    return [
        _Prop(
            "vertex_chord_perpendicular",
            forward,
            lambda: [(t,) for t in ctx.params("nonzero_affine") if t != one],
            skip,
        ),
        _Prop("perpendicular_iff_vertex_collinear", equivalence, pairs, skip),
    ]


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
    skip = _gate(not ctx.finite, "skipped: branches need the ordered field of rationals")
    points = ctx.tuples("affine", 1)

    def swaps(P):
        return classify_branch(curve, sigma(P)) == _SIGMA_LABEL[classify_branch(curve, P)]

    def oracle(P):
        return classify_branch(curve, P) == _coordinate_label(curve, P)

    return [
        _Prop("sigma_swaps_branches", swaps, points, skip),
        _Prop("labels_match_coordinate_oracle", oracle, points, skip),
    ]


def _suite_fieldstructure(ctx: _Context) -> list:
    curve = ctx.curve
    origin = curve.origin
    param_pairs = ctx.tuples("all", 2, params=True)
    mul = _table(ctx, folium_mul)
    south, west = _table(ctx, add_south), _table(ctx, add_west)

    def transports(chart, add):
        def holds(u, v):
            P, Q = chart(curve, u), chart(curve, v)
            if chart(curve, u + v) != add(P, Q):
                return False
            return chart(curve, u * v) == mul(P, Q)

        return holds

    def node_inverse_rejected():
        try:
            folium_inv(curve, origin)
        except DivisionByZeroPoint:
            return True
        return False

    return [
        _Prop(
            "node_absorbs",
            lambda P: mul(origin, P) == origin and mul(P, origin) == origin,
            ctx.tuples("all", 1),
        ),
        _Prop(
            "distributivity_on_curve",
            lambda P, Q, R: mul(P, south(Q, R)) == south(mul(P, Q), mul(P, R)),
            ctx.tuples("all", 3),
        ),
        _Prop("pbar_transports_field_ops", transports(pbar, south), param_pairs),
        _Prop("pbarbar_transports_field_ops", transports(pbarbar, west), param_pairs),
        _Prop(
            "sigma_field_isomorphism",
            lambda P, Q: sigma(south(P, Q)) == west(sigma(P), sigma(Q))
            and sigma(mul(P, Q)) == mul(sigma(P), sigma(Q)),
            ctx.tuples("all", 2),
        ),
        _Prop("node_inverse_rejected", node_inverse_rejected),
    ]


def _runner(rows: Callable[[_Context], list]):
    """A suite callable(ctx) -> list[PropertyResult]: the suite's rows through `_evaluate`."""
    return lambda ctx: [_evaluate(prop) for prop in rows(ctx)]


SUITES = {
    "field": _runner(_suite_field),
    "count": _runner(_suite_count),
    "parametrize": _runner(_suite_parametrize),
    "axioms": _runner(_suite_axioms),
    "coincidence": _runner(_suite_coincidence),
    "star": _runner(_suite_star),
    "geometry": _runner(_suite_geometry),
    "collinearity": _runner(_suite_collinearity),
    "southmul": _runner(_suite_southmul),
    "perpendicular": _runner(_suite_perpendicular),
    "branch": _runner(_suite_branch),
    "fieldstructure": _runner(_suite_fieldstructure),
}


def run_suite(curve: Folium, name: str, seed: int = 0, samples: int = 1000) -> list:
    """Run one named suite (or `all`) and return its PropertyResults."""
    if name != "all" and name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise UnknownSuite(f"unknown suite {name!r}; choose from: {known}")
    ctx = _Context(curve, seed, samples)
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    curve._charted = {}  # the run's chart memo, read by parametrization._pair_point
    curve._front = None if ctx.tables is None else {}  # its residue front, where the run keeps tables
    try:
        return [result for suite in suites for result in suite(ctx)]
    finally:
        curve._charted = curve._front = None


def run_report(curve: Folium, name: str, seed: int = 0, samples: int = 1000) -> dict:
    """Machine-checkable report: {suite, field, a, properties: [...]}; deterministic under a fixed seed."""
    properties = [
        {key: value for key, value in asdict(result).items() if value is not None}
        for result in run_suite(curve, name, seed=seed, samples=samples)
    ]
    return {
        "suite": name,
        "field": curve.field.spec_string(),
        "a": str(curve.a),
        "properties": properties,
    }
