"""The suite runner: coverage, skips, determinism, and the report schema."""

import functools
import gc
import random
import weakref

import pytest

from descartes_folium import (
    FieldElement,
    Folium,
    ParameterAtInfinity,
    ProjectivePoint,
    UnknownSuite,
    add_south,
    add_west,
    apply_law,
    chord_or_tangent,
    field_from_spec,
    folium_mul,
    geometry,
    pbar,
    pbar_inv,
    proj_mul,
    star_mul,
    verify,
)
from descartes_folium.cli import main
from descartes_folium import laws
from descartes_folium.laws import LAWS, LawKind
from descartes_folium.verify import SUITES, run_report, run_suite
from helpers import prime_curve, rational_curve


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_over_f5(name):
    results = run_suite(prime_curve(5), name, seed=0, samples=60)
    assert results
    for result in results:
        assert result.passed, (result.name, result.counterexample)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_over_q(name):
    results = run_suite(rational_curve(2), name, seed=0, samples=60)
    assert results
    for result in results:
        assert result.passed, (result.name, result.counterexample)


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite(prime_curve(5), "nope")


def test_southmul_suite_skips_without_unique_cube_root():
    results = run_suite(prime_curve(7), "southmul", seed=0, samples=20)
    assert results
    for result in results:
        assert result.passed
        assert result.instances == 0
        assert "epsilon roots" in result.note


def test_count_suite_skips_over_rationals():
    (result,) = run_suite(rational_curve(1), "count", seed=0, samples=10)
    assert result.passed and result.instances == 0 and result.note


def test_report_schema():
    report = run_report(prime_curve(5), "coincidence", seed=3, samples=25)
    assert set(report) == {"suite", "field", "a", "properties"}
    assert report["suite"] == "coincidence"
    assert report["field"] == "fp:5"
    assert report["a"] == "1"
    for prop in report["properties"]:
        assert set(prop) <= {"name", "instances", "passed", "counterexample", "note"}
        assert {"name", "instances", "passed"} <= set(prop)


def test_report_deterministic_under_seed():
    one = run_report(rational_curve(1), "all", seed=7, samples=40)
    two = run_report(rational_curve(1), "all", seed=7, samples=40)
    assert one == two
    other_seed = run_report(rational_curve(1), "geometry", seed=8, samples=40)
    assert all(prop["passed"] for prop in other_seed["properties"])


def test_all_runs_every_suite():
    report = run_report(prime_curve(5), "all", seed=0, samples=30)
    names = {prop["name"] for prop in report["properties"]}
    assert "field_axioms" in names
    assert "point_count_equals_p" in names
    assert "projmul_equals_projmul2" in names
    assert "split_lines_satisfy_identities" in names
    assert len(names) == len(report["properties"])


def _failures(results):
    return [
        (result.name, result.instances, result.counterexample)
        for result in results
        if not result.passed
    ]


def test_forall_failure_reports_the_first_counterexample(monkeypatch):
    real = verify.proj_mul
    monkeypatch.setattr(verify, "proj_mul2", lambda curve, P, Q: real(curve, P, P))
    results = run_suite(prime_curve(5), "coincidence", seed=0, samples=30)
    assert _failures(results) == [
        ("projmul_equals_projmul2", 2, "(4 : 4 : 1), (4 : 3 : 1)")
    ]


def test_existence_failure_reports_no_witness(monkeypatch):
    monkeypatch.setattr(verify, "add_west", verify.add_south)
    results = run_suite(prime_curve(5), "coincidence", seed=0, samples=30)
    assert _failures(results) == [("additive_laws_differ", 25, "no witness found")]


def test_nullary_failure_reports_no_arguments(monkeypatch):
    monkeypatch.setattr(verify, "perp", lambda curve, P: P)
    failures = dict(
        (name, (instances, witness))
        for name, instances, witness in _failures(
            run_suite(prime_curve(5), "star", seed=0, samples=30)
        )
    )
    assert failures["i_perp_is_v"] == (1, "(no arguments)")
    assert failures["v_perp_is_i"] == (1, "(no arguments)")


def test_cli_prints_fail_line_and_exits_one(monkeypatch, capsys):
    real = verify.proj_mul
    monkeypatch.setattr(verify, "proj_mul2", lambda curve, P, Q: real(curve, P, P))
    code = main(["verify", "--field", "fp:5", "--suite", "coincidence", "--samples", "30"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == (
        "FAIL projmul_equals_projmul2 (2 instances) — counterexample: (4 : 4 : 1), (4 : 3 : 1)"
    )
    assert lines[-1] == "suite=coincidence field=fp:5 a=1: 2 passed, 1 failed, 0 skipped"


def test_domain_error_in_a_row_is_that_rows_failure(monkeypatch, capsys):
    def refusing(curve, P, Q):
        raise ParameterAtInfinity("injected fault")

    monkeypatch.setattr(verify, "proj_mul2", refusing)
    witness = "(4 : 4 : 1), (4 : 4 : 1) raised ParameterAtInfinity: injected fault"
    results = run_suite(prime_curve(5), "coincidence", seed=0, samples=30)
    assert _failures(results) == [("projmul_equals_projmul2", 1, witness)]
    code = main(["verify", "--field", "fp:5", "--suite", "coincidence", "--samples", "30"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"FAIL projmul_equals_projmul2 (1 instances) — counterexample: {witness}"
    )


def test_domain_error_while_building_cases_is_a_failure(monkeypatch):
    def refusing(curve, t):
        raise ParameterAtInfinity("injected fault")

    monkeypatch.setattr(verify, "pbar", refusing)
    results = {r.name: r for r in run_suite(prime_curve(5), "coincidence", seed=0, samples=30)}
    result = results["projmul_equals_projmul2"]
    assert (result.passed, result.instances) == (False, 0)
    assert result.counterexample == "building the cases raised ParameterAtInfinity: injected fault"


def test_a_field_fault_gives_failures_not_an_aborted_report(monkeypatch):
    # + and - trade places; the laws compose int slope pairs, so the fault reaches them only through the
    # rows' own element arithmetic, as t^3 + 1 that lets t = -1 into the affine pool of p_affine
    add, sub = FieldElement.__add__, FieldElement.__sub__
    monkeypatch.setattr(FieldElement, "__sub__", add)
    monkeypatch.setattr(FieldElement, "__add__", sub)
    report = run_report(prime_curve(5), "all", seed=0, samples=40)
    failed = [prop for prop in report["properties"] if not prop["passed"]]
    assert any("raised ParameterAtInfinity" in prop["counterexample"] for prop in failed)


def test_pools_are_sampled_above_the_exhaustive_bound():
    results = {r.name: r for r in run_suite(prime_curve(65537), "parametrize", seed=0, samples=20)}
    assert 0 < results["pbar_round_trip"].instances <= 20
    assert results["pbar_round_trip"].passed
    image = results["pbar_image_is_whole_curve"]
    assert (image.instances, image.passed) == (0, True)
    assert image.note == "skipped: point enumeration requires p <= 10000"


def test_existence_rows_fall_back_to_the_pool_when_draws_miss():
    # with one sample over q, the single drawn pair has addsouth = addwest at seed 0,
    # and southmul = westmul at seed 7; the ordered pool still yields a witness
    for seed in (0, 7):
        results = run_suite(rational_curve(1), "coincidence", seed=seed, samples=1)
        assert _failures(results) == []


def test_sampled_existence_failure_searches_the_whole_pool(monkeypatch):
    monkeypatch.setattr(verify, "add_west", verify.add_south)
    results = run_suite(rational_curve(1), "coincidence", seed=0, samples=1)
    # one drawn pair, then every pair over the eight anchor parameters
    assert _failures(results) == [("additive_laws_differ", 1 + 8 * 8, "no witness found")]


def test_pbar_lands_on_curve_ignores_the_mark(monkeypatch):
    def wrong_pbar(curve, t):  # y = 3at in place of 3at^2, still marked as built on `curve`
        t = curve.field.element(t)
        x = curve.three_a * t
        return ProjectivePoint._marked(x, x, t * t * t + 1, curve)

    curve = rational_curve(1)
    assert wrong_pbar(curve, -1).on is curve and not curve.contains(wrong_pbar(curve, -1))
    monkeypatch.setattr(verify, "pbar", wrong_pbar)
    results = {r.name: r for r in run_suite(curve, "parametrize", seed=0, samples=30)}
    # anchors 0 and 1 give the node and the vertex, both on the curve; -1 gives (1 : 1 : 0)
    landed = results["pbar_lands_on_curve"]
    assert (landed.passed, landed.instances, landed.counterexample) == (False, 3, "-1")


def test_universal_row_without_cases_is_a_skip():
    empty = verify._Prop("empty_universal", lambda P: True, lambda: [])
    result = verify._evaluate(empty)
    assert (result.instances, result.passed, result.note) == (0, True, "skipped: no cases to check")
    # an existence row over no cases still fails: nothing witnessed it
    missing = verify._evaluate(empty._replace(exists=True))
    assert (missing.passed, missing.counterexample, missing.note) == (False, "no witness found", None)


def test_no_vacuous_pass_over_q_with_one_sample():
    # one sample over q draws a single parameter pair, and it holds the vertex parameter 1,
    # which the row excludes
    rows = {p["name"]: p for p in run_report(rational_curve(1), "all", seed=0, samples=1)["properties"]}
    row = rows["perpendicular_iff_vertex_collinear"]
    assert row == {
        "name": "perpendicular_iff_vertex_collinear",
        "instances": 0,
        "passed": True,
        "note": "skipped: no cases to check",
    }
    assert all(p["instances"] > 0 for p in rows.values() if "note" not in p)


def _folds_from_scratch(curve, chain):
    star_acc = dot_acc = chain[0]
    for point in chain[1:]:
        star_acc = star_mul(curve, star_acc, point)
        dot_acc = proj_mul(curve, dot_acc, point)
    return star_acc, dot_acc


def _spec_curve(spec):
    # built inside a test, so a field that refuses to build fails that case, not the module's collection
    field = field_from_spec(spec)
    return Folium(field, field.one)


@pytest.mark.parametrize("spec, chains", [("fp:5", 5466), ("fp:13", 1912), ("q", 60)], ids=["fp:5", "fp:13", "q"])
def test_shared_chain_folds_match_folds_from_scratch(spec, chains):
    # the parity-chain row holds for any chain, so it cannot see a fold of the wrong chain; this can.
    # The folder keeps no state; the out-of-order and copied-chain sections below stay as regression
    # checks against a folder that reuses an earlier chain's folds
    curve = _spec_curve(spec)
    ctx = verify._Context(curve, 0, 40)
    cases = verify._chain_cases(ctx)
    assert len(cases) == chains
    star, dot = verify._table(ctx, star_mul), verify._table(ctx, proj_mul)
    fold = verify._chain_folds(star, dot)
    assert [fold(chain) for chain in cases] == [_folds_from_scratch(curve, chain) for chain in cases]
    # out of order: a prefix after the longer chain, a chain after itself, and after its own prefix
    shuffled = random.Random(5).sample(cases, min(300, len(cases)))
    shuffled += [cases[-1], cases[-1][:3], cases[-1][:3], cases[-1]]
    fold = verify._chain_folds(star, dot)
    assert [fold(chain) for chain in shuffled] == [_folds_from_scratch(curve, chain) for chain in shuffled]
    # equal copies of the pool points fold as the originals do: each copied chain runs after its
    # original, and a chain that starts with a copy after it
    originals = cases[:: max(1, len(cases) // 300)]
    copies = [tuple(ProjectivePoint(P.x, P.y, P.z) for P in chain) for chain in originals]
    assert copies == originals and all(c[0] is not o[0] for c, o in zip(copies, originals))
    chains = [chain for original, copy in zip(originals, copies) for chain in (original, copy, copy[:1] + original[1:])]
    fold = verify._chain_folds(star, dot)
    assert [fold(chain) for chain in chains] == [_folds_from_scratch(curve, chain) for chain in chains]


def _difference_law(calls):
    # pbar(t - t'): not commutative, and it counts the products it computes
    def law(curve, P, Q):
        calls.append((P, Q))
        return pbar(curve, pbar_inv(curve, P) - pbar_inv(curve, Q))

    return law


@pytest.mark.parametrize("p", [5, 13])
def test_law_tables_answer_as_the_law_does(p, monkeypatch):
    curve = prime_curve(p)
    ctx = verify._Context(curve, 0, 40)
    laws = [(star_mul, "nonzero"), (proj_mul, "nonzero"), (folium_mul, "all"), (add_south, "all"), (add_west, "all")]
    for kind, law in LAWS.items():
        if law.domain != "affine" or curve.field.has_unique_cube_root():
            laws.append(((lambda c, P, Q, kind=kind: apply_law(c, kind, P, Q)), law.domain))
    for law, domain in laws:
        table = verify._table(ctx, law)
        points = ctx.points(domain)
        for P in points:
            for Q in points:
                assert table(P, Q) == law(curve, P, Q), (law, P, Q)
                assert table(P, Q) is table(P, Q)
    # the ordered pair is the key: (P, Q) and (Q, P) are computed apart, each once; the table
    # fills inside a run, as a suite's table does, with the chart memo open
    def ordered_pairs(ctx):
        calls = []
        difference = verify._table(ctx, _difference_law(calls))
        points = ctx.points("all")
        for _ in range(2):
            for P in points:
                for Q in points:
                    assert difference(P, Q) == pbar(curve, pbar_inv(curve, P) - pbar_inv(curve, Q))
        assert len(calls) == len(set(calls)) == len(points) ** 2
        # equal results share one point: the memo's point for their slope
        assert difference(points[1], points[0]) is difference(points[2], points[1])
        return []

    monkeypatch.setitem(SUITES, "ordered_pairs", ordered_pairs)
    assert run_suite(curve, "ordered_pairs") == []


def test_law_tables_and_the_residue_front_are_freed_with_their_run(monkeypatch):
    # the suites of one run share its tables, and nothing outlives the run: with no collection pass,
    # a whole run's context (its tables with it) and every table it built are freed by reference
    # counting when run_suite returns, and the chart memo and its front are closed
    contexts, built = [], []
    real_context, real_table = verify._Context, verify._table

    def context(*args):
        ctx = real_context(*args)
        contexts.append(weakref.ref(ctx))
        return ctx

    def table(ctx, law):
        product = real_table(ctx, law)
        built.append(weakref.ref(product))
        return product

    monkeypatch.setattr(verify, "_Context", context)
    monkeypatch.setattr(verify, "_table", table)
    curve = prime_curve(13)
    gc.disable()
    try:
        first = run_suite(curve, "all", 0, 40)
        assert len(contexts) == 1 and contexts[0]() is None
        assert len(built) > 8 and all(ref() is None for ref in built)
        assert curve._charted is None and curve._front is None
        assert run_suite(curve, "all", 0, 40) == first and contexts[1]() is None
    finally:
        gc.enable()
    ctx = real_context(curve, 0, 40)
    star = real_table(ctx, star_mul)
    P, Q = ctx.points("nonzero")[1:3]
    assert real_table(ctx, star_mul)(P, Q) is star(P, Q) and len(ctx.tables[star_mul]) == 1


@pytest.mark.parametrize("spec", ["q", "fp:179", "fp:1009", "fp:65537"])
def test_law_tables_store_nothing_where_pairs_are_sampled(spec):
    # past p = 173 the pairs of points are seeded draws, so products rarely repeat
    curve = _spec_curve(spec)
    ctx = verify._Context(curve, 0, 20)
    calls = []
    difference = verify._table(ctx, _difference_law(calls))
    assert isinstance(difference, functools.partial) and difference.args == (curve,)
    P, Q = ctx.points("all")[1:3]
    assert difference(P, Q) == difference(P, Q) != difference(Q, P)
    assert len(calls) == 3


def test_law_tables_hold_up_to_the_last_prime_with_whole_pairs():
    assert 173**2 <= verify.EXHAUSTIVE_PAIR_BOUND < 179**2
    assert not isinstance(verify._table(verify._Context(prime_curve(173), 0, 20), star_mul), functools.partial)


def test_the_slope_cubic_row_asks_the_line_oracle_once_per_chord_line(monkeypatch):
    # over fp:31 the 900 chord pairs lie on far fewer lines; each line's answer is computed once, and the
    # slope-cubic verdict reads the points the row already holds, so the oracle runs once per line: for the
    # 166 chord lines and the 961 lines the split-line row scans over fp:31, and for the 20 chords over q
    real_holds, real_points = verify._slope_cubic_holds, verify._curve_points_on_line
    for curve, rows, calls in ((prime_curve(31), 900, 961 + 166), (rational_curve(1), 20, 20)):
        checked, asked = [], []

        def holds(curve, line, cubic, points):
            checked.append(line)
            return real_holds(curve, line, cubic, points)

        def points_on_line(curve, line):
            asked.append(line)
            return real_points(curve, line)

        monkeypatch.setattr(verify, "_slope_cubic_holds", holds)
        for module in (verify, geometry):
            monkeypatch.setattr(module, "_curve_points_on_line", points_on_line)
        results = {row.name: row for row in run_suite(curve, "geometry", seed=0, samples=40)}
        pairs = verify._Context(curve, 0, 40).tuples("nonzero", 2)()[:rows]
        lines = {chord_or_tangent(curve, P, Q) for P, Q in pairs}
        assert results["slope_cubic_oracle"].passed and results["slope_cubic_oracle"].instances == len(pairs) == rows
        assert len(checked) == len(set(checked)) == len(lines) <= len(pairs)
        assert set(checked) == lines
        assert len(asked) == calls


_LAW_NAMES = ("proj_mul", "proj_mul2", "star_mul", "add_south", "add_west", "south_mul", "west_mul", "folium_mul")


@pytest.mark.parametrize(
    "name, p",
    [("star", 13), ("geometry", 13), ("star", 5), ("all", 13), ("all", 5)],
    ids=["star", "geometry", "star-fp:5", "all", "all-fp:5"],
)
def test_a_suite_computes_each_product_of_an_ordered_pair_once(name, p, monkeypatch):
    # over fp:5 and fp:13 every row reads its binary laws from the run's tables, so each law
    # meets an ordered pair of points once in a run, whichever suites name it; the star suite
    # asks for all (p - 1)^2 pairs of dot and star.  Over fp:5 the parity chains are exhaustive,
    # so a fold that bypassed the tables fails here
    calls = {law: [] for law in _LAW_NAMES}
    for law, pairs in calls.items():
        real = getattr(verify, law)

        def counted(curve, P, Q, real=real, pairs=pairs):
            pairs.append((P, Q))
            return real(curve, P, Q)

        monkeypatch.setattr(verify, law, counted)
    assert all(row.passed for row in run_suite(prime_curve(p), name, seed=0, samples=40))
    assert calls["star_mul"] and calls["proj_mul"]
    for law, pairs in calls.items():
        assert len(pairs) == len(set(pairs)), (law, len(pairs), len(set(pairs)))
    if name == "star":
        assert len(calls["star_mul"]) == len(calls["proj_mul"]) == (p - 1) ** 2
    if name == "all":  # fp:13 has epsilon roots, so its affine rows skip
        assert [law for law, pairs in calls.items() if not pairs] == ([] if p == 5 else ["south_mul", "west_mul"])


@pytest.mark.parametrize("law", _LAW_NAMES)
def test_the_axioms_rows_read_each_law_by_its_name_here(law, monkeypatch):
    # a law patched at its name in verify fails the four axioms rows of its own kind, and only those
    def refusing(curve, P, Q):
        raise ParameterAtInfinity("injected fault")

    monkeypatch.setattr(verify, law, refusing)
    failed = {result.name for result in run_suite(prime_curve(5), "axioms", seed=0, samples=20) if not result.passed}
    kind = dict(zip(_LAW_NAMES, LawKind))[law]
    assert failed == {f"{kind.value}_{row}" for row in ("associative", "commutative", "neutral", "inverse")}
    # and the name is the law of that kind: pbar(2) o pbar(3) as apply_law gives it
    curve = prime_curve(5)
    P, Q = pbar(curve, 2), pbar(curve, 3)
    assert getattr(laws, law)(curve, P, Q) == apply_law(curve, kind, P, Q)


def test_a_raising_product_fails_its_row_at_the_same_case(monkeypatch):
    # the tables fill as the cases run, so the first raising product is met in the same
    # case, with the same count and text, as when every product was a direct call
    real = LAWS[LawKind.PROJ_MUL]

    def op(n1, d1, n2, d2):  # the slopes t1 = 5 and t2 = 7 over fp:13
        if (n1 - 5 * d1) % 13 == 0 and (n2 - 7 * d2) % 13 == 0:
            raise ParameterAtInfinity("injected fault")
        return real.op(n1, d1, n2, d2)

    monkeypatch.setitem(LAWS, LawKind.PROJ_MUL, real._replace(op=op))
    results = run_suite(prime_curve(13), "axioms", seed=0, samples=40)
    raised = "raised ParameterAtInfinity: injected fault"
    assert _failures(results) == [
        ("projmul_associative", 55, f"(8 : 8 : 1), (6 : 4 : 1), (10 : 5 : 1) {raised}"),
        ("projmul_commutative", 55, f"(6 : 4 : 1), (10 : 5 : 1) {raised}"),
    ]


def test_field_axioms_checks_each_element_once_per_run(monkeypatch):
    # over fp:13 the 2,197 triples read each of the 12 nonzero residues as u 169 times, but its
    # checks run once: one u.inverse() and one inside u**-2; the other two rows call no inverse
    real, inverted = FieldElement.inverse, []

    def inverse(self):
        inverted.append(self.value)
        return real(self)

    monkeypatch.setattr(FieldElement, "inverse", inverse)
    results = {row.name: row for row in run_suite(prime_curve(13), "field", seed=0, samples=40)}
    assert all(row.passed for row in results.values())
    assert results["field_axioms"].instances == 2197
    assert len(inverted) == 24 and sorted(set(inverted)) == list(range(1, 13))


def test_a_raising_single_element_check_fails_field_axioms_at_the_same_case(monkeypatch):
    # a check that raises stores no verdict: the row fails at the first case that reads u = 5, by its raise
    real = FieldElement.inverse

    def inverse(self):
        if self.value == 5:
            raise ParameterAtInfinity("injected fault")
        return real(self)

    monkeypatch.setattr(FieldElement, "inverse", inverse)
    results = run_suite(prime_curve(13), "field", seed=0, samples=40)
    assert _failures(results) == [("field_axioms", 846, "5, 0, 0 raised ParameterAtInfinity: injected fault")]
