"""Exact field arithmetic, the element store of a prime field, epsilon roots, and the cube-root predicate."""

import ast
import copy
import gc
import itertools
import math
import operator
import pathlib
import pickle
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descartes_folium import (
    BadLiteral,
    DivisionByZero,
    Field,
    FieldElement,
    Folium,
    MixedFields,
    PrimeField,
    Rationals,
    field_from_spec,
)
from descartes_folium import fields
from descartes_folium.fields import ENUMERATION_BOUND, MILLER_RABIN_BOUND, is_prime
from descartes_folium.parametrization import pbar, pbar_inv
from descartes_folium.verify import run_report
from descartes_folium.plotting import parse_rational


def test_rational_arithmetic_example():
    q = Rationals()
    total = q.element(Fraction(2, 3)) + q.element(Fraction(1, 6))
    assert total == q.element(Fraction(5, 6))


def test_prime_field_inverse_example():
    f5 = PrimeField(5)
    assert f5.element(2).inverse() == f5.element(3)
    assert f5.element(2) * f5.element(3) == f5.one


def test_prime_field_product_example():
    f7 = PrimeField(7)
    assert f7.element(4) * f7.element(5) == f7.element(6)


def test_rationals_stored_reduced():
    q = Rationals()
    value = (q.element(Fraction(4, 6)) - q.element(Fraction(7, -3))).value
    assert value.denominator > 0
    assert Fraction(value.numerator, value.denominator) == value
    assert q.element(Fraction(2, -4)).value == Fraction(-1, 2)


def test_residues_stored_canonical():
    f7 = PrimeField(7)
    assert f7.element(-1).value == 6
    assert f7.element(70).value == 0
    assert (-f7.element(3)).value == 4


# Over F_p each residue's element is stored once: every constructor answers the stored one.
STORED_OPERATORS = {
    "a + b": (operator.add, operator.add),
    "a - b": (operator.sub, operator.sub),
    "a * b": (operator.mul, operator.mul),
    "1 + a": (lambda a, b: 1 + a, lambda u, v: 1 + u),
    "5 - a": (lambda a, b: 5 - a, lambda u, v: 5 - u),
    "2 * a": (lambda a, b: 2 * a, lambda u, v: 2 * u),
    "-a": (lambda a, b: -a, lambda u, v: -u),
    "a ** 5": (lambda a, b: a**5, lambda u, v: u**5),
}


def test_every_constructor_answers_the_stored_element_over_fp13():
    field, p = PrimeField(13), 13
    stored = [field.element(r) for r in range(p)]
    for a, b in itertools.product(stored, repeat=2):
        for name, (op, reference) in STORED_OPERATORS.items():
            assert op(a, b) is stored[reference(a.value, b.value) % p], (name, a, b)
        if b.value:
            expected = stored[a.value * pow(b.value, -1, p) % p]
            assert a / b is expected and (a.value / b) is expected, (a, b)
            assert b.inverse() is stored[pow(b.value, -1, p)] and b**-2 is stored[pow(b.value, -2, p)]
    assert field.zero is stored[0] and field.one is stored[1]
    assert field.element(27) is field.element(stored[1]) is field.from_literal(" 27 ") is stored[1]
    rng, twin = random.Random(4), random.Random(4)
    assert all(field.random_element(rng) is stored[twin.randrange(p)] for _ in range(20))
    assert all(root is stored[root.value] for root in field.epsilon_roots())
    # the pair kernel, the quotient of the inverse chart and the scaling of a raw point
    curve = Folium(field, 2)
    for t in range(p):
        point, w = pbar(curve, t), (1 + t**3) % p
        if w:
            expected = (stored[6 * t * pow(w, -1, p) % p], stored[6 * t * t * pow(w, -1, p) % p], stored[1])
        else:
            expected = (stored[1], stored[t], stored[0])
        assert all(c is e for c, e in zip((point.x, point.y, point.z), expected)), t
        assert pbar_inv(curve, point) is stored[t]
    scaled = curve.point(4, 6, 2)
    assert all(c is e for c, e in zip((scaled.x, scaled.y, scaled.z), (stored[2], stored[3], stored[1])))


def test_a_warm_report_over_fp13_builds_no_element(monkeypatch):
    curve = Folium(PrimeField(13), 1)
    first = run_report(curve, "all", 1, 200)
    built = []
    real = FieldElement.__init__

    def init(self, field, value):
        built.append((field, value))
        real(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", init)
    assert run_report(curve, "all", 1, 200) == first
    assert built == []


def test_a_field_within_the_bound_stores_every_element_and_a_larger_one_builds_them():
    # 9973 and 10007 are the primes on either side of the bound
    below, above = PrimeField(9973), PrimeField(10007)
    assert 9973 <= ENUMERATION_BOUND < 10007
    assert [element.value for element in below._elements] == list(range(9973))
    assert all(element.field is below for element in below._elements)
    assert below.element(-1) is below._elements[9972] and below.element(-1) * 2 is below._elements[9971]
    assert above._elements == () and Rationals()._elements == ()
    for r in (0, 1, 5000, 10006):
        element, again = above.element(r), above.element(r)
        assert element is not again and element == again and hash(element) == hash(again)
        assert (element + 1).value == (r + 1) % 10007 and (element * element).value == r * r % 10007
        assert (-element).value == -r % 10007 and (element - again) == above.zero


def test_an_element_is_given_its_field_and_value_only_in_its_init():
    # a stored element is shared by every operation that yields its residue, so nothing may change it
    writes = []
    for path in sorted(pathlib.Path(fields.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "setattr" not in source, path.name
        tree = ast.parse(source)
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in ("field", "value"):
                scopes, scope = [], node
                while (scope := getattr(scope, "parent", None)) is not None:
                    if isinstance(scope, (ast.ClassDef, ast.FunctionDef)):
                        scopes.insert(0, scope.name)
                writes.append((path.name, ".".join(scopes), ast.unparse(node)))
    assert sorted(writes) == [
        ("curve.py", "Folium.__init__", "self.field"),  # the curve's field, not an element's
        ("fields.py", "FieldElement.__init__", "self.field"),
        ("fields.py", "FieldElement.__init__", "self.value"),
    ]
    assert FieldElement.__slots__ == ("field", "value") and not hasattr(FieldElement(Rationals(), 0), "__dict__")


# Every operator form against plain int or Fraction arithmetic, over Q and over F_p
# for the smallest prime, two small ones and a 61-bit Mersenne prime.  Each test case
# builds its own field, so a fault in is_prime fails only the moduli it reaches.
OPERATOR_MODULI = (2, 5, 13, 2**61 - 1)


def _plain(field):
    """Field values, int or Fraction operands, and the plain reduce and divide to compare with."""
    p = field.characteristic
    if p == 0:
        values = [Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(22, 7), Fraction(10**20, 3)]
        operands = [-7, 0, 1, 3, 10**20, Fraction(-5, 8), Fraction(9, 4)]
        return values, operands, Fraction, lambda x, y: Fraction(x) / y
    values = sorted({0, 1, 2 % p, p // 2, p - 1, 12345 % p})
    operands = [-7, 0, 1, 3, p + 4, 10**20]
    return values, operands, lambda x: x % p, lambda x, y: x * pow(y, -1, p) % p


def _check_operator_forms(field):
    """Every operator form on the field's values against the plain arithmetic of `_plain`."""
    values, operands, reduce, divide = _plain(field)

    def check(result, expected):
        assert isinstance(result, FieldElement) and result.field == field
        assert type(result.value) is (int if field.characteristic else Fraction)
        assert result.value == reduce(expected), (field, result, expected)

    for x in values:
        a = field.element(x)
        for y in values:
            b = field.element(y)
            check(a + b, x + y)
            check(a - b, x - y)
            check(a * b, x * y)
            if y:
                check(a / b, divide(x, y))
        check(-a, -x)
        for k in range(4):
            check(a**k, x**k)
        if x:
            check(a.inverse(), divide(1, x))
            for k in range(1, 4):
                check(a**-k, divide(1, x**k))
        for n in operands:
            check(a + n, x + n)
            check(n + a, n + x)
            check(a - n, x - n)
            check(n - a, n - x)
            check(a * n, x * n)
            check(n * a, n * x)
            if reduce(n):
                check(a / n, divide(x, n))
            if x:
                check(n / a, divide(n, x))


def test_operator_coverage():
    _check_operator_forms(Rationals())


@pytest.mark.parametrize("p", OPERATOR_MODULI, ids=lambda p: f"fp:{p}")
def test_operator_coverage_over_prime_fields(p):
    _check_operator_forms(PrimeField(p))


def test_constructor_rejects_char_three():
    with pytest.raises(ValueError):
        PrimeField(3)


@pytest.mark.parametrize("bad", [0, 1, -5, 4, 9, 15, 2**20])
def test_constructor_rejects_non_primes(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


@pytest.mark.parametrize("bad, shown", [(7.9, "7.9"), ("13", "'13'"), (None, "None")])
def test_constructor_rejects_a_modulus_that_is_not_an_int(bad, shown):
    # int() would truncate 7.9 to fp:7 and parse "13" as fp:13
    live = PrimeField(13)
    with pytest.raises(BadLiteral, match=f"^modulus must be an int, got {re.escape(shown)}$"):
        PrimeField(bad)
    assert PrimeField(13) is live


def test_both_fields_are_fields():
    assert isinstance(Rationals(), Field)
    assert isinstance(PrimeField(5), Field)


def test_is_prime_helper():
    known_primes = [2, 3, 5, 7, 11, 101, 997, 65521, 2**31 - 1]
    assert all(is_prime(p) for p in known_primes)
    assert not any(is_prime(n) for n in [1, 4, 9, 49, 121, 169, 1000003 * 3])


@pytest.mark.parametrize(
    "composite",
    # 2^32 + 1 = 641 * 6700417, two strong pseudoprimes to small bases, a Carmichael number
    [4294967297, 3215031751, 3825123056546413051, 561],
)
def test_is_prime_rejects_pseudoprimes(composite):
    assert not is_prime(composite)
    with pytest.raises(ValueError, match=f"{composite} is not prime"):
        PrimeField(composite)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(min_value=-10, max_value=10**6))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == _trial_division(n)


def test_miller_rabin_runs_within_the_hypotheses_of_its_theorem():
    # The first 13 primes as bases decide every n below psi_13, the least strong
    # pseudoprime to all of them (Sorenson and Webster); psi_13 itself must be refused.
    psi_13 = 3_317_044_064_679_887_385_961_981
    assert psi_13 == 1_287_836_182_261 * 2_575_672_364_521
    assert fields._MILLER_RABIN_BASES == tuple(itertools.islice(filter(_trial_division, itertools.count()), 13))
    assert not is_prime(psi_13 - 1)
    with pytest.raises(BadLiteral, match=f"^primality is decided only below {psi_13}, got {psi_13}$"):
        is_prime(psi_13)


def test_modulus_beyond_the_primality_bound_rejected():
    with pytest.raises(ValueError, match="primality is decided only below"):
        PrimeField(2**89 - 1)


def test_large_prime_modulus_checked():
    assert is_prime(2**61 - 1)
    big = PrimeField(2**61 - 1)
    assert (big.element(2) ** 62).value == 2
    e1, e2 = big.epsilon_roots()
    assert e1 * e1 * e1 == -big.one
    assert e2 * e2 * e2 == -big.one
    assert e1 * e2 == big.one


BINARY_OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_mixed_fields_rejected():
    f5, f7, q = PrimeField(5), PrimeField(7), Rationals()
    for a, b in [(f5.element(1), f7.element(1)), (q.element(1), f5.element(1)), (f5.element(2), q.element(3))]:
        for op in BINARY_OPERATORS:
            with pytest.raises(MixedFields, match=f"^cannot combine elements of {a.field} and {b.field}$"):
                op(a, b)
        with pytest.raises(MixedFields, match=re.escape(f"{b!r} does not belong to {a.field}")):
            a.field.element(b)
    assert f5.element(2) != f7.element(2)


def test_every_operator_form_rejects_an_element_of_another_field():
    # the reflected forms too, called directly: the forward form raises before Python would
    # try them; int and Fraction operands on both sides are test_operator_coverage's
    f5, f7, q = PrimeField(5), PrimeField(7), Rationals()
    names = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv")
    for a, b in itertools.permutations([f5.element(2), f7.element(2), q.element(2)], 2):
        for name in names:
            with pytest.raises(MixedFields, match=f"^cannot combine elements of {a.field} and {b.field}$"):
                getattr(a, f"__{name}__")(b)


def test_the_rational_quotient_is_fraction_division():
    # the quotient is built from the cross products of the ints; its sign must land on the
    # numerator, so the divisors run over both signs
    q = Rationals()
    grid = [Fraction(n, d) for n in (-10**20, -12, -7, -1, 0, 1, 3, 9) for d in (1, 2, 9, 10**9 + 7)]
    for u in grid:
        for v in grid:
            if v == 0:
                with pytest.raises(DivisionByZero):
                    fields._quotient(q, u, v)
                continue
            quotient, expected = fields._quotient(q, u, v).value, u / v
            assert type(quotient) is Fraction
            assert (quotient.numerator, quotient.denominator) == (expected.numerator, expected.denominator), (u, v)


class _RecordingRng:
    """An rng that answers each randint with its upper end and records the ranges asked for."""

    def __init__(self):
        self.ranges = []

    def randint(self, low, high):
        self.ranges.append((low, high))
        return high


def test_a_random_rational_is_drawn_from_its_pinned_ranges():
    # the field suite's sampled triples over q come from these ranges, so the reports pin them too
    rng = _RecordingRng()
    assert Rationals().random_element(rng) == Rationals().element(Fraction(99, 40))
    assert rng.ranges == [(-99, 99), (1, 40)]


def test_foreign_values_rejected():
    with pytest.raises(TypeError, match=re.escape("cannot build a rational from 1.5")):
        Rationals().element(1.5)
    with pytest.raises(TypeError, match=re.escape("cannot build a residue mod 5 from Fraction(1, 2)")):
        PrimeField(5).element(Fraction(1, 2))
    a = PrimeField(5).element(2)
    for op in (*BINARY_OPERATORS, operator.pow):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(a, Fraction(1, 2))
        with pytest.raises(TypeError, match="unsupported operand"):
            op(Fraction(1, 2), a)


def test_division_by_zero():
    q = Rationals()
    with pytest.raises(DivisionByZero):
        q.one / q.zero
    with pytest.raises(DivisionByZero):
        PrimeField(5).zero.inverse()


def test_epsilon_roots_examples():
    e1, e2 = PrimeField(7).epsilon_roots()
    assert (e1.value, e2.value) == (3, 5)
    assert PrimeField(5).epsilon_roots() is None
    assert Rationals().epsilon_roots() is None


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43, 61, 67, 73, 79])
def test_epsilon_roots_properties(p):
    field = PrimeField(p)
    e1, e2 = field.epsilon_roots()
    minus_one = -field.one
    assert e1 != e2
    assert e1 * e1 * e1 == minus_one
    assert e2 * e2 * e2 == minus_one
    assert e1 * e2 == field.one


def test_epsilon_roots_absent_over_f65537():
    # 65537 = 2 (mod 3), so -1 is the only cube root of -1 there
    assert PrimeField(65537).epsilon_roots() is None
    assert PrimeField(65537).has_unique_cube_root()


def test_epsilon_roots_match_a_residue_scan():
    # Field.epsilon_roots asks the closed form, then searches; the scan asks neither
    for p in filter(is_prime, range(2, 500)):
        if p == 3:
            continue
        field = PrimeField(p)
        scan = [field._elements[r] for r in range(p) if (r * r - r + 1) % p == 0]
        assert field.epsilon_roots() == (tuple(scan) if scan else None), p
    assert Rationals().epsilon_roots() is None


def test_cube_root_unique_examples():
    assert PrimeField(5).has_unique_cube_root()
    assert not PrimeField(7).has_unique_cube_root()
    assert Rationals().has_unique_cube_root()


def test_cube_root_unique_matches_congruence():
    # the closed form against a residue scan for the cube roots of -1
    primes = [p for p in range(2, 200) if is_prime(p) and p != 3]
    primes += [251, 1009, 4001, 65521]
    for p in primes:
        cube_roots = [x for x in range(p) if (x * x * x + 1) % p == 0]
        assert PrimeField(p).has_unique_cube_root() == (len(cube_roots) == 1), p


@pytest.mark.parametrize("p", [2, 5, 7, 11, 13])
def test_field_axioms_exhaustive(p):
    field = PrimeField(p)
    elements = [field.element(r) for r in range(p)]
    zero, one = field.zero, field.one
    for u in elements:
        assert u + zero == u
        assert u * one == u
        assert u + (-u) == zero
        if not u.is_zero():
            assert u * u.inverse() == one
        for v in elements:
            assert u + v == v + u
            assert u * v == v * u
            for w in elements:
                assert (u + v) + w == u + (v + w)
                assert (u * v) * w == u * (v * w)
                assert u * (v + w) == u * v + u * w


def test_field_axioms_random_rationals():
    q = Rationals()
    rng = random.Random(0)
    zero, one = q.zero, q.one
    for _ in range(10_000):
        u, v, w = (q.random_element(rng) for _ in range(3))
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u + v == v + u
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w
        assert u + zero == u and u * one == u
        assert u + (-u) == zero
        if not u.is_zero():
            assert u * u.inverse() == one


def test_literal_round_trips():
    q = Rationals()
    for text in ("2/3", "-5", "0", "7/1", "-9/4"):
        assert str(q.from_literal(text)) == str(Fraction(text))
    f7 = PrimeField(7)
    assert f7.from_literal("12").value == 5
    assert f7.from_literal("-1").value == 6


@pytest.mark.parametrize("bad", ["2.5", "1/0", "abc", "1/2/3", ""])
def test_bad_rational_literals(bad):
    with pytest.raises(ValueError):
        Rationals().from_literal(bad)


def test_bad_residue_literal():
    with pytest.raises(ValueError):
        PrimeField(7).from_literal("1/2")


def test_field_spec_parsing():
    assert field_from_spec("q") == Rationals()
    assert field_from_spec("fp:11") == PrimeField(11)
    for bad in ("fp:4", "fp:x", "r", "fp:"):
        with pytest.raises(ValueError):
            field_from_spec(bad)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer digit limit")
def test_over_long_literals_name_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    message = f"an integer of {limit + 1} digits is over the limit of {limit} digits"
    calls = [
        lambda: Rationals().from_literal(long),
        lambda: Rationals().from_literal(f"1/{long}"),
        lambda: PrimeField(7).from_literal(f"-{long}"),
        lambda: field_from_spec(f"fp:{long}"),
        lambda: parse_rational(f"1.{long}"),
        lambda: parse_rational(long[:limit] + "_" + long[limit:]),
        lambda: parse_rational(f"1e{limit}"),
        lambda: parse_rational(f"-7.7e-{limit - 1}"),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message
    # at the limit itself the literals still parse
    assert Rationals().from_literal(long[1:]).value == int(long[1:])
    assert PrimeField(7).from_literal(long[1:]).value == int(long[1:]) % 7
    assert parse_rational(f"-{long[1:]}/3") == Fraction(-int(long[1:]), 3)
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)


def test_spec_strings_round_trip():
    for field in (Rationals(), PrimeField(13)):
        assert field_from_spec(field.spec_string()) == field


CLONES = {
    "pickle": lambda thing: pickle.loads(pickle.dumps(thing)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("clone", CLONES)
@pytest.mark.parametrize("spec", ["q", "fp:13"])
def test_field_objects_survive_pickle_and_copy(spec, clone):
    field = field_from_spec(spec)
    curve = Folium(field, 2)
    for original in (field, field.element(5), pbar(curve, field.element(2)), curve):
        twin = CLONES[clone](original)
        assert twin == original
        assert getattr(twin, "field", twin) is field


def test_each_field_is_one_object():
    assert PrimeField(13) is PrimeField(13) is field_from_spec("fp:13")
    assert Rationals() is Rationals() is field_from_spec("q")
    assert PrimeField(13).one is PrimeField(13).one


@pytest.mark.parametrize("bad", [3, 1, 91, MILLER_RABIN_BOUND])
def test_a_refused_modulus_is_refused_on_every_call(bad):
    for _ in range(3):
        with pytest.raises(BadLiteral):
            PrimeField(bad)
    assert bad not in fields._PRIME_FIELDS


def test_threads_building_one_prime_get_one_field():
    # more threads than cores, switching often, each building the same fresh primes
    primes = [p for p in range(1_000_100, 1_000_400) if is_prime(p)]
    built = {p: [] for p in primes}
    start = threading.Barrier(6)

    def build():
        start.wait()
        for p in primes:
            built[p].append(PrimeField(p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for fields_of_p in built.values():
        assert len(fields_of_p) == 6 and all(field is fields_of_p[0] for field in fields_of_p)


def test_the_registry_keeps_no_field_alive():
    p = 1_000_037
    field = PrimeField(p)
    assert fields._PRIME_FIELDS[p] is field
    del field
    gc.collect()
    assert p not in fields._PRIME_FIELDS


def test_an_element_reads_unequal_to_a_non_instance():
    # __eq__ answers NotImplemented, so an int or a Fraction of the same value is another object
    assert PrimeField(7).element(3) != 3 and not Rationals().element(Fraction(1, 2)) == Fraction(1, 2)


def test_the_fields_repr_as_their_constructor_calls():
    assert repr(Rationals()) == "Rationals()" and repr(PrimeField(7)) == "PrimeField(7)"
