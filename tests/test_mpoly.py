import random
from fractions import Fraction

import pytest

from saitoforms.mpoly import (
    MPoly, PolynomialError, WeightSystem, grevlex_key,
    monomial_div, monomial_divides, monomial_lcm, monomial_mul,
)

from conftest import subs_values


def rand_poly(rng, variables, laurent=False, nterms=4, maxdeg=5):
    terms = {}
    low = -maxdeg if laurent else 0
    for _ in range(rng.randrange(nterms + 1)):
        exp = tuple(rng.randrange(low, maxdeg + 1) for _ in variables)
        terms[exp] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return MPoly(variables, terms, laurent=laurent)


def test_constructor_drops_zero_terms():
    p = MPoly(("z",), {(1,): Fraction(0), (2,): Fraction(3)})
    assert list(p.terms) == [(2,)]


def test_arith_matches_integer_evaluation():
    rng = random.Random(11)
    v = ("x", "y")
    for _ in range(60):
        a = rand_poly(rng, v)
        b = rand_poly(rng, v)
        pt = {"x": Fraction(rng.randrange(-4, 5)),
              "y": Fraction(rng.randrange(-4, 5))}
        at_a, at_b = subs_values(a, pt), subs_values(b, pt)
        assert subs_values(a + b, pt) == at_a + at_b
        assert subs_values(a - b, pt) == at_a - at_b
        assert subs_values(a * b, pt) == at_a * at_b


def test_pow_repeated_product():
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    p = x + y * 2
    q = MPoly.constant(("x", "y"), 1)
    for k in range(6):
        assert p ** k == q
        q = q * p


def test_diff_product_rule():
    rng = random.Random(7)
    v = ("x", "y")
    for _ in range(40):
        a = rand_poly(rng, v)
        b = rand_poly(rng, v)
        for i in range(2):
            lhs = (a * b).diff(i)
            rhs = a.diff(i) * b + a * b.diff(i)
            assert lhs == rhs


def test_laurent_negative_exponents():
    z = MPoly.variable("z", ("z",), laurent=True)
    inv = MPoly(("z",), {(-1,): Fraction(1)}, laurent=True)
    assert z * inv == MPoly.constant(("z",), 1, laurent=True)
    assert inv.diff(0) == MPoly(("z",), {(-2,): Fraction(-1)}, laurent=True)


def test_negative_exponent_rejected_without_laurent():
    with pytest.raises(PolynomialError):
        MPoly(("z",), {(-1,): Fraction(1)})


def test_grevlex_ordering():
    # total degree first, then reversed-last-variable tiebreak
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    assert grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((2, 0)) > grevlex_key((1, 1))


def test_monomial_helpers():
    a, b = (1, 2), (3, 2)
    assert monomial_mul(a, b) == (4, 4)
    assert monomial_divides(a, b)
    assert not monomial_divides(b, a)
    assert monomial_div(b, a) == (2, 0)
    assert monomial_lcm((1, 3), (2, 1)) == (2, 3)


def test_weight_system_validation():
    WeightSystem([Fraction(1, 3), Fraction(1, 2)])
    with pytest.raises(PolynomialError):
        WeightSystem([Fraction(2, 3)])
    with pytest.raises(PolynomialError):
        WeightSystem([Fraction(0)])


def test_weight_system_degrees_and_charge():
    ws = WeightSystem([Fraction(1, 3), Fraction(1, 7)])
    assert ws.degree_of_exponent((1, 2)) == Fraction(1, 3) + Fraction(2, 7)
    assert ws.central_charge() == Fraction(1, 3) + Fraction(5, 7)
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    assert ws.weighted_degree(x ** 3 + y ** 7) == Fraction(1)
    assert ws.weighted_degree(x + y) is None


def test_str_roundtrip_readable():
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    s = str(x ** 2 * y * Fraction(-3, 2) + 1)
    assert "x" in s and "y" in s
