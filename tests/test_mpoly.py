import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from saitoforms.mpoly import (
    MPoly, PolynomialError, WeightSystem, grevlex_key,
    monomial_div, monomial_divides, monomial_lcm, monomial_mul,
)
from saitoforms.parsing import parse_poly

from conftest import (ORACLE_ZOO, count_products, monomials_up_to,
                      subs_values)


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
    bases = [
        x + y * 2,
        # single terms, raised in one step: a Laurent z^-1, a term whose
        # power passes the truncation order at k = 3, and a coefficient
        # other than 1
        MPoly(("z",), {(-1,): 1}, laurent=True),
        MPoly(("x", "y"), {(1, 1): Fraction(3, 2)}, order=5),
        parse_poly("-2/3*x*y^2", ("x", "y")),
        MPoly.zero(("x", "y")),
    ]
    for p in bases:
        q = MPoly.constant(p.variables, 1, p.laurent, p.order)
        for k in range(6):     # k = 0 included
            assert p ** k == q and (p ** k).laurent == q.laurent
            q = q * p
    assert parse_poly("(-2/3*x*y^2)^5", ("x", "y")) == \
        MPoly.monomial(("x", "y"), (5, 10), Fraction(-32, 243))
    assert not bases[2] ** 3


def test_pow_needs_a_nonnegative_integer_exponent():
    x = MPoly.variable("x", ("x", "y"))
    for p in (x, x + 1):
        for k in (2.0, Fraction(2), -1):
            with pytest.raises(PolynomialError):
                p ** k


def test_a_monomial_power_forms_no_product(monkeypatch):
    calls = count_products(monkeypatch)
    z56 = parse_poly("z^56", ("z",))
    assert calls == []
    assert z56 == MPoly.monomial(("z",), (56,))


def test_constructor_stores_every_coefficient_as_a_fraction():
    for coeff in (3, "3", "6/2", Fraction(3)):
        for p in (MPoly(("x",), {(1,): coeff}),
                  MPoly.monomial(("x",), (1,), coeff)):
            c, = p.terms.values()
            assert type(c) is Fraction and c == 3
        c, = MPoly.constant(("x",), coeff).terms.values()
        assert type(c) is Fraction and c == 3
    c, = MPoly.variable("x", ("x",)).terms.values()
    assert type(c) is Fraction and c == 1
    # an exact Fraction is kept as it is, not wrapped again
    third = Fraction(1, 3)
    assert MPoly(("x",), {(1,): third}).terms[(1,)] is third
    for zero in (0, "0", "0/5", Fraction(0)):
        assert MPoly(("x",), {(1,): zero, (2,): 1}).terms == \
            {(2,): Fraction(1)}
        assert MPoly.monomial(("x",), (1,), zero).is_zero()


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


@pytest.mark.parametrize("weight", [1 / 3, 0.5, True, "1/3"])
def test_weight_system_rejects_an_inexact_weight(weight):
    # a float 1/3 failed the Euler identity with a binary fraction, and
    # 0.5 and "1/3" were read silently
    with pytest.raises(ValueError, match=re.escape(
            "weight %r is not an exact rational" % (weight,))):
        WeightSystem([Fraction(1, 3), weight])


def test_weight_system_degrees_and_charge():
    ws = WeightSystem([Fraction(1, 3), Fraction(1, 7)])
    assert ws.degree_of_exponent((1, 2)) == Fraction(1, 3) + Fraction(2, 7)
    assert ws.central_charge() == Fraction(1, 3) + Fraction(5, 7)
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    assert ws.weighted_degree(x ** 3 + y ** 7) == Fraction(1)
    assert ws.weighted_degree(x + y) is None


ZOO_WEIGHTS = [weights for _, _, weights in ORACLE_ZOO] + [
    ["3/8", "1/4"], ["1/4", "5/16", "3/8"], ["4/15", "1/5"], ["1/7", "1/9"]]


@pytest.mark.parametrize("weights", ZOO_WEIGHTS, ids=" ".join)
def test_weighted_degrees_are_integers_over_one_denominator(weights):
    ws = WeightSystem([Fraction(q) for q in weights])
    for e in monomials_up_to(SimpleNamespace(weights=ws), 3):
        oracle = sum((q * k for q, k in zip(ws, e)), Fraction(0))
        scaled = ws.scaled_degree(e)
        assert type(scaled) is int
        assert Fraction(scaled, ws.den) == ws.degree_of_exponent(e) == oracle
        # the t-power bound of the reduction of z^e in brieskorn._fill_poly
        assert scaled // ws.den == int(oracle)


def test_str_roundtrip_readable():
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    s = str(x ** 2 * y * Fraction(-3, 2) + 1)
    assert "x" in s and "y" in s
