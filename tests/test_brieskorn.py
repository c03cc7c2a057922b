import random
from fractions import Fraction

import pytest

from saitoforms.brieskorn import ReducedClass, reduce_class, reduce_monomial
from saitoforms.groebner import divide
from saitoforms.mpoly import MPoly

from conftest import (ORACLE_ZOO, analyze_oracle_case, make_a,
                      monomials_up_to)


def test_chain_point_z4():
    # in z^3: [z^4] = -(2/3) t [z]
    data = make_a(2)
    red = reduce_monomial(data, (4,))
    assert red.coeffs == {1: [Fraction(0), Fraction(-2, 3)]}


def test_basis_elements_reduce_to_themselves(e12, elliptic):
    for data in (e12, elliptic):
        for i, b in enumerate(data.basis):
            red = reduce_class(data, b)
            vec = [Fraction(0)] * data.mu
            vec[i] = Fraction(1)
            assert red.coeffs == {0: vec}


def test_elliptic_socle_power_recurrence(elliptic):
    # [phi8^2] = 0 and [phi8^k] = -t^3 (k-2)^3 [phi8^(k-3)] for k >= 3
    socle = elliptic.basis[7]
    assert reduce_class(elliptic, socle * socle).is_zero()
    for k in range(3, 9):
        lhs = reduce_class(elliptic, socle ** k)
        prev = reduce_class(elliptic, socle ** (k - 3))
        rhs = ReducedClass(elliptic.mu)
        rhs.add_scaled(prev, scale=Fraction(-(k - 2) ** 3), t_shift=3)
        rhs.compress()
        assert lhs == rhs


def test_linearity_random(e6_cusp):
    rng = random.Random(13)
    v = e6_cusp.f.variables
    for _ in range(30):
        terms_a = {(rng.randrange(6), rng.randrange(6)):
                   Fraction(rng.randrange(-5, 6)) for _ in range(3)}
        terms_b = {(rng.randrange(6), rng.randrange(6)):
                   Fraction(rng.randrange(-5, 6)) for _ in range(3)}
        a = MPoly(v, terms_a)
        b = MPoly(v, terms_b)
        c = Fraction(rng.randrange(-4, 5))
        lhs = reduce_class(e6_cusp, a + b * c)
        rhs = reduce_class(e6_cusp, a)
        rhs.add_scaled(reduce_class(e6_cusp, b), scale=c)
        rhs.compress()
        assert lhs == rhs


def test_cache_transparency(e6_cusp):
    first = reduce_monomial(e6_cusp, (4, 5))
    again = reduce_monomial(e6_cusp, (4, 5))
    assert first == again


def test_laurent_positive_powers(p1_q2):
    # [z^k] = q [z^(k-2)] - (k-1) t [z^(k-1)]  with basis {1, q/z}
    q = Fraction(2)
    z2 = reduce_monomial(p1_q2, (2,))
    # [z] = q * (1/q) phi2 coordinate-wise: z = q/z * (z^2/q) ... check directly
    z1 = reduce_monomial(p1_q2, (1,))
    expect = ReducedClass(2)
    expect.add_scaled(reduce_monomial(p1_q2, (0,)), scale=q)
    expect.add_scaled(z1, scale=Fraction(-1), t_shift=1)
    expect.compress()
    assert z2 == expect


def test_laurent_inverse_square_matches_known(p1_q2):
    # [q/z^2] = 1 - (1/q) t phi2
    red = reduce_monomial(p1_q2, (-2,))
    scaled = ReducedClass(2)
    scaled.add_scaled(red, scale=Fraction(2))
    scaled.compress()
    assert scaled.coeffs == {0: [Fraction(1), Fraction(0)],
                             1: [Fraction(0), Fraction(-1, 2)]}


def test_laurent_negative_recurrence(p1_q2):
    # [z^-m] = (1/q)[z^(2-m)] - ((m-1)/q) t [z^(1-m)] for m >= 2
    q = Fraction(2)
    for m in range(2, 7):
        lhs = reduce_monomial(p1_q2, (-m,))
        rhs = ReducedClass(2)
        rhs.add_scaled(reduce_monomial(p1_q2, (2 - m,)), scale=1 / q)
        rhs.add_scaled(reduce_monomial(p1_q2, (1 - m,)),
                       scale=Fraction(-(m - 1)) / q, t_shift=1)
        rhs.compress()
        assert lhs == rhs


def test_reduced_class_arithmetic():
    a = ReducedClass(2, {0: [Fraction(1), Fraction(0)]})
    b = ReducedClass(2, {1: [Fraction(0), Fraction(3)]})
    a.add_scaled(b, scale=Fraction(1, 3), t_shift=2)
    a.compress()
    assert a.coeffs == {0: [Fraction(1), Fraction(0)],
                        3: [Fraction(0), Fraction(1)]}
    assert not a.is_zero()
    assert ReducedClass(2).is_zero()


def _reference_reduction(data, exp):
    """Reduction of z^exp by the cofactor algorithm: divide by the
    Groebner basis, turn the quotients into cofactors over the partials
    through the basis rows, and continue with -sum_i d/dz_i cofactor_i."""
    basis = [g for g, _ in data.groebner]
    current = MPoly.monomial(data.variables, exp)
    out = {}
    k = 0
    while current:
        quotients, rem = divide(current, basis)
        if rem:
            out[k] = data.coords(rem.terms)
        nxt = MPoly.zero(data.variables)
        for i in range(data.n):
            cofactor = MPoly.zero(data.variables)
            for q, (_, row) in zip(quotients, data.groebner):
                cofactor = cofactor + q * row[i]
            nxt = nxt - cofactor.diff(i)
        current = nxt
        k += 1
    return ReducedClass(data.mu, out)


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_reduce_monomial_matches_cofactor_reference(case):
    data = analyze_oracle_case(case)
    sample = monomials_up_to(data, data.s + 3)
    rng = random.Random(len(sample))
    for exp in rng.sample(sample, min(len(sample), 25)):
        assert reduce_monomial(data, exp) == _reference_reduction(data, exp)
