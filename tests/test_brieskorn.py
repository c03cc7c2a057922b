import random
from fractions import Fraction

import pytest

from saitoforms.brieskorn import (ReducedClass, ReductionGuardError,
                                  reduce_class, reduce_monomial)
from saitoforms.mpoly import MPoly
from saitoforms.singularity import K, P1MirrorData, orthogonalize_basis

from conftest import (ORACLE_ZOO, analyze_oracle_case, make_a,
                      monomials_up_to, reference_reduction)


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


@pytest.mark.parametrize("exp", [(-1, 0), (2, -3)])
def test_negative_exponent_on_a_polynomial_model_is_named(e12, exp):
    # x^-1 on E12 is reached by no rule step and is not standard
    h = MPoly(e12.variables, {exp: 1, (1, 0): 2}, laurent=True)
    message = "cannot reduce the monomial with exponent %r: a polynomial " \
        "model takes 2 nonnegative exponents" % (exp,)
    for call in (lambda: reduce_class(e12, h),
                 lambda: K(e12, [(h, MPoly.constant(e12.variables, 1))], 2)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    assert exp not in e12.mono_cache


def test_reduced_class_arithmetic():
    a = ReducedClass(2, {0: {0: Fraction(1)}})
    b = ReducedClass(2, {1: {1: Fraction(3)}, 2: {0: Fraction(0)}})
    a.add_scaled(b, scale=Fraction(1, 3), t_shift=2)
    a.compress()
    assert a.coeffs == {0: [Fraction(1), Fraction(0)],
                        3: [Fraction(0), Fraction(1)]}
    assert b.rows == {1: {1: Fraction(3)}}
    assert not a.is_zero()
    assert ReducedClass(2).is_zero()
    # a cancelled entry and the row it empties are compressed away
    a.add_scaled(b, scale=Fraction(-1, 3), t_shift=2)
    assert a == ReducedClass(2, {0: {0: Fraction(1)}})
    assert a.compress().rows == {0: {0: Fraction(1)}}


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_reduce_monomial_matches_cofactor_reference(case):
    data = analyze_oracle_case(case)
    sample = monomials_up_to(data, data.s + 3)
    rng = random.Random(len(sample))
    for exp in rng.sample(sample, min(len(sample), 25)):
        assert reduce_monomial(data, exp) == reference_reduction(data, exp)
    # and so do the intermediate monomials the reductions cached
    for exp, red in data.mono_cache.items():
        assert red == reference_reduction(data, exp)


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_cached_classes_are_sparse_rows_on_their_degree_slices(case):
    # row k of [z^e] lies in the degree slice deg(e) - k and stores only
    # its nonzero entries; the dense view is the reference reduction
    data = analyze_oracle_case(case)
    den = data.weights.den
    scaled = [int(d * den) for d in data.degrees]
    for exp in monomials_up_to(data, data.s + 2):
        reduce_monomial(data, exp)
    for exp, red in data.mono_cache.items():
        top = data.weights.scaled_degree(exp)
        for k, row in red.rows.items():
            assert row, (exp, k)
            for j, c in row.items():
                assert c, (exp, k, j)
                assert scaled[j] == top - k * den, (exp, k, j)
        ref = reference_reduction(data, exp)
        dense = {k: [row.get(j, Fraction(0)) for j in range(data.mu)]
                 for k, row in ref.rows.items()}
        view = red.coeffs
        assert view == dense, exp
        assert all(type(c) is Fraction for vec in view.values() for c in vec)


def test_mutating_a_class_leaves_the_cache_and_basis_inverse_alone():
    # a class handed out, or built from cached classes, must not share
    # its row dicts with mono_cache: a write to it would corrupt every
    # later reduction
    data = analyze_oracle_case(ORACLE_ZOO[6])
    sample = monomials_up_to(data, data.s + 1)
    for exp in sample:
        reduce_monomial(data, exp)

    def snapshot():
        return ({exp: {k: dict(row) for k, row in red.rows.items()}
                 for exp, red in data.mono_cache.items()},
                [list(row) for row in data.basis_inv])

    before = snapshot()
    for exp in data.std + sample:
        handed = reduce_class(data, MPoly.monomial(data.variables, exp))
        built = ReducedClass(data.mu).add_scaled(reduce_monomial(data, exp))
        for red in (handed, built):
            for row in red.rows.values():
                for j in row:
                    row[j] += 7
                row[data.mu - 1] = Fraction(5)
            red.rows.setdefault(0, {})[0] = Fraction(-3)
    assert snapshot() == before


def test_elliptic_socle_sweep_reuses_the_cached_monomials():
    # (n, n, n) steps by z1^2, z2^2, z3^2 to (n-3, n-3, n-3), which the
    # sweep reduced three steps before: three new entries per n
    data = analyze_oracle_case(ORACLE_ZOO[4])
    for n in range(1, 61):
        reduce_monomial(data, (n, n, n))
    assert len(data.mono_cache) <= 3 * 60 + 8


def test_laurent_powers_add_one_entry_each():
    data = P1MirrorData(2)
    for k in range(1, 41):
        before = len(data.mono_cache)
        reduce_monomial(data, (k,))
        assert len(data.mono_cache) == before + 1


def test_deep_monomials_reduce_without_recursion():
    # [phi8^k] = -t^3 (k-2)^3 [phi8^(k-3)] with phi8 = z1 z2 z3, down to 1
    data = analyze_oracle_case(ORACLE_ZOO[4])
    socle = 1
    for k in range(300, 0, -3):
        socle *= -(k - 2) ** 3
    assert reduce_monomial(data, (300, 300, 300)).coeffs == {
        300: [Fraction(socle)] + [Fraction(0)] * 7}
    # on P^1 the t^0 part of [z^(2m)] is q^m, and of [z^(-2m)] is q^(-m)
    p1 = P1MirrorData(2)
    for k in (300, -300):
        red = reduce_monomial(p1, (k,))
        assert red.coeffs[0] == [Fraction(2) ** (k // 2), 0]


@pytest.mark.parametrize("rule, message", [
    # a tail term back at the leading monomial: z^4 needs itself
    (((2,), [((2,), -1, 1)], []),
     r"lead the monomial \(4,\) back to itself"),
    # a step term up in degree: the t-power outruns the degree of z^4
    (((2,), [], [(0, 0, (3,), -1, 1)]),
     r"monomial \(4,\) did not terminate within 3 steps"),
])
def test_broken_step_rules_raise_instead_of_hanging(monkeypatch, rule,
                                                    message):
    data = make_a(2)
    monkeypatch.setattr(data, "step_rules", [rule])
    with pytest.raises(ReductionGuardError, match=message):
        reduce_monomial(data, (4,))


BASIS_CHANGING = [c for c in ORACLE_ZOO
                  if c[0] in ("x^3*y + y^3*z + z^3*x", "x^6 + y^6 + x^3*y^3")]


@pytest.mark.parametrize("case", BASIS_CHANGING,
                         ids=[c[0] for c in BASIS_CHANGING])
def test_reduction_cache_is_in_the_installed_basis(case):
    # Installing a basis empties mono_cache. Both analyze and the Gram
    # blocks of the orthogonalization fill it in the sorted monomial basis;
    # so does a sweep over a data set before it is orthogonalized. Every
    # entry left afterwards must be the reduction in the final basis.
    data = analyze_oracle_case(case)
    swept = analyze_oracle_case(case, orthogonalize=False)
    for exp in monomials_up_to(swept, swept.s):
        reduce_monomial(swept, exp)
    orthogonalize_basis(swept)
    assert [str(b) for b in swept.basis] == [str(b) for b in data.basis]
    for d in (data, swept):
        cached = dict(d.mono_cache)
        assert cached
        d.mono_cache = {}
        for exp, red in cached.items():
            assert red == reduce_monomial(d, exp)
