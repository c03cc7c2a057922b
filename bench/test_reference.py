"""Tests of the benchmark's reference computations (run with
`python3 -m pytest bench`). They use no library code."""

from fractions import Fraction as Q

import reference as ref


def test_milnor_orlik_mu():
    assert ref.milnor_orlik_mu([Q(1, 3), Q(1, 7)]) == 12          # E12
    assert ref.milnor_orlik_mu([Q(1, 3), Q(2, 15)]) == 13         # E13
    assert ref.milnor_orlik_mu([Q(1, 4), Q(5, 16), Q(3, 8)]) == 11  # S11
    assert ref.milnor_orlik_mu([Q(1, 7), Q(1, 9)]) == 48


def test_poincare_polynomial_at_one_is_mu():
    for weights in ([Q(1, 3)], [Q(1, 3), Q(2, 9)], [Q(1, 3), Q(2, 15)],
                    [Q(1, 4), Q(5, 16), Q(3, 8)], [Q(1, 3)] * 3,
                    [Q(1, 6), Q(1, 6)], [Q(1, 7), Q(1, 9)]):
        coeffs, _ = ref.poincare_polynomial(weights)
        assert sum(coeffs) == ref.milnor_orlik_mu(weights)
        exps = ref.poincare_exponents(weights)
        s = ref.central_charge(weights)
        assert exps[0] == 0 and exps[-1] == s
        assert all(a + b == s for a, b in zip(exps, reversed(exps)))


def test_poincare_exponents_by_hand():
    # E6 = x^3 + y^4: basis 1, y, y^2, x, xy, xy^2.
    assert ref.poincare_exponents([Q(1, 3), Q(1, 4)]) == sorted(
        [Q(0), Q(1, 4), Q(1, 2), Q(1, 3), Q(7, 12), Q(5, 6)])


def test_monomials_up_to():
    mons = ref.monomials_up_to([Q(1, 2), Q(1, 3)], Q(1))
    assert mons == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0)]


def test_periods_satisfy_picard_fuchs():
    g, h = ref.elliptic_g(95), ref.elliptic_h(95)
    assert ref.picard_fuchs_residual(g, 93) == {}
    assert ref.picard_fuchs_residual(h, 93) == {}
    # a series that is not a period fails the equation
    assert ref.picard_fuchs_residual({0: Q(1), 1: Q(1)}, 5)


def test_period_coefficients_by_hand():
    assert ref.elliptic_g(6) == {0: 1, 3: Q(-1, 6), 6: Q(64, 720)}
    assert ref.elliptic_h(7) == {1: 1, 4: Q(-8, 24), 7: Q(8 * 125, 5040)}


def test_series_reciprocal():
    g = ref.elliptic_g(40)
    inv = ref.series_reciprocal(g, 40)
    product = {}
    for i, x in g.items():
        for j, y in inv.items():
            if i + j <= 40:
                product[i + j] = product.get(i + j, 0) + x * y
    assert {k: c for k, c in product.items() if c} == {0: 1}
    assert ref.series_reciprocal({0: Q(1), 1: Q(-1)}, 4) == \
        {k: Q(1) for k in range(5)}


def test_am_product_formula_by_hand():
    # m = 2: K(z^4, 1) = -(4 - 2) t = -2t.
    assert ref.am_pairing(4, 0, 2, 8) == {1: Q(-2)}
    # m = 1: K(z^3, z) = (3 - 1)(3 - 1 - 2) t^2 = 0; K(z^4, 1) = 3 * 1 t^2.
    assert ref.am_pairing(3, 1, 1, 8) == {}
    assert ref.am_pairing(4, 0, 1, 8) == {2: Q(3)}
    # t^0 term is the classical residue, with the scale of f.
    assert ref.am_pairing(1, 0, 2, 8, scale=3) == {0: Q(1, 3)}
    assert ref.chain_residue(1, 2, scale=3) == Q(1, 3)
    assert ref.am_pairing(5, 0, 2, 8) == {}
    assert ref.am_pairing(4, 0, 2, 0) == {}


def test_am_pairing_sesquisymmetric():
    for m in range(1, 5):
        for i in range(12):
            for j in range(12):
                assert ref.sesquisymmetric(ref.am_pairing(i, j, m, 10),
                                           ref.am_pairing(j, i, m, 10))
    assert not ref.sesquisymmetric({1: Q(1)}, {1: Q(1)})


def test_lattice_relation_helpers():
    # [g df] = -t [dg] written as classes: lhs must equal t_shift(rhs, 1, -1)
    rhs = {0: [Q(1), Q(0)], 2: [Q(0), Q(3)]}
    lhs = {1: [Q(-1), Q(0)], 3: [Q(0), Q(-3)]}
    assert ref.classes_equal(lhs, ref.t_shift(rhs, 1, -1))
    assert not ref.classes_equal(rhs, ref.t_shift(rhs, 1, -1))
    assert ref.classes_equal({0: [Q(0), Q(0)]}, {})
    assert ref.unit_class(1, 3) == {0: [Q(0), Q(1), Q(0)]}


def test_poly_arithmetic():
    f = {(3, 0): Q(1), (0, 7): Q(1)}
    assert ref.poly_diff(f, 1) == {(0, 6): Q(7)}
    assert ref.poly_mul({(1, 0): Q(2)}, f) == {(4, 0): Q(2), (1, 7): Q(2)}
    assert ref.poly_text({(3,): Q(1, 3)}, ("z",)) == "1/3*z^3"
    assert ref.poly_text({(3, 0): Q(1), (1, 1): Q(-2), (0, 0): Q(5)},
                         ("x", "y")) == "x^3-2*x*y+5"


def test_grading_checks():
    # E12-like degrees: phi_1 = 1 (0), phi_2 = y (1/7), phi_12 (22/21).
    degrees = [Q(0), Q(1, 7)] + [Q(0)] * 9 + [Q(22, 21)]
    u_deg = [1 - d for d in degrees]
    good = [(0, 1, {(0,) * 12: Q(1)}),
            (0, 2, {tuple([0] * 11 + [3]): Q(1, 49)})]
    assert ref.record_grading_defects(good, degrees, u_deg) == []
    bad = [(0, 2, {tuple([0] * 11 + [2]): Q(1)})]
    assert ref.record_grading_defects(bad, degrees, u_deg) == \
        [(0, 2, tuple([0] * 11 + [2]))]
    assert ref.constant_class_defects(good, 12) == []
    assert ref.constant_class_defects(good[1:], 12) == [(0, 1)]
    # deg t^k phi_j = k + d_j must equal the degree 8/7 of the element
    assert ref.class_degree_defects({0: [Q(1), Q(0)], 1: [Q(0), Q(2)]},
                                    Q(8, 7), [Q(0), Q(1, 7)]) == [(0, 0)]
