"""End-to-end acceptance checks. Every equality is exact (Fraction
arithmetic, zero tolerance) and each check carries a wall-clock budget."""

import time
from fractions import Fraction

from saitoforms import UnfoldRingElem, exp_series
from saitoforms.brieskorn import ReducedClass, reduce_class, reduce_monomial
from saitoforms.moduli import FREE, dimension_D, y_constraints
from saitoforms.mpoly import MPoly
from saitoforms.primitive import (
    primitive_form, verify_class_equal, verify_primitive,
)
from saitoforms.singularity import P1MirrorData, analyze
from saitoforms.unfolding import build_unfolding

from conftest import (
    elliptic_g, elliptic_h, higher_residue_Am, make_a, make_a_normalized,
    pairing_univariate_Am, pairing_univariate_p1, series_reciprocal,
    series_sub, u_degree,
)

import test_properties


def test_ade_points_have_trivial_primitive_form(e6_cusp):
    cases = [make_a(k) for k in range(2, 6)] + [e6_cusp]
    for data in cases:
        t0 = time.monotonic()
        assert dimension_D(data) == 0
        unf = build_unfolding(data, 6)
        pf = primitive_form(unf)
        recs = pf.records()
        assert recs == [(0, 1, unf.ring_one())]
        assert verify_primitive(unf, MPoly.constant(data.f.variables, 1))
        assert time.monotonic() - t0 < 1.0


def test_exceptional_unimodal_sixth_order_series(e12):
    t0 = time.monotonic()
    unf = build_unfolding(e12, 6)

    def elem(terms):
        out = {}
        for spec, c in terms.items():
            exp = [0] * 12
            for idx, e in spec:
                exp[idx - 1] = e
            out[tuple(exp)] = Fraction(*c)
        return UnfoldRingElem(12, 6, out)

    v = e12.f.variables
    y = MPoly.variable("y", v)
    x = MPoly.variable("x", v)
    coeff_1 = elem({(): (1, 1),
                    ((11, 1), (12, 2)): (4, 147),
                    ((10, 1), (12, 5)): (-76, 21609),
                    ((11, 2), (12, 4)): (-64, 7203)})
    coeff_a = elem({((12, 3),): (1, 49),
                    ((11, 1), (12, 5)): (-101, 12005)})
    coeff_b = elem({((12, 6),): (-53, 21609)})
    one = MPoly.constant(v, 1)
    displayed = [(0, one, coeff_1), (0, y, coeff_a), (0, y * y, coeff_b)]
    assert verify_primitive(unf, displayed)
    # the same series attached to x, x^2 instead of y, y^2 is not primitive
    mislabeled = [(0, one, coeff_1), (0, x, coeff_a), (0, x * x, coeff_b)]
    assert not verify_primitive(unf, mislabeled)
    # and the computed form agrees with the displayed class exactly
    pf = primitive_form(unf)
    assert verify_class_equal(unf, pf, displayed)
    assert time.monotonic() - t0 < 60.0


def test_exceptional_unimodal_forms_at_higher_order(e12, e13):
    # orders the A^(k) family made slow (about 1.2 s for E12 at N=10 and
    # 1.5 s for E13 at N=8); the order-by-order solve takes about 0.05 s
    for data, N in ((e12, 10), (e13, 8)):
        t0 = time.monotonic()
        unf = build_unfolding(data, N)
        pf = primitive_form(unf)
        assert verify_primitive(unf, pf)
        d = data.degrees
        records = pf.records()
        assert records[0][:2] == (0, 1)
        assert records[0][2].constant_term() == 1
        for q, j, elem in records:
            for exp in elem.terms:
                assert q + d[j - 1] + u_degree(unf, exp) == 0, (q, j, exp)
        assert time.monotonic() - t0 < 1.0
        # truncation to u-degree 6 gives the form at N = 6
        low = build_unfolding(data, 6)
        assert [(q, j, e.truncate(6)) for q, j, e in records
                if e.truncate(6)] == primitive_form(low).records()


def test_simple_elliptic_reciprocal_period_family(elliptic):
    t0 = time.monotonic()
    socle = elliptic.basis[7]
    assert reduce_class(elliptic, socle * socle).is_zero()
    for k in range(3, 9):
        lhs = reduce_class(elliptic, socle ** k)
        rhs = ReducedClass(elliptic.mu)
        rhs.add_scaled(reduce_class(elliptic, socle ** (k - 3)),
                       scale=Fraction(-(k - 2) ** 3), t_shift=3)
        rhs.compress()
        assert lhs == rhs

    assert dimension_D(elliptic) == 1
    frees = [c for c in y_constraints(elliptic) if c.status == FREE]
    assert [(c.pair, c.r) for c in frees] == [((8, 1), 1)]

    N = 9
    g = elliptic_g(N)
    h = elliptic_h(N)
    unf = build_unfolding(elliptic, N, mask=[8])
    for c, oracle_series in ((None, g), ({(8, 1): Fraction(1)},
                                         series_sub(g, h))):
        pf = primitive_form(unf, c=c)
        assert all((q, j) == (0, 1) for q, j, _ in pf.records())
        oracle = series_reciprocal(oracle_series, N)
        comp = {e[0]: v for e, v in pf.zeta.rows[0][0].terms.items()}
        for k in range(N + 1):
            assert comp.get(k, 0) == oracle.get(k, 0)
        assert verify_primitive(unf, pf, c=c)

    # period equation: (1 + s^3) v'' + 3 s^2 v' + s v = 0 for v = g, h
    for series in (elliptic_g(12), elliptic_h(12)):
        for n in range(0, 11):
            acc = (n + 2) * (n + 1) * series.get(n + 2, Fraction(0))
            acc += (n - 1) * (n - 2) * series.get(n - 1, Fraction(0))
            acc += 3 * (n - 1) * series.get(n - 1, Fraction(0))
            acc += series.get(n - 1, Fraction(0))
            assert acc == 0
    assert time.monotonic() - t0 < 120.0


def test_chain_model_closed_form_residues():
    t0 = time.monotonic()
    for m in range(1, 7):
        data = make_a_normalized(m)
        for j in range(0, 13):
            h = {j: Fraction(1)}
            series = higher_residue_Am(h, m, 8)
            assert series == pairing_univariate_Am(h, {0: Fraction(1)}, m, 8)
            lead = series.get(0, Fraction(0))
            hp = MPoly(("z",), {(j,): Fraction(1)})
            assert lead == data.classical_residue(hp)
    assert time.monotonic() - t0 < 10.0


def test_global_mirror_exact_primitive_form():
    t0 = time.monotonic()
    for qv in (Fraction(1), Fraction(2), Fraction(-3)):
        one = {0: Fraction(1)}
        phi2 = {-1: qv}
        inv = {-1: Fraction(1)}
        assert pairing_univariate_p1(one, one, qv, 10) == {}
        assert pairing_univariate_p1(one, phi2, qv, 10) == {0: Fraction(-1)}
        assert pairing_univariate_p1(inv, inv, qv, 10) == {}

        data = P1MirrorData(qv)
        unf = build_unfolding(data, 8, u_names=["u0", "u1"],
                              overrides={2: lambda u: exp_series(u) - 1})
        rep = MPoly.constant(("z",), 1, laurent=True)
        assert verify_primitive(unf, rep)
        pf = primitive_form(unf)
        assert pf.records() == [(0, 1, unf.ring_one())]

        # [q/z^2] = phi1 - (1/q) t phi2
        red = reduce_monomial(data, (-2,))
        scaled = ReducedClass(2)
        scaled.add_scaled(red, scale=qv)
        scaled.compress()
        assert scaled.coeffs == {0: [Fraction(1), Fraction(0)],
                                 1: [Fraction(0), Fraction(-1) / qv]}
    assert time.monotonic() - t0 < 30.0


def test_randomized_structural_properties(e6_cusp, e12, e13, elliptic,
                                           quartic_pair):
    t0 = time.monotonic()
    test_properties.test_reduction_lies_in_relation_span(e6_cusp)
    test_properties.test_oscillator_terms_homogeneous(elliptic, quartic_pair)
    test_properties.test_connection_block_nilpotent(elliptic, quartic_pair)
    test_properties.test_base_point_and_positive_bound(elliptic, quartic_pair)
    test_properties.test_pairing_sesquisymmetry_and_degree_law()
    test_properties.test_residue_matrix_zoo_anti_diagonal(e12, e13, elliptic)
    assert time.monotonic() - t0 < 120.0


def test_opposite_filtration_moduli_dimensions(e12, e13, elliptic, quartic_pair):
    t0 = time.monotonic()
    for k in range(2, 7):
        assert dimension_D(make_a(k)) == 0
    assert dimension_D(e12) == 0
    assert dimension_D(e13) == 0
    assert dimension_D(elliptic) == 1
    assert dimension_D(quartic_pair) == 1
    assert time.monotonic() - t0 < 1.0
