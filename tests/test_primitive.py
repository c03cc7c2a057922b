from fractions import Fraction

import pytest

from saitoforms import UnfoldRingElem, primitive, unfolding
from saitoforms.brieskorn import ReducedClass
from saitoforms.mpoly import MPoly
from saitoforms.primitive import (
    _as_t_rpolys, assemble_psi, neumann_solve, primitive_form,
    verify_class_equal, verify_primitive,
)
from saitoforms.singularity import P1MirrorData
from saitoforms.unfolding import (
    GradingViolation, OppositeFiltration, OscillatorData, UnfoldingData,
    build_unfolding, exp_series, oscillating_projection,
    oscillator_matrices, positive_bound,
)

from conftest import (
    analyze_oracle_case, elliptic_g, elliptic_h, make_a,
    ring_order_projection, series_reciprocal, series_sub,
)


def _series_of(elem):
    return {e[0]: c for e, c in elem.terms.items() if c}


def test_chain_points_trivial_form():
    for k in (2, 3):
        data = make_a(k)
        unf = build_unfolding(data, 4)
        pf = primitive_form(unf)
        recs = pf.records()
        assert len(recs) == 1
        q, j, elem = recs[0]
        assert (q, j) == (0, 1) and elem == unf.ring_one()
        assert verify_primitive(unf, MPoly.constant(data.f.variables, 1))


def test_elliptic_socle_family_reciprocal(elliptic):
    N = 7
    unf = build_unfolding(elliptic, N, mask=[8])
    pf = primitive_form(unf)
    assert all((q, j) == (0, 1) for q, j, _ in pf.records())
    oracle = series_reciprocal(elliptic_g(N), N)
    comp = _series_of(pf.blocks[0][0])
    assert all(comp.get(k, 0) == oracle.get(k, 0) for k in range(N + 1))
    assert verify_primitive(unf, pf)


def test_elliptic_socle_family_nontrivial_splitting(elliptic):
    N = 7
    unf = build_unfolding(elliptic, N, mask=[8])
    c = {(8, 1): Fraction(1)}
    pf = primitive_form(unf, c=c)
    oracle = series_reciprocal(series_sub(elliptic_g(N), elliptic_h(N)), N)
    comp = _series_of(pf.blocks[0][0])
    assert all(comp.get(k, 0) == oracle.get(k, 0) for k in range(N + 1))
    assert verify_primitive(unf, pf, c=c)


def test_constant_representative_degrades(e12):
    # zeta_+ = 1 holds through second order but fails at third
    one = MPoly.constant(e12.f.variables, 1)
    unf2 = build_unfolding(e12, 2)
    assert verify_primitive(unf2, one)
    unf3 = build_unfolding(e12, 3)
    report = verify_primitive(unf3, one)
    assert not report
    assert report.mismatches


def test_truncation_stability(elliptic):
    # the degree-M slice of the order-N form equals the order-M form
    unf_hi = build_unfolding(elliptic, 6, mask=[8])
    unf_lo = build_unfolding(elliptic, 4, mask=[8])
    pf_hi = primitive_form(unf_hi)
    pf_lo = primitive_form(unf_lo)
    for (q_hi, j_hi, e_hi), (q_lo, j_lo, e_lo) in zip(
            pf_hi.records(), pf_lo.records()):
        assert (q_hi, j_hi) == (q_lo, j_lo)
        assert e_hi.truncate(4) == e_lo


def test_verify_class_equal_detects_difference(elliptic):
    unf = build_unfolding(elliptic, 5, mask=[8])
    pf = primitive_form(unf)
    assert verify_class_equal(unf, pf, pf)
    one = MPoly.constant(elliptic.f.variables, 1)
    assert not verify_class_equal(unf, pf, one)


def test_verify_class_equal_per_u_monomial(e6_cusp):
    # [3 x^3] = -t [1] in the lattice of x^3 + y^4, with ring coefficients
    unf = build_unfolding(e6_cusp, 3)
    v = e6_cusp.variables
    x3 = MPoly.monomial(v, (3, 0), 3)
    minus_one = MPoly.constant(v, -1)
    u1 = UnfoldRingElem(unf.nu, 3, {(1,) + (0,) * (unf.nu - 1): 1})
    u2 = UnfoldRingElem(unf.nu, 3, {(0, 1) + (0,) * (unf.nu - 2): 1})
    coeff = u1 + u2 * u2 * Fraction(2, 3)
    assert verify_class_equal(unf, [(0, x3, coeff)],
                              [(1, minus_one, u1), (1, minus_one, coeff - u1)])
    assert not verify_class_equal(unf, [(0, x3, coeff)],
                                  [(1, minus_one, coeff + u2 * u1)])
    # the same class and coefficient sum on different u-monomials
    assert not verify_class_equal(unf, [(0, x3, u1)], [(0, x3, u2)])


def test_quartic_pair_with_splitting_parameter(quartic_pair):
    unf = build_unfolding(quartic_pair, 4, mask=[9])
    for c in (None, {(9, 1): Fraction(2)}):
        pf = primitive_form(unf, c=c)
        assert verify_primitive(unf, pf, c=c)


def _e12_rep(unf, late_first):
    # sum of t^1 * 2/3 u3 u5 * y, the constant 1 and a zero z-term, the
    # shape of a CLI "rep" list
    v = unf.base.variables
    y = MPoly.variable("y", v)
    u35 = UnfoldRingElem(unf.nu, unf.N,
                         {(0, 0, 1, 0, 1) + (0,) * 7: Fraction(2, 3)})
    terms = [(1, y, u35), (0, MPoly.constant(v, 1), unf.ring_one()),
             (0, MPoly.zero(v), unf.ring_one())]
    return terms if late_first else terms[1:] + terms[:1]


@pytest.mark.parametrize("case", ["pf", "one", "cli-rep"])
def test_projection_floor_is_full_projection_restricted(e12, elliptic, case):
    if case == "pf":
        unf = build_unfolding(elliptic, 4)
        c = {(8, 1): Fraction(2)}
        rep = primitive_form(unf, c=c)
    elif case == "one":
        unf = build_unfolding(e12, 3)
        c = None
        rep = MPoly.constant(e12.f.variables, 1)
    else:
        unf = build_unfolding(e12, 3)
        c = None
        rep = _e12_rep(unf, late_first=True)
    filt = OppositeFiltration(unf.base, c)
    classes = [_as_t_rpolys(unf, rep)]
    full, = oscillating_projection(unf, classes, filt)
    kept, = oscillating_projection(unf, classes, filt, floor=0)
    assert min(full.coeffs) < 0
    assert kept.coeffs == {k: v for k, v in full.coeffs.items() if k >= 0}
    assert kept.coeffs


def test_verify_lists_mismatches_by_t_then_basis(e12):
    unf = build_unfolding(e12, 4)
    report = verify_primitive(unf, _e12_rep(unf, late_first=True))
    keys = [(k, j) for k, j, _ in report.mismatches]
    assert {k for k, _ in keys} == {0, 1}
    assert keys == sorted(keys)
    assert report.mismatches == \
        verify_primitive(unf, _e12_rep(unf, late_first=False)).mismatches


def _e12_mislabeled(unf):
    # the E12 series of the source paper on 1, x, x^2 instead of 1, y, y^2
    def elem(terms):
        out = {}
        for spec, c in terms.items():
            exp = [0] * 12
            for idx, e in spec:
                exp[idx - 1] = e
            out[tuple(exp)] = Fraction(*c)
        return UnfoldRingElem(12, unf.N, out)

    v = unf.base.variables
    x = MPoly.variable("x", v)
    return [(0, MPoly.constant(v, 1),
             elem({(): (1, 1), ((11, 1), (12, 2)): (4, 147),
                   ((10, 1), (12, 5)): (-76, 21609),
                   ((11, 2), (12, 4)): (-64, 7203)})),
            (0, x, elem({((12, 3),): (1, 49),
                         ((11, 1), (12, 5)): (-101, 12005)})),
            (0, x * x, elem({((12, 6),): (-53, 21609)}))]


@pytest.mark.parametrize("case", ["one", "mislabeled", "pf"])
def test_projection_of_representatives_matches_ring_order_oracle(
        e12, elliptic, case):
    # ring coefficients split into u-monomials agree with ring products
    if case == "pf":
        unf = build_unfolding(elliptic, 4)
        c = {(8, 1): Fraction(2)}
        rep = primitive_form(unf, c=c)
    else:
        unf = build_unfolding(e12, 5)
        c = None
        rep = MPoly.constant(e12.f.variables, 1) if case == "one" \
            else _e12_mislabeled(unf)
    filt = OppositeFiltration(unf.base, c)
    classes = [_as_t_rpolys(unf, rep)]
    a = positive_bound(unf.base, unf.N)
    for floor in (None, -a, 0):
        assert oscillating_projection(unf, classes, filt, floor) == \
            ring_order_projection(unf, classes, filt, floor), floor
    assert bool(verify_primitive(unf, rep, c=c)) == (case == "pf")


def test_primitive_form_and_verify_never_build_exp_powers(
        monkeypatch, e12, elliptic):
    def refuse(self):
        raise AssertionError("exp_powers called")

    monkeypatch.setattr(UnfoldingData, "exp_powers", refuse)
    p1 = build_unfolding(P1MirrorData(2), 6, u_names=["u0", "u1"],
                         overrides={2: lambda u: exp_series(u) - 1})
    for unf, c in ((build_unfolding(e12, 4), None),
                   (build_unfolding(elliptic, 4, mask=[8]),
                    {(8, 1): Fraction(1)}),
                   (p1, None)):
        pf = primitive_form(unf, c=c)
        assert verify_primitive(unf, pf, c=c)
        assert not verify_primitive(unf, MPoly.constant(unf.base.variables,
                                                        2), c=c)


def test_verify_products_do_not_grow_with_ring_coefficient_terms(
        monkeypatch, elliptic):
    # each P_alpha h is formed once per product term and spread over the
    # u-monomials of its ring coefficient, not once per u-monomial
    unf = build_unfolding(elliptic, 12, mask=[8])
    calls = []
    z_product = unfolding.z_product

    def counting(left, right):
        calls.append(None)
        return z_product(left, right)

    monkeypatch.setattr(unfolding, "z_product", counting)
    one = MPoly.constant(elliptic.f.variables, 1)
    counts = []
    for R in (unf.ring_one(),
              UnfoldRingElem(1, 12, {(n,): Fraction(1, n + 1)
                                     for n in range(13)})):
        calls.clear()
        verify_primitive(unf, [(0, one, R)])
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_psi_with_a_constant_term_is_rejected():
    # A^(0) = Id + E_12 at u = 0: Psi has the nilpotent constant entry
    # Psi[1][2] = 1, which the solve must not accept
    unf = build_unfolding(make_a(2), 3)
    one, zero = unf.ring_one(), unf.ring_zero()
    osc = OscillatorData(unf, OppositeFiltration(unf.base),
                         {0: [[one, one], [zero, one]]}, 0)
    with pytest.raises(GradingViolation, match=r"Psi\[1\]\[2\]"):
        neumann_solve(assemble_psi(osc), unf)
    with pytest.raises(GradingViolation, match=r"Psi\[1\]\[2\]"):
        primitive_form(unf, osc=osc)


def test_solve_forms_each_part_once(monkeypatch, elliptic):
    # the degree-d part of each g_l is multiplied by its Psi row once, so
    # the coefficient products grow like N^2 (547 at N = 40), not like
    # the N^3 of repeated Neumann terms (6500)
    unf = build_unfolding(elliptic, 40, mask=[8])
    psi = assemble_psi(oscillator_matrices(unf, c={(8, 1): 1}))
    mul = Fraction.__mul__
    calls = []

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__mul__", counting)
        neumann_solve(psi, unf)
    assert 0 < len(calls) <= 1000


ELLIPTIC = ("1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3", ("z1", "z2", "z3"), ["1/3"] * 3)

# (singularity, N, mask, c): the polynomial jobs of the benchmark's
# unfold-full and socle-deep workloads (the socle direction at N = 20),
# then full unfoldings with a nontrivial c
TWO_SOLVE_CASES = [
    (("z^%d" % n, ("z",), ["1/%d" % n]), 6, None, None) for n in range(3, 7)
] + [
    (("x^2*y + y^4", ("x", "y"), ["3/8", "1/4"]), 6, None, None),
    (("x^3 + y^4", ("x", "y"), ["1/3", "1/4"]), 6, None, None),
    (("x^3 + x*y^3", ("x", "y"), ["1/3", "2/9"]), 6, None, None),
    (("x^3 + y^5", ("x", "y"), ["1/3", "1/5"]), 6, None, None),
    (ELLIPTIC, 6, None, None),
    (("x^3 + y^7", ("x", "y"), ["1/3", "1/7"]), 4, None, None),
    (("x^3 + x*y^5", ("x", "y"), ["1/3", "2/15"]), 3, None, None),
    (("x^3 + y^8", ("x", "y"), ["1/3", "1/8"]), 3, None, None),
    (ELLIPTIC, 20, [8], None),
    (ELLIPTIC, 20, [8], {(8, 1): Fraction(1)}),
    (ELLIPTIC, 4, None, {(8, 1): Fraction(1)}),
    (ELLIPTIC, 4, None, {(8, 1): Fraction(-3, 7)}),
    (ELLIPTIC, 5, None, {(8, 1): Fraction(1)}),
    (ELLIPTIC, 5, None, {(8, 1): Fraction(-3, 7)}),
    (("x^4 + y^4", ("x", "y"), ["1/4", "1/4"]), 5, None,
     {(9, 1): Fraction(1)}),
]


@pytest.mark.parametrize("case, N, mask, c", TWO_SOLVE_CASES)
def test_order_by_order_solve_matches_oscillator_solve(case, N, mask, c):
    unf = build_unfolding(analyze_oracle_case(case), N, mask=mask)
    pf = primitive_form(unf, c=c)
    osc = oscillator_matrices(unf, c=c)
    assert pf.records() == primitive_form(unf, c, osc=osc).records()
    assert verify_primitive(unf, pf, c=c)


def test_order_by_order_solve_builds_no_oscillator_matrices(
        monkeypatch, e12, elliptic):
    def refuse(*args, **kwargs):
        raise AssertionError("the A^(k) path was called")

    monkeypatch.setattr(unfolding, "oscillator_matrices", refuse)
    monkeypatch.setattr(OscillatorData, "__init__", refuse)
    monkeypatch.setattr(primitive, "assemble_psi", refuse)
    monkeypatch.setattr(primitive, "neumann_solve", refuse)
    p1 = build_unfolding(P1MirrorData(2), 6, u_names=["u0", "u1"],
                         overrides={2: lambda u: exp_series(u) - 1})
    for unf, c in ((build_unfolding(e12, 6), None),
                   (build_unfolding(elliptic, 4), {(8, 1): Fraction(1)}),
                   (p1, None)):
        assert verify_primitive(unf, primitive_form(unf, c=c), c=c)


def test_order_by_order_solve_makes_few_products(monkeypatch, e12):
    # the mu rows of the A^(k) family took 71983 z_product calls at N = 8;
    # the recursion projects zeta_+ alone and takes about 300
    unf = build_unfolding(e12, 8)
    calls = []
    z_product = unfolding.z_product

    def counting(left, right):
        calls.append(None)
        return z_product(left, right)

    monkeypatch.setattr(unfolding, "z_product", counting)
    primitive_form(unf)
    assert 0 < len(calls) <= 1000


def _corrupt_reductions(monkeypatch, t_power):
    # every nonconstant monomial reduces with an extra t^t_power phi_1
    reduce_monomial = unfolding.reduce_monomial

    def corrupted(base, exp):
        red = reduce_monomial(base, exp)
        if not any(exp):
            return red
        out = ReducedClass(base.mu, red.coeffs)
        out.coeffs.setdefault(t_power, [Fraction(0)] * base.mu)[0] += 1
        return out

    monkeypatch.setattr(unfolding, "reduce_monomial", corrupted)


@pytest.mark.parametrize("t_power, message", [
    (1, "off-grade zeta_+ term t^0 u^%r Phi_1"),
    (3, "zeta_+ term t^2 u^%r Phi_1 beyond the bound a=1")])
def test_order_by_order_solve_checks_each_term(monkeypatch, e12, t_power,
                                               message):
    # on E12 only u_12 (degree -1/21) lets Phi_1 reach t^0 at first order:
    # [t^t_power phi_1 u_12 / t] lands at t^(t_power - 1)
    unf = build_unfolding(e12, 2)
    assert positive_bound(e12, 2) == 1
    _corrupt_reductions(monkeypatch, t_power)
    u12 = (0,) * 11 + (1,)
    with pytest.raises(GradingViolation) as err:
        primitive_form(unf)
    assert str(err.value) == message % (u12,)
