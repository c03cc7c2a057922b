from fractions import Fraction

import pytest

from saitoforms import UnfoldRingElem, primitive, unfolding
from saitoforms.brieskorn import ReducedClass
from saitoforms.mpoly import MPoly
from saitoforms.primitive import (
    _as_t_rpolys, assemble_psi, good_filtration, neumann_solve,
    positive_pairing, primitive_form, verify_class_equal, verify_primitive,
)
from saitoforms.singularity import K, P1MirrorData
from saitoforms.unfolding import (
    GradingViolation, OppositeFiltration, OscillatorData, UnfoldingData,
    build_unfolding, exp_series, oscillating_projection,
    oscillator_matrices, positive_bound,
)

from conftest import (
    ORACLE_ZOO, analyze_oracle_case, count_products, count_reductions,
    elliptic_g, elliptic_h, full_floor, make_a, recursive_solve,
    ring_order_projection, series_reciprocal, series_sub,
)

# mu = 16, degrees (a + b)/5 for x^a y^b; phi_15 and phi_16 have degrees
# 1 and 6/5, phi_1 and phi_2 degrees 0 and 1/5
QUINTIC_PAIR = ("x^5 + y^5", ("x", "y"), ["1/5", "1/5"])


@pytest.fixture(scope="module")
def quintic_pair():
    return analyze_oracle_case(QUINTIC_PAIR)


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
    comp = _series_of(pf.zeta.rows[0][0])
    assert all(comp.get(k, 0) == oracle.get(k, 0) for k in range(N + 1))
    assert verify_primitive(unf, pf)


def test_elliptic_socle_family_nontrivial_splitting(elliptic):
    N = 7
    unf = build_unfolding(elliptic, N, mask=[8])
    c = {(8, 1): Fraction(1)}
    pf = primitive_form(unf, c=c)
    oracle = series_reciprocal(series_sub(elliptic_g(N), elliptic_h(N)), N)
    comp = _series_of(pf.zeta.rows[0][0])
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


@pytest.mark.parametrize("term, message", [
    (lambda unf, x: MPoly(("y", "x"), {(1, 0): 1}),
     "the polynomial y is in y, x, not in x, y"),
    (lambda unf, x: [(0, MPoly(("x", "y", "z"), {(1, 0, 0): 1}),
                      unf.ring_one())],
     "the polynomial x is in x, y, z, not in x, y"),
    (lambda unf, x: [(0, x, UnfoldRingElem(3, 3, {(1, 0, 0): 1}))],
     "the coefficient u1, in u1, u2, u3 to order 3, is not in the "
     "unfolding ring Q[u1..u12]/m^4"),
    (lambda unf, x: [(0, x, UnfoldRingElem(unf.nu, 2, {}))],
     "the coefficient 0, in %s to order 2, is not in the unfolding ring "
     "Q[u1..u12]/m^4" % ", ".join("u%d" % i for i in range(1, 13))),
    (lambda unf, x: [(0, x, unf.ring_one()), (Fraction(1), x,
                                              unf.ring_one())],
     "rep term 2: the t-power Fraction(1, 1) is not an int"),
    (lambda unf, x: [(True, x, unf.ring_one())],
     "the t-power True is not an int"),
    (lambda unf, x: [(0, {(1, 0): 1}, unf.ring_one())],
     "{(1, 0): 1} is not an MPoly"),
])
def test_malformed_rep_term_is_named(e12, term, message):
    # a rep term outside the singularity's variables or the unfolding
    # ring would be read as if it were in them: y over (y, x) as x
    unf = build_unfolding(e12, 3)
    x = MPoly.monomial(e12.variables, (1, 0), 1)
    rep = term(unf, x)
    if "rep term" not in message:
        message = "rep term 1: " + message
    for check in (lambda: verify_primitive(unf, rep),
                  lambda: verify_class_equal(unf, x, rep),
                  lambda: verify_class_equal(unf, rep, x)):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == message


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
    full, = oscillating_projection(unf, classes, filt,
                                   full_floor(unf, classes))
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


def _mismatches_by_scan(unf, rep, c):
    # every j at every t-power of the projection and at t^0, each as
    # value - want: verify_primitive's list before it read the residual
    filtration = OppositeFiltration(unf.base, c)
    projected, = oscillating_projection(unf, [_as_t_rpolys(unf, rep)],
                                        filtration, floor=0)
    out = []
    zero = unf.ring_zero()
    for k in sorted(set(projected.rows) | {0}):
        row = projected.rows.get(k, {})
        for j in range(unf.base.mu):
            value = row.get(j, zero)
            want = 1 if (k, j) == (0, 0) else 0
            if value != want:
                out.append((k, j + 1, value - want))
    return out


@pytest.mark.parametrize("case", ["e12-rep", "socle-wrong-c", "p1-rep",
                                  "a2-2u1"])
def test_verify_mismatches_are_the_scan_of_the_projection(
        e12, elliptic, p1_q2, case):
    c = None
    if case == "e12-rep":
        unf = build_unfolding(e12, 4)
        rep = _e12_rep(unf, late_first=True)
    elif case == "socle-wrong-c":
        unf = build_unfolding(elliptic, 7, mask=[8])
        rep = primitive_form(unf, c={(8, 1): Fraction(1)})
    elif case == "p1-rep":
        # the CLI's verify-rep job on the P^1 mirror: 1 + t z
        unf = build_unfolding(p1_q2, 8, u_names=["u0", "u1"],
                              overrides={2: lambda u: exp_series(u) - 1})
        one = unf.ring_one()
        rep = [(0, MPoly.constant(("z",), 1, laurent=True), one),
               (1, MPoly(("z",), {(1,): 1}, laurent=True), one)]
    else:
        unf = build_unfolding(make_a(2), 3)
        u1 = UnfoldRingElem(unf.nu, unf.N, {(1,) + (0,) * (unf.nu - 1): 2})
        rep = [(0, MPoly.constant(("z",), 1), u1)]
    report = verify_primitive(unf, rep, c=c)
    assert not report
    assert report.mismatches == _mismatches_by_scan(unf, rep, c)


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
    for floor in (full_floor(unf, classes), -a, 0):
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
    # u-monomials of its ring coefficient, not once per u-monomial; h is
    # not the constant 1, which is not multiplied at all, and each count
    # starts from a fresh unfolding with no Q_{l,n} built
    z1 = MPoly(elliptic.f.variables, {(1, 0, 0): 1})
    ring = UnfoldRingElem(1, 12, {(n,): Fraction(1, n + 1)
                                  for n in range(13)})
    calls = count_products(monkeypatch)
    counts = []
    for R in (None, ring):
        unf = build_unfolding(elliptic, 12, mask=[8])
        calls.clear()
        verify_primitive(unf, [(0, z1, R or unf.ring_one())])
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]


@pytest.mark.parametrize("c", [None, {(8, 1): Fraction(1)}],
                         ids=["c0", "c81=1"])
def test_socle_solve_multiplies_only_to_build_q(monkeypatch, elliptic, c):
    # on one parameter P_alpha is Q_{1,|alpha|} itself, and zeta_+ lies
    # on Phi_1 = 1, so its products are multiplied by nothing: the Q_{1,n}
    # come from the integer recurrence, so the solve makes no MPoly
    # product, and the verify after it reads the same table and makes none
    N = 60
    unf = build_unfolding(elliptic, N, mask=[8])
    calls = count_products(monkeypatch)
    pf = primitive_form(unf, c=c)
    assert calls == []
    assert len(unf.qs[0]) > N // 2
    calls.clear()
    assert verify_primitive(unf, pf, c=c)
    assert calls == []


def test_verify_reuses_the_q_of_the_solve(elliptic):
    # the Q_{l,n} belong to the unfolding: a verify after the solve builds
    # no entry of the table, while one on a fresh unfolding builds its own
    def unfold():
        return build_unfolding(elliptic, 20, mask=[8])

    unf = unfold()
    pf = primitive_form(unf)
    assert len(unf.qs[0]) > 1
    built = []
    for target in (unf, unfold()):
        before = sum(map(len, target.qs))
        assert verify_primitive(target, pf)
        built.append(sum(map(len, target.qs)) - before)
    assert built[0] == 0 < built[1]


def test_p1_constant_direction_is_a_t_shift(monkeypatch, p1_q2):
    # e^(u0/t) is a scalar: the solve and the verify reduce each P_alpha h
    # only at alpha with no u0 and spread it shifted over the powers of
    # u0, so no Q_{1,n} is built and no MPoly product made; zeta_+ = Phi_1
    # reaches no kept t-power at any alpha != 0 (P1MirrorData.reach), so
    # they reduce at alpha = 0 alone and build no Q_{2,n} either
    unf = build_unfolding(p1_q2, 20, u_names=["u0", "u1"],
                          overrides={2: lambda u: exp_series(u) - 1})
    reduced = count_reductions(monkeypatch).reduced
    calls = count_products(monkeypatch)
    pf = primitive_form(unf)
    assert verify_primitive(unf, pf)
    assert calls == []
    assert len(unf.qs[0]) == len(unf.qs[1]) == 1
    assert reduced and all(P is unf.one for P in reduced)


# (id, an ORACLE_ZOO case or a fixture name, N, c, overrides)
CONSTANT_DIRECTION_CASES = [(case[0], case, 4, None, None)
                            for case in ORACLE_ZOO] + [
    ("elliptic c81=1", "elliptic", 6, {(8, 1): 1}, None),
    ("quartic-pair c91=1", "quartic_pair", 5, {(9, 1): 1}, None),
    ("p1-q2", "p1_q2", 20, None, None),
    ("p1-q2 exp", "p1_q2", 20, None, {2: lambda u: exp_series(u) - 1}),
]


@pytest.mark.parametrize("name, data, N, c, overrides",
                         CONSTANT_DIRECTION_CASES,
                         ids=[case[0] for case in CONSTANT_DIRECTION_CASES])
def test_zeta_does_not_depend_on_the_constant_direction(request, name, data,
                                                        N, c, overrides):
    # [e^(u_c/t) Y]_{t>=0} is invertible on classes with t >= 0 and fixes
    # Phi_1, so zeta_+ of a full unfolding is that of the unfolding
    # without the constant direction, with u_c to the power 0
    data = request.getfixturevalue(data) if isinstance(data, str) \
        else analyze_oracle_case(data)
    full = build_unfolding(data, N, overrides=overrides)
    assert full.constant == 0
    rest = build_unfolding(data, N, mask=range(2, data.mu + 1),
                           overrides=overrides)
    got = [(k, j, elem.terms) for k, j, elem
           in primitive_form(full, c).records()]
    want = [(k, j, {(0,) + e: x for e, x in elem.terms.items()})
            for k, j, elem in primitive_form(rest, c).records()]
    assert got == want


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
E12 = ("x^3 + y^7", ("x", "y"), ["1/3", "1/7"])

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
    (E12, 4, None, None),
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
] + [
    # E12's full unfolding with psi = u + u^2/2 on the direction named
    # last in the case: an override leaves the projection no graded cut,
    # and the constant direction u_1 still shifts t, so these solves
    # replay walk records in an ungraded run with a constant direction
    (E12 + (index,), N, None, None)
    for index, N in ((12, 4), (11, 5), (2, 4))
]


def _two_solve_unfolding(case, N, mask):
    """The unfolding of a TWO_SOLVE_CASES entry: a basis index after the
    singularity gets the coefficient psi = u + u^2/2."""
    return build_unfolding(analyze_oracle_case(case[:3]), N, mask=mask,
                           overrides={index: _u_plus_half_square
                                      for index in case[3:]})


def _u_plus_half_square(u):
    return u + u * u * Fraction(1, 2)


@pytest.mark.parametrize("case, N, mask, c", TWO_SOLVE_CASES)
def test_order_by_order_solve_matches_oscillator_solve(case, N, mask, c):
    unf = _two_solve_unfolding(case, N, mask)
    pf = primitive_form(unf, c=c)
    osc = oscillator_matrices(unf, c=c)
    assert pf.records() == primitive_form(unf, c, osc=osc).records()
    assert verify_primitive(unf, pf, c=c)


@pytest.mark.parametrize("c", [None, {(8, 1): Fraction(1)}],
                         ids=["c0", "c81=1"])
def test_socle_solve_reduces_each_alpha_once(monkeypatch, elliptic, c):
    # the walk record of Phi_1 from the zeroth part serves every later
    # part, so the solve reduces each of the N alphas once, where walking
    # each part from its root reduced 117 (c0) and 119 (c81=1) times
    unf = build_unfolding(elliptic, 60, mask=[8])
    seen = count_reductions(monkeypatch)
    primitive_form(unf, c=c)
    assert 0 < len(seen.reduced) <= 61


def test_p1_solve_and_verify_reduce_one_monomial(monkeypatch):
    # the Laurent t-power bound leaves every reduced term of Q_{2,n}
    # below the floor, so only [1] is reduced and the classes of
    # z^-2 .. z^-20 are never filled
    data = P1MirrorData(2)
    unf = build_unfolding(data, 20, u_names=["u0", "u1"],
                          overrides={2: lambda u: exp_series(u) - 1})
    seen = count_reductions(monkeypatch)
    pf = primitive_form(unf)
    assert len(seen.monomials) <= 1
    seen.monomials.clear()
    assert verify_primitive(unf, pf)
    assert len(seen.monomials) <= 1
    assert len(data.mono_cache) == 2


def _solve_against_oracle(monkeypatch, unf, c):
    """The records of the solve, which replays walk records, and of
    recursive_solve, which keeps none, with the number of reductions of
    each."""
    filtration = good_filtration(unf, c)
    runs = []
    for solve in (primitive_form, recursive_solve):
        with monkeypatch.context() as m:
            seen = count_reductions(m)
            records = solve(unf, filtration)
        if solve is primitive_form:
            records = [(q, j, dict(e.terms)) for q, j, e in records.records()]
        runs.append((records, len(seen.reduced)))
    return runs


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_replay_matches_walk_on_full_unfoldings(monkeypatch, case):
    unf = build_unfolding(analyze_oracle_case(case), 4)
    (replayed, fewer), (walked, more) = _solve_against_oracle(
        monkeypatch, unf, None)
    assert replayed == walked
    assert fewer <= more


@pytest.mark.parametrize("case, N, mask, c", TWO_SOLVE_CASES)
def test_replay_matches_walk(monkeypatch, case, N, mask, c):
    unf = _two_solve_unfolding(case, N, mask)
    (replayed, fewer), (walked, more) = _solve_against_oracle(
        monkeypatch, unf, c)
    assert replayed == walked
    assert fewer <= more
    if mask or case[3:]:
        # on the socle direction Phi_1 recurs in every part, and the E12
        # solves with an override replay some records
        assert fewer < more


@pytest.mark.parametrize("name, N, mask", [("e12", 6, None),
                                           ("elliptic", 10, [8])])
def test_solve_reduces_no_alpha_zero(request, monkeypatch, name, N, mask):
    # the products of a part with alpha = 0 are the part itself, which is
    # no longer pending: the solve's terms take |alpha| >= 1 alone
    unf = build_unfolding(request.getfixturevalue(name), N, mask=mask)
    seen = count_reductions(monkeypatch)
    primitive_form(unf)
    assert seen.reduced
    assert not any(P is unf.one for P in seen.reduced)


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
    # the mu rows of the A^(k) family took 71983 products at N = 8; the
    # recursion projects zeta_+ alone and takes a few hundred
    unf = build_unfolding(e12, 8)
    calls = count_products(monkeypatch)
    primitive_form(unf)
    assert 0 < len(calls) <= 1000


@pytest.mark.parametrize("case", ORACLE_ZOO + ["elliptic"],
                         ids=[c[0] for c in ORACLE_ZOO] + ["elliptic c81=1"])
def test_lazy_walk_projects_zeta_as_the_ring_order_oracle(elliptic, case):
    # the walk forms P_alpha only when a term or a descendant first reads
    # it: zeta_+ projected as verify_primitive does, at the floors 0 and
    # -2, is the ring-order projection, read once at -2
    data, c = (elliptic, {(8, 1): 1}) if case == "elliptic" else \
        (analyze_oracle_case(case), None)
    unf = build_unfolding(data, 4)
    filtration = good_filtration(unf, c)
    classes = [_as_t_rpolys(unf, primitive_form(unf, c=filtration))]
    want, = ring_order_projection(unf, classes, filtration, -2)
    for floor in (0, -2):
        got, = oscillating_projection(unf, classes, filtration, floor)
        assert got == ReducedClass(data.mu, {
            k: row for k, row in want.rows.items() if k >= floor}), floor


def test_w12_solve_and_verify_products(monkeypatch):
    # P_alpha is formed on first use, so an alpha that no term takes and
    # no descendant reads costs no product: 17495 products in the solve
    # and 52167 in the verify when every reached P_alpha was formed, and
    # 13270 in the solve when a slot seen in one part only walked twice
    data = analyze_oracle_case(("x^4 + y^5", ("x", "y"), ["1/4", "1/5"]))
    unf = build_unfolding(data, 14)
    calls = count_products(monkeypatch)
    pf = primitive_form(unf)
    assert 0 < len(calls) <= 10900
    calls.clear()
    assert verify_primitive(unf, pf)
    assert 0 < len(calls) <= 7100


def test_e12_solve_and_verify_products(monkeypatch, e12):
    # each solve term walks once: 18226 products in the solve when a slot
    # seen in one part only walked there and again in its next part
    unf = build_unfolding(e12, 24)
    calls = count_products(monkeypatch)
    pf = primitive_form(unf)
    assert 0 < len(calls) <= 14700
    calls.clear()
    assert verify_primitive(unf, pf)
    assert 0 < len(calls) <= 9100


@pytest.mark.parametrize("case, N", [
    (("x^3 + y^7", ("x", "y"), ["1/3", "1/7"]), 12),
    (("x^4 + y^5", ("x", "y"), ["1/4", "1/5"]), 14)])
def test_each_solve_term_walks_once(monkeypatch, case, N):
    # every product term of the solve is keyed: it walks in the first
    # part that has its slot and replays its record in the later ones, so
    # no (t0, h) is walked twice in one solve
    unf = build_unfolding(analyze_oracle_case(case), N)
    walked = []
    walk = unfolding.Projector.walk

    def walking(self, terms):
        walked.extend((t0, frozenset(h.terms.items()))
                      for t0, h, _, _, _ in terms)
        return walk(self, terms)

    monkeypatch.setattr(unfolding.Projector, "walk", walking)
    primitive_form(unf)
    assert len(walked) > 1
    assert len(set(walked)) == len(walked)


def _corrupt_reductions(monkeypatch, t_power):
    # every nonconstant monomial reduces with an extra t^t_power phi_1
    reduce_monomial = unfolding.reduce_monomial

    def corrupted(base, exp):
        red = reduce_monomial(base, exp)
        if not any(exp):
            return red
        out = ReducedClass(base.mu, red.rows)
        row = out.rows.setdefault(t_power, {})
        row[0] = row.get(0, Fraction(0)) + 1
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


def _pairing_oracle(filtration):
    """The positive-t part of K(Phi_i, Phi_j) as {(i, j, r): value} from
    singularity.K on the basis polynomials, one pair at a time, by
    sesquilinearity: K(t^a phi_k, t^b phi_l) = t^a (-t)^b K(phi_k, phi_l)."""
    data, mu = filtration.base, filtration.base.mu
    out = {}
    for i in range(mu):
        for j in range(mu):
            for k, m_ik in filtration.rows[i].items():
                for l, m_jl in filtration.rows[j].items():
                    a, b = filtration.t_power(i, k), filtration.t_power(j, l)
                    value = K(data, [(data.basis[k], data.basis[l])], 0)[0]
                    if a + b > 0 and value:
                        key = (i, j, a + b)
                        out[key] = out.get(key, 0) + \
                            m_ik * m_jl * (-1) ** b * value[0]
    return {key: v for key, v in out.items() if v}


def test_non_good_c_is_rejected(quintic_pair):
    # c(15,1) alone gives K(Phi_15, Phi_16) = t/25 and K(Phi_16, Phi_15)
    # = -t/25: not a good opposite filtration; the solve and the verify
    # used to accept it
    c = {(15, 1): Fraction(1)}
    filtration = OppositeFiltration(quintic_pair, c)   # stays permissive
    assert positive_pairing(filtration) == _pairing_oracle(filtration) == {
        (14, 15, 1): Fraction(1, 25), (15, 14, 1): Fraction(-1, 25)}
    unf = build_unfolding(quintic_pair, 3)
    message = r"not good: at \(i, j, r\) = \(15, 16, 1\) K\(Phi_i, Phi_j\) " \
        r"has the t\^r coefficient 1/25"
    with pytest.raises(ValueError, match=message):
        primitive_form(unf, c=c)
    pf = primitive_form(unf)
    for bad in (c, filtration):
        with pytest.raises(ValueError, match=message):
            verify_primitive(unf, pf, c=bad)
    # c(16,2) = 1 cancels the defect, and the form verifies
    good = {(15, 1): Fraction(1), (16, 2): Fraction(1)}
    assert positive_pairing(OppositeFiltration(quintic_pair, good)) == \
        _pairing_oracle(OppositeFiltration(quintic_pair, good)) == {}
    assert verify_primitive(unf, primitive_form(unf, c=good), c=good)


def test_non_good_c_is_rejected_on_the_osc_path(quintic_pair):
    # c(14,1) alone is not good; oscillator_matrices does not check it,
    # and primitive_form(osc=...) returned 4 records for it
    c = {(14, 1): Fraction(1)}
    unf = build_unfolding(quintic_pair, 3)
    osc = oscillator_matrices(unf, c)
    message = r"not good: at \(i, j, r\) = \(14, 16, 1\)"
    for kwargs in ({"c": c}, {"osc": osc}):
        with pytest.raises(ValueError, match=message):
            primitive_form(unf, **kwargs)


@pytest.mark.parametrize("case, other", [
    (("x^4 + y^5", ("x", "y"), ["1/4", "1/5"]), "e12"),
    (("x^7", ("x",), ["1/7"]), "e6_cusp")])
def test_filtration_of_another_singularity_is_rejected(request, case,
                                                       other):
    # on W12 an E12 filtration gave a form that failed its verify, and on
    # x^7 an E6 one gave a form whose verify could not reduce the
    # monomial with exponent (0, 0)
    unf = build_unfolding(analyze_oracle_case(case), 4)
    filtration = OppositeFiltration(request.getfixturevalue(other))
    message = "the opposite filtration is of another singularity"
    with pytest.raises(ValueError, match=message):
        primitive_form(unf, c=filtration)
    with pytest.raises(ValueError, match=message):
        verify_primitive(unf, primitive_form(unf), c=filtration)


def test_primitive_form_of_another_unfolding_is_rejected(elliptic):
    # the walk zipped the 8 directions of the full unfolding with the one
    # of the socle direction: verify_primitive(full, pf_masked) reported a
    # defect in u1^3 and verify_class_equal compared such sums
    full = build_unfolding(elliptic, 4)
    pf_full = primitive_form(full)
    message = "the PrimitiveForm rep is of another unfolding"
    others = [build_unfolding(elliptic, 4, mask=[8]),
              build_unfolding(elliptic, 3),
              build_unfolding(elliptic, 4, overrides={8: _u_plus_half_square})]
    for other in others:
        pf_other = primitive_form(other)
        for unf, rep in ((full, pf_other), (other, pf_full)):
            with pytest.raises(ValueError, match=message):
                verify_primitive(unf, rep)
            with pytest.raises(ValueError, match=message):
                verify_class_equal(unf, rep, rep)
    # the same unfolding built again is accepted
    again = build_unfolding(elliptic, 4)
    assert verify_primitive(again, pf_full)
    assert verify_class_equal(again, pf_full, primitive_form(again))


def test_goodness_at_t_squared(quartic_fourfold):
    # on the fourfold (s = 2) the socle slot (81, 1) has the gap 2, so
    # K(Phi_81, Phi_81) gets t^2 eta_1,81 from (a, b) = (0, 2) with the sign
    # (-1)^2 and as much from (2, 0): 2/256
    c = {(81, 1): 1}
    filtration = OppositeFiltration(quartic_fourfold, c)
    assert positive_pairing(filtration) == _pairing_oracle(filtration) == {
        (80, 80, 2): Fraction(1, 128)}
    message = r"not good: at \(i, j, r\) = \(81, 81, 2\) " \
        r"K\(Phi_i, Phi_j\) has the t\^r coefficient 1/128"
    with pytest.raises(ValueError, match=message):
        primitive_form(build_unfolding(quartic_fourfold, 1), c=c)
    # the gap-1 slots (81, 32) and (81, 50), with eta_32,50 = 1/256, add
    # the (a, b) = (1, 1) product -2 * 2 * 3/256 to the t^2 coefficient
    c = {(81, 1): 1, (81, 32): 2, (81, 50): 3}
    filtration = OppositeFiltration(quartic_fourfold, c)
    assert positive_pairing(filtration) == _pairing_oracle(filtration) == {
        (80, 80, 2): Fraction(-5, 128),
        (31, 80, 1): Fraction(-3, 256), (80, 31, 1): Fraction(3, 256),
        (49, 80, 1): Fraction(-1, 128), (80, 49, 1): Fraction(1, 128)}


def test_anti_diagonal_c_of_the_tests_is_good(elliptic, quartic_pair,
                                              monkeypatch):
    for data, slot in ((elliptic, (8, 1)), (quartic_pair, (9, 1))):
        unf = build_unfolding(data, 2)
        for value in (1, Fraction(-7, 3)):
            filtration = OppositeFiltration(data, {slot: value})
            assert good_filtration(unf, filtration) is filtration
            assert _pairing_oracle(filtration) == {}
    # a trivial c is good without a check
    monkeypatch.setattr(primitive, "positive_pairing", None)
    unf = build_unfolding(elliptic, 2)
    assert verify_primitive(unf, primitive_form(unf, c={(8, 1): 0}))


@pytest.mark.parametrize("data_name, N, mask, c", [
    ("e12", 6, None, None), ("elliptic", 6, [8], {(8, 1): Fraction(1)}),
    ("p1", 8, None, None)])
def test_solve_builds_ring_elements_only_for_zeta(request, monkeypatch,
                                                  data_name, N, mask, c):
    # the parts of the solve stay {gamma: Fraction} dicts: the one ring
    # element built per entry of zeta is its final entry
    if data_name == "p1":
        unf = build_unfolding(P1MirrorData(2), N, u_names=["u0", "u1"],
                              overrides={2: lambda u: exp_series(u) - 1})
    else:
        unf = build_unfolding(request.getfixturevalue(data_name), N,
                              mask=mask)
    ring = unf.ring_zero().variables
    built, like, wrap = [], MPoly._like, unfolding.UnfoldRingElem

    def counting_like(self, terms, laurent=None):
        if self.variables == ring:
            built.append(None)
        return like(self, terms, laurent)

    def counting_wrap(*args, **kwargs):
        built.append(None)
        return wrap(*args, **kwargs)

    monkeypatch.setattr(MPoly, "_like", counting_like)
    monkeypatch.setattr(unfolding, "UnfoldRingElem", counting_wrap)
    pf = primitive_form(unf, c=c)
    # ring_zero once, then one entry per slot of zeta
    assert len(built) == 1 + len(pf.records())
