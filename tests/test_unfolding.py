import json
import math
import random
import re
from fractions import Fraction

import pytest

from saitoforms import P1MirrorData, UnfoldRingElem, linalg, unfolding
from saitoforms.brieskorn import ReducedClass, reduce_monomial
from saitoforms.mpoly import MPoly
from saitoforms.parsing import parse_poly
from saitoforms.primitive import primitive_form, verify_primitive
from saitoforms.cli import main
from saitoforms.unfolding import (
    GradingViolation, InvalidOverride, OppositeFiltration, build_unfolding,
    coefficient_list, exp_series, grading, oscillating_projection,
    oscillator_matrices, positive_bound,
)

from conftest import (
    ORACLE_ZOO, QUARTIC_FOURFOLD, analyze_oracle_case, count_products,
    count_reductions, full_floor, full_oscillator_family, make_a,
    monomials_up_to, phi_classes, ring_order_projection, u_degree,
)


def _elem(unf, terms):
    return UnfoldRingElem(len(unf.indices), unf.N,
                          {e: Fraction(c) for e, c in terms.items()})


def test_chain_point_first_order_matrix():
    # full unfolding of z^3 at first order: A^(-1) = [[u1, u2], [0, u1]];
    # k = -1 lies outside the window (a = 0), so read the full family
    data = make_a(2)
    unf = build_unfolding(data, 1)
    osc = full_oscillator_family(unf)
    m = osc.matrices[-1]
    u1 = _elem(unf, {(1, 0): 1})
    u2 = _elem(unf, {(0, 1): 1})
    zero = unf.ring_zero()
    assert m == [[u1, u2], [zero, u1]]


def test_base_point_is_identity(e6_cusp):
    unf = build_unfolding(e6_cusp, 3)
    osc = oscillator_matrices(unf)
    one = unf.ring_one()
    zero = unf.ring_zero()
    # an absent k is a zero block; A^(0) is there, its constant term Id
    assert 0 in osc.matrices
    for k, m in osc.matrices.items():
        for i in range(e6_cusp.mu):
            for j in range(e6_cusp.mu):
                const = m[i][j].terms.get((0,) * len(unf.indices), Fraction(0))
                assert const == (1 if (i == j and k == 0) else 0)
    assert one.terms != zero.terms


def test_matrices_stop_at_positive_bound(e6_cusp):
    unf = build_unfolding(e6_cusp, 3)
    osc = oscillator_matrices(unf)
    assert osc.a == positive_bound(e6_cusp, 3)
    assert osc.a + 1 not in osc.matrices


def test_grading_of_entries(e6_cusp):
    # t^k u^alpha coefficient in A_ij requires k + deg(u^alpha) + d_j - d_i = 0
    # over the full family, every k down to -N
    unf = build_unfolding(e6_cusp, 4)
    osc = full_oscillator_family(unf)
    assert min(osc.matrices) == -4
    d = e6_cusp.degrees
    seen = 0
    for k, m in osc.matrices.items():
        for i in range(e6_cusp.mu):
            for j in range(e6_cusp.mu):
                for exp, c in m[i][j].terms.items():
                    if c:
                        assert k + u_degree(unf, exp) + d[j] - d[i] == 0
                        seen += 1
    assert seen > 100


def test_p1_without_an_override_keeps_its_grading(p1_q2):
    # in Laurent mode the grading reads degrees over den = 1: d = (0, 1),
    # deg u0 = 1, deg u1 = 0; only an override drops it
    unf = build_unfolding(p1_q2, 4, u_names=["u0", "u1"])
    on_grade = grading(unf)
    assert on_grade is not None
    osc = full_oscillator_family(unf)
    d = p1_q2.degrees
    seen = 0
    for k, m in osc.matrices.items():
        for i in range(2):
            for j in range(2):
                for exp in m[i][j].terms:
                    want = k + u_degree(unf, exp) + d[j] - d[i] == 0
                    assert on_grade(k, i, j, exp) == want
                    seen += want
    assert seen > 10
    # u0 in A^(0)_11 and u1 at t^-1 in A_11 are off grade
    assert not on_grade(0, 0, 0, (1, 0))
    assert not on_grade(-1, 0, 0, (0, 1))
    assert on_grade(-1, 0, 0, (1, 0))
    assert grading(build_unfolding(
        p1_q2, 4, overrides={2: lambda u: exp_series(u) - 1})) is None
    # the solve checks each term of zeta_+ against it
    assert verify_primitive(unf, primitive_form(unf))


def test_masked_unfolding_variables(elliptic):
    unf = build_unfolding(elliptic, 5, mask=[8])
    assert len(unf.indices) == 1
    osc = oscillator_matrices(unf)
    for m in osc.matrices.values():
        for row in m:
            for e in row:
                for exp in e.terms:
                    assert len(exp) == 1


@pytest.mark.parametrize("kwargs, message", [
    ({"mask": [8, 2, 8]}, "mask index 8 is repeated"),
    ({"mask": [8], "u_names": ["s", "t"]}, "expected 1 u_names, one per "
     "parameter, got 2"),
    ({"u_names": ["s"]}, "expected 8 u_names, one per parameter, got 1"),
])
def test_unreadable_parameter_names_are_rejected(elliptic, kwargs, message):
    # a repeated index used to name two parameters u8 and print u8*u8^2
    with pytest.raises(ValueError, match=message):
        build_unfolding(elliptic, 3, **kwargs)


@pytest.mark.parametrize("N", [-1, 2.5, True, "3", None])
def test_build_unfolding_rejects_a_bad_order(N):
    # N = -1 gave a form with no records, which verify_primitive accepted
    with pytest.raises(ValueError, match="the truncation order N must be "
                       "a nonnegative integer, got %s" % re.escape(repr(N))):
        build_unfolding(make_a(2), N)


def test_build_unfolding_accepts_order_zero():
    unf = build_unfolding(make_a(2), 0)
    pf = primitive_form(unf)
    assert pf.records() == [(0, 1, unf.ring_one())]
    assert verify_primitive(unf, pf)


def test_truncate_consistency(elliptic):
    unf9 = build_unfolding(elliptic, 9, mask=[8])
    unf5 = build_unfolding(elliptic, 5, mask=[8])
    osc9 = oscillator_matrices(unf9)
    osc5 = oscillator_matrices(unf5)
    for k, m5 in osc5.matrices.items():
        m9 = osc9.matrices.get(k)
        assert m9 is not None
        for r5, r9 in zip(m5, m9):
            for e5, e9 in zip(r5, r9):
                assert e9.truncate(5) == e5


def test_opposite_filtration_validation(elliptic):
    filt = OppositeFiltration(elliptic, {(8, 1): Fraction(1)})
    assert filt.t_power(7, 0) == 1
    with pytest.raises(Exception):
        OppositeFiltration(elliptic, {(1, 8): Fraction(1)})


# elliptic degrees: 0, 1/3 (x3), 2/3 (x3), 1
@pytest.mark.parametrize("c, gap", [({(8, 2): 1}, "2/3"),
                                    ({(1, 8): 1}, "-1"),
                                    ({(2, 5): 1}, "-1/3"),
                                    ({(2, 4): 1}, "0")])
def test_opposite_filtration_names_the_rejected_gap(elliptic, c, gap):
    (i, j), = c
    with pytest.raises(GradingViolation) as err:
        OppositeFiltration(elliptic, c)
    assert str(err.value) == \
        "c[%d,%d] requires degree gap in Z_>0, got %s" % (i, j, gap)


def test_t_power_rejects_a_non_integer_gap(elliptic):
    filt = OppositeFiltration(elliptic)
    assert filt.t_power(7, 0) == 1 and filt.t_power(0, 7) == -1
    with pytest.raises(GradingViolation) as err:
        filt.t_power(7, 1)
    assert str(err.value) == "non-integer t-power between phi_8 and phi_2"


def test_upper_basis_reduces_to_unit_vectors(elliptic):
    # Phi_i written over the Milnor basis and read back in Phi(c)
    # coordinates is the unit vector e_i at t^0: at N = 0 the projection
    # is the reduction followed by coords_to_upper
    filt = OppositeFiltration(elliptic, {(8, 1): Fraction(3)})
    mu = elliptic.mu
    unf = build_unfolding(elliptic, 0)
    rows = oscillating_projection(unf, phi_classes(unf, filt), filt, 0)
    for i, row in enumerate(rows):
        assert row == ReducedClass(mu, {0: {i: Fraction(1)}})


def _dense(rows, mu):
    return [[row.get(j, Fraction(0)) for j in range(mu)] for row in rows]


@pytest.mark.parametrize("case", ORACLE_ZOO + [QUARTIC_FOURFOLD],
                         ids=lambda case: case[0])
def test_sparse_inverse_is_the_dense_inverse(case):
    data = analyze_oracle_case(case)
    mu, scaled, den = data.mu, data.scaled, data.den
    slots = [(i + 1, j + 1) for i in range(mu) for j in range(mu)
             if scaled[i] > scaled[j] and (scaled[i] - scaled[j]) % den == 0]
    # below central charge 1 (A2, E6) there is no slot and c is trivial
    rng = random.Random(len(slots))
    chained = 0
    for _ in range(3):
        c = {slot: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for slot in slots if rng.random() < 0.6}
        filt = OppositeFiltration(data, c)
        mat = linalg.identity(mu)
        for (i, j), value in c.items():
            mat[i - 1][j - 1] = value
        inv = linalg.mat_inv(mat)
        assert _dense(filt.rows, mu) == mat
        assert _dense(filt.inverse, mu) == inv
        for row in filt.rows + filt.inverse:
            assert list(row) == sorted(row) and all(row.values())
        assert filt.lift == max(filt.t_power(l, j) for l in range(mu)
                                for j in range(mu) if inv[l][j])
        for i in range(mu):
            assert filt.upper(i) == [
                (filt.t_power(i, j),
                 {e: mat[i][j] * x for e, x in data.basis[j].terms.items()})
                for j in range(mu) if mat[i][j]]
        # an inverse entry past first order is a product of chained slots
        chained += any(inv[i][j] != -mat[i][j] for i in range(mu)
                       for j in range(mu) if i != j)
    if case is QUARTIC_FOURFOLD:
        assert chained


# the ADE points of the benchmark's full unfoldings: A2..A5, D5, E6, E7, E8
ADE = [("z^%d" % n, ("z",), ["1/%d" % n]) for n in range(3, 7)] + [
    ("x^2*y + y^4", ("x", "y"), ["3/8", "1/4"]),
    ("x^3 + y^4", ("x", "y"), ["1/3", "1/4"]),
    ("x^3 + x*y^3", ("x", "y"), ["1/3", "2/9"]),
    ("x^3 + y^5", ("x", "y"), ["1/3", "1/5"]),
]


def test_solve_and_verify_invert_no_dense_matrix(monkeypatch, elliptic):
    cases = [(analyze_oracle_case(case), None) for case in ADE] + \
        [(elliptic, {(8, 1): 1})]

    def refuse(a):
        raise AssertionError("dense inverse of a %d x %d matrix"
                             % (len(a), len(a)))

    monkeypatch.setattr(linalg, "mat_inv", refuse)
    for data, c in cases:
        unf = build_unfolding(data, 3)
        pf = primitive_form(unf, c)
        assert verify_primitive(unf, pf, c=c)


def test_build_unfolding_multiplies_nothing(monkeypatch, e12, elliptic):
    calls = count_products(monkeypatch)
    build_unfolding(e12, 6)
    build_unfolding(elliptic, 6, mask=[8])
    build_unfolding(elliptic, 6)
    assert not calls


@pytest.mark.parametrize("name, N, mask", [("e6_cusp", 3, None),
                                           ("elliptic-exp", 4, [8]),
                                           ("p1", 4, None)])
def test_exp_powers_are_the_powers_of_f_diff(request, name, N, mask):
    # (F-f)^k / k! as one MPoly in the z-variables and u, F - f being
    # sum_l psi_l(u_l) phi_l with psi_l from the override callables, against
    # the ring-valued table, which builds F - f on its first call
    unf = _window_unfolding(request, name, N, mask)
    base, nu = unf.base, unf.nu
    names = base.variables + tuple(unf.u_names)
    f_diff = MPoly(names, {}, unf.laurent)
    for j, coeff in zip(unf.indices, _psi(unf, _window_overrides(name))):
        f_diff = f_diff + MPoly(names, {
            e + u: c * v for e, c in base.basis[j].terms.items()
            for u, v in coeff.terms.items()}, unf.laurent)
    power = MPoly.constant(names, 1, unf.laurent)
    table = unf.exp_powers()
    assert len(table) == N + 1
    for k, ring_power in enumerate(table):
        if k:
            power = power * f_diff * Fraction(1, k)
            power = MPoly(names, {e: c for e, c in power.terms.items()
                                  if sum(e[base.n:]) <= N}, unf.laurent)
        assert {e + u: v for e, elem in ring_power.items()
                for u, v in elem.terms.items()} == power.terms
    assert unf.exp_powers() is table


@pytest.mark.parametrize("c", [{(0, 1): 1}, {(8, 0): 1}, {(9, 1): 1},
                               {(1, 9): 0}])
def test_opposite_filtration_rejects_slots_out_of_range(elliptic, c):
    (i, j), = c
    with pytest.raises(ValueError,
                       match=r"\(%d, %d\) out of range 1\.\.8" % (i, j)):
        OppositeFiltration(elliptic, c)


@pytest.mark.parametrize("key, message", [
    ((8, True), "c slot (8, True): index True is not an integer basis index"),
    ((8.0, 1), "c slot (8.0, 1): index 8.0 is not an integer basis index"),
    (("8", 1), "c slot ('8', 1): index '8' is not an integer basis index"),
    (8, "c slot 8 is not a pair (i, j)"),
    ((8, 1, 2), "c slot (8, 1, 2) is not a pair (i, j)")],
    ids=["bool", "float", "str", "int", "triple"])
def test_opposite_filtration_rejects_a_malformed_slot_key(elliptic, key,
                                                          message):
    # (8, True) was read as the slot (8, 1), a float or str index ended in
    # a bare TypeError, and the keys 8 and (8, 1, 2) in unpacking errors
    with pytest.raises(ValueError, match=re.escape(message)):
        OppositeFiltration(elliptic, {key: 1})
    with pytest.raises(ValueError, match=re.escape(message)):
        primitive_form(build_unfolding(elliptic, 2), c={key: 1})


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1"],
                         ids=["float", "integral-float", "bool", "str"])
def test_opposite_filtration_rejects_an_inexact_value(elliptic, value):
    # 0.1 was read as the slot 3602879701896397/36028797018963968 and True
    # as the slot 1, with no error
    message = re.escape("c slot (8, 1): value %r is not an exact rational "
                        "(an int or a Fraction)" % (value,))
    with pytest.raises(ValueError, match=message):
        OppositeFiltration(elliptic, {(8, 1): value})
    with pytest.raises(ValueError, match=message):
        primitive_form(build_unfolding(elliptic, 2), c={(8, 1): value})


def test_opposite_filtration_takes_an_int_or_a_fraction(elliptic):
    for value in (1, Fraction(1), Fraction(2, 2)):
        assert OppositeFiltration(elliptic, {(8, 1): value}).c == \
            {(8, 1): Fraction(1)}


# (A_k chain index or fixture name, N, mask, c)
WINDOW_CASES = [
    (2, 4, None, None), (3, 4, None, None), (4, 4, None, None),
    (5, 4, None, None), ("e6_cusp", 4, None, None),
    ("e12", 4, None, None),
    ("elliptic", 3, None, {(8, 1): Fraction(1)}),
    ("elliptic", 4, [8], {(8, 1): Fraction(1)}),
    ("quartic_pair", 3, None, {(9, 1): Fraction(2)}),
    ("quartic_pair", 4, [9], {(9, 1): Fraction(2)}),
    ("p1", 6, None, None),
    ("elliptic-exp", 4, [8], {(8, 1): Fraction(1)}),
    ("e6_cusp-exp", 4, None, None),
]

# polynomial-mode overrides: fixture and index of the direction that is
# exponentiated. deg u_8 = 0 on the elliptic cone, so e^u - 1 stays
# homogeneous there; deg u_3 = 2/3 on the cusp, where it mixes degrees
EXPONENTIATED = {"elliptic-exp": ("elliptic", 8),
                 "e6_cusp-exp": ("e6_cusp", 3)}


def _exp_minus_one(u):
    return exp_series(u) - 1


def _window_overrides(name):
    """The overrides of a window case: the exponentiated direction of the
    P^1 mirror (index 2) or of EXPONENTIATED, else None."""
    if name == "p1":
        return {2: _exp_minus_one}
    if name in EXPONENTIATED:
        return {EXPONENTIATED[name][1]: _exp_minus_one}
    return None


def _window_unfolding(request, name, N, mask):
    overrides = _window_overrides(name)
    if name == "p1":
        return build_unfolding(P1MirrorData(2), N, u_names=["u0", "u1"],
                               overrides=overrides)
    fixture = EXPONENTIATED[name][0] if name in EXPONENTIATED else name
    data = make_a(name) if isinstance(name, int) else \
        request.getfixturevalue(fixture)
    return build_unfolding(data, N, mask=mask, overrides=overrides)


def _psi(unf, overrides):
    """psi_l(u_l) per direction as a ring element, read from the override
    callables themselves: fn(u_l), or u_l where there is none."""
    out = []
    for pos, j in enumerate(unf.indices):
        u = UnfoldRingElem(unf.nu, unf.N, {
            tuple(int(i == pos) for i in range(unf.nu)): 1})
        fn = (overrides or {}).get(j + 1)
        out.append(u if fn is None else fn(u))
    return out


@pytest.mark.parametrize("name, N, mask, c", WINDOW_CASES)
def test_window_is_full_family_restricted(request, name, N, mask, c):
    unf = _window_unfolding(request, name, N, mask)
    full = full_oscillator_family(unf, c)
    osc = oscillator_matrices(unf, c=c)
    a = osc.a
    assert a == full.a
    assert osc.matrices == {k: m for k, m in full.matrices.items()
                            if -a <= k <= a}
    records = primitive_form(unf, c, osc=osc).records()
    assert records == primitive_form(unf, c, osc=full).records()
    # the order-by-order solve is a second, independent algorithm
    pf = primitive_form(unf, c)
    assert (pf.records(), pf.a) == (records, a)


def test_window_drops_dead_powers(e12):
    unf = build_unfolding(e12, 4)
    full = full_oscillator_family(unf)
    osc = oscillator_matrices(unf)
    assert min(full.matrices) < -osc.a
    assert all(-osc.a <= k <= osc.a for k in osc.matrices)
    assert -osc.a - 1 not in osc.matrices


@pytest.mark.parametrize("name, N, mask, c", WINDOW_CASES)
def test_projection_matches_ring_order_oracle(request, name, N, mask, c):
    unf = _window_unfolding(request, name, N, mask)
    filt = OppositeFiltration(unf.base, c)
    classes = phi_classes(unf, filt)
    a = positive_bound(unf.base, N)
    # -2 is the floor that reads the flat coordinates and the potential
    for floor in (full_floor(unf, classes), -a, -2, 0):
        assert oscillating_projection(unf, classes, filt, floor) == \
            ring_order_projection(unf, classes, filt, floor), floor


@pytest.mark.parametrize("case", ORACLE_ZOO + ["p1", "e6-override"],
                         ids=lambda case: case if isinstance(case, str)
                         else case[0])
def test_full_floor_keeps_the_whole_family(e6_cusp, p1_q2, case):
    # at the floor t_min - N the projection keeps every t-power: it is
    # the ring-order projection with no floor, on the Phi_i and on a
    # class whose top basis element stands at t^-1, so that t_min = -1
    if case == "p1":
        unf = build_unfolding(p1_q2, 3, u_names=["u0", "u1"],
                              overrides={2: _exp_minus_one})
    elif case == "e6-override":
        unf = build_unfolding(e6_cusp, 3, overrides={2: _exp_minus_one})
    else:
        unf = build_unfolding(analyze_oracle_case(case), 2)
    filt = OppositeFiltration(unf.base)
    top = unf.base.basis[-1].terms
    for classes in (phi_classes(unf, filt), [[(-1, top, unf.ring_one())]]):
        floor = full_floor(unf, classes)
        assert oscillating_projection(unf, classes, filt, floor) == \
            ring_order_projection(unf, classes, filt), floor


def test_constant_direction_is_read_off_the_unfolding(e6_cusp, p1_q2):
    # the constant direction is the parameter of the basis element 1 with
    # psi = u; an override of it, or a mask without it, leaves none, and
    # the projection then walks every direction
    def exp_minus_one(u):
        return exp_series(u) - 1

    assert build_unfolding(e6_cusp, 3).constant == 0
    assert build_unfolding(e6_cusp, 3, mask=[2, 6]).constant is None
    assert build_unfolding(p1_q2, 3, overrides={2: exp_minus_one}) \
        .constant == 0
    unf = build_unfolding(e6_cusp, 4, overrides={1: exp_minus_one})
    assert unf.constant is None
    filt = OppositeFiltration(unf.base)
    classes = phi_classes(unf, filt)
    for floor in (full_floor(unf, classes), -2, 0):
        assert oscillating_projection(unf, classes, filt, floor) == \
            ring_order_projection(unf, classes, filt, floor), floor


def _beyond_the_bound(rows, a, one, zero, u1):
    rows[0].rows[a + 1] = {0: one}
    return "t^%d term beyond the bound a=%d at A[1][1]" % (a + 1, a)


def _off_diagonal_constant(rows, a, one, zero, u1):
    rows[0].rows[0][1] = rows[0].rows[0].get(1, zero) + one
    return "A^(0)[1][2](0) = 1, expected 0"


def _off_grade_monomial(rows, a, one, zero, u1):
    rows[0].rows[0][0] += u1
    return "off-grade term u^%r in A^(0)[1][1]" % (next(iter(u1.terms)),)


def _missing_diagonal(rows, a, one, zero, u1):
    del rows[2].rows[0][2]
    return "A^(0)[3][3](0) = 0, expected 1"


def _no_identity_block(rows, a, one, zero, u1):
    for row in rows:
        del row.rows[0]
    return "A^(0)[1][1](0) = 0, expected 1"


@pytest.mark.parametrize("corrupt", [
    _beyond_the_bound, _off_diagonal_constant, _off_grade_monomial,
    _missing_diagonal, _no_identity_block])
def test_checks_reject_a_corrupted_entry(monkeypatch, e6_cusp, corrupt):
    # one entry of the real rows corrupted; u1 has degree 1 - d_1 = 1,
    # so u1 in A^(0)_11 is off grade
    unf = build_unfolding(e6_cusp, 3)
    project = oscillating_projection
    message = []

    def corrupted(*args, **kwargs):
        rows = project(*args, **kwargs)
        u1 = _elem(unf, {(1,) + (0,) * (unf.nu - 1): 1})
        message.append(corrupt(rows, positive_bound(e6_cusp, 3),
                               unf.ring_one(), unf.ring_zero(), u1))
        return rows

    monkeypatch.setattr(unfolding, "oscillating_projection", corrupted)
    with pytest.raises(GradingViolation) as err:
        oscillator_matrices(unf)
    assert re.fullmatch(re.escape(message[0]), str(err.value))


def test_override_with_a_constant_term_is_rejected(e6_cusp):
    # the (F-f)^K/K! series cut at K = N is exact only for coefficients in
    # the maximal ideal; before the check this input verified as primitive
    with pytest.raises(InvalidOverride,
                       match="phi_2 has the nonzero constant term 1"):
        build_unfolding(e6_cusp, 3, overrides={2: lambda u: u + 1})
    assert issubclass(InvalidOverride, ValueError)


@pytest.mark.parametrize("mask, overrides, message", [
    ([1], {2: _exp_minus_one}, "override index 2 is not in the mask"),
    ([1], {2: None}, "override index 2 is not in the mask"),
    ([1], {1: None, 7: None}, r"override index 7 out of range 1\.\.2"),
    (None, {0: _exp_minus_one}, r"override index 0 out of range 1\.\.2")])
def test_override_of_no_parameter_is_rejected(p1_q2, mask, overrides,
                                              message):
    # an override is looked up only for the directions that carry a
    # parameter: one anywhere else used to be ignored without a word
    with pytest.raises(ValueError, match=message):
        build_unfolding(p1_q2, 4, mask=mask, overrides=overrides)


def test_build_unfolding_builds_no_ring_element(monkeypatch, e12, elliptic):
    # each direction is kept as its series {power: Fraction}
    def refuse(*args, **kwargs):
        raise AssertionError("ring element built")

    monkeypatch.setattr(unfolding, "UnfoldRingElem", refuse)
    for unf in (build_unfolding(e12, 6), build_unfolding(elliptic, 6),
                build_unfolding(elliptic, 6, mask=[8])):
        assert unf.series == [{1: 1}] * unf.nu
        assert not unf.override


@pytest.mark.parametrize("name, N, mask, index, c", [
    ("e12", 6, None, 3, None),
    ("elliptic", 6, [8], 8, {(8, 1): Fraction(1)})])
def test_identity_override_is_no_override(request, monkeypatch, name, N,
                                          mask, index, c):
    # an override that returns u itself leaves psi = u: the same records,
    # term by term in the same order, and the same graded cut, so the
    # same reductions
    data = request.getfixturevalue(name)
    reduce, runs = unfolding.Projector._reduce, []

    def counting(self, P, t0, h):
        calls.append(None)
        return reduce(self, P, t0, h)

    monkeypatch.setattr(unfolding.Projector, "_reduce", counting)
    for overrides in (None, {index: lambda u: u}):
        unf = build_unfolding(data, N, mask=mask, overrides=overrides)
        assert not unf.override and grading(unf) is not None
        calls = []
        records = primitive_form(unf, c=c).records()
        runs.append(([(q, j, list(e.terms.items())) for q, j, e in records],
                     len(calls)))
    assert runs[0] == runs[1]


def test_cross_variable_override_is_rejected(e6_cusp):
    u1 = UnfoldRingElem(e6_cusp.mu, 3, {(1,) + (0,) * 5: 1})
    with pytest.raises(InvalidOverride,
                       match="phi_2 involves a u-variable other than its own"):
        build_unfolding(e6_cusp, 3, overrides={2: lambda u: u + u1 * u})


@pytest.mark.parametrize("command", ["primitive-form", "verify"])
def test_cli_p1_exponentiated_job_runs(capsys, tmp_path, command):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": command, "N": 6,
                                "singularity": {"model": "p1", "q": "2"}}))
    assert main(["--job", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    if command == "verify":
        assert result == {"verified": True}
    else:
        assert result["records"][0]["terms"] == [{"u": "1", "value": "1"}]


@pytest.mark.parametrize("mask, name", [([1], "u0"), ([2], "u1")])
def test_cli_p1_masked_job_names_its_parameter(capsys, tmp_path, mask, name):
    # the direction of basis index i is u{i-1}; the parent named the one
    # parameter of a masked job with two names and failed
    path = tmp_path / "job.json"
    for command in ("primitive-form", "verify"):
        path.write_text(json.dumps({"command": command, "N": 6,
                                    "mask": mask, "singularity":
                                    {"model": "p1", "q": "2"}}))
        assert main(["--job", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        if command == "verify":
            assert result == {"verified": True}
        else:
            assert result["u_names"] == [name]
            for record in result["records"]:
                for term in record["terms"]:
                    parse_poly(term["u"], [name])


def test_q_of_a_linear_coefficient_is_a_power(e6_cusp):
    # for psi_l = u_l, Q_{l,n} = (phi_l / t)^n / n!
    unf = build_unfolding(e6_cusp, 4)
    variables = e6_cusp.variables + ("1/t",)
    for l, j in enumerate(unf.indices):
        phi_t = MPoly(variables, {e + (1,): c for e, c
                                  in e6_cusp.basis[j].terms.items()})
        for n in range(unf.N + 1):
            assert unf.q(l, n) == \
                phi_t ** n * Fraction(1, math.factorial(n))


def _closed_q(unf, l, overrides):
    """Q_{l,0..N} read off the closed series e^(psi phi/t) = sum_j
    psi^j (phi/t)^j / j!, with no recurrence: the u_l^n coefficient of
    psi^j in the truncated ring times (phi_l/t)^j / j!, summed over j;
    psi = psi_l from the override callables (see _psi)."""
    out = [{} for _ in range(unf.N + 1)]
    psi = _psi(unf, overrides)[l]
    power = unf.ring_one()
    for j in range(unf.N + 1):
        phi_j = unf.phis[l] ** j * Fraction(1, math.factorial(j))
        for exp, c in power.terms.items():
            slot = out[exp[l]]
            for e, v in phi_j.terms.items():
                slot[e] = slot.get(e, 0) + c * v
        power = power * psi
    return [{e: c for e, c in slot.items() if c} for slot in out]


def test_q_of_an_override_is_its_exponential_series(p1_q2):
    # psi = e^u - 1 on the P^1 mirror at N = 20: Q_{2,n} is the u^n
    # coefficient of e^(psi phi_2 / t), a Laurent MPoly; phi_2 = 2/z
    N = 20
    overrides = {2: _exp_minus_one}
    unf = build_unfolding(p1_q2, N, u_names=["u0", "u1"],
                          overrides=overrides)
    qs = [unf.q(1, n) for n in range(N + 1)]
    assert all(q.laurent for q in qs)
    assert qs[1].terms == {(-1, 1): 2}
    assert qs[2].terms == {(-1, 1): 1, (-2, 2): 2}
    assert [q.terms for q in qs] == _closed_q(unf, 1, overrides)


def _mixed_override(u):
    return u + u * u * Fraction(2, 3) - u * u * u * Fraction(5, 7)


@pytest.mark.parametrize("case", ["p1-q3/4", "x^6+y^6+x^3*y^3"])
def test_q_of_an_override_with_mixed_denominators(case):
    # psi = u + 2/3 u^2 - 5/7 u^3 and a phi_l with a non-integer
    # coefficient: the integer recurrence runs over the lcm of all their
    # denominators, and every Q_{l,n} is its closed series in lowest terms
    if case.startswith("p1"):
        overrides = {2: _mixed_override}
        unf = build_unfolding(P1MirrorData(Fraction(3, 4)), 20,
                              u_names=["u0", "u1"], overrides=overrides)
        l = 1
    else:
        # phi_12 = y^4 + x^3 y / 2, two terms
        data = analyze_oracle_case(ORACLE_ZOO[-1])
        overrides = {12: _mixed_override}
        unf = build_unfolding(data, 8, mask=[12], overrides=overrides)
        l = 0
    phi = unf.phis[l].terms
    assert any(c.denominator > 1 for c in phi.values())
    qs = [unf.q(l, n) for n in range(unf.N + 1)]
    assert [q.terms for q in qs] == _closed_q(unf, l, overrides)
    assert all(type(c) is Fraction for q in qs for c in q.terms.values())
    assert unf.q_ints[l][0] == 21 * math.lcm(*(c.denominator
                                                for c in phi.values()))


def test_q_is_built_as_far_as_the_search_reaches(e12):
    # building Q_{l,n} for every l and n <= N up front would make
    # nu * N = 96 of them on E12 at N = 8; the unfolding keeps the table
    unf = build_unfolding(e12, 8)
    primitive_form(unf)
    assert 0 < sum(len(qs) - 1 for qs in unf.qs) < unf.nu * unf.N


@pytest.mark.parametrize("mask, overrides, message", [
    (["1"], None, "mask entry '1' is not an integer basis index"),
    ([1.0], None, "mask entry 1.0 is not an integer basis index"),
    ([True, 2], None, "mask entry True is not an integer basis index"),
    (None, {"2": None}, "override key '2' is not an integer basis index"),
    (None, {True: _exp_minus_one},
     "override key True is not an integer basis index")])
def test_build_unfolding_rejects_a_non_int_index(p1_q2, mask, overrides,
                                                 message):
    # a str or float index ended in a bare TypeError, and True was read as
    # the index 1
    with pytest.raises(ValueError, match=re.escape(message)):
        build_unfolding(p1_q2, 4, mask=mask, overrides=overrides)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 4), Fraction(-3)])
def test_laurent_t_bound_is_sound(q):
    # [z^e] on the P^1 mirror has t-powers at most |e| - 1, and reaches
    # that bound: the projection may skip a monomial below it
    data = P1MirrorData(q)
    for e in range(-24, 25):
        if e:
            rows = reduce_monomial(data, (e,)).rows
            assert max(rows) == data.t_bound((e,)) == abs(e) - 1, e
    assert data.t_bound((0,)) == 0


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_polynomial_t_bound_is_sound(case):
    data = analyze_oracle_case(case)
    degree = 2 * data.s + 1
    for exp in monomials_up_to(data, degree):
        rows = reduce_monomial(data, exp).rows
        assert all(k <= data.t_bound(exp) for k in rows), exp


def _unbounded(monkeypatch):
    # a t_bound that never lets a monomial be skipped, and a reach that
    # never keeps a term from an alpha
    monkeypatch.setattr(P1MirrorData, "t_bound", lambda self, exp: math.inf)
    monkeypatch.setattr(P1MirrorData, "reach",
                        lambda self, exp, walked: math.inf)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 4)])
@pytest.mark.parametrize("exponentiated", [False, True])
def test_laurent_cut_matches_uncut_and_ring_order(monkeypatch, q,
                                                  exponentiated):
    # the per-monomial bound skips reductions and the reach bound whole
    # alphas (at the floor 0 with a trivial c), never a t-power at or
    # above the floor; the Laurent class pairs positive and negative
    # z-powers with ring coefficients, and each t^t0 z^e stands alone so
    # that the reach of every e is tried, with u0 walked when index 1
    # has an override
    skipped = pruned = 0
    for first in (None, _mixed_override):
        overrides = {1: first} if first else {}
        if exponentiated:
            overrides[2] = _exp_minus_one
        # a walked u0 multiplies the alphas, so that unfolding stops at 4
        unf = build_unfolding(P1MirrorData(q), 4 if first else 6,
                              u_names=["u0", "u1"], overrides=overrides)
        assert (unf.constant is None) == bool(first)
        ring = _elem(unf, {(0, 0): 1, (1, 0): 2, (0, 2): -3})
        z = MPoly(("z",), {(3,): 1, (-2,): Fraction(1, 5), (0,): 2},
                  laurent=True)
        monomials = [[(t0, {(e,): Fraction(1)}, unf.ring_one())]
                     for t0 in range(3) for e in range(-4, 6)]
        for c in (None, {(2, 1): Fraction(1)}):
            filt = OppositeFiltration(unf.base, c)
            classes = phi_classes(unf, filt) + [[(1, z.terms, ring)]] + \
                monomials
            for floor in (0, -2):
                with monkeypatch.context() as m:
                    seen = count_reductions(m)
                    cut = oscillating_projection(unf, classes, filt, floor)
                    skipped -= len(seen.monomials)
                    pruned -= len(seen.reduced)
                with monkeypatch.context() as m:
                    _unbounded(m)
                    seen = count_reductions(m)
                    assert oscillating_projection(unf, classes, filt,
                                                  floor) == cut
                    skipped += len(seen.monomials)
                    pruned += len(seen.reduced)
                assert cut == ring_order_projection(unf, classes, filt,
                                                    floor)
    assert skipped > 0 and pruned > 0


@pytest.mark.parametrize("first", [None, _exp_minus_one])
def test_p1_reach_is_sound(p1_q2, first):
    # every t-power of [P_alpha z^e], alpha != 0, is at most reach(e), and
    # the bound is met for some alpha at each e; u0 is walked when index
    # 1 has an override
    overrides = {2: _mixed_override}
    if first:
        overrides[1] = first
    N = 6
    unf = build_unfolding(p1_q2, N, u_names=["u0", "u1"],
                          overrides=overrides)
    assert (unf.constant is None) == bool(first)
    walked = {0, 1} if first else {1}
    ns = range(N + 1) if first else [0]
    products = [unf.q(0, a) * unf.q(1, b) for a in ns
                for b in range(N + 1) if 0 < a + b <= N]
    for e in range(-6, 9):
        top = max(k - m for P in products for d, m in P.terms
                  for k in reduce_monomial(p1_q2, (d + e,)).rows)
        assert top == p1_q2.reach((e,), walked), e


def _sink_rows(projector, sinks):
    """Every sink read through rows, as {(k, j, gamma): c}."""
    return {(k, j, gamma): c for slots in sinks
            for k, row in projector.rows(slots).items()
            for j, poly in row.items() for gamma, c in poly.items()}


def _u(unf, *positions):
    return tuple(positions.count(i) for i in range(unf.nu))


@pytest.mark.parametrize("floor", [-4, -2])
def test_replay_spreads_the_constant_direction_shifts(monkeypatch, e12,
                                                      floor):
    # the sums that a walk yields below its room, kept as the solve keeps
    # a record at u-degree 1, and replayed at the smaller room of a
    # coefficient of u-degree 2, spread as a fresh walk does, with no
    # reduction. A walk leaves out the factor e^(u1/t) of the constant
    # direction, so the sinks hold the projection of the unfolding
    # without u1. The floor -4 = t0 - N keeps every t-power
    unf = build_unfolding(e12, 4)
    assert unf.constant == 0
    filt = OppositeFiltration(e12)
    (t0, h), = filt.upper(5)                    # x*y
    second = {_u(unf, 1, 2): Fraction(3, 11), _u(unf, 1, 1): Fraction(-5, 13),
              _u(unf, 2, 5): Fraction(2, 9)}
    coeffs = coefficient_list(second)
    N = unf.N
    projector = unfolding.Projector(unf, filt, floor)
    record = [(alpha, size, sums) for _, alpha, size, sums
              in projector.walk([projector.term(t0, h, 1, 1)])
              if size < N - 1]
    replayed = {size: {} for size in range(1, N + 1)}
    with monkeypatch.context() as m:
        seen = count_reductions(m)
        for alpha, size, sums in record:
            if size <= N - 2:
                projector.spread(sums, alpha, size, replayed[size], coeffs)
    assert seen.reduced == []
    walked = {size: {} for size in range(1, N + 1)}
    for _, alpha, size, sums in projector.walk(
            [projector.term(t0, h, 2, 1)]):
        projector.spread(sums, alpha, size, walked[size], coeffs)
    assert {size: projector.rows(s) for size, s in replayed.items()} == \
        {size: projector.rows(s) for size, s in walked.items()}
    got = _sink_rows(projector, replayed.values())
    assert got and all(gamma[0] == 0 for _, _, gamma in got)
    # |alpha| >= 1 leaves out the u-degree 2 of the coefficient alone
    rest = build_unfolding(e12, N, mask=range(2, 13))
    coeff = _elem(rest, {beta[1:]: b for beta, b in second.items()})
    want, = ring_order_projection(rest, [[(t0, h, coeff)]], filt, floor)
    assert got == {(k, j, (0,) + gamma): c for k, row in want.rows.items()
                   for j, elem in row.items()
                   for gamma, c in elem.terms.items() if sum(gamma) > 2}
