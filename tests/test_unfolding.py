import json
import re
from fractions import Fraction

import pytest

from saitoforms import P1MirrorData, UnfoldRingElem, unfolding
from saitoforms.brieskorn import ReducedClass, reduce_monomial
from saitoforms.primitive import primitive_form
from saitoforms.cli import main
from saitoforms.unfolding import (
    GradingViolation, InvalidOverride, OppositeFiltration, build_unfolding,
    exp_series, oscillating_projection, oscillator_matrices, positive_bound,
)

from conftest import (
    full_oscillator_family, make_a, phi_classes, ring_order_projection,
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
                        assert k + unf.u_degree(exp) + d[j] - d[i] == 0
                        seen += 1
    assert seen > 100


def test_masked_unfolding_variables(elliptic):
    unf = build_unfolding(elliptic, 5, mask=[8])
    assert len(unf.indices) == 1
    osc = oscillator_matrices(unf)
    for m in osc.matrices.values():
        for row in m:
            for e in row:
                for exp in e.terms:
                    assert len(exp) == 1


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


def test_upper_basis_reduces_to_unit_vectors(elliptic):
    # Phi_i written over the Milnor basis and read back in Phi(c)
    # coordinates is the unit vector e_i at t^0: at N = 0 the projection
    # is the reduction followed by coords_to_upper
    filt = OppositeFiltration(elliptic, {(8, 1): Fraction(3)})
    mu = elliptic.mu
    unf = build_unfolding(elliptic, 0)
    rows = oscillating_projection(unf, phi_classes(unf, filt), filt)
    for i, row in enumerate(rows):
        unit = [Fraction(int(j == i)) for j in range(mu)]
        assert row == ReducedClass(mu, {0: unit})


@pytest.mark.parametrize("c", [{(0, 1): 1}, {(8, 0): 1}, {(9, 1): 1},
                               {(1, 9): 0}])
def test_opposite_filtration_rejects_slots_out_of_range(elliptic, c):
    (i, j), = c
    with pytest.raises(ValueError,
                       match=r"\(%d, %d\) out of range 1\.\.8" % (i, j)):
        OppositeFiltration(elliptic, c)


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


def _window_unfolding(request, name, N, mask):
    if name == "p1":
        # the P^1 mirror with its exponentiated second direction
        return build_unfolding(P1MirrorData(2), N, u_names=["u0", "u1"],
                               overrides={2: lambda u: exp_series(u) - 1})
    if name in EXPONENTIATED:
        fixture, index = EXPONENTIATED[name]
        return build_unfolding(request.getfixturevalue(fixture), N, mask=mask,
                               overrides={index: lambda u: exp_series(u) - 1})
    data = make_a(name) if isinstance(name, int) else \
        request.getfixturevalue(name)
    return build_unfolding(data, N, mask=mask)


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
    for floor in (None, -a, 0):
        assert oscillating_projection(unf, classes, filt, floor) == \
            ring_order_projection(unf, classes, filt, floor), floor


def _beyond_the_bound(rows, a, one, zero, u1):
    rows[0].coeffs[a + 1] = [one] + [zero] * (len(rows) - 1)
    return "t^%d term beyond the bound a=%d at A[1][1]" % (a + 1, a)


def _off_diagonal_constant(rows, a, one, zero, u1):
    rows[0].coeffs[0][1] += one
    return "A^(0)[1][2](0) = 1, expected 0"


def _off_grade_monomial(rows, a, one, zero, u1):
    rows[0].coeffs[0][0] += u1
    return "off-grade term u^%r in A^(0)[1][1]" % (next(iter(u1.terms)),)


def _missing_diagonal(rows, a, one, zero, u1):
    rows[2].coeffs[0][2] = zero
    return "A^(0)[3][3](0) = 0, expected 1"


def _no_identity_block(rows, a, one, zero, u1):
    for row in rows:
        del row.coeffs[0]
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
