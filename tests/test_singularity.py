from fractions import Fraction

import pytest

from saitoforms.mpoly import MPoly
from saitoforms.singularity import (
    DegeneratePairing, EulerIdentityViolated, NonIsolatedSingularity,
    P1MirrorData, _hyperbolic_reduce, analyze, hessian_det, validate,
)


def _xy():
    v = ("x", "y")
    return MPoly.variable("x", v), MPoly.variable("y", v)


def test_validate_central_charge(e12):
    assert e12.s == Fraction(1, 3) + Fraction(5, 7)


def test_euler_identity_enforced():
    x, y = _xy()
    with pytest.raises(EulerIdentityViolated):
        validate(x ** 3 + y ** 7, [Fraction(1, 3), Fraction(1, 5)])


def test_non_isolated_rejected():
    x, y = _xy()
    with pytest.raises(NonIsolatedSingularity):
        analyze(x ** 2 * y, [Fraction(1, 4), Fraction(1, 2)])


def test_milnor_numbers(a2, e6_cusp, e12, e13, elliptic):
    assert a2.mu == 2
    assert e6_cusp.mu == 6
    assert e12.mu == 12
    assert e13.mu == 13
    assert elliptic.mu == 8


def test_degree_duality(e12, e13, elliptic):
    for data in (e12, e13, elliptic):
        d = data.degrees
        for i in range(data.mu):
            assert d[i] + d[data.mu - 1 - i] == data.s
        assert d == sorted(d)


def test_hessian_residue_is_milnor(a2, e6_cusp, e12, e13, elliptic):
    for data in (a2, e6_cusp, e12, e13, elliptic):
        hess = hessian_det(data.f)
        assert data.classical_residue(hess) == data.mu


def test_residue_matrix_anti_diagonal(e12, elliptic):
    for data in (e12, elliptic):
        mat = data.residue_pairing_matrix()
        mu = data.mu
        for i in range(mu):
            for j in range(mu):
                if i + j == mu - 1:
                    assert mat[i][j] != 0
                else:
                    assert mat[i][j] == 0


def test_cube_sum_middle_slice_orthogonalized():
    x, y = _xy()
    data = analyze(x ** 3 + y ** 3, [Fraction(1, 3), Fraction(1, 3)])
    mat = data.residue_pairing_matrix()
    assert mat[1][2] != 0 and mat[2][1] != 0
    assert mat[1][1] == 0 and mat[2][2] == 0


def test_d4_middle_slice_has_no_rational_split():
    x, y = _xy()
    with pytest.raises(DegeneratePairing):
        analyze(x ** 3 + x * y ** 2, [Fraction(1, 3), Fraction(1, 3)])


def _diag(*entries):
    k = len(entries)
    return [[Fraction(entries[a]) if a == b else Fraction(0)
             for b in range(k)] for a in range(k)]


@pytest.mark.parametrize("d", [-49, -4, Fraction(-9, 25)])
def test_hyperbolic_reduce_square_discriminant(d):
    # (7, 1) is isotropic for diag(1, -49), far outside a small search grid
    gram = _diag(1, d)
    vectors = _hyperbolic_reduce(gram)
    paired = [[sum(u[a] * gram[a][b] * v[b] for a in range(2)
                   for b in range(2)) for v in vectors] for u in vectors]
    assert paired[0][0] == 0 and paired[1][1] == 0
    assert paired[0][1] != 0 and paired[1][0] != 0


@pytest.mark.parametrize("d", [1, -2])
def test_hyperbolic_reduce_anisotropic_plane(d):
    with pytest.raises(DegeneratePairing, match="anisotropic"):
        _hyperbolic_reduce(_diag(1, d))


def test_hyperbolic_reduce_names_the_failed_search():
    # x^2 + y^2 - 2 z^2 vanishes at (1, 1, 1), but no coordinate plane
    # holds an isotropic vector: the error names the search, and does not
    # claim that no split exists.
    with pytest.raises(DegeneratePairing, match="pairs") as err:
        _hyperbolic_reduce(_diag(1, 1, -2))
    assert "impossible" not in str(err.value)


def test_normal_form_coords_roundtrip(e6_cusp):
    x, y = _xy()
    h = x ** 2 * y ** 5 + 3 * x * y - 7
    rem = e6_cusp.normal_form(h)
    vec = e6_cusp.coords(rem.terms)
    acc = MPoly.constant(("x", "y"), 0)
    for c, b in zip(vec, e6_cusp.basis):
        acc = acc + b * c
    assert acc == rem


def test_basis_monomial_degrees(e12):
    ws = e12.weights
    for b, d in zip(e12.basis, e12.degrees):
        (exp, _), = b.sorted_terms()
        assert ws.degree_of_exponent(exp) == d


def test_p1_mirror_shape():
    data = P1MirrorData(2)
    assert data.mu == 2
    assert data.s == 1
    assert data.degrees == [Fraction(0), Fraction(1)]
    assert data.mode == "laurent"
