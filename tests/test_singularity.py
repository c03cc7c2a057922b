import itertools
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from conftest import (ORACLE_ZOO, analyze_oracle_case, coords,
                      count_products, dense_basis_inverse, normal_form,
                      reference_reduction)
from saitoforms import linalg, singularity
from saitoforms.mpoly import MPoly
from saitoforms.parsing import parse_poly
from saitoforms.primitive import primitive_form, verify_primitive
from saitoforms.singularity import (
    K, DegeneratePairing, EulerIdentityViolated, NonIsolatedSingularity,
    P1MirrorData, SingularityData, _hyperbolic_reduce, analyze, eta_rows,
    hessian_det, orthogonalize_basis, validate,
)
from saitoforms.unfolding import build_unfolding


def _xy():
    v = ("x", "y")
    return MPoly.variable("x", v), MPoly.variable("y", v)


def test_validate_central_charge(e12):
    assert e12.s == Fraction(1, 3) + Fraction(5, 7)


def test_euler_identity_enforced():
    x, y = _xy()
    with pytest.raises(EulerIdentityViolated):
        validate(x ** 3 + y ** 7, [Fraction(1, 3), Fraction(1, 5)])


def test_euler_error_names_the_first_term_off_degree_one():
    x, y = _xy()
    with pytest.raises(EulerIdentityViolated,
                       match=re.escape("the term y^7 has weighted degree "
                                       "7/5, not 1")):
        validate(x ** 3 + y ** 7 + x * y, [Fraction(1, 3), Fraction(1, 5)])


def test_euler_identity_term_by_term_matches_the_polynomial_identity():
    # the term test accepts exactly the f with sum(q_i z_i d_i f) == f,
    # built from MPoly products, and names the first term of f, in print
    # order, that the identity does not fix
    rng = random.Random(23)
    v = ("x", "y", "z")
    zs = [MPoly.variable(name, v) for name in v]
    accepted = 0
    for _ in range(150):
        weights = [Fraction(1, rng.randint(2, 7)) for _ in v]
        # the monomials of degree 1, and each term off it at odds of 1/4
        on_degree = [exp for exp in itertools.product(
            *(range(q.denominator + 1) for q in weights))
            if sum(map(mul, weights, exp)) == 1]
        f = MPoly.zero(v)
        for _ in range(rng.randint(0, 4)):
            exp = rng.choice(on_degree) if rng.random() < 0.75 else \
                tuple(rng.randint(0, 4) for _ in v)
            f = f + MPoly.monomial(v, exp, rng.choice([-2, 1, Fraction(1, 3)]))
        euler = MPoly.zero(v)
        for i, q in enumerate(weights):
            euler = euler + q * zs[i] * f.diff(i)
        try:
            validate(f, weights)
        except EulerIdentityViolated as err:
            assert euler != f
            first = next((exp, c) for exp, c in f.sorted_terms()
                         if sum(map(mul, weights, exp)) != 1)
            assert "the term %s has" % MPoly(v, dict([first])) in str(err)
        else:
            assert euler == f
            accepted += bool(f)
    assert 25 < accepted < 125


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
    rem = normal_form(e6_cusp, h)
    vec = coords(e6_cusp, rem.terms)
    acc = MPoly.constant(("x", "y"), 0)
    for c, b in zip(vec, e6_cusp.basis):
        acc = acc + b * c
    assert acc == rem


def test_coords_rejects_a_polynomial_that_is_not_reduced(e6_cusp):
    # x^2 is a leading monomial of the Groebner basis of (3x^2, 4y^3)
    with pytest.raises(ValueError, match="is not reduced"):
        coords(e6_cusp, {(2, 0): Fraction(1), (0, 1): Fraction(2)})


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


def _assert_integer_grading(data):
    assert len(data.scaled) == data.mu
    assert all(type(d) is int for d in data.scaled + [data.den, data.top])
    for d, degree in zip(data.scaled, data.degrees):
        assert Fraction(d, data.den) == degree
    assert Fraction(data.top, data.den) == data.s


@pytest.mark.parametrize("case", ORACLE_ZOO + [
    ("x^4 + y^4 + z^4 + w^4", ("x", "y", "z", "w"), ["1/4"] * 4), "p1"],
    ids=lambda c: c if c == "p1" else c[0])
def test_integer_grading_matches_the_degrees(case):
    if case == "p1":
        _assert_integer_grading(P1MirrorData(2))
        return
    data = analyze_oracle_case(case, orthogonalize=False)
    _assert_integer_grading(data)
    monomial_basis = data.basis
    orthogonalize_basis(data)
    _assert_integer_grading(data)
    if case[0] in ("x^3*y + y^3*z + z^3*x", "x^6 + y^6 + x^3*y^3"):
        # a new basis was installed, with its grading
        assert data.basis != monomial_basis
        for phi, d in zip(data.basis, data.scaled):
            assert {data.weights.scaled_degree(e) for e in phi.terms} == {d}


@pytest.mark.parametrize("f, weights, installs", [
    # E6: the degree-sorted monomial basis is already anti-diagonal
    ("x^3 + y^4", [Fraction(1, 3), Fraction(1, 4)], 1),
    # x^6 + y^6 + x^3 y^3: a slice is recombined, so the basis changes
    ("x^6 + y^6 + x^3*y^3", [Fraction(1, 6)] * 2, 2),
])
def test_orthogonalize_installs_only_a_changed_basis(monkeypatch, f, weights,
                                                     installs):
    calls = []
    install = SingularityData._install_basis

    def counting(self, basis):
        calls.append(basis)
        install(self, basis)

    monkeypatch.setattr(SingularityData, "_install_basis", counting)
    data = analyze(parse_poly(f, ("x", "y")), weights)
    assert len(calls) == installs
    # every entry of the cache that analyze leaves, intermediate monomials
    # included, is the reduction in the installed basis
    assert data.mono_cache
    for exp, red in data.mono_cache.items():
        assert red == reference_reduction(data, exp)


@pytest.mark.parametrize("case", [
    ("x^3 + y^3 + z^3 + x*y*z", ("x", "y", "z"), ["1/3"] * 3),
    ("x^6 + y^6 + x^3*y^3", ("x", "y"), ["1/6"] * 2),
    ("x^3*y + y^3*z + z^3*x", ("x", "y", "z"), ["1/4"] * 3),
], ids=lambda case: case[0])
def test_a_changed_basis_keeps_the_residue_scale(monkeypatch, case):
    # The degree-0 and socle slices are never recombined, so installing
    # the orthogonalized basis cannot change the Hessian's socle
    # coordinate: analyze reduces the Hessian once.
    monomial = analyze_oracle_case(case, orthogonalize=False)
    calls = []

    def counting(f):
        calls.append(f)
        return hessian_det(f)

    monkeypatch.setattr(singularity, "hessian_det", counting)
    data = analyze_oracle_case(case)
    assert data.basis != monomial.basis
    assert len(calls) == 1
    scale = data.residue_scale
    data._finish_residue()
    assert data.residue_scale == scale == monomial.residue_scale


@pytest.mark.parametrize("case, changed, i, message", [
    # E12: no slice changes the basis; the Gram test of the slice pair
    # sees the wrong entry
    (("x^3 + y^7", ("x", "y"), ["1/3", "1/7"]), False, 1, "degenerate"),
    # P8 in Hesse form: the upper slice of degree 2/3 is permuted, so its
    # Gram block holds every entry of the new basis
    (("x^3 + y^3 + z^3 + x*y*z", ("x", "y", "z"), ["1/3"] * 3), True, 1,
     "degenerate"),
    # x^6 + y^6 + x^3 y^3: phi_18 = -54 y^5 is a recombination, paired
    # first by the whole-matrix test of the installed basis
    (("x^6 + y^6 + x^3*y^3", ("x", "y"), ["1/6"] * 2), True, 7,
     "orthogonalization failed at (8, 18)"),
])
def test_orthogonalize_catches_one_wrong_pairing(monkeypatch, case, changed,
                                                 i, message):
    clean = analyze_oracle_case(case)
    monomial = analyze_oracle_case(case, orthogonalize=False)
    assert (clean.basis != monomial.basis) == changed
    j = clean.mu - 1 - i
    wrong = {(clean.basis[i], clean.basis[j]),
             (clean.basis[j], clean.basis[i])}
    pairing = SingularityData.pairing

    def one_wrong_entry(self, a, b):
        return Fraction(0) if (a, b) in wrong else pairing(self, a, b)

    monkeypatch.setattr(SingularityData, "pairing", one_wrong_entry)
    with pytest.raises(DegeneratePairing, match=re.escape(message)):
        analyze_oracle_case(case)


def test_eta_is_built_once_for_a_solve_and_its_verify(monkeypatch):
    # good_filtration checks c against eta in the solve and again in the
    # verify, and K reads eta as well: all share the copy on the data
    data = analyze_oracle_case(ORACLE_ZOO[4])
    calls = []
    matrix = SingularityData.residue_pairing_matrix

    def counting(self):
        calls.append(None)
        return matrix(self)

    monkeypatch.setattr(SingularityData, "residue_pairing_matrix", counting)
    unf = build_unfolding(data, 6, mask=[8])
    c = {(8, 1): Fraction(1)}
    assert verify_primitive(unf, primitive_form(unf, c=c), c=c)
    assert len(calls) == 1
    one = MPoly.constant(data.variables, 1)
    K(data, [(one, data.basis[-1])], 2)
    assert len(calls) == 1


@pytest.mark.parametrize("case", [
    ("x^3 + y^3 + z^3 + x*y*z", ("x", "y", "z"), ["1/3"] * 3),
    ("x^6 + y^6 + x^3*y^3", ("x", "y"), ["1/6"] * 2)], ids=lambda c: c[0])
def test_eta_follows_an_installed_basis(case):
    # eta read on the monomial basis is not kept once orthogonalize_basis
    # installs a changed one
    data = analyze_oracle_case(case, orthogonalize=False)
    monomial = eta_rows(data)
    basis = data.basis
    orthogonalize_basis(data)
    assert data.basis != basis
    fresh = [{j: x for j, x in enumerate(row) if x}
             for row in data.residue_pairing_matrix()]
    assert eta_rows(data) == fresh != monomial


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_basis_inv_matches_the_dense_inverse(case):
    data = analyze_oracle_case(case, orthogonalize=False)
    assert data.basis_inv == dense_basis_inverse(data)
    monomial_basis = data.basis
    orthogonalize_basis(data)
    assert data.basis_inv == dense_basis_inverse(data)
    if case[0] in ("x^3*y + y^3*z + z^3*x", "x^6 + y^6 + x^3*y^3"):
        # these slices are recombined, so a new basis was inverted
        assert data.basis != monomial_basis


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_pairing_is_the_residue_of_the_product(case):
    data = analyze_oracle_case(case)
    for a in data.basis:
        for b in data.basis:
            assert data.pairing(a, b) == data.classical_residue(a * b)


@pytest.mark.parametrize("slot, source, message", [
    # degrees 0, 1/3, 1/3, 1/3, ...: z1 twice leaves the 1/3 slice singular
    (2, 1, "the basis elements of degree 1/3 are linearly dependent"),
    # an element of degree 2/3 in place of z1 leaves it not square
    (1, 4, "degree slice 1/3 holds 2 basis elements for 3 standard "
           "monomials"),
])
def test_install_basis_names_the_degree_of_a_bad_slice(slot, source,
                                                       message):
    data = analyze_oracle_case(ORACLE_ZOO[4], orthogonalize=False)
    basis = list(data.basis)
    basis[slot] = basis[source]
    with pytest.raises(DegeneratePairing, match=message):
        data._install_basis(basis)


def test_residue_pairing_matrix_builds_no_products(monkeypatch):
    data = analyze(parse_poly("x^7 + y^9", ("x", "y")),
                   [Fraction(1, 7), Fraction(1, 9)])
    calls = count_products(monkeypatch)
    matrix = data.residue_pairing_matrix()
    assert len(matrix) == data.mu == 48
    assert calls == []


@pytest.mark.parametrize("case", ORACLE_ZOO + [
    ("x^7 + y^9", ("x", "y"), ["1/7", "1/9"])], ids=lambda c: c[0])
def test_analyze_inverts_no_matrix_above_a_degree_slice(monkeypatch, case):
    sizes = []
    mat_inv = linalg.mat_inv

    def recording(a):
        sizes.append(len(a))
        return mat_inv(a)

    monkeypatch.setattr(linalg, "mat_inv", recording)
    data = analyze_oracle_case(case)
    slices = {}
    for d in data.degrees:
        slices[d] = slices.get(d, 0) + 1
    assert sizes and max(sizes) <= max(slices.values())


X7Y9 = ("x^7 + y^9", ("x", "y"), ["1/7", "1/9"])


def _dense_pairing_matrix(data):
    """Every residue res(phi_i phi_j), each reduced from the product."""
    return [[data.classical_residue(a * b) for b in data.basis]
            for a in data.basis]


@pytest.mark.parametrize("case", ORACLE_ZOO + [X7Y9], ids=lambda c: c[0])
def test_residue_pairing_matrix_matches_the_dense_residues(case):
    # the off-degree entries are zero by the grading and are not reduced
    # by residue_pairing_matrix; here each one is reduced
    data = analyze_oracle_case(case, orthogonalize=False)
    assert data.residue_pairing_matrix() == _dense_pairing_matrix(data)
    orthogonalize_basis(data)
    assert data.residue_pairing_matrix() == _dense_pairing_matrix(data)


def test_analyze_reduces_no_product_of_degree_other_than_s():
    # the pairing matrix of x^7 + y^9 needs the reduction of one monomial,
    # x^5 y^7, the only one of degree s; the Hessian is a multiple of it
    data = analyze_oracle_case(X7Y9)
    assert len(data.mono_cache) <= 1


def test_install_basis_runs_gauss_jordan_only_above_one_by_one(monkeypatch):
    data = analyze_oracle_case(X7Y9, orthogonalize=False)
    blocks, eliminations = [], []
    mat_inv, identity = linalg.mat_inv, linalg.identity

    def recording_inv(a):
        blocks.append(len(a))
        return mat_inv(a)

    def recording_identity(n):
        eliminations.append(n)
        return identity(n)

    monkeypatch.setattr(linalg, "mat_inv", recording_inv)
    monkeypatch.setattr(linalg, "identity", recording_identity)
    data._install_basis(data.basis)
    # every degree slice of x^7 + y^9 holds one basis element
    assert blocks == [1] * 48
    assert eliminations == [n for n in blocks if n > 1]
