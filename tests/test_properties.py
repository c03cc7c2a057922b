"""Randomized structural checks, each against an independent brute-force
or axiomatic oracle. All randomness is seeded."""

import random
from fractions import Fraction

from saitoforms.brieskorn import reduce_class
from saitoforms.linalg import row_space_basis
from saitoforms.mpoly import MPoly
from saitoforms.primitive import assemble_psi, neumann_solve, primitive_form
from saitoforms.unfolding import build_unfolding, oscillator_matrices

from conftest import (coords, full_oscillator_family, in_row_space, make_a,
                      normal_form, pairing_univariate_Am,
                      pairing_univariate_p1, u_degree)


def _monomials_of_degree(data, d):
    """All exponents with exact weighted degree d."""
    qs = data.weights.weights
    n = len(qs)
    out = []

    def rec(i, exp, remaining):
        if i == n:
            if remaining == 0:
                out.append(tuple(exp))
            return
        e = 0
        while e * qs[i] <= remaining:
            rec(i + 1, exp + [e], remaining - e * qs[i])
            e += 1

    if d >= 0:
        rec(0, [], Fraction(d))
    return out


def _brute_force_class_check(data, h_exp):
    """The reduction of a monomial differs from the monomial itself by an
    element of the span of t^k*(g*df/dz_i) + t^(k+1)*(dg/dz_i)."""
    d = data.weights.degree_of_exponent(h_exp)
    # t-slices: slice k holds polynomials of weighted degree d - k
    slices = []
    k = 0
    while d - k >= 0:
        monos = _monomials_of_degree(data, d - k)
        slices.append({m: i for i, m in enumerate(monos)})
        k += 1
    slices.append({})  # empty slice so the last row layer still appears
    offsets = []
    total = 0
    for sl in slices:
        offsets.append(total)
        total += len(sl)

    def put(vec, k, poly):
        for exp, c in poly.terms.items():
            vec[offsets[k] + slices[k][exp]] += c

    rows = []
    variables = data.f.variables
    for k in range(len(slices) - 1):
        for i, partial in enumerate(data.partials):
            qi = data.weights.weights[i]
            for g_exp in _monomials_of_degree(data, d - k - 1 + qi):
                g = MPoly(variables, {g_exp: Fraction(1)})
                row = [Fraction(0)] * total
                put(row, k, g * partial)
                put(row, k + 1, g.diff(i))
                rows.append(row)
    ech, pivots = row_space_basis(rows)

    red = reduce_class(data, MPoly(variables, {h_exp: Fraction(1)}))
    target = [Fraction(0)] * total
    target[offsets[0] + slices[0][h_exp]] += 1
    for k, coeffs in red.coeffs.items():
        for j, c in enumerate(coeffs):
            if c:
                (exp, _), = data.basis[j].sorted_terms()
                target[offsets[k] + slices[k][exp]] -= c
    return in_row_space(target, ech, pivots)


def test_reduction_lies_in_relation_span(e6_cusp):
    rng = random.Random(101)
    a4 = make_a(4)
    cases = 0
    for _ in range(70):
        exp = (rng.randrange(0, 8), rng.randrange(0, 8))
        assert _brute_force_class_check(e6_cusp, exp)
        cases += 1
    for _ in range(40):
        assert _brute_force_class_check(a4, (rng.randrange(0, 14),))
        cases += 1
    assert cases >= 100


def test_oscillator_terms_homogeneous(elliptic, quartic_pair):
    rng = random.Random(55)
    seen = 0
    cases = [(elliptic, [8], {(8, 1): Fraction(rng.randrange(1, 5))}),
             (quartic_pair, [9], {(9, 1): Fraction(rng.randrange(1, 5))}),
             (elliptic, None, None)]
    for data, mask, c in cases:
        unf = build_unfolding(data, 3, mask=mask) if mask is None \
            else build_unfolding(data, 5, mask=mask)
        osc = oscillator_matrices(unf, c=c)
        d = data.degrees
        for k, m in osc.matrices.items():
            for i in range(data.mu):
                for j in range(data.mu):
                    for exp, coeff in m[i][j].terms.items():
                        if coeff:
                            assert k + u_degree(unf, exp) + d[j] - d[i] == 0
                            seen += 1
    assert seen >= 100


def test_connection_block_nilpotent(elliptic, quartic_pair):
    for data in (elliptic, quartic_pair):
        unf = build_unfolding(data, 4, mask=[data.mu])
        osc = oscillator_matrices(unf)
        psi = _dense_psi(osc)
        n = len(psi)
        # the sparse rows list exactly the nonzero entries of Psi
        assert assemble_psi(osc) == [[(j, e) for j, e in enumerate(row) if e]
                                     for row in psi]
        power = [row[:] for row in psi]
        for _ in range(unf.N):
            power = _ring_mat_mul(power, psi, unf)
        assert all(e.terms == {} for row in power for e in row)
        # the solution satisfies g * (Id + Psi) = e
        g = neumann_solve(assemble_psi(osc), unf)
        prod = _ring_vec_mat(g, psi, unf)
        for j in range(n):
            expect = unf.ring_one() if j == 0 else unf.ring_zero()
            assert g[j] + prod[j] == expect


def _dense_psi(osc):
    """Psi[p mu + i][q mu + j] = A^(q-p)_ij - delta, as a dense matrix."""
    mu, a = osc.unf.base.mu, osc.a
    zero = osc.unf.ring_zero()
    psi = [[zero] * ((a + 1) * mu) for _ in range((a + 1) * mu)]
    for p in range(a + 1):
        for q in range(a + 1):
            for i, row in enumerate(osc.matrices.get(q - p, ())):
                for j, e in enumerate(row):
                    psi[p * mu + i][q * mu + j] = e
    for r in range(len(psi)):
        psi[r][r] = psi[r][r] - osc.unf.ring_one()
    return psi


def _ring_mat_mul(a, b, unf):
    n = len(a)
    zero = unf.ring_zero()
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].terms:
                for j in range(n):
                    if b[k][j].terms:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _ring_vec_mat(v, m, unf):
    n = len(v)
    out = [unf.ring_zero() for _ in range(n)]
    for k in range(n):
        if v[k].terms:
            for j in range(n):
                if m[k][j].terms:
                    out[j] = out[j] + v[k] * m[k][j]
    return out


def test_base_point_and_positive_bound(elliptic, quartic_pair):
    rng = random.Random(23)
    for data, pair in ((elliptic, (8, 1)), (quartic_pair, (9, 1))):
        unf = build_unfolding(data, 4, mask=[data.mu])
        for c in (None, {pair: Fraction(rng.randrange(1, 6),
                                        rng.randrange(1, 4))}):
            osc = oscillator_matrices(unf, c=c)
            zero_u = (0,) * len(unf.indices)
            for k, m in osc.matrices.items():
                for i in range(data.mu):
                    for j in range(data.mu):
                        const = m[i][j].terms.get(zero_u, Fraction(0))
                        want = 1 if (i == j and k == 0) else 0
                        assert const == want
            assert all(k <= osc.a for k in osc.matrices)


def test_window_matches_full_family(elliptic, quartic_pair):
    # the windowed family is the full one restricted to -a..a, and
    # the primitive form read from either is the same
    rng = random.Random(31)
    for data, pair in ((elliptic, (8, 1)), (quartic_pair, (9, 1))):
        for _ in range(2):
            mask = sorted(rng.sample(range(2, data.mu + 1), 2))
            unf = build_unfolding(data, rng.randrange(2, 5), mask=mask)
            for c in (None, {pair: Fraction(rng.randrange(1, 6),
                                            rng.randrange(1, 4))}):
                full = full_oscillator_family(unf, c)
                osc = oscillator_matrices(unf, c=c)
                assert osc.matrices == {k: m for k, m in full.matrices.items()
                                        if -osc.a <= k <= osc.a}
                assert primitive_form(unf, c, osc=osc).records() == \
                    primitive_form(unf, c, osc=full).records()


def test_pairing_sesquisymmetry_and_degree_law():
    rng = random.Random(77)
    checked = 0
    for _ in range(80):
        m = rng.randrange(1, 7)
        i = rng.randrange(0, 10)
        j = rng.randrange(0, 10)
        a = {i: Fraction(rng.randrange(1, 5))}
        b = {j: Fraction(rng.randrange(1, 5))}
        kab = pairing_univariate_Am(a, b, m, 8)
        kba = pairing_univariate_Am(b, a, m, 8)
        assert kab == {r: c * (-1) ** r for r, c in kba.items() if c}
        s = Fraction(m - 1, m + 1)
        for r, c in kab.items():
            if c:
                assert r == Fraction(i + j, m + 1) - s
        checked += 1
    for _ in range(30):
        q = Fraction(rng.choice([1, 2, 3, -1, -3]))
        i = rng.randrange(-3, 4)
        j = rng.randrange(-3, 4)
        a = {i: Fraction(rng.randrange(1, 4))}
        b = {j: Fraction(rng.randrange(1, 4))}
        kab = pairing_univariate_p1(a, b, q, 8)
        kba = pairing_univariate_p1(b, a, q, 8)
        assert kab == {r: c * (-1) ** r for r, c in kba.items() if c}
        checked += 1
    assert checked >= 100


def _residue_zoo(e12, e13, elliptic):
    from saitoforms.singularity import analyze
    zoo = [make_a(k) for k in range(2, 9)]
    v = ("x", "y")
    x = MPoly.variable("x", v)
    y = MPoly.variable("y", v)
    zoo.append(analyze(x ** 3 + y ** 4, [Fraction(1, 3), Fraction(1, 4)]))
    zoo.append(analyze(x ** 3 + y ** 5, [Fraction(1, 3), Fraction(1, 5)]))
    zoo.extend([e12, e13, elliptic])
    return zoo


def test_residue_matrix_zoo_anti_diagonal(e12, e13, elliptic):
    for data in _residue_zoo(e12, e13, elliptic):
        mat = data.residue_pairing_matrix()
        mu = data.mu
        for i in range(mu):
            for j in range(mu):
                assert (mat[i][j] != 0) == (i + j == mu - 1)


def test_classical_residue_is_socle_coordinate(e12, e13, elliptic):
    # classical_residue reads the t^0 part of the cached Brieskorn
    # reduction; the oracle is the last of all mu coordinates of the
    # normal form from groebner.divide.
    rng = random.Random(5)
    for data in _residue_zoo(e12, e13, elliptic):
        basis = data.basis
        samples = [a * b for a in basis for b in basis]
        for _ in range(10):
            g = MPoly.zero(data.variables)
            for _ in range(4):
                exp = tuple(rng.randrange(6) for _ in data.variables)
                g = g + MPoly.monomial(data.variables, exp,
                                       Fraction(rng.randrange(-5, 6),
                                                rng.randrange(1, 4)))
            samples.append(g)
        for g in samples:
            rem = normal_form(data, g)
            assert data.classical_residue(g) == \
                coords(data, rem.terms)[-1] * data.residue_scale
