"""Weighted-homogeneous singularity analysis.

Validates the Euler identity, computes the Jacobian-ring data (Groebner
basis with cofactors, Milnor number, degree-sorted basis), the
Grothendieck residue normalized so that the Hessian has residue mu, and
an orthogonalized basis whose residue pairing matrix is exactly
anti-diagonal.
"""

import math
from fractions import Fraction

from . import linalg
from .brieskorn import step_rules
from .groebner import buchberger_with_cofactors, divide, standard_monomials
from .mpoly import MPoly, WeightSystem, grevlex_key, monomial_divides


class EulerIdentityViolated(Exception):
    pass


class NonIsolatedSingularity(Exception):
    pass


class DegeneratePairing(Exception):
    pass


def validate(f, weights):
    """Check weights lie in (0,1/2] and the Euler identity
    sum(q_i z_i df/dz_i) == f holds exactly. Returns the central charge
    s = sum(1 - 2 q_i)."""
    if not isinstance(weights, WeightSystem):
        weights = WeightSystem(weights)
    if len(weights) != len(f.variables):
        raise EulerIdentityViolated("need one weight per variable")
    euler = MPoly.zero(f.variables)
    for i, q in enumerate(weights):
        zi = MPoly.variable(f.variables[i], f.variables)
        euler = euler + q * zi * f.diff(i)
    if euler != f:
        raise EulerIdentityViolated(
            "sum(q_i z_i d_i f) - f = %s != 0" % (euler - f))
    return weights.central_charge()


class SingularityData:
    """Everything downstream modules need about one singularity.

    Attributes: f, weights, s, partials, groebner, std (standard
    monomials), mu, basis (Milnor basis, degree-sorted), degrees,
    basis_mat / basis_inv (coordinates of basis vs standard monomials),
    hessian socle coefficient, plus a reduction cache used by the
    Brieskorn-lattice module.
    """

    mode = "poly"

    def __init__(self, f, weights):
        self.f = f
        self.variables = f.variables
        self.n = len(f.variables)
        self.weights = weights if isinstance(weights, WeightSystem) \
            else WeightSystem(weights)
        self.s = validate(f, self.weights)
        self.partials = [f.diff(i) for i in range(self.n)]
        if any(p.is_zero() for p in self.partials):
            raise NonIsolatedSingularity(
                "f is independent of a variable; critical locus is positive-"
                "dimensional")
        self.groebner = buchberger_with_cofactors(self.partials)
        self.step_rules = step_rules(self.groebner)
        self._check_isolated()
        self.std = standard_monomials(self.groebner)
        self.std_index = {e: m for m, e in enumerate(self.std)}
        self.mu = len(self.std)
        self._install_basis([MPoly.monomial(self.variables, e)
                             for e in self._sorted_std()])
        self.mono_cache = {}
        self._finish_residue()

    def _check_isolated(self):
        # Finite quotient iff some pure power of every variable lies in
        # the leading-term ideal.
        leads = [g.leading()[0] for g, _ in self.groebner]
        for i in range(self.n):
            if not any(all(e == 0 for j, e in enumerate(le) if j != i) and le[i] > 0
                       for le in leads):
                raise NonIsolatedSingularity(
                    "no pure power of %s in the leading-term ideal; the "
                    "singularity is not isolated" % self.variables[i])

    def _sorted_std(self):
        return sorted(self.std,
                      key=lambda e: (self.weights.degree_of_exponent(e),
                                     grevlex_key(e)))

    def _install_basis(self, basis):
        self.basis = list(basis)
        self.degrees = []
        for phi in self.basis:
            d = self.weights.weighted_degree(phi)
            if d is None:
                raise DegeneratePairing(
                    "basis element %s is not weighted homogeneous" % phi)
            self.degrees.append(d)
        mat = [[Fraction(0)] * self.mu for _ in range(self.mu)]
        for i, phi in enumerate(self.basis):
            for exp, c in phi.terms.items():
                m = self.std_index.get(exp)
                if m is None:
                    raise DegeneratePairing(
                        "basis element %s is not a combination of standard "
                        "monomials" % phi)
                mat[i][m] = c
        self.basis_mat = mat
        self.basis_inv = linalg.mat_inv(mat)
        for i in range(self.mu):
            if self.degrees[i] + self.degrees[self.mu - 1 - i] != self.s:
                raise DegeneratePairing(
                    "degree duality d_%d + d_%d != s" % (i + 1, self.mu - i))

    def _finish_residue(self):
        hess = hessian_det(self.f)
        coords = self.coords(self.normal_form(hess).terms)
        for i, c in enumerate(coords[:-1]):
            if c:
                raise DegeneratePairing(
                    "Hessian normal form has a component on phi_%d below the "
                    "socle" % (i + 1))
        if not coords[-1]:
            raise DegeneratePairing("Hessian reduces to zero; pairing degenerate")
        self.hess_socle_coeff = coords[-1]
        self.residue_scale = Fraction(self.mu) / coords[-1]

    # -- quotient-ring arithmetic -------------------------------------

    def normal_form(self, h):
        """Remainder of h on division by the Groebner basis."""
        return divide(h, [g for g, _ in self.groebner])[1]

    def coords(self, terms):
        """Coordinates in the Milnor basis of a fully reduced polynomial,
        given by its terms {exponent: coefficient}."""
        sigma = self._std_coeffs(terms)
        inv = self.basis_inv
        return [sum(sigma[m] * inv[m][i] for m in range(self.mu) if sigma[m])
                for i in range(self.mu)]

    def _std_coeffs(self, terms):
        """Coefficients of a fully reduced polynomial, given by its terms,
        on the standard monomials."""
        sigma = [Fraction(0)] * self.mu
        for exp, c in terms.items():
            m = self.std_index.get(exp)
            if m is None:
                raise ValueError("%s is not reduced"
                                 % MPoly(self.variables, terms))
            sigma[m] = c
        return sigma

    def classical_residue(self, g):
        """Grothendieck residue, normalized so the Hessian has residue mu:
        the socle (last) coordinate of the normal form of g, read from the
        last column of basis_inv alone."""
        sigma = self._std_coeffs(self.normal_form(g).terms)
        inv = self.basis_inv
        socle = sum(sigma[m] * inv[m][-1] for m in range(self.mu) if sigma[m])
        return socle * self.residue_scale

    def residue_pairing_matrix(self):
        return [[self.classical_residue(a * b) for b in self.basis]
                for a in self.basis]


class P1MirrorData:
    """Landau-Ginzburg mirror of the projective line: f = z + q/z on the
    punctured line, volume form dz/z. Plays the role of SingularityData
    for the Laurent reduction rules; mu = 2, basis {1, q/z}."""

    mode = "laurent"

    def __init__(self, q):
        q = Fraction(q)
        if q == 0:
            raise ValueError("the mirror parameter q must be nonzero")
        self.q = q
        self.variables = ("z",)
        self.n = 1
        self.mu = 2
        self.s = Fraction(1)
        self.f = MPoly("z", {(1,): Fraction(1), (-1,): q}, laurent=True)
        self.basis = [MPoly.constant(("z",), 1, laurent=True),
                      MPoly(("z",), {(-1,): q}, laurent=True)]
        self.degrees = [Fraction(0), Fraction(1)]
        self.mono_cache = {}


def hessian_det(f):
    n = len(f.variables)
    rows = [[f.diff(i).diff(j) for j in range(n)] for i in range(n)]
    return _det(rows, f.variables)


def _det(rows, variables):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = MPoly.zero(variables)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor, variables)
        total = total + (term if j % 2 == 0 else -term)
    return total


# -- basis orthogonalization ------------------------------------------


def analyze(f, weights, orthogonalize=True):
    """Full singularity analysis; the main entry point."""
    data = SingularityData(f, weights)
    if orthogonalize:
        orthogonalize_basis(data)
    return data


def orthogonalize_basis(data):
    """Replace the Milnor basis by homogeneous Q-combinations (preferring
    permutations) so the residue pairing matrix becomes exactly
    anti-diagonal: res(phi_i phi_j) = 0 unless i + j = mu + 1.

    Mutates and returns data."""
    mu, s = data.mu, data.s
    slices = {}
    for i, d in enumerate(data.degrees):
        slices.setdefault(d, []).append(i)
    new_basis = list(data.basis)
    for d, lower in sorted(slices.items()):
        if 2 * d > s:
            continue
        if 2 * d == s:
            _fix_middle_slice(data, lower, new_basis)
            continue
        upper = slices.get(s - d)
        if upper is None or len(upper) != len(lower):
            raise DegeneratePairing(
                "degree slice %s has no partner slice of matching size" % d)
        _fix_slice_pair(data, lower, upper, new_basis)
    data._install_basis(new_basis)
    data.mono_cache = {}
    data._finish_residue()
    matrix = data.residue_pairing_matrix()
    for i in range(mu):
        for j in range(mu):
            bad = (i + j != mu - 1 and matrix[i][j]) or \
                  (i + j == mu - 1 and not matrix[i][j])
            if bad:
                raise DegeneratePairing(
                    "orthogonalization failed at (%d, %d)" % (i + 1, j + 1))
    return data


def _fix_slice_pair(data, lower, upper, new_basis):
    k = len(lower)
    gram = [[data.classical_residue(new_basis[a] * new_basis[b])
             for b in upper] for a in lower]
    # Anti-diagonal target: lower[r] pairs with upper[k-1-r].
    if all(bool(gram[a][b]) == (a + b == k - 1) for a in range(k)
           for b in range(k)):
        return
    if all(sum(1 for x in row if x) == 1 for row in gram) and \
            all(sum(1 for row in gram if row[b]) == 1 for b in range(k)):
        # Gram block is a monomial matrix: a permutation of the upper
        # slice suffices, keeping monomial basis elements monomial.
        old = [new_basis[u] for u in upper]
        for c in range(k):
            b = next(b for b in range(k) if gram[k - 1 - c][b])
            new_basis[upper[c]] = old[b]
        return
    try:
        inv = linalg.mat_inv(gram)
    except linalg.SingularMatrix:
        raise DegeneratePairing(
            "residue pairing degenerate between degree slices")
    reversal = [[Fraction(1) if a + b == k - 1 else Fraction(0)
                 for b in range(k)] for a in range(k)]
    # Solve gram * X^T = J for the upper-slice recombination X.
    xt = linalg.mat_mul(inv, reversal)
    old = [new_basis[u] for u in upper]
    for c in range(k):
        combo = MPoly.zero(data.variables)
        for b in range(k):
            if xt[b][c]:
                combo = combo + xt[b][c] * old[b]
        new_basis[upper[c]] = combo


def _fix_middle_slice(data, idxs, new_basis):
    k = len(idxs)
    if k == 1:
        if not data.classical_residue(new_basis[idxs[0]] ** 2):
            raise DegeneratePairing("middle slice self-pairing vanishes")
        return
    gram = [[data.classical_residue(new_basis[a] * new_basis[b])
             for b in idxs] for a in idxs]
    if all(bool(gram[a][b]) == (a + b == k - 1) for a in range(k)
           for b in range(k)):
        return
    vectors = _hyperbolic_reduce(gram)
    old = [new_basis[i] for i in idxs]
    for c, vec in enumerate(vectors):
        combo = MPoly.zero(data.variables)
        for b, coeff in enumerate(vec):
            if coeff:
                combo = combo + coeff * old[b]
        new_basis[idxs[c]] = combo


def _hyperbolic_reduce(gram):
    """Basis vectors (rows of coefficients) anti-diagonalizing a
    symmetric nondegenerate Gram matrix over Q, by splitting off
    hyperbolic planes. Raises DegeneratePairing when a plane is
    anisotropic over Q, or when, in three or more dimensions, no plane
    spanned by two basis vectors holds a rational isotropic vector."""
    k = len(gram)
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(k)]
             for i in range(k)]

    def pair(u, v):
        return sum(u[a] * gram[a][b] * v[b]
                   for a in range(k) if u[a] for b in range(k) if v[b])

    def recurse(vecs):
        m = len(vecs)
        if m == 0:
            return []
        if m == 1:
            if not pair(vecs[0], vecs[0]):
                raise DegeneratePairing("middle slice reduction left an "
                                        "isotropic line")
            return [vecs[0]]
        v = _find_isotropic(vecs, pair)
        if v is None and m == 2:
            raise DegeneratePairing(
                "the middle degree slice is an anisotropic plane; "
                "anti-diagonalization is impossible over Q")
        if v is None:
            raise DegeneratePairing(
                "searching the planes spanned by pairs of the %d remaining "
                "basis vectors of the middle degree slice found no rational "
                "isotropic vector" % m)
        w = next((u for u in vecs if pair(v, u)), None)
        if w is None:
            raise DegeneratePairing("middle slice pairing degenerate")
        scale = 1 / pair(v, w)
        w = [scale * x for x in w]
        ww = pair(w, w)
        if ww:
            half = ww / 2
            w = [x - half * y for x, y in zip(w, v)]
        rest = []
        for u in vecs:
            cu = pair(u, w)
            cv = pair(u, v)
            u2 = [x - cu * a - cv * b for x, a, b in zip(u, v, w)]
            if any(u2):
                rest.append(u2)
        echelon, _ = linalg.row_space_basis(rest)
        middle = recurse(echelon)
        return [v] + middle + [w]

    return recurse(basis)


def _find_isotropic(vecs, pair):
    """An isotropic vector among vecs or in the plane of two of them, or
    None. The search is exact on each plane and complete for two vecs."""
    for v in vecs:
        if not pair(v, v):
            return v
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            a = pair(vecs[i], vecs[i])
            b = pair(vecs[j], vecs[j])
            c = pair(vecs[i], vecs[j])
            # a + 2 c x + b x^2 = 0 (b != 0) has a rational root exactly
            # when the discriminant c^2 - a b is a rational square.
            root = _rational_sqrt(c * c - a * b)
            if root is not None:
                x = (root - c) / b
                return [p + x * q for p, q in zip(vecs[i], vecs[j])]
    return None


def _rational_sqrt(x):
    """The square root of a rational if it is rational, else None."""
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)
