"""Weighted-homogeneous singularity analysis.

Validates the Euler identity, computes the Jacobian-ring data (Groebner
basis with cofactors, Milnor number, degree-sorted basis), the
Grothendieck residue normalized so that the Hessian has residue mu, an
orthogonalized basis whose residue pairing matrix is exactly
anti-diagonal, and Saito's higher residue pairing K read off the
Brieskorn reduction.
"""

import math
from fractions import Fraction
from operator import add

from . import linalg
from .brieskorn import ReducedClass, reduce_class, reduce_monomial, step_rules
from .groebner import buchberger_with_cofactors, standard_monomials
from .mpoly import MPoly, WeightSystem, exact_rational, grevlex_key


class EulerIdentityViolated(Exception):
    pass


class NonIsolatedSingularity(Exception):
    pass


class DegeneratePairing(Exception):
    pass


def validate(f, weights):
    """Check weights lie in (0,1/2] and the Euler identity
    sum(q_i z_i df/dz_i) == f holds exactly. The identity multiplies each
    term of f by its weighted degree, so it holds when every term has
    degree 1, scaled degree den. Returns the central charge
    s = sum(1 - 2 q_i)."""
    if not isinstance(weights, WeightSystem):
        weights = WeightSystem(weights)
    if len(weights) != len(f.variables):
        raise EulerIdentityViolated("need one weight per variable")
    for exp, c in f.sorted_terms():
        if weights.scaled_degree(exp) != weights.den:
            raise EulerIdentityViolated(
                "sum(q_i z_i d_i f) != f: the term %s has weighted degree "
                "%s, not 1" % (f._like({exp: c}),
                               weights.degree_of_exponent(exp)))
    return weights.central_charge()


class SingularityData:
    """Everything downstream modules need about one singularity.

    Attributes: f, weights, s, partials, groebner, std (standard
    monomials), mu, basis (Milnor basis, degree-sorted), degrees, the
    integer grading that every degree test downstream compares (den, the
    weights' common denominator; scaled, den times each degree d_i; top,
    den times s), basis_inv (per standard monomial, the nonzero (i, value)
    entries of its row: its coordinates in the basis, inverted one degree
    slice at a time), residue_scale, mono_cache, the Brieskorn-lattice
    reductions of every monomial a reduction has visited, as
    ReducedClasses of sparse rows: the one store of reductions, which
    every reader (residues, pairings, the oscillating projection)
    shares, and eta, the residue pairing of the basis as sparse rows
    once a reader has asked for it (see eta_rows). The cached
    reductions and eta hold coordinates in the installed basis, so
    installing a basis empties both; it also sets the grading anew.
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
                      key=lambda e: (self.weights.scaled_degree(e),
                                     grevlex_key(e)))

    def _install_basis(self, basis):
        # Basis elements and standard monomials of one weighted degree span
        # the same slice of the graded Milnor ring, so the basis matrix is
        # block diagonal by degree: each block is inverted on its own.
        self.basis = list(basis)
        ws = self.weights
        self.den = ws.den
        self.degrees = []
        self.scaled = scaled = []
        rows = {}
        for i, phi in enumerate(self.basis):
            degs = {ws.scaled_degree(e) for e in phi.terms}
            if len(degs) != 1:
                raise DegeneratePairing(
                    "basis element %s is not weighted homogeneous" % phi)
            d, = degs
            rows.setdefault(d, []).append(i)
            scaled.append(d)
            self.degrees.append(Fraction(d, ws.den))
        cols = {}
        for m, e in enumerate(self.std):
            cols.setdefault(ws.scaled_degree(e), []).append(m)
        self.basis_inv = [None] * self.mu
        for d in sorted(rows.keys() | cols.keys()):
            elems, monos = rows.get(d, []), cols.get(d, [])
            if len(elems) != len(monos):
                raise DegeneratePairing(
                    "degree slice %s holds %d basis elements for %d "
                    "standard monomials"
                    % (Fraction(d, ws.den), len(elems), len(monos)))
            place = {m: c for c, m in enumerate(monos)}
            block = [[Fraction(0)] * len(monos) for _ in elems]
            for r, i in enumerate(elems):
                for exp, c in self.basis[i].terms.items():
                    m = self.std_index.get(exp)
                    if m is None:
                        raise DegeneratePairing(
                            "basis element %s is not a combination of "
                            "standard monomials" % self.basis[i])
                    block[r][place[m]] = c
            try:
                inv = linalg.mat_inv(block)
            except linalg.SingularMatrix:
                raise DegeneratePairing(
                    "the basis elements of degree %s are linearly dependent"
                    % Fraction(d, ws.den))
            for m, row in zip(monos, inv):
                self.basis_inv[m] = [(elems[r], v) for r, v in enumerate(row)
                                     if v]
        self.mono_cache = {}
        self.eta = None
        self.top = top = self.s.numerator * (ws.den // self.s.denominator)
        for i in range(self.mu):
            if scaled[i] + scaled[self.mu - 1 - i] != top:
                raise DegeneratePairing(
                    "degree duality d_%d + d_%d != s" % (i + 1, self.mu - i))

    def _finish_residue(self):
        hess = reduce_class(self, hessian_det(self.f))
        coords = hess.coeffs.get(0, [0] * self.mu)
        for i, c in enumerate(coords[:-1]):
            if c:
                raise DegeneratePairing(
                    "Hessian normal form has a component on phi_%d below the "
                    "socle" % (i + 1))
        if not coords[-1]:
            raise DegeneratePairing("Hessian reduces to zero; pairing degenerate")
        self.residue_scale = Fraction(self.mu) / coords[-1]

    def t_bound(self, exp):
        """The largest t-power of reduce_monomial(exp): a reduced term
        t^k phi_j of z^exp has k + d_j = deg(z^exp) and d_j >= 0, so k is
        at most the floor of deg(z^exp)."""
        return self.weights.scaled_degree(exp) // self.den

    # -- residues ------------------------------------------------------

    def classical_residue(self, g):
        """Grothendieck residue, normalized so the Hessian has residue mu:
        the socle (last) coordinate of the t^0 part of the reduced class of
        g, which is the normal form of g: the pairing of g with 1."""
        return self.pairing(g, MPoly.constant(self.variables, 1))

    def pairing(self, a, b):
        """The residue pairing classical_residue(a * b), summed over the
        term pairs of a and b from their monomials' reductions, without
        building the product."""
        last = self.mu - 1
        socle = 0
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                row = reduce_monomial(self, tuple(map(add, ea, eb))) \
                    .rows.get(0)
                if row and last in row:
                    socle += ca * cb * row[last]
        return socle * self.residue_scale if socle else Fraction(0)

    def residue_pairing_matrix(self):
        """The matrix of residue pairings res(phi_i phi_j) of the basis.

        A basis element is weighted homogeneous (_install_basis checks
        it), so res(phi_i phi_j) is zero by the grading unless
        d_i + d_j = s. Only those entries are paired; every other entry
        is Fraction(0) and is not reduced. The degrees are compared as
        the ints scaled and top."""
        zero = Fraction(0)
        return [[self.pairing(a, b) if da + db == self.top else zero
                 for b, db in zip(self.basis, self.scaled)]
                for a, da in zip(self.basis, self.scaled)]


class P1MirrorData:
    """Landau-Ginzburg mirror of the projective line: f = z + q/z on the
    punctured line, volume form dz/z. Plays the role of SingularityData
    for the Laurent reduction rules; mu = 2, basis {1, q/z} of degrees 0
    and 1, so its integer grading is den = 1, scaled = [0, 1], top = 1."""

    mode = "laurent"

    def __init__(self, q):
        q = exact_rational("the mirror parameter q =", q)
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
        self.den, self.scaled, self.top = 1, [0, 1], 1
        self.mono_cache = {
            (0,): ReducedClass(2, {0: {0: Fraction(1)}}),
            (-1,): ReducedClass(2, {0: {1: 1 / q}})}
        self.eta = None

    def t_bound(self, exp):
        """The largest t-power of reduce_monomial(exp), max(0, |e| - 1)
        for exp = (e,), by induction on |e| over the two rules of
        brieskorn._fill_laurent. [1] and [1/z] have t^0 only. For e >= 1,
        [z^e] = q [z^(e-2)] + (1 - e) t [z^(e-1)], whose t-term vanishes
        at e = 1; for e = -m <= -2, [z^e] = (1/q) [z^(2-m)] +
        ((1 - m)/q) t [z^(1-m)]. Each rule lowers |e| by 2 and adds no t,
        or lowers it by 1 and adds one t, so for |e| >= 2 the t-powers
        are at most max(|e| - 3, 0, 1 + |e| - 2) = |e| - 1."""
        return max(0, abs(exp[0]) - 1)

    def reach(self, exp, walked):
        """The largest t-power of [P_alpha z^exp] over every alpha != 0 of
        a projection's walk, walked being the set of 0-based basis
        positions whose directions it walks: |e| - 1 for exp = (e,) with
        e < 0; for e >= 0, max(-1, e - 3), or max(-1, e - 2) when the
        direction of phi_1 = 1 is walked (it has an override, so it is not
        the constant direction).

        psi_l has no constant term, so by the recurrence of
        UnfoldingData.q each Q_{l,n}, n >= 1, lies in the span of
        phi_l^j t^-j, 1 <= j <= n. So P_alpha is a sum of terms
        z^-j t^-(i+j), i, j >= 0 and i + j >= 1, from phi = q/z and,
        only when phi_1 is walked, i > 0 from phi_1 = 1. By t_bound the
        term's part of [P_alpha z^e] has t-powers at most
        max(0, |e - j| - 1) - i - j. For e < 0 that is |e| - 1 - i. For
        e >= 0 and j = 0, so i >= 1, it is at most max(0, e - 1) - 1. For
        j >= 1 it is at most max(-j, e - 2j - 1) when j <= e, and
        max(-j, -e - 1) when j > e, so at most max(-1, e - 3)."""
        e = exp[0]
        if e < 0:
            return -e - 1
        return max(-1, e - (2 if 0 in walked else 3))

    def residue_pairing_matrix(self):
        """The pairing of the basis {1, q/z}: K(1, q/z) = -1, and the
        other basis pairings vanish."""
        return [[Fraction(0), Fraction(-1)], [Fraction(-1), Fraction(0)]]


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

    Mutates and returns data. A basis that no slice changes stays
    installed, with its warm reduction cache; a changed one is installed
    and its whole pairing matrix checked."""
    mu, top = data.mu, data.top
    slices = {}
    for i, d in enumerate(data.scaled):
        slices.setdefault(d, []).append(i)
    new_basis = list(data.basis)
    for d, lower in sorted(slices.items()):
        if 2 * d > top:
            continue
        if 2 * d == top:
            _fix_middle_slice(data, lower, new_basis)
            continue
        upper = slices.get(top - d)
        if upper is None or len(upper) != len(lower):
            raise DegeneratePairing(
                "degree slice %s has no partner slice of matching size"
                % Fraction(d, data.den))
        _fix_slice_pair(data, lower, upper, new_basis)
    if new_basis == data.basis:
        # Each slice's Gram test has just checked every degree-s entry of
        # this basis, and the entries off degree s vanish by the grading.
        return data
    # The degree-0 and socle slices are 1x1 and never recombined (a zero
    # Gram raises), so residue_scale, read off the socle, still holds.
    data._install_basis(new_basis)
    for i, row in enumerate(data.residue_pairing_matrix()):
        for j, x in enumerate(row):
            if bool(x) != (i + j == mu - 1):
                raise DegeneratePairing(
                    "orthogonalization failed at (%d, %d)" % (i + 1, j + 1))
    return data


# -- higher residue pairing --------------------------------------------


def K(data, pairs, t_order):
    """Saito's higher residue pairing K(a, b) of each pair (a, b) of
    polynomials (Laurent ones on the P^1 mirror), as {t_power: value}
    without zero values, through t^t_order: pair_classes on the reduced
    classes of a and b. eta is read once for all the pairs."""
    eta = eta_rows(data)
    return [pair_classes(eta, reduce_class(data, a).rows,
                         reduce_class(data, b).rows, t_order)
            for a, b in pairs]


def pair_classes(eta, a, b, t_order):
    """K(a, b) for two classes given as sparse rows {k: {i: c}}, the
    coefficient c of t^k phi_i, as {t_power: value} without zero values,
    through t^t_order, with eta the sparse rows of eta_rows.

    K is sesquilinear, K(t a, b) = t K(a, b) = -K(a, t b), and on the
    weighted-homogeneous basis it is the residue pairing eta. So with
    a = sum_k t^k a_k and b = sum_l t^l b_l,
        K(a, b) = sum_{k,l} t^k (-t)^l a_k^T eta b_l,
    and K(a, b)(t) = K(b, a)(-t)."""
    series = {}
    for k, a_row in a.items():
        for l, b_row in b.items():
            if k + l <= t_order:
                for i, c in a_row.items():
                    for j, x in eta[i].items():
                        if j in b_row:
                            v = c * x * b_row[j]
                            series[k + l] = series.get(k + l, 0) + \
                                (-v if l % 2 else v)
    return {r: v for r, v in sorted(series.items()) if v}


def eta_rows(data):
    """K on the basis, eta_ij = K(phi_i, phi_j), as one sparse row
    {j: eta_ij} of nonzero entries per 0-based i: data.eta, built from
    the residue pairing matrix on the first call after a basis is
    installed and shared by every later reader."""
    if data.eta is None:
        data.eta = [{j: x for j, x in enumerate(row) if x}
                    for row in data.residue_pairing_matrix()]
    return data.eta


def pairing_univariate(a, b, t_order, m=None, q=None):
    """K(a, b) on the chain model z^(m+1)/(m+1) (pass m) or on the P^1
    mirror z + q/z (pass q), for a and b given as {power: coeff}. m is
    an int, at least 1; a bool is rejected."""
    if (m is None) == (q is None):
        raise ValueError("specify exactly one of m (A_m) or q (P^1 mirror)")
    if m is not None and not (type(m) is int and m >= 1):
        raise ValueError("m must be an integer >= 1, got %r" % (m,))
    data = P1MirrorData(q) if m is None else analyze(
        MPoly(("z",), {(m + 1,): Fraction(1, m + 1)}), [Fraction(1, m + 1)])
    a, b = (MPoly(data.variables, {(e,): c for e, c in h.items()},
                  laurent=m is None) for h in (a, b))
    return K(data, [(a, b)], t_order)[0]


def _fix_slice_pair(data, lower, upper, new_basis):
    k = len(lower)
    gram = [[data.pairing(new_basis[a], new_basis[b]) for b in upper]
            for a in lower]
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
    # Solve gram * X^T = J (J the reversal) for the upper-slice
    # recombination X: X^T = gram^-1 J is gram^-1 with its columns reversed.
    old = [new_basis[u] for u in upper]
    for c in range(k):
        new_basis[upper[c]] = _combine([row[k - 1 - c] for row in inv], old)


def _fix_middle_slice(data, idxs, new_basis):
    k = len(idxs)
    gram = [[data.pairing(new_basis[a], new_basis[b]) for b in idxs]
            for a in idxs]
    if all(bool(gram[a][b]) == (a + b == k - 1) for a in range(k)
           for b in range(k)):
        return
    vectors = _hyperbolic_reduce(gram)
    old = [new_basis[i] for i in idxs]
    for c, vec in enumerate(vectors):
        new_basis[idxs[c]] = _combine(vec, old)


def _combine(coeffs, polys):
    """sum_b coeffs[b] * polys[b], skipping zero coefficients."""
    combo = MPoly.zero(polys[0].variables)
    for coeff, poly in zip(coeffs, polys):
        if coeff:
            combo = combo + coeff * poly
    return combo


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
