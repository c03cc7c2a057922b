"""Universal unfoldings, opposite-filtration basis changes, and
oscillator matrices.

The unfolding F = f + sum_j psi_j(u) phi_j is truncated at total
u-degree N. Oscillator matrices A^(k)(u) collect the t^k component of
the reduced classes e^((F-f)/t) Phi_i = sum_{j,k} A^(k)_ij t^k Phi_j.
"""

import math
from fractions import Fraction
from functools import cache
from operator import add

from . import linalg
from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly


class GradingViolation(Exception):
    pass


@cache
def _ring_variables(nvars):
    return tuple("u%d" % (i + 1) for i in range(nvars))


def UnfoldRingElem(nvars, order, terms=None):
    """Element of the truncated parameter ring Q[u_1..u_nvars]/m^(order+1):
    an MPoly over the positional names u1..u_nvars with that order."""
    return MPoly(_ring_variables(nvars), terms, order=order)


def exp_series(elem):
    """exp(elem) in the truncated ring; elem must have zero constant term."""
    if elem.constant_term():
        raise ValueError("exp of an element with nonzero constant term")
    out = power = MPoly.constant(elem.variables, 1, order=elem.order)
    for k in range(1, elem.order + 1):
        power = power * elem * Fraction(1, k)
        if not power:
            break
        out = out + power
    return out


def z_product(left, right):
    """The product of two z-exponent -> coefficient maps, given as
    (exponent, coefficient) pairs, as a dict accumulating c1 * c2 at
    e1 + e2. Coefficients are ring elements or Fractions; zero products
    are skipped, but sums that cancel stay as zero entries. right is
    iterated once per left term, so it must not be a one-shot iterator."""
    out = {}
    for e1, c1 in left:
        for e2, c2 in right:
            c = c1 * c2
            if c:
                e = tuple(map(add, e1, e2))
                prior = out.get(e)
                out[e] = c if prior is None else prior + c
    return out


class OppositeFiltration:
    """Basis change Phi_i = phi_i + sum_j c_ij t^(r(i,j)) phi_j for a
    point c of the moduli of good opposite filtrations."""

    def __init__(self, base, c=None):
        self.base = base
        mu = base.mu
        self.c = {}
        mat = linalg.identity(mu)
        for (i, j), value in (c or {}).items():
            if not (1 <= i <= mu and 1 <= j <= mu):
                raise ValueError("c slot (%d, %d) out of range 1..%d"
                                 % (i, j, mu))
            value = Fraction(value)
            if not value:
                continue
            r = base.degrees[i - 1] - base.degrees[j - 1]
            if r.denominator != 1 or r <= 0:
                raise GradingViolation(
                    "c[%d,%d] requires degree gap in Z_>0, got %s" % (i, j, r))
            self.c[(i, j)] = value
            mat[i - 1][j - 1] = value
        self.mat = mat
        self.inv = linalg.mat_inv(mat)
        # the largest t-power that coords_to_upper adds
        self.lift = max(self.t_power(l, j) for l in range(mu)
                        for j in range(mu) if self.inv[l][j])

    def is_trivial(self):
        return not self.c

    def t_power(self, i, j):
        """Integer t-exponent attached to the (i, j) matrix slot."""
        r = self.base.degrees[i] - self.base.degrees[j]
        if r.denominator != 1:
            raise GradingViolation("non-integer t-power between phi_%d and "
                                   "phi_%d" % (i + 1, j + 1))
        return int(r)

    def upper(self, i):
        """Phi_i (0-based i) as (t_power, {z_exp: coefficient}) terms over
        the Milnor basis."""
        out = []
        for j, value in enumerate(self.mat[i]):
            if value:
                out.append((self.t_power(i, j),
                            {e: value * c
                             for e, c in self.base.basis[j].terms.items()}))
        return out

    def coords_to_upper(self, reduced):
        """Rewrite a reduced class from phi coordinates into Phi
        coordinates: right-multiplication by the inverse basis change,
        whose (l, j) slot carries t^(d_l - d_j)."""
        mu = self.base.mu
        out = ReducedClass(mu)
        for k, vec in reduced.coeffs.items():
            for l in range(mu):
                if not vec[l]:
                    continue
                for j in range(mu):
                    if self.inv[l][j]:
                        tgt = out.coeffs.setdefault(
                            k + self.t_power(l, j), [0] * mu)
                        tgt[j] = tgt[j] + vec[l] * self.inv[l][j]
        return out.compress()


class UnfoldingData:
    """A truncated universal unfolding of one singularity."""

    def __init__(self, base, N, indices, u_names, coeffs, override):
        self.base = base
        self.N = N
        self.indices = indices        # 0-based basis positions with parameters
        self.u_names = u_names
        self.nu = len(indices)
        self.coeffs = coeffs          # ring element per index
        self.override = override
        self.deg_u = [1 - base.degrees[j] for j in indices]
        self.f_diff = {}              # z-exponent -> ring element, F - f
        for j, coeff in zip(indices, coeffs):
            for exp, c in base.basis[j].terms.items():
                prior = self.f_diff.get(exp)
                term = coeff * c
                self.f_diff[exp] = term if prior is None else prior + term
        self.laurent = base.mode == "laurent"
        self._exp_powers = None

    def ring_zero(self):
        return UnfoldRingElem(self.nu, self.N)

    def ring_one(self):
        return UnfoldRingElem(self.nu, self.N, {(0,) * self.nu: 1})

    def u_degree(self, exp):
        """Graded weight of a u-monomial (sum alpha_l deg u_l)."""
        return sum(d * e for d, e in zip(self.deg_u, exp))

    def exp_powers(self):
        """[(F-f)^k / k! as z-exp -> ring dicts, k = 0..N]."""
        if self._exp_powers is None:
            powers = [{tuple([0] * self.base.n): self.ring_one()}]
            f_diff = self.f_diff.items()
            for k in range(1, self.N + 1):
                nxt = z_product(powers[-1].items(), f_diff)
                inv_k = Fraction(1, k)
                powers.append({e: c * inv_k for e, c in nxt.items() if c})
            self._exp_powers = powers
        return self._exp_powers


def build_unfolding(base, N, mask=None, overrides=None, u_names=None):
    """Construct the truncated universal unfolding.

    mask: 1-based basis indices that carry a parameter (default: all).
    overrides: {1-based index: callable(elem) -> elem} replacing the
        default linear coefficient u_j by a series in it (used for the
        exponentiated P^1 direction).
    u_names: display names, default u1..u_mu keyed by basis position.
    """
    mu = base.mu
    if mask is None:
        indices = list(range(mu))
    else:
        indices = sorted(i - 1 for i in mask)
        if any(i < 0 or i >= mu for i in indices):
            raise ValueError("mask index out of range")
    if u_names is None:
        u_names = ["u%d" % (i + 1) for i in indices]
    nu = len(indices)
    coeffs = []
    override = False
    for pos, j in enumerate(indices):
        exp = tuple(int(i == pos) for i in range(nu))
        var = UnfoldRingElem(nu, N, {exp: 1})
        fn = (overrides or {}).get(j + 1)
        if fn is not None:
            var = fn(var)
            override = True
        coeffs.append(var)
    return UnfoldingData(base, N, indices, u_names, coeffs, override)


class OscillatorData:
    """The family A^(k)(u), keyed by the t-powers k that occur.

    By default only the window -a <= k <= a that the Neumann solve reads
    is kept, in polynomial and Laurent mode alike, and matrix(k) is zero
    outside it; built with prune=False the family runs down to k = -N.
    """

    def __init__(self, unf, filtration, matrices, a):
        self.unf = unf
        self.filtration = filtration
        self.matrices = matrices      # k -> mu x mu matrix of ring elems
        self.a = a

    def matrix(self, k):
        mu = self.unf.base.mu
        m = self.matrices.get(k)
        if m is None:
            zero = self.unf.ring_zero()
            m = [[zero] * mu for _ in range(mu)]
        return m


def positive_bound(base, N):
    """Largest t-power a that can appear in an oscillator matrix."""
    if base.mode == "laurent":
        return 0
    s = base.s
    return max(math.floor(N * (s - 1) + s), math.floor(s))


def oscillator_matrices(unf, c=None, prune=True):
    """Compute the A^(k) family in the Phi(c) basis: row i is the
    oscillating projection of Phi_i.

    With prune (the default) only the t-powers -a <= k <= a that
    primitive_form reads are computed and kept (see
    oscillating_projection); prune=False returns every k down to -N.
    """
    base = unf.base
    mu = base.mu
    filtration = c if isinstance(c, OppositeFiltration) else \
        OppositeFiltration(base, c)
    a = positive_bound(base, unf.N)
    rows = oscillating_projection(
        unf, [filtration.upper(i) for i in range(mu)], filtration,
        floor=-a if prune else None)
    matrices = {}
    zero = unf.ring_zero()
    for i, row in enumerate(rows):
        for k, vec in row.coeffs.items():
            for j in range(mu):
                if not vec[j]:
                    continue
                if k > a:
                    raise GradingViolation(
                        "t^%d term beyond the bound a=%d at A[%d][%d]"
                        % (k, a, i + 1, j + 1))
                m = matrices.setdefault(k, [[zero] * mu for _ in range(mu)])
                m[i][j] = vec[j]
    osc = OscillatorData(unf, filtration, matrices, a)
    _check_base_point(osc)
    if not unf.override:
        _check_grading(osc)
    return osc


def oscillating_projection(unf, classes, filtration, floor=None):
    """Reduced classes of e^((F-f)/t) * h in Phi(c) coordinates, one per
    class h, each given as (t0, {z_exp: coefficient}) terms meaning
    sum t^t0 * coefficient * z^z_exp.

    With a floor only the t-powers k >= floor are computed and kept.
    Reducing z^m gives t-powers of at most deg(m) in either basis, since
    basis degrees are >= 0, so in polynomial mode a z-term e of
    (F-f)^K/K! is skipped when deg(e) + maxdeg(h) + t0 - K < floor. In
    both modes coords_to_upper lifts a t-power by at most
    filtration.lift, so reduced t-powers below floor - lift are skipped
    before any ring multiplication, and what still lands below floor is
    dropped.
    """
    base = unf.base
    powers = unf.exp_powers()
    graded = floor is not None and not unf.laurent
    if graded:
        scale, weights = _integer_scale(base.weights)
        z_degrees = [[_dot(weights, e) for e in power] for power in powers]
    skip = None if floor is None else floor - filtration.lift
    out = []
    for terms in classes:
        acc = ReducedClass(base.mu)
        for t0, h in terms:
            if not h:
                continue
            if graded:
                top = max(_dot(weights, e) for e in h)
            for K, power in enumerate(powers):
                items = power.items()
                if graded:
                    cut = (floor + K - t0) * scale - top
                    items = [t for t, d in zip(items, z_degrees[K])
                             if d >= cut]
                for exp, coeff in z_product(items, h.items()).items():
                    if coeff:
                        acc.add_scaled(reduce_monomial(base, exp), coeff,
                                       t0 - K, skip)
        acc.compress()
        if not filtration.is_trivial():
            acc = filtration.coords_to_upper(acc)
            if floor is not None:
                acc.coeffs = {k: vec for k, vec in acc.coeffs.items()
                              if k >= floor}
        out.append(acc)
    return out


def _dot(weights, exp):
    return sum(w * e for w, e in zip(weights, exp))


def _integer_scale(values):
    """The least common denominator L of rational values, and [v * L]."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    return scale, [int(v * scale) for v in values]


def _check_base_point(osc):
    """At u = 0 the oscillator family must be the identity at t^0."""
    mu = osc.unf.base.mu
    for k, m in osc.matrices.items():
        for i in range(mu):
            for j in range(mu):
                want = Fraction(1) if (k == 0 and i == j) else Fraction(0)
                if m[i][j].constant_term() != want:
                    raise GradingViolation(
                        "A^(%d)[%d][%d](0) = %s, expected %s"
                        % (k, i + 1, j + 1, m[i][j].constant_term(), want))


def _check_grading(osc):
    """Every u-monomial of A^(k)_ij satisfies
    k + sum(alpha_l deg u_l) + d_j - d_i = 0, checked in integers with
    all degrees scaled by their least common denominator."""
    unf = osc.unf
    mu = unf.base.mu
    scale, ints = _integer_scale(unf.base.degrees + unf.deg_u)
    degrees, deg_u = ints[:mu], ints[mu:]
    for k, m in osc.matrices.items():
        for i, row in enumerate(m):
            for j, elem in enumerate(row):
                want = degrees[i] - degrees[j] - k * scale
                for exp in elem.terms:
                    if sum(d * e for d, e in zip(deg_u, exp)) != want:
                        raise GradingViolation(
                            "off-grade term u^%r in A^(%d)[%d][%d]"
                            % (exp, k, i + 1, j + 1))
