"""Universal unfoldings, opposite-filtration basis changes, and
oscillator matrices.

The unfolding F = f + sum_l psi_l(u_l) phi_l is truncated at total
u-degree N; psi_l(u_l) = u_l unless an override replaces it by a series
in u_l alone with no constant term. Oscillator matrices A^(k)(u) collect
the t^k component of the reduced classes
e^((F-f)/t) Phi_i = sum_{j,k} A^(k)_ij t^k Phi_j.

The oscillating projection runs in u-monomial order. Each factor
expands as e^(psi_l(u_l) phi_l/t) = sum_n u_l^n Q_{l,n}, so
e^((F-f)/t) = sum_alpha u^alpha P_alpha with P_alpha = prod_l
Q_{l,alpha_l}, a polynomial in z and 1/t with Fraction coefficients;
for psi_l = u_l it is t^(-|alpha|) prod_l phi_l^alpha_l / alpha_l!.
An input class is a sum of product terms t^t0 r h, r = sum_beta r_beta
u^beta a ring element and h a polynomial in z with Fraction
coefficients, and projects to sum u^(alpha+beta) r_beta [t^t0 P_alpha h]:
each [P_alpha h] is reduced once, and every coefficient is a plain
Fraction until the ring entries are built, once, at the end. With a
floor on the t-powers two cuts keep the work to what lands at or above
it: a z-term cut on each product and, from the grading, an exact cut on
alpha itself (see oscillating_projection).
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


class InvalidOverride(ValueError):
    """An override whose coefficient psi_l(u_l) has a constant term or
    involves another u: the truncation of e^((F-f)/t) at u-degree N and
    the per-variable expansion of the projection both need psi_l in the
    maximal ideal of Q[u_l]."""


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
    e1 + e2. The projection passes Fractions; only exp_powers passes ring
    elements. Zero products are skipped, but sums that cancel stay as
    zero entries. right is iterated once per left term, so it must not
    be a one-shot iterator."""
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

    def coords_to_upper(self, slots):
        """Rewrite {(k, l): {gamma: c}}, the u^gamma coefficients of
        t^k phi_l, into Phi coordinates: right-multiplication by the
        inverse basis change, whose (l, j) slot carries t^(d_l - d_j)."""
        mu = self.base.mu
        out = {}
        for (k, l), poly in slots.items():
            for j in range(mu):
                w = self.inv[l][j]
                if w:
                    tgt = out.setdefault((k + self.t_power(l, j), j), {})
                    for gamma, c in poly.items():
                        tgt[gamma] = tgt.get(gamma, 0) + c * w
        return out


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
        # psi_l as {power: coefficient}; each coefficient involves u_l only
        self.series = [{exp[pos]: c for exp, c in coeff.terms.items()}
                       for pos, coeff in enumerate(coeffs)]
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
        """[(F-f)^k / k! as z-exp -> ring dicts, k = 0..N].

        No library code reads this table: oscillating_projection expands
        e^((F-f)/t) by u-monomial instead. Only the benchmark's traced
        mode times it and counts its terms."""
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
            var = _checked_override(fn(var), var, j + 1, pos)
            override = True
        coeffs.append(var)
    return UnfoldingData(base, N, indices, u_names, coeffs, override)


def _checked_override(value, var, index, pos):
    """An override's coefficient psi(u), checked to lie in the maximal
    ideal of Q[u] for its own variable u = var (see InvalidOverride)."""
    if not isinstance(value, MPoly) or value.variables != var.variables \
            or value.order != var.order:
        raise InvalidOverride("the override for phi_%d must return an "
                              "element of the unfolding ring, got %r"
                              % (index, value))
    if value.constant_term():
        raise InvalidOverride("the override for phi_%d has the nonzero "
                              "constant term %s" % (index,
                                                    value.constant_term()))
    if any(e for exp in value.terms for i, e in enumerate(exp) if i != pos):
        raise InvalidOverride("the override for phi_%d involves a u-variable "
                              "other than its own: %s" % (index, value))
    return value


class OscillatorData:
    """The family A^(k)(u), keyed by the t-powers k that occur: a block
    is stored only when it has a nonzero entry, so a missing k is a zero
    matrix.

    Only the window -a <= k <= a that the Neumann solve reads is kept,
    in polynomial and Laurent mode alike. The whole family down to
    k = -N is the oscillating projection of the Phi_i with no floor.
    """

    def __init__(self, unf, filtration, matrices, a):
        self.unf = unf
        self.filtration = filtration
        self.matrices = matrices      # k -> mu x mu matrix of ring elems
        self.a = a


def positive_bound(base, N):
    """Largest t-power a that can appear in an oscillator matrix."""
    if base.mode == "laurent":
        return 0
    s = base.s
    return max(math.floor(N * (s - 1) + s), math.floor(s))


def oscillator_matrices(unf, c=None):
    """Compute the A^(k) family in the Phi(c) basis: row i is the
    oscillating projection of Phi_i.

    Only the t-powers -a <= k <= a that primitive_form reads are
    computed and kept (see oscillating_projection).
    """
    base = unf.base
    mu = base.mu
    filtration = c if isinstance(c, OppositeFiltration) else \
        OppositeFiltration(base, c)
    a = positive_bound(base, unf.N)
    one = unf.ring_one()
    rows = oscillating_projection(
        unf, [[(t0, h, one) for t0, h in filtration.upper(i)]
              for i in range(mu)], filtration, floor=-a)
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
    class h, each given as product terms (t0, {z_exp: Fraction}, r)
    meaning t^t0 * r * sum c z^z_exp, r a ring element (the rep format of
    verify_primitive).

    The work runs in u-monomial order (see the module docstring). Each
    alpha with |alpha| <= N is visited once, depth-first over
    non-decreasing index sequences; P_alpha is built once, as P at alpha
    without its last variable l times Q_{l,alpha_l}, the Q_{l,n} coming
    once per call from their recurrence (see _series_terms). Each
    product P_alpha h is reduced through the monomial cache into Fraction
    sums per (t^k, phi_j) once, and those sums are spread over the
    u-monomials beta of r with |alpha| + |beta| <= N into the
    u^(alpha+beta) slots, multiplied by r_beta unless it is 1.

    With a floor only the t-powers k >= floor are computed and kept.
    Reducing z^e gives t-powers of at most deg(e) in either basis, since
    basis degrees are >= 0. So in polynomial mode a term z^e t^(-m) of
    P_alpha is skipped against a product term (t0, h, r) when
    deg(e) - m + top(h) + t0 < floor, top being the largest degree in h,
    before any product is formed. For psi_l = u_l, P_alpha is homogeneous
    with deg(e) - m = -wdeg(alpha), wdeg(alpha) = sum alpha_l (1 - d_l),
    so this is an exact cut on alpha, and a subtree is pruned when even
    wdeg(alpha) + (N - |alpha|) min(0, min deg u) leaves every product
    term below the floor. In both modes coords_to_upper lifts a t-power
    by at most filtration.lift, so reduced t-powers below floor - lift
    are skipped, and what still lands below floor is dropped.
    """
    base = unf.base
    mu, nu, N = base.mu, unf.nu, unf.N
    graded = floor is not None and not unf.laurent
    scale, weights = (1, None) if unf.laurent else \
        _integer_scale(base.weights)
    skip = -math.inf if floor is None else floor - filtration.lift
    groups = []
    for i, terms in enumerate(classes):
        for t0, h, coeff in terms:
            if not h or not coeff:
                continue
            # the smallest scaled deg(e) - m of a P_alpha term to keep
            cut = (floor - t0) * scale - max(_dot(weights, e) for e in h) \
                if graded else -math.inf
            # the u-monomials of coeff by size, None for a coefficient 1
            spread = sorted((sum(beta), beta, None if b == 1 else b)
                            for beta, b in coeff.terms.items())
            groups.append((i, t0, list(h.items()), spread, spread[0][0],
                           cut))
    # per variable l: the scaled degree step of one more phi_l / t, and
    # Q_{l,n} for n = 0..N
    rises = [int(-d * scale) for d in unf.deg_u]
    qs = [_series_terms(list(base.basis[j].terms.items()), psi, rise, N)
          for j, psi, rise in zip(unf.indices, unf.series, rises)]
    # without overrides P_alpha is homogeneous and one more u raises
    # its degree by at most climb, so no alpha below a pruned one can pass
    prune = graded and not unf.override
    lowest = min((g[-1] for g in groups), default=0)
    climb = max([0] + rises)
    acc = [{} for _ in classes]     # per class: (k, j) -> {gamma: Fraction}
    reductions = {}

    # depth first over alpha as non-decreasing index sequences; each
    # P_alpha maps (m, scaled deg(e) - m) to the z-terms of its t^(-m)
    # part, and prefix is P at alpha with alpha_last set to 0
    one = {(0, 0): {(0,) * base.n: Fraction(1)}}
    stack = [((0,) * nu, 0, 0, one, one)] if groups else []
    while stack:
        alpha, size, last, prefix, P = stack.pop()
        top = max((d for _, d in P), default=-math.inf)
        if prune and top + (N - size) * climb < lowest:
            continue
        for i, t0, h, spread, least, cut in groups:
            if size + least > N or top < cut:
                continue
            local = {}
            for (m, d), poly in P.items():
                if d < cut:
                    continue
                shift = t0 - m
                for e, c in z_product(poly.items(), h).items():
                    if not c:
                        continue
                    red = reductions.get(e)
                    if red is None:
                        red = reductions[e] = _sparse(reduce_monomial(base, e))
                    for k, row in red:
                        k += shift
                        if k < skip:
                            break
                        for j, v in row:
                            key = (k, j)
                            prior = local.get(key)
                            local[key] = c * v if prior is None \
                                else prior + c * v
            if not local:
                continue
            slots = acc[i]
            for bsize, beta, b in spread:
                if size + bsize > N:
                    break
                gamma = tuple(map(add, alpha, beta))
                for key, c in local.items():
                    if b is not None:
                        c *= b
                    slot = slots.get(key)
                    if slot is None:
                        slots[key] = {gamma: c}
                    else:
                        prior = slot.get(gamma)
                        slot[gamma] = c if prior is None else prior + c
        if size < N:
            for l in range(last, nu):
                # P at alpha + e_l is P at alpha without its u_l part
                # times Q_{l,alpha_l+1}
                before = prefix if l == last else P
                n = alpha[l] + 1
                stack.append((alpha[:l] + (n,) + alpha[l + 1:], size + 1, l,
                              before, _times(before, qs[l][n])))

    out = []
    zero = unf.ring_zero()
    for slots in acc:
        if not filtration.is_trivial():
            slots = filtration.coords_to_upper(slots)
        rows = {}
        for (k, j), poly in slots.items():
            if floor is None or k >= floor:
                # gamma has |gamma| <= N and every c is a Fraction
                elem = zero._like({g: c for g, c in poly.items() if c})
                if elem:
                    rows.setdefault(k, [zero] * mu)[j] = elem
        out.append(ReducedClass(mu, rows))
    return out


def _sparse(reduced):
    """A reduced class as [(k, [(j, v) nonzero])], highest k first."""
    return [(k, [(j, v) for j, v in enumerate(vec) if v])
            for k, vec in sorted(reduced.coeffs.items(), reverse=True)]


def _series_terms(phi, psi, rise, N):
    """[Q_0, ..., Q_N] of e^(psi(u) phi / t) = sum_n u^n Q_n, for
    psi = sum_k p_k u^k given as {k: p_k}, by the recurrence
    Q_n = (phi / (n t)) sum_{k=1..n} k p_k Q_(n-k), the u^(n-1)
    coefficient of d/du e^(psi phi/t) = psi'(u) (phi/t) e^(psi phi/t).
    For psi = u it gives Q_n = phi^n / (n! t^n). Each Q_n maps
    (m, scaled deg(e) - m) to the z-terms of its t^(-m) part; one more
    phi / t raises that degree by rise."""
    out = [{(0, 0): {(0,) * len(phi[0][0]): Fraction(1)}}]
    for n in range(1, N + 1):
        q = {}
        for k, p in psi.items():
            if k <= n:
                factor = [(e, c * k * p / n) for e, c in phi]
                for (m, d), poly in out[n - k].items():
                    _accumulate(q, (m + 1, d + rise),
                                z_product(poly.items(), factor))
        out.append(_nonzero(q))
    return out


def _times(a, b):
    """The product of two polynomials in z and 1/t, each given as
    {(m, scaled deg(e) - m): {z_exp: c}}."""
    out = {}
    for (m1, d1), p1 in a.items():
        for (m2, d2), p2 in b.items():
            _accumulate(out, (m1 + m2, d1 + d2),
                        z_product(p1.items(), p2.items()))
    return _nonzero(out)


def _accumulate(polys, key, part):
    """polys[key] += part, for z-exponent -> c dicts."""
    prior = polys.get(key)
    if prior is None:
        polys[key] = part
    else:
        for e, c in part.items():
            c0 = prior.get(e)
            prior[e] = c if c0 is None else c0 + c


def _nonzero(polys):
    """{key: {z_exp: c}} without its zero coefficients and empty parts."""
    out = {}
    for key, poly in polys.items():
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            out[key] = poly
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
    memo = {}
    for k, m in osc.matrices.items():
        for i, row in enumerate(m):
            for j, elem in enumerate(row):
                want = degrees[i] - degrees[j] - k * scale
                for exp in elem.terms:
                    degree = memo.get(exp)
                    if degree is None:
                        degree = memo[exp] = _dot(deg_u, exp)
                    if degree != want:
                        raise GradingViolation(
                            "off-grade term u^%r in A^(%d)[%d][%d]"
                            % (exp, k, i + 1, j + 1))
