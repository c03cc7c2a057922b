"""Universal unfoldings, opposite-filtration basis changes, the
oscillating projection and oscillator matrices.

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
it: a cut on the reduced t-powers of each product and, without
overrides, an exact cut on alpha itself from the grading. A Projector
holds this setup, so that the order-by-order solve of the primitive
form can run it once per u-degree (see Projector).
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
    matrix. primitive_form(osc=...) solves zeta_+ from it; the
    order-by-order solve does not build it.

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

    primitive_form does not need it: it solves zeta_+ order by order
    from the projection of zeta_+ alone. The family serves
    primitive_form(osc=...), the benchmark's traced mode and the tests,
    which compare the two algorithms.

    Only the t-powers -a <= k <= a that the solve on A reads are
    computed and kept (see oscillating_projection). Each nonzero entry
    is checked where it is placed: k <= a, the base point (constant term
    delta_k0 delta_ij) and, without overrides, the grading
    k + deg(u^alpha) + d_j - d_i = 0 of each u-monomial, in integers.
    Then every diagonal entry of A^(0) must be there.
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
    on_grade = grading(unf)
    matrices = {}
    zero = unf.ring_zero()
    for i, row in enumerate(rows):
        for k, vec in row.coeffs.items():
            for j, elem in enumerate(vec):
                if not elem:
                    continue
                if k > a:
                    raise GradingViolation(
                        "t^%d term beyond the bound a=%d at A[%d][%d]"
                        % (k, a, i + 1, j + 1))
                const, want = elem.constant_term(), int(k == 0 and i == j)
                if const != want:
                    raise GradingViolation(
                        "A^(%d)[%d][%d](0) = %s, expected %s"
                        % (k, i + 1, j + 1, const, want))
                if on_grade is not None:
                    for exp in elem.terms:
                        if not on_grade(k, i, j, exp):
                            raise GradingViolation(
                                "off-grade term u^%r in A^(%d)[%d][%d]"
                                % (exp, k, i + 1, j + 1))
                m = matrices.setdefault(k, [[zero] * mu for _ in range(mu)])
                m[i][j] = elem
    identity = matrices.get(0)
    for i in range(mu):
        if identity is None or not identity[i][i]:
            raise GradingViolation("A^(0)[%d][%d](0) = 0, expected 1"
                                   % (i + 1, i + 1))
    return OscillatorData(unf, filtration, matrices, a)


def grading(unf):
    """None with overrides. Otherwise on_grade(k, i, j, exp), 0-based i
    and j: whether t^k u^exp may stand at Phi_j in the projection of
    Phi_i, that is k + deg(u^exp) + d_j - d_i = 0, compared in integers
    with a per-exponent memo. zeta_+ carries the grading of Phi_1."""
    if unf.override:
        return None
    mu = unf.base.mu
    scale, ints = _integer_scale(unf.base.degrees + unf.deg_u)
    degrees, deg_u = ints[:mu], ints[mu:]
    memo = {}

    def on_grade(k, i, j, exp):
        degree = memo.get(exp)
        if degree is None:
            degree = memo[exp] = _dot(deg_u, exp)
        return degree == degrees[i] - degrees[j] - k * scale
    return on_grade


def oscillating_projection(unf, classes, filtration, floor=None):
    """Reduced classes of e^((F-f)/t) * h in Phi(c) coordinates, one per
    class h, each given as product terms (t0, {z_exp: Fraction}, r)
    meaning t^t0 * r * sum c z^z_exp, r a ring element (the rep format of
    verify_primitive). With a floor only the t-powers k >= floor are
    computed and kept. One Projector runs every product term in one
    search over alpha (see Projector)."""
    projector = Projector(unf, filtration, floor)
    acc = [{} for _ in classes]     # per class: (k, j) -> {gamma: Fraction}
    projector.run([projector.product_term(t0, h, coeff.terms,
                                          [slots] * (unf.N + 1))
                   for terms, slots in zip(classes, acc)
                   for t0, h, coeff in terms if h and coeff])
    return [projector.rows(slots) for slots in acc]


class Projector:
    """The oscillating projection of product terms for one unfolding,
    opposite filtration and floor: the setup its callers share (the
    Q_{l,n}, the cuts and the reductions met so far) and the one
    reduce-and-accumulate kernel.

    The work runs in u-monomial order (see the module docstring). A run
    visits each alpha once, depth-first over non-decreasing index
    sequences; P_alpha is built once per run, as P at alpha without its
    last variable l times Q_{l,alpha_l}, the Q_{l,n} coming once per
    Projector from their recurrence (see _series_terms). Each product
    P_alpha h is reduced through the monomial cache into Fraction sums
    per (t^k, phi_j) once, and those sums are spread over the
    u-monomials beta of the term's coefficient with
    |alpha| + |beta| <= N into the u^(alpha+beta) slots, multiplied by
    r_beta unless it is 1. A product term given a key keeps its sum per
    alpha for the Projector's lifetime, so a later run that meets the
    term again only spreads it.

    With a floor, coords_to_upper lifts a t-power by at most
    filtration.lift in both modes, so reduced t-powers below floor -
    lift are skipped, and what still lands below floor is dropped. In
    polynomial mode without overrides P_alpha is homogeneous of degree
    deg(e) - m = -wdeg(alpha), wdeg(alpha) = sum alpha_l (1 - d_l), and
    reducing z^e gives t-powers of at most deg(e), since basis degrees
    are >= 0. So P_alpha is skipped against a product term (t0, h, r)
    when top(h) + t0 - wdeg(alpha) < floor, top being the largest degree
    in h, and a subtree is pruned when even -wdeg(alpha) - (room)
    min(0, min deg u) leaves every product term of the run below the
    floor, room being how many more u the run's terms allow.
    """

    def __init__(self, unf, filtration, floor=None):
        base = unf.base
        self.unf = unf
        self.filtration = filtration
        self.floor = floor
        self.graded = floor is not None and not unf.laurent and \
            not unf.override
        self.scale, self.weights = (1, None) if unf.laurent else \
            _integer_scale(base.weights)
        self.skip = -math.inf if floor is None else floor - filtration.lift
        # per variable l: the scaled degree step of one more phi_l / t, and
        # Q_{l,n} for n = 0..N; one more u raises the degree of P_alpha by
        # at most climb, so no alpha below a pruned one can pass
        self.rises = [int(-d * self.scale) for d in unf.deg_u]
        self.climb = max([0] + self.rises)
        self.qs = [_series_terms(list(base.basis[j].terms.items()), psi,
                                 unf.N)
                   for j, psi in zip(unf.indices, unf.series)]
        self.reductions = {}
        self.memo = {}

    def product_term(self, t0, h, coeffs, sink, key=None):
        """The product term t^t0 * (sum_beta r_beta u^beta) * h, h and
        coeffs given as {exponent: Fraction}. Its u^(alpha+beta) parts go
        to sink[|alpha|], a (k, j) -> {gamma: Fraction} dict in phi
        coordinates, or nowhere where that is None. A key memoizes its
        reduced sum per alpha."""
        # the smallest scaled deg(e) - m of a P_alpha term to keep
        cut = (self.floor - t0) * self.scale - \
            max(_dot(self.weights, e) for e in h) if self.graded \
            else -math.inf
        # the u-monomials of coeffs by size, None for a coefficient 1
        spread = sorted((sum(beta), beta, None if b == 1 else b)
                        for beta, b in coeffs.items())
        return (t0, list(h.items()), spread, spread[0][0], cut, sink, key)

    def run(self, terms):
        """Add the projections of the product terms to their sinks."""
        if not terms:
            return
        unf, memo = self.unf, self.memo
        N = unf.N
        depth = N - min(term[3] for term in terms)
        lowest = min(term[4] for term in terms)
        # depth first over alpha as non-decreasing index sequences; each
        # P_alpha maps m to the z-terms of its t^(-m) part, top is its
        # scaled degree, and prefix is P at alpha with alpha_last set to 0
        one = {0: {(0,) * unf.base.n: Fraction(1)}}
        stack = [((0,) * unf.nu, 0, 0, 0, one, one)]
        while stack:
            alpha, size, last, top, prefix, P = stack.pop()
            if self.graded and top + (depth - size) * self.climb < lowest:
                continue
            for t0, h, spread, least, cut, sink, key in terms:
                if size + least > N or top < cut:
                    continue
                slots = sink[size]
                if slots is None:
                    continue
                if key is None:
                    local = self._reduce(P, t0, h)
                else:
                    local = memo.get((alpha, key))
                    if local is None:
                        local = memo[(alpha, key)] = self._reduce(P, t0, h)
                if not local:
                    continue
                for bsize, beta, b in spread:
                    if size + bsize > N:
                        break
                    gamma = tuple(map(add, alpha, beta))
                    for slot_key, c in local.items():
                        if b is not None:
                            c *= b
                        slot = slots.get(slot_key)
                        if slot is None:
                            slots[slot_key] = {gamma: c}
                        else:
                            prior = slot.get(gamma)
                            slot[gamma] = c if prior is None else prior + c
            if size < depth:
                for l in range(last, unf.nu):
                    # P at alpha + e_l is P at alpha without its u_l part
                    # times Q_{l,alpha_l+1}
                    before = prefix if l == last else P
                    n = alpha[l] + 1
                    stack.append((alpha[:l] + (n,) + alpha[l + 1:], size + 1,
                                  l, top + self.rises[l], before,
                                  _times(before, self.qs[l][n])))

    def _reduce(self, P, t0, h):
        """[t^t0 P h] as Fraction sums {(k, j): c} over the t-powers
        k >= floor - lift, through the monomial cache."""
        base, reductions, skip = self.unf.base, self.reductions, self.skip
        local = {}
        for m, poly in P.items():
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
        return local

    def rows(self, slots):
        """A sink's (k, j) -> {gamma: c} slots as a ReducedClass of ring
        elements in Phi(c) coordinates, t-powers below the floor
        dropped."""
        if not self.filtration.is_trivial():
            slots = self.filtration.coords_to_upper(slots)
        rows = {}
        zero = self.unf.ring_zero()
        for (k, j), poly in slots.items():
            if self.floor is None or k >= self.floor:
                # gamma has |gamma| <= N and every c is a Fraction
                elem = zero._like({g: c for g, c in poly.items() if c})
                if elem:
                    rows.setdefault(k, [zero] * self.unf.base.mu)[j] = elem
        return ReducedClass(self.unf.base.mu, rows)


def _sparse(reduced):
    """A reduced class as [(k, [(j, v) nonzero])], highest k first."""
    return [(k, [(j, v) for j, v in enumerate(vec) if v])
            for k, vec in sorted(reduced.coeffs.items(), reverse=True)]


def _series_terms(phi, psi, N):
    """[Q_0, ..., Q_N] of e^(psi(u) phi / t) = sum_n u^n Q_n, for
    psi = sum_k p_k u^k given as {k: p_k}, by the recurrence
    Q_n = (phi / (n t)) sum_{k=1..n} k p_k Q_(n-k), the u^(n-1)
    coefficient of d/du e^(psi phi/t) = psi'(u) (phi/t) e^(psi phi/t).
    For psi = u it gives Q_n = phi^n / (n! t^n). Each Q_n maps m to the
    z-terms of its t^(-m) part."""
    out = [{0: {(0,) * len(phi[0][0]): Fraction(1)}}]
    for n in range(1, N + 1):
        q = {}
        for k, p in psi.items():
            if k <= n:
                factor = [(e, c * k * p / n) for e, c in phi]
                for m, poly in out[n - k].items():
                    _accumulate(q, m + 1, z_product(poly.items(), factor))
        out.append(_nonzero(q))
    return out


def _times(a, b):
    """The product of two polynomials in z and 1/t, each given as
    {m: {z_exp: c}}, the z-terms of its t^(-m) part."""
    out = {}
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            _accumulate(out, m1 + m2, z_product(p1.items(), p2.items()))
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
