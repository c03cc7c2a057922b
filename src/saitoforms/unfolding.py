"""Universal unfoldings, opposite-filtration basis changes, the
oscillating projection and oscillator matrices.

The unfolding F = f + sum_l psi_l(u_l) phi_l is truncated at total
u-degree N; psi_l(u_l) = u_l unless an override replaces it by a series
in u_l alone with no constant term, and is kept as those series (see
UnfoldingData). Oscillator matrices A^(k)(u) collect the t^k component
of the reduced classes e^((F-f)/t) Phi_i = sum_{j,k} A^(k)_ij t^k Phi_j.

The oscillating projection runs in u-monomial order. Each factor
expands as e^(psi_l(u_l) phi_l/t) = sum_n u_l^n Q_{l,n}, so
e^((F-f)/t) = sum_alpha u^alpha P_alpha with P_alpha = prod_l
Q_{l,alpha_l}, a polynomial in z and 1/t with Fraction coefficients
(an MPoly over the z-variables and 1/t); for psi_l = u_l it is
t^(-|alpha|) prod_l phi_l^alpha_l / alpha_l!. An input class is a sum
of product terms t^t0 r h, r = sum_beta r_beta u^beta a ring element
and h a polynomial in z with Fraction coefficients, and projects to
sum u^(alpha+beta) r_beta [t^t0 P_alpha h]: each [P_alpha h] is
reduced once, its Fraction sums kept as integer numerators over one
denominator. The products with the r_beta are integer multiply-adds
into slots that each keep an integer numerator over a running common
denominator, so one Fraction is built per output coefficient, and a
result's ring entries are built once, at the end. Every MPoly product
computes something: the Q_{l,n} are built once per unfolding
(UnfoldingData.q, by an integer recurrence that makes no MPoly product)
and shared by all its projections, P_alpha is Q_{l,n} itself when alpha
lies on one variable, neither P_0 = 1 nor h = 1 is multiplied, and
P_alpha and its Q_{l,n} are formed only when a term takes alpha or a
deeper P needs it.

The constant direction, psi = u on the basis element 1, present in
every full unfolding and on the P^1 mirror, has the scalar factor
e^(u/t) = sum_n u^n t^(-n) / n!. So it is not walked: zeta_+ does not
depend on it (see primitive.solve_primitive), and oscillating_projection
multiplies each class by that factor once, at the end, on its integer
sums (Projector.times_constant).

Every projection has a floor: it keeps the t-powers at or above it,
and its cuts keep the work to what lands there (see Projector). The
Projector's walk yields the reduced sums of its terms and keeps
nothing: each caller spreads them into its own sinks, and the
order-by-order solve of the primitive form keeps them as walk records
to replay in later u-degrees (see primitive.solve_primitive).
"""

import math
from fractions import Fraction
from functools import cache
from operator import add, mul

from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly, exact_rational


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
    """exp(elem) in the truncated ring; elem must have a truncation order
    and zero constant term."""
    if elem.order is None:
        raise ValueError("exp of an element with no truncation order: "
                         "the series would not end")
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
    """The product of two z-exponent -> ring element maps, given as
    (exponent, coefficient) pairs, as a dict accumulating c1 * c2 at
    e1 + e2: the ring-valued product of exp_powers (the projection
    multiplies MPolys in z and 1/t instead). Zero products are skipped,
    but sums that cancel stay as zero entries. right is iterated once
    per left term, so it must not be a one-shot iterator."""
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
    point c of the moduli of good opposite filtrations.

    Both the basis change and its inverse are kept as sparse rows, one
    {j: coefficient} dict per 0-based i in ascending j: rows[i] is
    {i: 1} plus the nonzero c slots of Phi_i. Every slot lowers the
    degree, so the change is unipotent and its inverse is built row by
    row in ascending degree by back-substitution,
    inverse[i] = e_i - sum_(j != i) c_ij inverse[j], each inverse[j]
    already built."""

    def __init__(self, base, c=None):
        self.base = base
        mu = base.mu
        self.c = {}
        rows = [{i: Fraction(1)} for i in range(mu)]
        for key, value in (c or {}).items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValueError("c slot %r is not a pair (i, j)" % (key,))
            for index in key:
                _check_index("c slot %r: index" % (key,), index)
                if not 1 <= index <= mu:
                    raise ValueError("c slot %r out of range 1..%d" % (key, mu))
            i, j = key
            value = exact_rational("c slot %r: value" % (key,), value)
            if not value:
                continue
            gap = base.scaled[i - 1] - base.scaled[j - 1]
            if gap <= 0 or gap % base.den:
                raise GradingViolation(
                    "c[%d,%d] requires degree gap in Z_>0, got %s"
                    % (i, j, Fraction(gap, base.den)))
            self.c[(i, j)] = value
            rows[i - 1][j - 1] = value
        inverse = rows
        if self.c:
            rows = [dict(sorted(row.items())) for row in rows]
            inverse = [None] * mu
            for i in sorted(range(mu), key=base.scaled.__getitem__):
                out = {i: Fraction(1)}
                for j, value in rows[i].items():
                    if j != i:
                        for k, w in inverse[j].items():
                            prior = out.get(k)
                            out[k] = -value * w if prior is None \
                                else prior - value * w
                inverse[i] = {k: w for k, w in sorted(out.items()) if w}
        self.rows = rows
        self.inverse = inverse
        # the largest t-power that the inverse basis change adds
        self.lift = max(self.t_power(l, j) for l, row in enumerate(inverse)
                        for j in row)

    def is_trivial(self):
        return not self.c

    def t_power(self, i, j):
        """Integer t-exponent attached to the (i, j) matrix slot."""
        gap = self.base.scaled[i] - self.base.scaled[j]
        if gap % self.base.den:
            raise GradingViolation("non-integer t-power between phi_%d and "
                                   "phi_%d" % (i + 1, j + 1))
        return gap // self.base.den

    def upper(self, i):
        """Phi_i (0-based i) as (t_power, {z_exp: coefficient}) terms over
        the Milnor basis."""
        return [(self.t_power(i, j),
                 {e: value * c for e, c in self.base.basis[j].terms.items()})
                for j, value in self.rows[i].items()]


class UnfoldingData:
    """A truncated universal unfolding of one singularity as plain data:
    per direction its series psi_l as {power: Fraction} and scaled_u,
    den times deg u_l = 1 - d_l as an int."""

    def __init__(self, base, N, indices, u_names, series):
        self.base = base
        self.N = N
        self.indices = indices        # 0-based basis positions with parameters
        self.u_names = u_names
        self.nu = len(indices)
        self.series = series
        self.scaled_u = [base.den - base.scaled[j] for j in indices]
        # some psi_l is not u_l, so the grading may not hold
        self.override = any(psi != {1: 1} for psi in series)
        self.laurent = base.mode == "laurent"
        # the constant 1, phi_l / t and Q_{l,n} for n = 0, 1, ... as far
        # as built, as MPolys over the z-variables and 1/t (see q)
        self.one = MPoly.constant(base.variables + ("1/t",), 1, self.laurent)
        self.phis = [self.one._like({e + (1,): c for e, c
                                     in base.basis[j].terms.items()})
                     for j in indices]
        self.qs = [[self.one] for _ in indices]
        # per direction, from its first recurrence step in q: L, the
        # pairs (k, k L p_k), the terms of L phi_l / t and each built Q_n
        # as (integer numerators, D_n)
        self.q_ints = [None] * self.nu
        # the position of the constant direction, psi = u on the basis
        # element 1, or None: its factor e^(u/t) is a scalar (see Projector)
        self.constant = None
        for pos, j in enumerate(indices):
            if not base.scaled[j] and series[pos] == {1: 1} and \
                    base.basis[j].terms == {(0,) * base.n: 1}:
                self.constant = pos
        self._exp_powers = None

    def ring_zero(self):
        return UnfoldRingElem(self.nu, self.N)

    def ring_one(self):
        return UnfoldRingElem(self.nu, self.N, {(0,) * self.nu: 1})

    def q(self, l, n):
        """Q_{l,n} of e^(psi_l(u_l) phi_l / t) = sum_n u_l^n Q_{l,n}, for
        psi_l = sum_k p_k u_l^k, by the recurrence
        Q_n = (phi_l / (n t)) sum_{k=1..n} k p_k Q_(n-k), the u^(n-1)
        coefficient of d/du e^(psi phi/t) = psi'(u) (phi/t) e^(psi phi/t).
        For psi_l = u_l it gives Q_n = (phi_l / t)^n / n!.

        The recurrence runs on integers. With L the lcm of the
        denominators of the p_k and of phi_l, each Q_n is kept as integer
        numerators over one denominator D_n, reduced by their common gcd:
        the sum over k is taken over the lcm M of its D_(n-k), times
        L p_k, then multiplied by L phi_l / t, so that D_n = L^2 M n. Each
        Q_{l,n} is then built once as an MPoly of normalized Fractions.
        The Q_{l,n} depend on the unfolding alone: they are built as far
        as n when first asked for and kept for every later projection."""
        qs = self.qs[l]
        if n < len(qs):
            return qs[n]
        table = self.q_ints[l]
        if table is None:
            phi, series = self.phis[l].terms, self.series[l]
            L = math.lcm(*[c.denominator for c in phi.values()],
                         *[p.denominator for p in series.values()])
            table = self.q_ints[l] = (
                L, [(k, k * p.numerator * (L // p.denominator))
                    for k, p in series.items()],
                [(e, c.numerator * (L // c.denominator))
                 for e, c in phi.items()],
                [({(0,) * (self.base.n + 1): 1}, 1)])
        L, weights, phi, nums = table
        while len(qs) <= n:
            m = len(qs)
            M = math.lcm(*[nums[m - k][1] for k, _ in weights if k <= m])
            # the sum over k in one dict, then one product with L phi_l / t
            total = {}
            for k, w in weights:
                if k <= m:
                    num, D = nums[m - k]
                    w *= M // D
                    for e, c in num.items():
                        total[e] = total.get(e, 0) + w * c
            num = {}
            for e1, c1 in total.items():
                if c1:
                    for e2, c2 in phi:
                        e = tuple(map(add, e1, e2))
                        num[e] = num.get(e, 0) + c1 * c2
            D = L * L * M * m
            g = math.gcd(D, *num.values())
            num = {e: c // g for e, c in num.items() if c}
            D //= g
            nums.append((num, D))
            qs.append(self.one._like({e: Fraction(c, D)
                                      for e, c in num.items()}))
        return qs[n]

    def exp_powers(self):
        """[(F-f)^k / k! as z-exp -> ring dicts, k = 0..N].

        No library code reads this table: oscillating_projection expands
        e^((F-f)/t) by u-monomial instead. Only the benchmark's traced
        mode times it and counts its terms, so F - f itself, as z-exp ->
        ring element, is built here from the series on the first call."""
        if self._exp_powers is None:
            f_diff = {}
            for pos, (j, psi) in enumerate(zip(self.indices, self.series)):
                coeff = UnfoldRingElem(self.nu, self.N, {
                    tuple(k * (i == pos) for i in range(self.nu)): p
                    for k, p in psi.items()})
                for exp, c in self.base.basis[j].terms.items():
                    prior = f_diff.get(exp)
                    term = coeff * c
                    f_diff[exp] = term if prior is None else prior + term
            powers = [{tuple([0] * self.base.n): self.ring_one()}]
            for k in range(1, self.N + 1):
                nxt = z_product(powers[-1].items(), f_diff.items())
                inv_k = Fraction(1, k)
                powers.append({e: c * inv_k for e, c in nxt.items() if c})
            self._exp_powers = powers
        return self._exp_powers


def build_unfolding(base, N, mask=None, overrides=None, u_names=None):
    """Construct the truncated universal unfolding.

    mask: 1-based basis indices that carry a parameter (default: all),
        each at most once.
    overrides: {1-based index: callable(elem) -> elem} replacing the
        default linear coefficient u_j by a series in it (used for the
        exponentiated P^1 direction).
    u_names: display names, one per parameter in basis order, default
        u1..u_mu keyed by basis position.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise ValueError("the truncation order N must be a nonnegative "
                         "integer, got %r" % (N,))
    mu = base.mu
    if mask is None:
        indices = list(range(mu))
    else:
        for i in mask:
            _check_index("mask entry", i)
        indices = sorted(i - 1 for i in mask)
        for i in indices:
            if not 0 <= i < mu:
                raise ValueError("mask index %d out of range 1..%d"
                                 % (i + 1, mu))
        for i, j in zip(indices, indices[1:]):
            if i == j:
                raise ValueError("mask index %d is repeated" % (i + 1))
    if u_names is None:
        u_names = ["u%d" % (i + 1) for i in indices]
    elif len(u_names) != len(indices):
        raise ValueError("expected %d u_names, one per parameter, got %d"
                         % (len(indices), len(u_names)))
    overrides = overrides or {}
    for index in overrides:
        _check_index("override key", index)
        if not 1 <= index <= mu:
            raise ValueError("override index %d out of range 1..%d"
                             % (index, mu))
        if index - 1 not in indices:
            raise ValueError("override index %d is not in the mask"
                             % index)
    nu = len(indices)
    series = [{1: Fraction(1)} for _ in indices]
    for pos, j in enumerate(indices):
        fn = overrides.get(j + 1)
        if fn is not None:
            var = UnfoldRingElem(nu, N, {tuple(int(i == pos)
                                               for i in range(nu)): 1})
            series[pos] = _override_series(fn(var), var, j + 1, pos)
    return UnfoldingData(base, N, indices, u_names, series)


def _check_index(what, index):
    """A 1-based basis index given to build_unfolding or in a c slot
    must be an int; a bool is rejected too, as it is for N."""
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError("%s %r is not an integer basis index"
                         % (what, index))


def _override_series(value, var, index, pos):
    """An override's psi(u) as {power: Fraction}, checked to lie in the
    maximal ideal of Q[u] for its own u = var (see InvalidOverride)."""
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
    return {exp[pos]: c for exp, c in value.terms.items()}


class OscillatorData:
    """The family A^(k)(u), keyed by the t-powers k that occur: a block
    is stored only when it has a nonzero entry, so a missing k is a zero
    matrix. primitive_form(osc=...) solves zeta_+ from it; the
    order-by-order solve does not build it.

    Only the window -a <= k <= a that the Neumann solve reads is kept,
    in polynomial and Laurent mode alike. The whole family down to
    k = -N is the oscillating projection of the Phi_i at the floor -N.
    """

    def __init__(self, unf, filtration, matrices, a):
        self.unf = unf
        self.filtration = filtration
        self.matrices = matrices      # k -> mu x mu matrix of ring elems
        self.a = a


def positive_bound(base, N):
    """Largest t-power a of an oscillator matrix: floor(s + N max(s-1, 0))."""
    if base.mode == "laurent":
        return 0
    return (base.top + N * max(base.top - base.den, 0)) // base.den


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
        for k, entries in row.rows.items():
            for j, elem in sorted(entries.items()):
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
    with a per-exponent memo, each degree times base.den: the scaled
    degrees base.scaled and unf.scaled_u. zeta_+ carries the grading of
    Phi_1."""
    if unf.override:
        return None
    den, degrees, deg_u = unf.base.den, unf.base.scaled, unf.scaled_u
    memo = {}

    def on_grade(k, i, j, exp):
        degree = memo.get(exp)
        if degree is None:
            degree = memo[exp] = sum(map(mul, deg_u, exp))
        return degree == degrees[i] - degrees[j] - k * den
    return on_grade


def oscillating_projection(unf, classes, filtration, floor):
    """Reduced classes of e^((F-f)/t) * h in Phi(c) coordinates, one per
    class h, each given as product terms (t0, {z_exp: Fraction}, r)
    meaning t^t0 * r * sum c z^z_exp, r a ring element (the rep format of
    verify_primitive), at the t-powers k >= floor alone. A floor of the
    least t0 minus N keeps every t-power. One Projector walks every
    product term in one search over alpha, from alpha = 0; each sum it
    yields is spread over the coefficient of its term into the sink of
    its class. Then each class is multiplied by the factor of the
    constant direction (see Projector)."""
    projector = Projector(unf, filtration, floor)
    acc = [{} for _ in classes]     # one sink per class, read by rows
    # per product term: t0, h, its class's sink and its coefficient list
    targets = [(t0, h, slots, coefficient_list(coeff.terms))
               for terms, slots in zip(classes, acc)
               for t0, h, coeff in terms if h and coeff]
    walk = projector.walk([projector.term(t0, h, coeffs[0][0], 0)
                           for t0, h, _, coeffs in targets])
    for i, alpha, size, sums in walk:
        projector.spread(sums, alpha, size, *targets[i][2:])
    # gamma has |gamma| <= N and every coefficient is a Fraction
    zero = unf.ring_zero()
    return [ReducedClass(unf.base.mu, {
        k: {j: zero._like(poly) for j, poly in row.items()}
        for k, row in projector.rows(projector.times_constant(slots)).items()})
        for slots in acc]


def coefficient_list(coeffs):
    """The ring coefficient sum_beta r_beta u^beta of a product term,
    given as {beta: Fraction}, as the list that Projector.spread reads:
    (|beta|, beta, numerator, denominator) by size."""
    return sorted((sum(beta), beta, b.numerator, b.denominator)
                  for beta, b in coeffs.items())


class Projector:
    """The oscillating projection of product terms for one unfolding,
    opposite filtration and floor: the cuts its callers share, the walk
    and the one reduce-and-spread kernel. Every Projector of one
    unfolding reads one Q_{l,n} table (see UnfoldingData.q). It keeps no
    state between walks and builds no ring element: rows returns a sink
    as {k: {j: {gamma: Fraction}}}.

    A sink is a dict that its caller creates empty and fills through
    spread, and reads only through rows (and times_constant): it maps
    (k, j), t^k phi_j, to {gamma: [numerator, denominator]}, the u^gamma
    coefficient as an integer numerator over a running denominator (see
    _add), so rows builds one Fraction per (slot, gamma). The reduced
    sums of [t^t0 P_alpha h] are a pair (numerators, D): {(k, j):
    integer} over D, the lcm of their denominators, and each r_beta of a
    term's coefficient is kept as its integer numerator and denominator
    (see coefficient_list).

    P_alpha, the Q_{l,n} and each h are MPolys over the z-variables and
    1/t, the last exponent counting powers of 1/t. A walk visits each
    alpha with no power of the constant direction (unf.constant) once,
    depth first over non-decreasing index sequences of the other
    directions. P_alpha is Q_{l,alpha_l} itself when alpha lies on one
    variable, otherwise P at alpha without its last variable l times
    Q_{l,alpha_l}. It is formed when a term takes alpha or a deeper alpha
    needs it, and not kept past its subtree. Each P_alpha h that a term
    takes, with no product by the constant 1, is reduced once through
    base.mono_cache, and the walk yields its sums. A walk leaves out the
    factor e^(u_c/t) of the constant direction; times_constant
    multiplies a sink by it. A walk term (t0, h, low, room, cut) takes
    alpha when low <= |alpha| <= room and top >= cut (below). room is N
    minus the least |beta| of the term's coefficient, or 0 where the
    Laurent reach bound keeps the term to alpha = 0.

    The cuts: rows lifts a t-power by at most filtration.lift, so
    reduced t-powers below floor - lift are skipped, and rows drops what
    still lands below the floor. In polynomial mode without overrides
    (graded) P_alpha is homogeneous of scaled degree
    top = -sum alpha_l scaled_u[l], and reducing z^e gives t-powers of
    at most deg(e), since basis degrees are >= 0. So a term takes alpha
    only when top + den (t0 + deg(h)) >= den floor, deg(h) the largest
    degree in h, and a subtree is pruned when even its deepest alpha
    leaves every term of the walk below. Otherwise a term c z^e t^-m of
    P_alpha h is not reduced for t^t0 when t0 - m + base.t_bound(e) <
    floor - lift. On the Laurent model P1MirrorData.reach(e, walked)
    bounds the t-powers of [P_alpha z^e] over every alpha != 0, so a
    term whose t0 plus that bound lies below floor - lift over the z^e of
    its h takes alpha = 0 alone, and a walk of such terms goes no deeper.
    times_constant only lowers t-powers, so no cut drops a sum that it
    would lift to the floor.
    """

    def __init__(self, unf, filtration, floor):
        self.unf = unf
        self.filtration = filtration
        self.floor = floor
        self.graded = not unf.laurent and not unf.override
        self.skip = floor - filtration.lift
        # the per-monomial t-power bound where there is no graded cut
        self.bound = None if self.graded else unf.base.t_bound
        # one more u_l lowers the scaled degree of P_alpha by scaled_u[l]:
        # it rises by at most climb, so no alpha below a pruned one passes
        self.climb = max(0, -min(unf.scaled_u, default=0))
        # on the Laurent model, the bound on the t-powers that any
        # alpha != 0 lifts a monomial z^e to, for the walked basis
        # positions
        walked = {j for pos, j in enumerate(unf.indices)
                  if pos != unf.constant}
        self.reach = (lambda e: unf.base.reach(e, walked)) \
            if unf.laurent else None

    def term(self, t0, h, least, low):
        """The walk term of t^t0 * h, h given as {exponent: Fraction},
        for a coefficient whose least |beta| is least: it takes the
        alphas with low <= |alpha| <= N - least (see Projector)."""
        # the smallest scaled deg(e) - m of a P_alpha term to keep
        base = self.unf.base
        cut = (self.floor - t0) * base.den - \
            max(map(base.weights.scaled_degree, h)) \
            if self.graded else -math.inf
        # the largest |alpha| the term takes, or 0 when no alpha != 0
        # reaches floor - lift
        room = self.unf.N - least
        if self.reach is not None and \
                t0 + max(map(self.reach, h)) < self.skip:
            room = 0
        # the constant h = 1 stands as unf.one, which _reduce does not
        # multiply by
        h = self.unf.one if h == {(0,) * base.n: 1} else \
            self.unf.one._like({e + (0,): c for e, c in h.items()})
        return (t0, h, low, room, cut)

    def walk(self, terms):
        """One search over alpha for the walk terms: yields
        (i, alpha, |alpha|, sums) for each alpha that terms[i] takes with
        nonempty reduced sums, in alpha order and then term order. The
        terms are grouped once by the sizes |alpha| they take, so an alpha
        tests only the cuts of the terms of its size."""
        if not terms:
            return
        unf, c0 = self.unf, self.unf.constant
        depth = max(term[3] for term in terms)
        lowest = min(term[4] for term in terms)
        # per |alpha|, the terms that take it by size, as (i, t0, h, cut)
        by_size = [[] for _ in range(depth + 1)]
        for i, (t0, h, low, room, cut) in enumerate(terms):
            for size in range(low, room + 1):
                by_size[size].append((i, t0, h, cut))
        # depth first over alpha as non-decreasing index sequences of the
        # walked directions. Each entry is a cell [P_alpha or None, the
        # cell of P at alpha with alpha_last set to 0, last, alpha_last,
        # alpha, |alpha|, top], last being the last index raised and top
        # the scaled degree of P_alpha; the root's prefix cell holds
        # P = 1 alone
        stack = [[unf.one, [unf.one], 0, 0, (0,) * unf.nu, 0, 0]]
        while stack:
            cell = stack.pop()
            _, prefix, last, _, alpha, size, top = cell
            if self.graded and top + (depth - size) * self.climb < lowest:
                continue
            for i, t0, h, cut in by_size[size]:
                if top < cut:
                    continue
                P = self._form(cell) if cell[0] is None else cell[0]
                sums = self._reduce(P, t0, h)
                if sums:
                    yield i, alpha, size, sums
            if size < depth:
                for l in range(last, unf.nu):
                    # P at alpha + e_l is P at alpha without its u_l part
                    # times Q_{l,alpha_l+1}, both formed on first use; the
                    # constant direction is not walked
                    if l != c0:
                        n = alpha[l] + 1
                        stack.append([None, prefix if l == last else cell,
                                      l, n, alpha[:l] + (n,) + alpha[l + 1:],
                                      size + 1, top - unf.scaled_u[l]])

    def _form(self, cell):
        """P_alpha of a walk cell [None, prefix cell, l, n, ...]: the prefix
        cell's P, formed first if it is not yet, times Q_{l,n}, or
        Q_{l,n} itself when that P is the constant 1. It is kept in the
        cell for the terms and descendants that read it later."""
        prefix = cell[1][0]
        if prefix is None:
            prefix = self._form(cell[1])
        unf = self.unf
        q = unf.q(cell[2], cell[3])
        P = cell[0] = q if prefix is unf.one else prefix * q
        return P

    def spread(self, sums, alpha, size, slots, coeffs):
        """Add the reduced sums at alpha, of size |alpha|, times each
        u-monomial beta of coeffs (a coefficient_list) with
        |alpha| + |beta| <= N to the sink slots. sums is
        (numerators, D) and each product n r_beta lands in its slot, an
        integer numerator over a running common denominator (see _add)."""
        nums, D = sums
        limit = self.unf.N - size
        for bsize, beta, bnum, bden in coeffs:
            if bsize > limit:
                break
            gamma = tuple(map(add, alpha, beta))
            den = D * bden
            for slot_key, n in nums.items():
                slot = slots.get(slot_key)
                if slot is None:
                    slots[slot_key] = {gamma: [n * bnum, den]}
                else:
                    _add(slot, gamma, n * bnum, den)

    def _reduce(self, P, t0, h):
        """[t^t0 P h] as sums over (k, j), the t-powers k >= floor - lift,
        given as (numerators, D): integer numerators {(k, j): n} over D,
        the lcm of the sums' denominators, or None when there is no sum.
        They are summed in Fractions through the monomial cache, with no
        product when P or h is the constant 1: a term c z^e t^(-m) of P h
        adds c times the reduction of z^e, shifted by t^(t0 - m). With a
        bound, a term is not reduced when t0 - m + t_bound(z^e) <
        floor - lift."""
        base, skip, bound = self.unf.base, self.skip, self.bound
        one = self.unf.one
        product = P if h is one else h if P is one else P * h
        terms = product.terms.items()
        if bound is not None:
            terms = [(e, c) for e, c in terms
                     if t0 - e[-1] + bound(e[:-1]) >= skip]
        local = {}
        for e, c in terms:
            shift = t0 - e[-1]
            for k, row in reduce_monomial(base, e[:-1]).rows.items():
                k += shift
                if k < skip:
                    continue
                for j, v in row.items():
                    key = (k, j)
                    prior = local.get(key)
                    local[key] = c * v if prior is None \
                        else prior + c * v
        if not local:
            return None
        D = math.lcm(*[c.denominator for c in local.values()])
        return {key: c.numerator * (D // c.denominator)
                for key, c in local.items()}, D

    def times_constant(self, slots):
        """Multiply a sink, in place, by the factor of the constant
        direction c that the walk leaves out, e^(u_c/t) = sum_a u_c^a
        t^(-a) / a!, and return it: the entry n/d at t^k phi_j u^gamma
        adds n/(d a!) at t^(k-a) phi_j u^(gamma + a e_c) for
        1 <= a <= N - |gamma|, t-powers below floor - lift dropped."""
        c0, N, skip = self.unf.constant, self.unf.N, self.skip
        if c0 is None:
            return slots
        entries = [(k, j, gamma, n, d) for (k, j), poly in slots.items()
                   for gamma, (n, d) in poly.items() if n]
        for k, j, gamma, n, d in entries:
            for a in range(1, N - sum(gamma) + 1):
                if k - a < skip:
                    break
                d *= a
                gamma = gamma[:c0] + (gamma[c0] + 1,) + gamma[c0 + 1:]
                _add(slots.setdefault((k - a, j), {}), gamma, n, d)
        return slots

    def rows(self, slots):
        """A sink's slots in Phi(c) coordinates as rows
        {k: {j: {gamma: Fraction}}}: right-multiplied by the inverse basis
        change, whose (l, j) slot carries t^(d_l - d_j), in integers (see
        _add), then one normalized Fraction per (slot, gamma), zero
        coefficients, empty slots and t-powers below the floor dropped."""
        filtration = self.filtration
        if not filtration.is_trivial():
            upper = {}
            for (k, l), poly in slots.items():
                for j, w in filtration.inverse[l].items():
                    wn, wd = w.numerator, w.denominator
                    tgt = upper.setdefault(
                        (k + filtration.t_power(l, j), j), {})
                    for gamma, (n, d) in poly.items():
                        _add(tgt, gamma, n * wn, d * wd)
            slots = upper
        rows = {}
        for (k, j), poly in slots.items():
            if k >= self.floor:
                poly = {g: Fraction(n, d) for g, (n, d) in poly.items() if n}
                if poly:
                    rows.setdefault(k, {})[j] = poly
        return rows


def _add(slot, gamma, n, den):
    """Add n / den to slot[gamma], an entry [numerator, denominator] of a
    sink, over a common denominator: a plain add when the two
    denominators d and den are equal, otherwise over their lcm,
    d // g * den with g = gcd(d, den). Nothing is normalized;
    Projector.rows builds one Fraction per entry."""
    entry = slot.get(gamma)
    if entry is None:
        slot[gamma] = [n, den]
        return
    prior, d = entry
    if d == den:
        entry[0] = prior + n
    else:
        g = math.gcd(d, den)
        entry[0] = prior * (den // g) + n * (d // g)
        entry[1] = d // g * den
