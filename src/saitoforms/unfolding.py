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
lies on one variable, and neither P_0 = 1 nor h = 1 is multiplied.

The constant direction, psi = u on the basis element 1, present in
every full unfolding and on the P^1 mirror, has the scalar factor
e^(u/t) = sum_n u^n t^(-n) / n!. So it is not expanded: each [P_alpha h]
with no power of u is reduced once, and its power u^a0 is that class
with t shifted by -a0 and its denominator multiplied by a0!.

With a floor on the t-powers two cuts keep the work to what lands at or
above it: a cut on the reduced t-powers of each product and, without
overrides, an exact cut on alpha itself from the grading. Where that
graded cut does not hold (the Laurent model, overrides) each model's
per-monomial t-power bound, t_bound, skips the monomials whose
reductions stay below the floor. A Projector holds this setup and the
walk record of each keyed product term, so that the order-by-order
solve of the primitive form runs it once per u-degree and a term that
recurs from an earlier part replays its reduced sums instead of
walking and reducing again (see Projector).
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
        # the largest t-power that coords_to_upper adds
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

    def coords_to_upper(self, slots):
        """Rewrite {(k, l): {gamma: [n, d]}}, the u^gamma coefficients n/d
        of t^k phi_l, into Phi coordinates in the same format:
        right-multiplication by the inverse basis change, whose (l, j)
        slot carries t^(d_l - d_j), in integers (see _add)."""
        out = {}
        for (k, l), poly in slots.items():
            for j, w in self.inverse[l].items():
                wn, wd = w.numerator, w.denominator
                tgt = out.setdefault((k + self.t_power(l, j), j), {})
                for gamma, (n, d) in poly.items():
                    _add(tgt, gamma, n * wn, d * wd)
        return out


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
    k = -N is the oscillating projection of the Phi_i with no floor.
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


def oscillating_projection(unf, classes, filtration, floor=None):
    """Reduced classes of e^((F-f)/t) * h in Phi(c) coordinates, one per
    class h, each given as product terms (t0, {z_exp: Fraction}, r)
    meaning t^t0 * r * sum c z^z_exp, r a ring element (the rep format of
    verify_primitive). With a floor only the t-powers k >= floor are
    computed and kept. One Projector runs every product term in one
    search over alpha (see Projector)."""
    projector = Projector(unf, filtration, floor)
    acc = [{} for _ in classes]     # one sink per class, read by rows
    projector.run([projector.product_term(t0, h, coeff.terms,
                                          [slots] * (unf.N + 1))
                   for terms, slots in zip(classes, acc)
                   for t0, h, coeff in terms if h and coeff])
    # gamma has |gamma| <= N and every coefficient is a Fraction
    zero = unf.ring_zero()
    return [ReducedClass(unf.base.mu, {
        k: {j: zero._like(poly) for j, poly in row.items()}
        for k, row in projector.rows(slots).items()}) for slots in acc]


class Projector:
    """The oscillating projection of product terms for one unfolding,
    opposite filtration and floor: the setup its callers share (the cuts
    and the walk records of keyed product terms) and the one
    reduce-and-spread kernel. The Q_{l,n} belong to the unfolding (see
    UnfoldingData.q), so every Projector of one unfolding reads one
    table. It builds no ring element: rows returns a sink as
    {k: {j: {gamma: Fraction}}}.

    The multiply-adds run on integers. A sink, one per u-degree, is a
    dict that its caller creates empty and reads only through rows: it
    maps (k, j), t^k phi_j, to {gamma: [numerator, denominator]}, the
    u^gamma coefficient as an integer numerator over a running
    denominator (see _add), and rows builds one normalized
    Fraction per (slot, gamma). The reduced sums of [t^t0 P_alpha h] are
    a pair (numerators, D): {(k, j): integer} over one denominator D, the
    lcm of the sums' denominators, and each coefficient r_beta of a
    product term is kept as its integer numerator and denominator.

    P_alpha, the Q_{l,n} and the h of each product term are MPolys over
    the z-variables and 1/t, the last exponent counting powers of 1/t
    (Laurent MPolys in Laurent mode). The work runs in u-monomial order
    (see the module docstring). A walk visits each alpha with no power
    of the constant direction c (unf.constant) once, depth-first over
    non-decreasing index sequences of the other directions, and takes
    P_alpha when the search reaches alpha: Q_{l,alpha_l} itself when
    alpha lies on one variable, otherwise P at alpha without its last
    variable l times Q_{l,alpha_l}. P_alpha is not kept past its
    subtree. Each product P_alpha h, formed only when neither factor is
    the constant 1, is reduced through the monomial cache of the base
    point (base.mono_cache, read through reduce_monomial) into sums per
    (t^k, phi_j) once. For a0 = 0, 1, ... those sums, shifted to
    t^(k - a0) with D multiplied by a0!, are the sums at alpha + a0 e_c:
    they are spread over the u-monomials beta of the term's coefficient
    with |alpha| + a0 + |beta| <= N into the u^(alpha+a0 e_c+beta)
    slots of sink[|alpha| + a0], each numerator times that of r_beta
    over D times the denominator of r_beta. No Q_{c,n}, product or
    reduction is formed for a0 > 0, and without a constant direction
    only a0 = 0 is taken.

    A product term given a key leaves, on its first walk, the walk
    record of that key: (alpha, |alpha|, top, (numerators, D)) for each
    alpha whose reduced sums are nonempty, in walk order, kept for the
    Projector's lifetime. A later term with that key does not walk: it
    replays the record, a flat loop that spreads the kept sums of each
    entry that the term takes, with no P_alpha and no reduction. So a
    key stands for the term's t0 and h, and its later terms may ask for
    no alpha that the first walk passed over: their least |beta| is
    larger, so the record leaves out the alphas of the deepest size
    N - least, and their sink[0] is None, as in the order-by-order solve.

    Whether a term takes an alpha, and which a0 it takes there, is one
    rule for the walk and the replay alike: the cheap test
    |alpha| + least <= N and top >= cut, which both make inline since it
    runs for every (alpha, term) pair, and then _admit, which gives the
    a0 and turns the alpha down when sink[|alpha|] is None and no a0 > 0
    is left.

    With a floor, coords_to_upper lifts a t-power by at most
    filtration.lift in both modes, so reduced t-powers below floor -
    lift are skipped, and what still lands below floor is dropped. In
    polynomial mode without overrides P_alpha is homogeneous of degree
    deg(e) - m = -wdeg(alpha), wdeg(alpha) = sum alpha_l (1 - d_l) (den
    times it from unf.scaled_u), and
    reducing z^e gives t-powers of at most deg(e), since basis degrees
    are >= 0. So P_alpha is skipped against a product term (t0, h, r)
    when top(h) + t0 - wdeg(alpha) < floor, top being the largest degree
    in h, and a subtree is pruned when even -wdeg(alpha) - (room)
    min(0, min deg u) leaves every product term of the run below the
    floor, room being how many more u the run's terms allow. The
    constant direction has wdeg 1, so each a0 lowers the degree by one
    (den when scaled): the a0 of a term stop at the first that falls
    below its cut, as they stop at |alpha| + a0 + least > N, least the
    smallest |beta|, and a shifted sum drops the t-powers below
    floor - lift. A run with a floor but without this graded cut (Laurent
    mode, or overrides) reads the model's per-monomial bound instead,
    base.t_bound: a term c z^e t^-m of P_alpha h is not reduced for
    t^t0 when t0 - m + t_bound(e) < floor - lift, since its reduction
    then lies wholly below. No subtree is pruned by this bound.
    """

    def __init__(self, unf, filtration, floor=None):
        self.unf = unf
        self.filtration = filtration
        self.floor = floor
        self.graded = floor is not None and not unf.laurent and \
            not unf.override
        self.skip = -math.inf if floor is None else floor - filtration.lift
        # the per-monomial t-power bound, on runs with a floor and no
        # graded cut
        self.bound = None if floor is None or self.graded else \
            unf.base.t_bound
        # one more u_l lowers the scaled degree of P_alpha by scaled_u[l]:
        # it rises by at most climb, so no alpha below a pruned one passes
        self.climb = max(0, -min(unf.scaled_u, default=0))
        self.records = {}     # key -> [(alpha, size, top, (nums, D))]

    def product_term(self, t0, h, coeffs, sink, key=None):
        """The product term t^t0 * (sum_beta r_beta u^beta) * h, h and
        coeffs given as {exponent: Fraction}. Its u^(alpha+beta) parts go
        to sink[|alpha|], a sink in phi coordinates (see Projector), or
        nowhere where that is None. A key names its walk record."""
        # the smallest scaled deg(e) - m of a P_alpha term to keep
        base = self.unf.base
        cut = (self.floor - t0) * base.den - \
            max(map(base.weights.scaled_degree, h)) \
            if self.graded else -math.inf
        # the u-monomials of coeffs by size, each r_beta as its integer
        # numerator and denominator
        spread = sorted((sum(beta), beta, b.numerator, b.denominator)
                        for beta, b in coeffs.items())
        # the constant h = 1 stands as unf.one, which _reduce does not
        # multiply by
        one = self.unf.one
        h = one if h == {(0,) * self.unf.base.n: 1} else \
            one._like({e + (0,): c for e, c in h.items()})
        return (t0, h, spread, spread[0][0], cut, sink, key)

    def run(self, terms):
        """Add the projections of the product terms to their sinks: the
        terms with no key or no walk record yet walk together, a keyed
        one leaving its record, and then each term whose key has a record
        replays it."""
        records = self.records
        walk, replay = [], []
        for term in terms:
            key = term[6]
            if key is None:
                walk.append(term)
            elif key in records:
                replay.append(term)
            else:
                records[key] = record = []
                walk.append(term[:6] + (record,))
        if walk:
            self._walk(walk)
        N, admit, spread_out = self.unf.N, self._admit, self._spread
        for _, _, spread, least, cut, sink, key in replay:
            for alpha, size, top, local in records[key]:
                if size + least <= N and top >= cut:
                    room = admit(size, top, least, cut, sink)
                    if room is not None:
                        spread_out(local, alpha, size, room, sink, spread)

    def _walk(self, terms):
        """One search over alpha for terms (t0, h, spread, least, cut,
        sink, record), record None or the list that the term's nonempty
        sums are appended to."""
        unf, N, c0 = self.unf, self.unf.N, self.unf.constant
        one, graded = unf.one, self.graded
        admit, reduce, spread_out = self._admit, self._reduce, self._spread
        depth = N - min(term[3] for term in terms)
        lowest = min(term[4] for term in terms)
        # depth first over alpha as non-decreasing index sequences of the
        # walked directions, last being the last index raised; top is the
        # scaled degree of P_alpha, and prefix is P at alpha with
        # alpha_last set to 0
        stack = [((0,) * unf.nu, 0, 0, 0, one)]
        while stack:
            alpha, size, last, top, prefix = stack.pop()
            if graded and top + (depth - size) * self.climb < lowest:
                continue
            if size:
                n, qs = alpha[last], unf.qs[last]
                q = qs[n] if n < len(qs) else unf.q(last, n)
                # on one variable P_alpha is Q_{l,alpha_l} itself
                P = q if prefix is one else prefix * q
            else:
                P = one
            for t0, h, spread, least, cut, sink, record in terms:
                if size + least > N or top < cut:
                    continue
                room = admit(size, top, least, cut, sink)
                if room is None:
                    continue
                local = reduce(P, t0, h)
                if local:
                    # a later term of the key has a larger least, so it
                    # replays no alpha of the deepest size
                    if record is not None and size + least < N:
                        record.append((alpha, size, top, local))
                    spread_out(local, alpha, size, room, sink, spread)
            if size < depth:
                for l in range(last, unf.nu):
                    # P at alpha + e_l is P at alpha without its u_l part
                    # times Q_{l,alpha_l+1}; the constant direction is not
                    # walked
                    if l != c0:
                        stack.append((alpha[:l] + (alpha[l] + 1,) +
                                      alpha[l + 1:], size + 1, l,
                                      top - unf.scaled_u[l],
                                      prefix if l == last else P))

    def _admit(self, size, top, least, cut, sink):
        """For a product term (least, cut, sink) that passed the cheap
        test size + least <= N and top >= cut at an alpha of that size
        and scaled degree top: room, the largest power a0 of the constant
        direction that it takes there, or None when it takes none, not
        even a0 = 0, since sink[size] is None. The a0 stop at
        |alpha| + a0 + least > N and, with the graded cut, before
        top - a0 den falls below cut, which can only lower a positive
        room. This is the seam for any finer test of which terms an
        alpha serves."""
        unf = self.unf
        room = 0 if unf.constant is None else unf.N - size - least
        if room and self.graded and (top - cut) // unf.base.den < room:
            room = (top - cut) // unf.base.den
        return None if sink[size] is None and not room else room

    def _spread(self, local, alpha, size, room, sink, spread):
        """Add the reduced sums local at alpha, and for a0 = 1..room their
        shifts to alpha + a0 e_c, over the u-monomials of spread to
        sink[size + a0], where that is not None. local is (numerators, D)
        and each product n r_beta lands in its sink slot, an integer
        numerator over a running common denominator (see _add)."""
        nums, D = local
        a0, gamma0, limit = 0, alpha, self.unf.N - size
        while nums:
            slots = sink[size + a0]
            if slots is not None:
                for bsize, beta, bnum, bden in spread:
                    if bsize > limit:
                        break
                    gamma = tuple(map(add, gamma0, beta))
                    den = D * bden
                    for slot_key, n in nums.items():
                        slot = slots.get(slot_key)
                        if slot is None:
                            slots[slot_key] = {gamma: [n * bnum, den]}
                        else:
                            _add(slot, gamma, n * bnum, den)
            if a0 == room:
                break
            # one more u of the constant direction: e^(u/t) shifts t by
            # -1 and divides by the new a0
            a0 += 1
            limit -= 1
            skip, c0 = self.skip, self.unf.constant
            nums = {(k - 1, j): n for (k, j), n in nums.items() if k > skip}
            D *= a0
            gamma0 = alpha[:c0] + (a0,) + alpha[c0 + 1:]

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

    def rows(self, slots):
        """A sink's slots in Phi(c) coordinates as rows
        {k: {j: {gamma: Fraction}}}, one normalized Fraction per
        (slot, gamma), zero coefficients, empty slots and t-powers below
        the floor dropped."""
        if not self.filtration.is_trivial():
            slots = self.filtration.coords_to_upper(slots)
        rows = {}
        for (k, j), poly in slots.items():
            if self.floor is None or k >= self.floor:
                poly = {g: Fraction(n, d) for g, (n, d) in poly.items() if n}
                if poly:
                    rows.setdefault(k, {})[j] = poly
        return rows


def _add(slot, gamma, n, den):
    """Add n / den to slot[gamma], an entry [numerator, denominator] of a
    sink, over a common denominator: a plain add when the two
    denominators are equal, one scaling when one divides the other,
    their lcm otherwise. Nothing is normalized; Projector.rows builds one
    Fraction per entry."""
    entry = slot.get(gamma)
    if entry is None:
        slot[gamma] = [n, den]
        return
    prior, d = entry
    if d == den:
        entry[0] = prior + n
        return
    q, r = divmod(d, den) if d > den else divmod(den, d)
    if r:
        g = math.gcd(r, min(d, den))
        entry[0] = prior * (den // g) + n * (d // g)
        entry[1] = d // g * den
    elif d > den:
        entry[0] = prior + n * q
    else:
        entry[0] = prior * q + n
        entry[1] = den
