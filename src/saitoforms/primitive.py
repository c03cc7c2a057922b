"""Perturbative primitive forms.

The primitive form zeta_+ = sum_{q=0}^{a} t^q sum_j g^(q)_j Phi_j, a the
largest positive t-power, is the unique class whose oscillating
projection to nonnegative t-powers is the constant class Phi_1. Since
e^((F-f)/t) = 1 + O(u) and a term t^q Phi_j with q >= 0 projects to
itself at u = 0, it is solved order by order in u (solve_primitive):
zeta^(0) = Phi_1, and the degree-d part zeta^(d) is minus the degree-d
part of that projection of zeta^(<d), for d = 1..N. Only zeta_+ is
projected, never the mu classes Phi_i.

The oscillator matrices give a second, independent solve. With A^(k)
the t^k parts of the projections of the Phi_i, the block matrix
Psi[p][q] = A^(q-p) - delta_pq Id (p, q = 0..a) has entries in the
maximal ideal of the truncated parameter ring, and the row vector
g = e (Id + Psi)^{-1}, e = (e_1, 0, ..., 0), gives the same zeta_+.
Psi has no constant term, so the degree-d part of g = e - g Psi reads
only the parts of g below degree d: Id + Psi inverts in N passes, one
u-degree each. primitive_form(osc=...) takes this path.
"""

import math
from fractions import Fraction

from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly
from .singularity import eta_rows, pair_classes
from .unfolding import (GradingViolation, OppositeFiltration, Projector,
                        coefficient_list, grading, oscillating_projection,
                        positive_bound)


def assemble_psi(osc):
    """Psi = A - Id, size (a+1) mu, as sparse rows [(column, ring_elem)]
    of its nonzero entries, read from osc.matrices (a missing A^(k) is
    zero). The name and call shape stay: the benchmark times this stage
    and neumann_solve on their own."""
    mu, one = osc.unf.base.mu, osc.unf.ring_one()
    zeros = [osc.unf.ring_zero()] * mu
    psi = []
    for p in range(osc.a + 1):
        for i in range(mu):
            row = []
            for q in range(osc.a + 1):
                block = osc.matrices.get(q - p)
                entries = block[i] if block else zeros
                if p == q:
                    entries = list(entries)
                    entries[i] = entries[i] - one
                row += [(j, e) for j, e in enumerate(entries, q * mu)
                        if e.terms]
            psi.append(row)
    return psi


def neumann_solve(psi, unf):
    """Row vector g = e (Id + Psi)^{-1}. Pass d = 0..N-1 takes the
    degree-d part of each g_l, final by then, and subtracts its products
    with row l of Psi, so each part is multiplied once. An entry of Psi
    with a constant term is rejected."""
    origin = (0,) * unf.nu
    for l, row in enumerate(psi):
        for m, entry in row:
            if origin in entry.terms:
                raise GradingViolation(
                    "Psi[%d][%d] has the constant term %s: A at u = 0 "
                    "is not the identity" % (l + 1, m + 1,
                                             entry.terms[origin]))
    g = [unf.ring_one()] + [unf.ring_zero()] * (len(psi) - 1)
    for d in range(unf.N):
        for l, row in enumerate(psi):
            if not (row and g[l].terms):
                continue
            part = {e: c for e, c in g[l].terms.items() if sum(e) == d}
            if part:
                part = g[l]._like(part)
                for m, entry in row:
                    g[m] = g[m] - part * entry
    return g


class PrimitiveForm:
    """zeta_+ as one class over the unfolding: zeta, a ReducedClass whose
    rows {q: {j: g^(q)_j}} hold the nonzero ring coefficients of
    t^q Phi_j, 0-based j, q = 0..a."""

    def __init__(self, unf, filtration, a, zeta):
        self.unf = unf
        self.filtration = filtration
        self.a = a
        self.zeta = zeta

    def records(self):
        """[(t_power, basis_index_1based, ring_elem)] in Phi coords."""
        return _entries(self.zeta)


def _entries(cls):
    """The nonzero entries of a class as (t_power, basis_index_1based,
    entry), by t-power, then basis index."""
    rows = cls.rows
    return [(k, j + 1, rows[k][j]) for k in sorted(rows)
            for j in sorted(rows[k])]


def good_filtration(unf, c):
    """The opposite filtration of c, an OppositeFiltration or its slots
    {(i, j): value}, rejected with a ValueError unless it is of the
    unfolding's singularity and good: K(Phi_i, Phi_j) has no positive
    t-power. A trivial c is good."""
    filtration = c if isinstance(c, OppositeFiltration) else \
        OppositeFiltration(unf.base, c)
    if filtration.base is not unf.base:
        raise ValueError("the opposite filtration is of another singularity")
    if not filtration.is_trivial():
        defects = positive_pairing(filtration)
        if defects:
            (i, j, r), value = min(defects.items())
            raise ValueError(
                "the opposite filtration is not good: at (i, j, r) = "
                "(%d, %d, %d) K(Phi_i, Phi_j) has the t^r coefficient %s"
                % (i + 1, j + 1, r, value))
    return filtration


def positive_pairing(filtration):
    """The positive-t part of K(Phi_i, Phi_j) over all i, j as
    {(i, j, r): value} of nonzero values, 0-based i and j, r > 0: each
    Phi_i is read as a class {t_power: {k: M_ik}} from the sparse
    filtration.rows and t_power, and paired by singularity.pair_classes.

    A slot has a positive t-power and the rest of Phi_i is phi_i at t^0,
    so a positive term has a slot on one side and, on the other, a slot
    too or a phi_j that eta joins to that slot (eta is symmetric). So
    the pairs formed are those of two rows with a slot and, both ways,
    those of a row with a slot and each phi_j that eta joins to one of
    its slots: every other pair gives t^0 alone."""
    eta, rows = eta_rows(filtration.base), filtration.rows
    phis, pairs = {}, set()
    for i, row in enumerate(rows):
        if len(row) > 1:
            phis[i] = {}
            for k, m in row.items():
                phis[i].setdefault(filtration.t_power(i, k), {})[k] = m
                if k != i:
                    for j in eta[k]:
                        pairs.update(((i, j), (j, i)))
    out = {}
    for i, j in pairs.union((x, y) for x in phis for y in phis):
        a, b = (phis.get(x, {0: rows[x]}) for x in (i, j))
        for r, v in pair_classes(eta, a, b, math.inf).items():
            if r > 0:
                out[(i, j, r)] = v
    return out


def primitive_form(unf, c=None, osc=None):
    """zeta_+ for the opposite filtration c, solved order by order in u
    (see solve_primitive). Given oscillator matrices osc, it is read from
    them instead, by the solve of g (Id + Psi) = e; c is then ignored,
    since osc carries its own filtration. Either filtration is rejected
    unless it is good (see good_filtration)."""
    filtration = good_filtration(unf, c if osc is None else osc.filtration)
    if osc is None:
        return solve_primitive(unf, filtration)
    mu = unf.base.mu
    g = neumann_solve(assemble_psi(osc), unf)
    zeta = ReducedClass(mu, {q: dict(enumerate(g[q * mu:(q + 1) * mu]))
                             for q in range(osc.a + 1)})
    return PrimitiveForm(unf, filtration, osc.a, zeta)


def solve_primitive(unf, filtration):
    """zeta_+ by the recursion zeta^(0) = Phi_1 and, for d = 1..N,
    zeta^(d) = -[proj_{t>=0} e^((F-f)/t) zeta^(<d)]_{u-degree d}.

    Once the part zeta^(d) is final, its products with every alpha of
    1 <= |alpha| <= N - d are added to the pending degree d + |alpha|.
    A product term is keyed by its (t-power, Phi_j, term of Phi_j), and
    the key stands for the term's t0 and h, so its cuts do not change
    between parts. A new key walks (see Projector.walk) and keeps as its
    record the (alpha, |alpha|, sums) that the walk yields of size below
    its room N - d. A later part of the key has a smaller room, so it
    replays the record's entries of size <= N - d in place of a walk,
    with no product term, P_alpha or reduction. Each slot's coefficient
    is made into one list, shared by the terms of its Phi_j. The
    Q_{l,n} stay on the unfolding, so a verify_primitive after the solve
    builds none again. Each term t^k u^gamma Phi_j is checked where it
    is placed: k <= a and, without overrides, k + d_j + deg(u^gamma) = 0.

    The walks leave out the constant direction u_c (see Projector),
    since zeta_+ does not depend on it. With F' = F - u_c and
    T(Y) = [e^(u_c/t) Y]_{t>=0}, [e^((F-f)/t) zeta]_{t>=0} =
    T([e^((F'-f)/t) zeta]_{t>=0}), as e^(u_c/t) only lowers t-powers. T is
    invertible on classes with t >= 0, with inverse
    [e^(-u_c/t) .]_{t>=0}, and T(Phi_1) = Phi_1, so the projection for F
    is Phi_1 exactly when the one for F' is.
    """
    N, mu = unf.N, unf.base.mu
    a = positive_bound(unf.base, N)
    projector = Projector(unf, filtration, floor=0)
    uppers = [list(enumerate(filtration.upper(j))) for j in range(mu)]
    on_grade = grading(unf)
    pending = {d: {} for d in range(1, N + 1)}  # phi coordinates, per u-degree
    records = {}    # (k, j, n) -> [(alpha, |alpha|, sums)]
    collected = {}  # {k: {j: the u-terms of t^k Phi_j over all parts}}
    part = {0: {0: {(0,) * unf.nu: Fraction(1)}}}
    for d in range(N + 1):
        if d:
            part = projector.rows(pending.pop(d))
        terms, walked, replays = [], [], []
        for k, row in part.items():
            for j, poly in sorted(row.items()):
                if d:
                    poly = {gamma: -c for gamma, c in poly.items()}
                _check_term(k, j, poly, a, on_grade)
                collected.setdefault(k, {}).setdefault(j, {}).update(poly)
                coeffs = coefficient_list(poly)
                for n, (t0, h) in uppers[j]:
                    key = (k, j, n)
                    if key in records:
                        replays.append((records[key], coeffs))
                    else:
                        terms.append(projector.term(k + t0, h, d, 1))
                        walked.append((records.setdefault(key, []), coeffs))
        for i, alpha, size, sums in projector.walk(terms):
            record, coeffs = walked[i]
            projector.spread(sums, alpha, size, pending[d + size], coeffs)
            if size < N - d:
                record.append((alpha, size, sums))
        for record, coeffs in replays:
            for alpha, size, sums in record:
                if size <= N - d:
                    projector.spread(sums, alpha, size, pending[d + size],
                                     coeffs)
    zero = unf.ring_zero()
    return PrimitiveForm(unf, filtration, a, ReducedClass(mu, {
        k: {j: zero._like(terms) for j, terms in row.items()}
        for k, row in collected.items()}))


def _check_term(k, j, poly, a, on_grade):
    """A part t^k poly Phi_j of zeta_+ (0-based j) lies at the t-powers
    0..a and, with a grading test, carries the grading of Phi_1."""
    if k > a:
        raise GradingViolation(
            "zeta_+ term t^%d u^%r Phi_%d beyond the bound a=%d"
            % (k, next(iter(poly)), j + 1, a))
    if on_grade is not None:
        for exp in poly:
            if not on_grade(k, 0, j, exp):
                raise GradingViolation("off-grade zeta_+ term t^%d u^%r "
                                       "Phi_%d" % (k, exp, j + 1))


class VerifyReport:
    def __init__(self, ok, mismatches):
        self.ok = ok
        self.mismatches = mismatches  # [(t_power, basis_index, elem)]

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "VerifyReport(ok)"
        return "VerifyReport(failures at %s)" % (
            [(k, j) for k, j, _ in self.mismatches],)


def _as_t_rpolys(unf, rep):
    """A candidate class as a list of (t_power, {z_exp: Fraction},
    ring_elem) product terms (terms are not merged by t_power), the
    format oscillating_projection reads.

    Accepts a PrimitiveForm, an MPoly with Fraction coefficients, or a
    list of (t_power, MPoly, ring_elem) product terms. A PrimitiveForm
    of an unfolding with another singularity, order N, directions or
    series, or a term whose t-power is not an int, whose MPoly is not
    over the singularity's variables or whose coefficient is not an
    element of the unfolding ring (its variables and order N), is a
    ValueError naming it.
    """
    if isinstance(rep, PrimitiveForm):
        if (rep.unf.base, rep.unf.N, rep.unf.indices, rep.unf.series) != \
                (unf.base, unf.N, unf.indices, unf.series):
            raise ValueError("the PrimitiveForm rep is of another unfolding "
                             "(singularity, N, directions or series)")
        upper = rep.filtration.upper
        return [(q + t0, h, elem) for q, row in rep.zeta.rows.items()
                for j, elem in row.items() for t0, h in upper(j)]
    if isinstance(rep, MPoly):
        rep = [(0, rep, unf.ring_one())]
    ring = unf.ring_zero()
    terms = []
    for n, (t0, poly, elem) in enumerate(rep, 1):
        if isinstance(t0, bool) or not isinstance(t0, int):
            problem = "the t-power %r is not an int" % (t0,)
        elif not isinstance(poly, MPoly):
            problem = "%r is not an MPoly" % (poly,)
        elif poly.variables != unf.base.variables:
            problem = "the polynomial %s is in %s, not in %s" % (
                poly, ", ".join(poly.variables),
                ", ".join(unf.base.variables))
        elif not isinstance(elem, MPoly):
            problem = "the coefficient %r is not an MPoly" % (elem,)
        elif elem.variables != ring.variables or elem.order != unf.N:
            problem = "the coefficient %s, in %s to order %s, is not in " \
                "the unfolding ring Q[u1..u%d]/m^%d" % (
                    elem, ", ".join(elem.variables), elem.order, unf.nu,
                    unf.N + 1)
        else:
            terms.append((t0, poly.terms, elem))
            continue
        raise ValueError("rep term %d: %s" % (n, problem))
    return terms


def verify_primitive(unf, rep, c=None):
    """Check the defining property: the nonnegative-t part of
    e^((F-f)/t) * rep equals the constant class Phi_1. The mismatches
    are the nonzero entries of that part minus Phi_1, by t-power, then
    basis index."""
    filtration = good_filtration(unf, c)
    projected, = oscillating_projection(unf, [_as_t_rpolys(unf, rep)],
                                        filtration, floor=0)
    mismatches = _entries(projected.add_scaled(
        ReducedClass(unf.base.mu, {0: {0: unf.ring_one()}}), -1).compress())
    return VerifyReport(not mismatches, mismatches)


def verify_class_equal(unf, rep_a, rep_b):
    """Equality of two candidate classes in the Brieskorn lattice over
    the truncated parameter ring: each side is reduced to one class with
    ring entries, every z-monomial of a product term reduced once and
    scaled by the term's ring coefficient, and the two are compared.
    Coefficients are elements of the unfolding ring."""
    sides = []
    for rep in (rep_a, rep_b):
        side = ReducedClass(unf.base.mu)
        for t0, h, coeff in _as_t_rpolys(unf, rep):
            for exp, c in h.items():
                side.add_scaled(reduce_monomial(unf.base, exp), coeff * c, t0)
        sides.append(side)
    return sides[0] == sides[1]
