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

from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly
from .unfolding import (GradingViolation, OppositeFiltration, Projector,
                        grading, oscillating_projection, positive_bound)


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
    """zeta_+ expansion, stored as g-blocks in the Phi(c) basis."""

    def __init__(self, unf, filtration, a, blocks):
        self.unf = unf
        self.filtration = filtration
        self.a = a
        self.blocks = blocks          # blocks[q][j], q = 0..a

    def records(self):
        """[(t_power, basis_index_1based, ring_elem)] in Phi coords."""
        out = []
        for q, vec in enumerate(self.blocks):
            for j, elem in enumerate(vec):
                if not elem.is_zero():
                    out.append((q, j + 1, elem))
        return out


def primitive_form(unf, c=None, osc=None):
    """zeta_+ for the opposite filtration c, solved order by order in u
    (see solve_primitive). Given oscillator matrices osc, it is read from
    them instead, by the solve of g (Id + Psi) = e; c is then ignored,
    since osc carries its own filtration."""
    if osc is None:
        filtration = c if isinstance(c, OppositeFiltration) else \
            OppositeFiltration(unf.base, c)
        return solve_primitive(unf, filtration)
    mu = unf.base.mu
    psi = assemble_psi(osc)
    g = neumann_solve(psi, unf)
    blocks = [g[q * mu:(q + 1) * mu] for q in range(osc.a + 1)]
    return PrimitiveForm(unf, osc.filtration, osc.a, blocks)


def solve_primitive(unf, filtration):
    """zeta_+ by the recursion zeta^(0) = Phi_1 and, for d = 1..N,
    zeta^(d) = -[proj_{t>=0} e^((F-f)/t) zeta^(<d)]_{u-degree d}.

    Once the part zeta^(d') is final, one run of the Projector takes it
    through every alpha with 1 <= |alpha| <= N - d' and adds its
    products to the pending degree d' + |alpha|. A product term that a
    part repeats from an earlier part is keyed by its (t-power, Phi_j,
    term of Phi_j), so its reduced sums are kept and the parts after it
    only spread them. Each term t^k u^gamma Phi_j is checked where it is
    placed: k <= a and, without overrides, k + d_j + deg(u^gamma) = 0.
    """
    base, N = unf.base, unf.N
    mu = base.mu
    a = positive_bound(base, N)
    projector = Projector(unf, filtration, floor=0)
    uppers = [list(enumerate(filtration.upper(j))) for j in range(mu)]
    on_grade = grading(unf)
    pending = [{} for _ in range(N + 1)]   # phi coordinates, per u-degree
    found = [[{} for _ in range(mu)] for _ in range(a + 1)]
    met = set()
    part = {0: [unf.ring_one()]}
    for d in range(N + 1):
        if d:
            part = projector.rows(pending[d]).coeffs
            pending[d] = None
        sink = [None] + pending[d + 1:]
        terms = []
        for k, vec in part.items():
            for j, elem in enumerate(vec):
                if not elem:
                    continue
                if d:
                    elem = -elem
                _check_term(k, j, elem, a, on_grade)
                found[k][j].update(elem.terms)
                # a term in one part only, as on the P^1 mirror, keeps
                # nothing
                repeat = (k, j) in met
                met.add((k, j))
                for n, (t0, h) in uppers[j]:
                    terms.append(projector.product_term(
                        k + t0, h, elem.terms, sink,
                        (k, j, n) if repeat else None))
        projector.run(terms)
    zero = unf.ring_zero()
    blocks = [[zero._like(terms) for terms in vec] for vec in found]
    return PrimitiveForm(unf, filtration, a, blocks)


def _check_term(k, j, elem, a, on_grade):
    """A part t^k elem Phi_j of zeta_+ (0-based j) lies in the blocks
    0..a and, with a grading test, carries the grading of Phi_1."""
    if k > a:
        raise GradingViolation(
            "zeta_+ term t^%d u^%r Phi_%d beyond the bound a=%d"
            % (k, next(iter(elem.terms)), j + 1, a))
    if on_grade is not None:
        for exp in elem.terms:
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
    list of (t_power, MPoly, ring_elem) product terms.
    """
    if isinstance(rep, PrimitiveForm):
        return [(q + t0, h, elem) for q, j, elem in rep.records()
                for t0, h in rep.filtration.upper(j - 1)]
    if isinstance(rep, MPoly):
        rep = [(0, rep, unf.ring_one())]
    return [(t0, poly.terms, elem) for t0, poly, elem in rep]


def verify_primitive(unf, rep, c=None):
    """Check the defining property: the nonnegative-t part of
    e^((F-f)/t) * rep equals the constant class Phi_1."""
    filtration = c if isinstance(c, OppositeFiltration) else \
        OppositeFiltration(unf.base, c)
    projected, = oscillating_projection(unf, [_as_t_rpolys(unf, rep)],
                                        filtration, floor=0)
    mismatches = []
    zero = [unf.ring_zero()] * unf.base.mu
    for k in sorted(set(projected.coeffs) | {0}):
        for j, value in enumerate(projected.coeffs.get(k, zero)):
            want = 1 if (k == 0 and j == 0) else 0
            if value != want:
                mismatches.append((k, j + 1, value - want))
    return VerifyReport(not mismatches, mismatches)


def verify_class_equal(unf, rep_a, rep_b):
    """Equality of two candidate classes in the Brieskorn lattice over
    the truncated parameter ring (compares canonical reductions). Each
    z-monomial of a product term is reduced once and spread over the
    u-monomials of the term's ring coefficient, so the difference is kept
    as one class with Fraction entries per u-monomial."""
    diff = {}
    for rep, sign in ((rep_a, 1), (rep_b, -1)):
        for t0, h, coeff in _as_t_rpolys(unf, rep):
            for exp, c in h.items():
                red = reduce_monomial(unf.base, exp)
                for beta, b in coeff.terms.items():
                    part = diff.get(beta)
                    if part is None:
                        part = diff[beta] = ReducedClass(unf.base.mu)
                    part.add_scaled(red, sign * c * b, t0)
    return all(part.compress().is_zero() for part in diff.values())
