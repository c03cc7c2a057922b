"""Perturbative primitive forms.

With A^(k) the oscillator matrices and a the largest positive t-power,
the block matrix Psi[p][q] = A^(q-p) - delta_pq Id (p, q = 0..a) has
entries in the maximal ideal of the truncated parameter ring. The row
vector g = e (Id + Psi)^{-1}, e = (e_1, 0, ..., 0), yields the primitive
form

    zeta_+ = sum_{q=0}^{a} t^q sum_j g^(q)_j Phi_j,

the unique class whose oscillating projection to nonnegative t-powers
is the constant class 1. Psi has no constant term, so the degree-d part
of g = e - g Psi reads only the parts of g below degree d: Id + Psi
inverts in N passes, one u-degree each.
"""

from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly
from .unfolding import (GradingViolation, OppositeFiltration,
                        oscillating_projection, oscillator_matrices)


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
    """zeta_+ for the opposite filtration c, read from oscillator
    matrices osc when given: c is then ignored, since osc carries its
    own filtration."""
    if osc is None:
        osc = oscillator_matrices(unf, c=c)
    mu = unf.base.mu
    psi = assemble_psi(osc)
    g = neumann_solve(psi, unf)
    blocks = [g[q * mu:(q + 1) * mu] for q in range(osc.a + 1)]
    return PrimitiveForm(unf, osc.filtration, osc.a, blocks)


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
