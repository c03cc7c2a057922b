"""Perturbative primitive forms.

With A^(k) the oscillator matrices and a the largest positive t-power,
the block matrix Psi[p][q] = A^(q-p) - delta_pq Id (p, q = 0..a) has
entries in the maximal ideal of the truncated parameter ring, so
Id + Psi inverts by a finite Neumann series. The row vector
g = e (Id + Psi)^{-1}, e = (e_1, 0, ..., 0), yields the primitive form

    zeta_+ = sum_{q=0}^{a} t^q sum_j g^(q)_j Phi_j,

the unique class whose oscillating projection to nonnegative t-powers
is the constant class 1.
"""

from .brieskorn import ReducedClass, reduce_monomial
from .mpoly import MPoly
from .unfolding import (OppositeFiltration, oscillating_projection,
                        oscillator_matrices)


def assemble_psi(osc):
    """The nilpotent correction block matrix of size (a+1) mu."""
    unf = osc.unf
    mu = unf.base.mu
    a = osc.a
    one = unf.ring_one()
    psi = []
    for p in range(a + 1):
        for i in range(mu):
            row = []
            for q in range(a + 1):
                block = osc.matrix(q - p)
                for j in range(mu):
                    entry = block[i][j]
                    if p == q and i == j:
                        entry = entry - one
                    row.append(entry)
            psi.append(row)
    return psi


def neumann_solve(psi, unf):
    """Row vector e (Id + Psi)^{-1} by the finite Neumann series."""
    size = len(psi)
    zero = unf.ring_zero()
    e = [unf.ring_one()] + [zero] * (size - 1)
    acc = list(e)
    term = list(e)
    for _ in range(unf.N + 1):
        nxt = [zero] * size
        for l in range(size):
            tl = term[l]
            if tl.is_zero():
                continue
            row = psi[l]
            for m in range(size):
                if not row[m].is_zero():
                    nxt[m] = nxt[m] - tl * row[m]
        term = nxt
        if all(x.is_zero() for x in term):
            break
        acc = [x + y for x, y in zip(acc, term)]
    else:
        if not all(x.is_zero() for x in term):
            raise RuntimeError("Neumann series did not terminate; Psi is "
                               "not nilpotent at this truncation order")
    return acc


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
