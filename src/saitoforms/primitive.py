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

from fractions import Fraction

from .brieskorn import ReducedClass, reduce_ring_poly
from .mpoly import MPoly
from .unfolding import OppositeFiltration, oscillator_matrices, z_product


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

    def reduced_class_upper(self):
        mu = self.unf.base.mu
        out = ReducedClass(mu)
        for q, vec in enumerate(self.blocks):
            tgt = out.coeffs.setdefault(q, [Fraction(0)] * mu)
            for j, elem in enumerate(vec):
                tgt[j] = tgt[j] + elem
        return out.compress()

    def reduced_class_phi(self):
        """The same class written over the plain Milnor basis."""
        return self.filtration.coords_to_phi(self.reduced_class_upper())

    def coefficient(self, t_power, j):
        """Ring coefficient of t^t_power Phi_j (1-based j)."""
        if 0 <= t_power <= self.a:
            return self.blocks[t_power][j - 1]
        return self.unf.ring_zero()


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
    """Normalize a candidate class to {t_power: {z_exp: ring_elem}}.

    Accepts a PrimitiveForm, a ReducedClass over the Milnor basis, an
    MPoly with Fraction coefficients, a {t: MPoly} dict, or a list of
    (t_power, MPoly, ring_elem) product terms.
    """
    base = unf.base
    if isinstance(rep, PrimitiveForm):
        rep = rep.reduced_class_phi()
    if isinstance(rep, ReducedClass):
        terms = []
        for k, vec in rep.coeffs.items():
            for j, coeff in enumerate(vec):
                terms.append((k, base.basis[j], coeff))
        rep = terms
    if isinstance(rep, MPoly):
        rep = {0: rep}
    if isinstance(rep, dict):
        terms = []
        for k, poly in rep.items():
            terms.append((k, poly, unf.ring_one()))
        rep = terms
    out = {}
    for k, poly, elem in rep:
        tgt = out.setdefault(k, {})
        for exp, c in poly.terms.items():
            term = elem * c
            prior = tgt.get(exp)
            tgt[exp] = term if prior is None else prior + term
    return out


def oscillating_projection(unf, rep, c=None):
    """Reduced class of e^((F-f)/t) * rep in Phi(c) coordinates."""
    base = unf.base
    filtration = c if isinstance(c, OppositeFiltration) else \
        OppositeFiltration(base, c)
    out = ReducedClass(base.mu)
    for t0, rpoly in _as_t_rpolys(unf, rep).items():
        for k, power in enumerate(unf.exp_powers()):
            shifted = z_product(power.items(), rpoly.items())
            out.add_scaled(reduce_ring_poly(base, shifted), 1, t0 - k)
    out.compress()
    if not filtration.is_trivial():
        out = filtration.coords_to_upper(out)
    return out


def verify_primitive(unf, rep, c=None):
    """Check the defining property: the nonnegative-t part of
    e^((F-f)/t) * rep equals the constant class Phi_1."""
    projected = oscillating_projection(unf, rep, c=c)
    mu = unf.base.mu
    mismatches = []
    for k, vec in projected.coeffs.items():
        if k < 0:
            continue
        for j in range(mu):
            want = 1 if (k == 0 and j == 0) else 0
            if vec[j] != want:
                mismatches.append((k, j + 1, vec[j] - want))
    if not projected.coeffs.get(0) or projected.coeffs[0][0] != 1:
        if not any(k == 0 and j == 1 for k, j, _ in mismatches):
            mismatches.append((0, 1, None))
    return VerifyReport(not mismatches, mismatches)


def verify_class_equal(unf, rep_a, rep_b):
    """Equality of two candidate classes in the Brieskorn lattice over
    the truncated parameter ring (compares canonical reductions)."""
    diff = ReducedClass(unf.base.mu)
    for t0, rpoly in _as_t_rpolys(unf, rep_a).items():
        diff.add_scaled(reduce_ring_poly(unf.base, rpoly), 1, t0)
    for t0, rpoly in _as_t_rpolys(unf, rep_b).items():
        diff.add_scaled(reduce_ring_poly(unf.base, rpoly), -1, t0)
    return diff.compress().is_zero()
