"""Buchberger's algorithm with cofactor tracking.

Every Groebner basis element carries a row expressing it as a combination
of the original generators, so quotients over the basis translate into
quotients over the *original* generators (here: the partial derivatives
of the singularity), as the Brieskorn reduction needs.
"""

from .mpoly import (MPoly, grevlex_key, monomial_div, monomial_divides,
                    monomial_lcm, monomial_mul)

# the largest Milnor number, a count of standard monomials, accepted
MAX_STANDARD_MONOMIALS = 100000


class MilnorNumberTooLarge(ValueError):
    pass


def divide(h, divisors):
    """Multivariate division: h = sum(q_i * divisors_i) + remainder.

    Returns (quotients, remainder) with no remainder term divisible by
    any divisor leading monomial. Grevlex order throughout.
    """
    lead = [g.leading() for g in divisors]
    quotients = [dict() for _ in divisors]
    remainder = {}
    work = dict(h.terms)
    while work:
        exp = max(work, key=grevlex_key)
        coeff = work[exp]
        for i, (lexp, lc) in enumerate(lead):
            if monomial_divides(lexp, exp):
                shift = monomial_div(exp, lexp)
                factor = coeff / lc
                q0 = quotients[i].get(shift)
                quotients[i][shift] = factor + q0 if q0 is not None else factor
                for gexp, gc in divisors[i].terms.items():
                    e = monomial_mul(shift, gexp)
                    c = work.get(e, 0) - factor * gc
                    if c:
                        work[e] = c
                    elif e in work:
                        del work[e]
                break
        else:
            remainder[exp] = coeff
            del work[exp]
    # the dicts already hold nonzero Fractions: skip the validating MPoly()
    return [h._like(q) for q in quotients], h._like(remainder)


def s_poly(f, g):
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm = monomial_lcm(fe, ge)
    mf = MPoly.monomial(f.variables, monomial_div(lcm, fe), 1 / fc)
    mg = MPoly.monomial(g.variables, monomial_div(lcm, ge), 1 / gc)
    return mf * f - mg * g, mf, mg


def buchberger_with_cofactors(generators):
    """Groebner basis of the ideal with expression rows.

    Returns a list of (basis_poly, row) where row is a list of MPoly
    cofactors with basis_poly == sum(row_j * generators_j).
    """
    variables = generators[0].variables
    basis = []
    rows = []
    for i, g in enumerate(generators):
        if g.is_zero():
            continue
        row = [MPoly.zero(variables) for _ in generators]
        row[i] = MPoly.constant(variables, 1)
        basis.append(g)
        rows.append(row)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fe = basis[i].leading()[0]
        ge = basis[j].leading()[0]
        # Buchberger's first criterion: coprime leading monomials.
        if monomial_lcm(fe, ge) == monomial_mul(fe, ge):
            continue
        sp, mf, mg = s_poly(basis[i], basis[j])
        qs, rem = divide(sp, basis)
        if rem.is_zero():
            continue
        row = [mf * a - mg * b for a, b in zip(rows[i], rows[j])]
        for k, q in enumerate(qs):
            if q.is_zero():
                continue
            row = [r - q * c for r, c in zip(row, rows[k])]
        k = len(basis)
        basis.append(rem)
        rows.append(row)
        pairs.extend((t, k) for t in range(k))
    return _reduce_basis(basis, rows)


def _reduce_basis(basis, rows):
    """Minimalize and normalize: drop members whose leading monomial is
    divisible by another's, scale leading coefficients to 1."""
    keep = []
    leads = [g.leading()[0] for g in basis]
    for i, le in enumerate(leads):
        if any(j != i and monomial_divides(leads[j], le)
               and (leads[j] != le or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    out = []
    for i in keep:
        _, lc = basis[i].leading()
        inv = 1 / lc
        out.append((basis[i] * inv, [r * inv for r in rows[i]]))
    out.sort(key=lambda pair: grevlex_key(pair[0].leading()[0]))
    return out


def standard_monomials(groebner):
    """All monomials outside the leading-term ideal, grevlex-sorted
    ascending; the ideal must have finite codimension. Raises
    MilnorNumberTooLarge past MAX_STANDARD_MONOMIALS."""
    leads = [g.leading()[0] for g, _ in groebner]
    n = len(leads[0])
    found = []
    frontier = [(0,) * n]
    seen = {(0,) * n}
    while frontier:
        exp = frontier.pop()
        if any(monomial_divides(le, exp) for le in leads):
            continue
        found.append(exp)
        if len(found) > MAX_STANDARD_MONOMIALS:
            raise MilnorNumberTooLarge(
                "the Milnor number exceeds the bound of %d standard "
                "monomials" % MAX_STANDARD_MONOMIALS)
        for i in range(n):
            nxt = tuple(e + 1 if j == i else e for j, e in enumerate(exp))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    found.sort(key=grevlex_key)
    return found
