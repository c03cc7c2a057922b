"""Brieskorn-lattice reduction to the canonical t-power form.

Classes in the lattice satisfy [g * df/dz_i] = -t [lam * d/dz_i (g/lam)]
with volume twist lam = 1 in the polynomial case and lam = z for the
Laurent (punctured-line) case. Iterating this rule writes any class
uniquely as sum_k t^k (combination of Milnor basis elements).

Polynomial case: each element g_k = sum_i row_k[i] * df/dz_i of the monic
Groebner basis of the partials gives one step rule (step_rules). A
standard monomial is its basis coordinates at t^0. Any other z^e is z^s
times the leading monomial of some g_k, so
    [z^e] = sum (-n/d) [z^(s+te)] + t sum (-n m/d) [z^(s+r-e_i)]
over the terms (n/d) z^te of g_k below the leading one and the terms
(n/d) z^r of row_k[i], m = s_i + r_i. The first sum goes down the
monomial order at the same weighted degree, the second one degree
lower: the t^0 part is the Jacobian-ring normal form, from which
SingularityData reads residues, and the t-power is at most the degree.
Of the rules that divide z^e the one of least quotient s, sorted in
descending order, is taken: on Fermat-type bases that walks toward
balanced exponents, where other monomials' reductions meet.

A class is stored as sparse rows {k: {j: c}} of its nonzero entries
(ReducedClass.rows). In the polynomial case row k of [z^e] lies in the
one degree slice deg(e) - k by the grading, so it holds few entries,
and adding scaled classes walks those entries only. A standard
monomial's class is a copy of its basis_inv row. ReducedClass.coeffs is
a dense view for readers outside the library's loops.

Every class a reduction visits is cached per monomial in
data.mono_cache, the one store of reductions. The reduction is linear,
so callers scale cached classes; callers with unfolding-ring
coefficients take product terms, a z-polynomial times a ring element:
oscillating_projection spreads the reduction of the z-polynomial over
the u-monomials of the ring element, and verify_class_equal scales it by
the ring element, into a class with ring entries.
"""

from fractions import Fraction
from operator import add, sub


class ReductionGuardError(Exception):
    pass


class ReducedClass:
    """Finite sum_k t^k v_k with v_k coordinate vectors in the Milnor
    basis, stored as sparse rows {k: {j: c}} with no zero entry and no
    empty row once compressed. Entries are Fractions or ring elements.
    coeffs is a read-only dense view of the rows."""

    __slots__ = ("mu", "rows")

    def __init__(self, mu, rows=None):
        """rows {k: {j: c}} are copied, without their zero entries."""
        self.mu = mu
        self.rows = _nonzero(rows) if rows else {}

    @property
    def coeffs(self):
        """{k: [c_0, ..., c_{mu-1}]}, each gap the zero of the row's
        entries (0 * entry: a Fraction, or the ring's zero)."""
        out = {}
        for k, row in self.rows.items():
            if row:
                vec = [0 * next(iter(row.values()))] * self.mu
                for j, c in row.items():
                    vec[j] = c
                out[k] = vec
        return out

    def is_zero(self):
        return not self.rows

    def add_scaled(self, other, scale=1, t_shift=0):
        """self += scale * t^t_shift * other (in place)."""
        rows = self.rows
        for k, row in other.rows.items():
            tgt = rows.get(k + t_shift)
            if tgt is None:
                rows[k + t_shift] = {j: scale * c for j, c in row.items()}
                continue
            for j, c in row.items():
                prior = tgt.get(j)
                tgt[j] = scale * c if prior is None else prior + scale * c
        return self

    def compress(self):
        self.rows = _nonzero(self.rows)
        return self

    def __eq__(self, other):
        return _nonzero(self.rows) == _nonzero(other.rows)

    def __str__(self):
        parts = []
        for k in sorted(self.rows):
            body = ", ".join("phi%d: %s" % (j + 1, c)
                             for j, c in sorted(self.rows[k].items()) if c)
            if body:
                parts.append("t^%d [%s]" % (k, body))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _nonzero(rows):
    """rows without their zero entries and empty rows."""
    out = {}
    for k, row in rows.items():
        row = {j: c for j, c in row.items() if c}
        if row:
            out[k] = row
    return out


def step_rules(groebner):
    """One step rule (leading exponent, tail, steps) per element g_k of a
    monic Groebner basis of the partials, with its cofactor row
    g_k = sum_i row_k[i] * df/dz_i. The tail lists (e, -n, d) for each
    term (n/d) z^e of g_k below the leading one, the steps list
    (i, r_i, r - e_i, -n, d) for each term (n/d) z^r of row_k[i]:
    coefficients are kept as integer pairs, so that a product with a
    quotient coefficient is one Fraction built from integers."""
    rules = []
    for g, row in groebner:
        lead, lc = g.leading()
        assert lc == 1, "Groebner basis element %s is not monic" % g
        tail = [(e, -c.numerator, c.denominator)
                for e, c in g.terms.items() if e != lead]
        steps = [(i, r[i], tuple(x - (j == i) for j, x in enumerate(r)),
                  -c.numerator, c.denominator)
                 for i, cofactor in enumerate(row)
                 for r, c in cofactor.terms.items()]
        rules.append((lead, tail, steps))
    return rules


def reduce_monomial(data, exp):
    """Reduced class of a single monomial; cached per singularity."""
    cached = data.mono_cache.get(exp)
    if cached is None:
        if data.mode == "laurent":
            _fill_laurent(data, exp[0])
        else:
            _fill_poly(data, exp)
        cached = data.mono_cache[exp]
    return cached


def reduce_class(data, h):
    """Reduced class of a polynomial with Fraction coefficients."""
    out = ReducedClass(data.mu)
    for exp, c in h.terms.items():
        out.add_scaled(reduce_monomial(data, exp), c)
    return out.compress()


def _rule_step(data, e):
    """[z^e] as (exponent, coefficient, t-power) triples by the rule of
    least sorted quotient; None for a standard monomial."""
    best = None
    for lead, tail, steps in data.step_rules:
        s = tuple(map(sub, e, lead))
        if min(s) >= 0:
            key = sorted(s, reverse=True)
            if best is None or key < best[0]:
                best = key, s, tail, steps
    if best is None:
        return None
    _, s, tail, steps = best
    parts = [(tuple(map(add, s, te)), Fraction(n, d), 0)
             for te, n, d in tail]
    for i, ri, down, n, d in steps:
        m = s[i] + ri
        if m:
            parts.append((tuple(map(add, s, down)), Fraction(n * m, d), 1))
    return parts


def _fill_poly(data, exp):
    """Cache [z^exp] and the classes its rule steps reach, depth first
    on a stack whose entries carry their t-power below z^exp."""
    cache = data.mono_cache
    guard = data.weights.scaled_degree(exp) // data.weights.den + 2
    pending = {}
    stack = [(exp, 0)]
    while stack:
        e, k = stack[-1]
        if e in cache:
            stack.pop()
            continue
        parts = pending.pop(e, None)
        if parts is not None:
            stack.pop()
            out = ReducedClass(data.mu)
            for t, c, shift in parts:
                out.add_scaled(cache[t], c, shift)
            cache[e] = out.compress()
            continue
        if k > guard:
            raise ReductionGuardError(
                "t-reduction of the monomial %r did not terminate within "
                "%d steps" % (exp, guard))
        parts = _rule_step(data, e)
        if parts is None:
            stack.pop()
            cache[e] = ReducedClass(
                data.mu, {0: dict(data.basis_inv[data.std_index[e]])})
            continue
        pending[e] = parts
        for t, _, shift in parts:
            if t in pending:
                raise ReductionGuardError(
                    "the step rules lead the monomial %r back to itself"
                    % (t,))
            if t not in cache:
                stack.append((t, k + shift))


def _fill_laurent(data, e):
    """Cache [z^j] for j out to e, for f = z + q/z with lam = z.
    From [z^k f'(z)] = -t [z d/dz z^(k-1)]:
        [z^k]    = q [z^(k-2)] - (k-1) t [z^(k-1)]         (k >= 1)
        [z^(-m)] = (1/q)[z^(2-m)] - ((m-1)/q) t [z^(1-m)]  (m >= 2)
    from the classes of 1 and 1/z, cached from the start."""
    cache = data.mono_cache
    q = data.q
    step = 1 if e > 0 else -1
    for j in range(step, e + step, step):
        if (j,) in cache:
            continue
        out = ReducedClass(2)
        if j > 0:
            out.add_scaled(cache[(j - 2,)], q)
            out.add_scaled(cache[(j - 1,)], 1 - j, 1)
        else:
            out.add_scaled(cache[(j + 2,)], 1 / q)
            out.add_scaled(cache[(j + 1,)], (j + 1) / q, 1)
        cache[(j,)] = out.compress()
