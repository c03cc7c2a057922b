"""Brieskorn-lattice reduction to the canonical t-power form.

Classes in the lattice satisfy [g * df/dz_i] = -t [lam * d/dz_i (g/lam)]
with volume twist lam = 1 in the polynomial case and lam = z for the
Laurent (punctured-line) case. Iterating this rule writes any class
uniquely as sum_k t^k (combination of Milnor basis elements).

Polynomial case: each element g_k = sum_i row_k[i] * df/dz_i of the monic
Groebner basis of the partials gives one step rule (step_rules). Dividing
the t^k polynomial by the basis, a quotient term q z^s of g_k cancels
q z^s g_k there and, by the rule above, adds
-sum_i d/dz_i (q z^s row_k[i]) to the t^(k+1) polynomial: for each term
c z^r of row_k[i] that is -q c (s_i + r_i) z^(s + r - e_i). The
remainder of the division gives the t^k coordinates. Each pass lowers
the weighted degree by one, so a monomial of weighted degree d needs at
most int(d) + 1 passes.

Coefficients may be Fractions or truncated unfolding-ring elements; the
reduction is linear, so per-monomial results are cached with Fraction
coefficients and scaled as needed.
"""

from fractions import Fraction
from operator import add, sub

from .mpoly import grevlex_key


class ReductionGuardError(Exception):
    pass


class ReducedClass:
    """Finite sum_k t^k v_k with v_k coordinate vectors in the Milnor
    basis. Coefficient entries are Fractions or ring elements."""

    __slots__ = ("mu", "coeffs")

    def __init__(self, mu, coeffs=None):
        self.mu = mu
        self.coeffs = {}
        if coeffs:
            for k, vec in coeffs.items():
                vec = list(vec)
                if any(vec):
                    self.coeffs[k] = vec

    def is_zero(self):
        return not self.coeffs

    def add_scaled(self, other, scale=1, t_shift=0, floor=None):
        """self += scale * t^t_shift * other (in place), leaving out the
        t-powers below floor when one is given."""
        for k, vec in other.coeffs.items():
            k += t_shift
            if floor is not None and k < floor:
                continue
            tgt = self.coeffs.setdefault(k, [Fraction(0)] * self.mu)
            for i, c in enumerate(vec):
                if c:
                    # a fresh slot holds Fraction(0): the first product
                    # replaces it instead of going through Fraction + ring
                    prior = tgt[i]
                    tgt[i] = prior + scale * c if prior else scale * c
        return self

    def compress(self):
        for k in [k for k, vec in self.coeffs.items() if not any(vec)]:
            del self.coeffs[k]
        return self

    def __eq__(self, other):
        a = {k: vec for k, vec in self.coeffs.items() if any(vec)}
        b = {k: vec for k, vec in other.coeffs.items() if any(vec)}
        return a == b

    def __str__(self):
        parts = []
        for k in sorted(self.coeffs):
            vec = self.coeffs[k]
            body = ", ".join("phi%d: %s" % (i + 1, c)
                             for i, c in enumerate(vec) if c)
            parts.append("t^%d [%s]" % (k, body))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


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
            cached = _reduce_laurent_poly(data, exp)
        else:
            cached = _reduce_poly(data, exp)
        data.mono_cache[exp] = cached
    return cached


def reduce_class(data, h):
    """Reduced class of a polynomial with Fraction coefficients."""
    out = ReducedClass(data.mu)
    for exp, c in h.terms.items():
        out.add_scaled(reduce_monomial(data, exp), c)
    return out.compress()


def _reduce_poly(data, exp):
    """Reduction of the monomial z^exp, polynomial case: one division
    pass per t-power, applying the step rules on plain dicts (see the
    module docstring)."""
    guard = int(data.weights.degree_of_exponent(exp)) + 2
    rules = data.step_rules
    out = {}
    work = {exp: Fraction(1)}
    k = 0
    while work:
        if k > guard:
            raise ReductionGuardError(
                "t-reduction of the monomial %r did not terminate within "
                "%d steps" % (exp, guard))
        rem = {}
        nxt = {}
        while work:
            e = max(work, key=grevlex_key)
            q = work.pop(e)
            qn, qd = q.numerator, q.denominator
            for lead, tail, steps in rules:
                s = tuple(map(sub, e, lead))
                if min(s) < 0:
                    continue
                for te, n, d in tail:
                    t = tuple(map(add, s, te))
                    c = Fraction(qn * n, qd * d)
                    prior = work.get(t)
                    if prior is not None:
                        c = prior + c
                    if c:
                        work[t] = c
                    else:
                        del work[t]
                for i, ri, down, n, d in steps:
                    m = s[i] + ri
                    if m:
                        t = tuple(map(add, s, down))
                        c = Fraction(qn * n * m, qd * d)
                        prior = nxt.get(t)
                        nxt[t] = c if prior is None else prior + c
                break
            else:
                rem[e] = q
        if rem:
            out[k] = data.coords(rem)
        work = {e: c for e, c in nxt.items() if c}
        k += 1
    return ReducedClass(data.mu, out)


def _reduce_laurent_poly(data, exp):
    """Reduction for f = z + q/z with lam = z.

    Derived from [z^k f'(z)] = -t [z d/dz z^(k-1)]:
        [z^k]    = q [z^(k-2)] - (k-1) t [z^(k-1)]         (k >= 1)
        [z^(-m)] = (1/q)[z^(2-m)] - ((m-1)/q) t [z^(1-m)]  (m >= 2)
    terminating on the span of {1, 1/z}."""
    q = data.q
    work = {(exp[0], 0): Fraction(1)}
    out = {}
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise ReductionGuardError("Laurent reduction runaway")
        (e, k) = max(work, key=lambda ek: abs(ek[0]))
        c = work.pop((e, k))
        if not c:
            continue
        if e in (0, -1):
            vec = out.setdefault(k, [Fraction(0)] * 2)
            if e == 0:
                vec[0] += c
            else:
                vec[1] += c / q   # basis element is q/z
            continue
        if e >= 1:
            _bump(work, (e - 2, k), q * c)
            if e != 1:
                _bump(work, (e - 1, k + 1), -(e - 1) * c)
        else:
            m = -e
            _bump(work, (2 - m, k), c / q)
            _bump(work, (1 - m, k + 1), -Fraction(m - 1) * c / q)
    return ReducedClass(2, out)


def _bump(work, key, c):
    if c:
        v = work.get(key, 0) + c
        if v:
            work[key] = v
        else:
            work.pop(key, None)
