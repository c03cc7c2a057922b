"""Brieskorn-lattice reduction to the canonical t-power form.

Classes in the lattice satisfy [g * df/dz_i] = -t [lam * d/dz_i (g/lam)]
with volume twist lam = 1 in the polynomial case and lam = z for the
Laurent (punctured-line) case. Iterating this rule writes any class
uniquely as sum_k t^k (combination of Milnor basis elements).

Coefficients may be Fractions or truncated unfolding-ring elements; the
reduction is linear, so per-monomial results are cached with Fraction
coefficients and scaled as needed.
"""

from fractions import Fraction

from .mpoly import MPoly


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


def reduce_monomial(data, exp):
    """Reduced class of a single monomial; cached per singularity."""
    cached = data.mono_cache.get(exp)
    if cached is None:
        if data.mode == "laurent":
            cached = _reduce_laurent_poly(
                data, MPoly.monomial(data.variables, exp, 1, laurent=True))
        else:
            cached = _reduce_poly(data,
                                  MPoly.monomial(data.variables, exp, 1))
        data.mono_cache[exp] = cached
    return cached


def reduce_class(data, h):
    """Reduced class of a polynomial with Fraction coefficients."""
    out = ReducedClass(data.mu)
    for exp, c in h.terms.items():
        out.add_scaled(reduce_monomial(data, exp), c)
    return out.compress()


def _reduce_poly(data, h):
    """Iterated division + quotient differentiation, polynomial case."""
    degree = data.weights.weighted_degree(h)
    if degree is None and not h.is_zero():
        degs = {data.weights.degree_of_exponent(e) for e in h.terms}
        degree = max(degs)
    guard = 2 if h.is_zero() else int(degree) + 2
    out = {}
    current = h
    k = 0
    while not current.is_zero():
        if k > guard:
            raise ReductionGuardError(
                "t-reduction of %s did not terminate within %d steps"
                % (h, guard))
        rem, cofactors = data.normal_form(current)
        if not rem.is_zero():
            out[k] = data.coords(rem)
        nxt = MPoly.zero(data.variables)
        for i, g in enumerate(cofactors):
            if not g.is_zero():
                nxt = nxt - g.diff(i)
        current = nxt
        k += 1
    return ReducedClass(data.mu, out)


def _reduce_laurent_poly(data, h):
    """Reduction for f = z + q/z with lam = z.

    Derived from [z^k f'(z)] = -t [z d/dz z^(k-1)]:
        [z^k]    = q [z^(k-2)] - (k-1) t [z^(k-1)]         (k >= 1)
        [z^(-m)] = (1/q)[z^(2-m)] - ((m-1)/q) t [z^(1-m)]  (m >= 2)
    terminating on the span of {1, 1/z}."""
    q = data.q
    work = {}
    for (e,), c in h.terms.items():
        work[(e, 0)] = work.get((e, 0), Fraction(0)) + c
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
