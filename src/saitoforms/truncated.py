"""Truncated polynomial ring in unfolding parameters.

Elements live in Q[u_1..u_k] modulo the (N+1)-st power of the maximal
ideal (u_1..u_k): every stored monomial has total degree <= N, and
products silently discard higher-order terms.
"""

from fractions import Fraction

from .mpoly import grevlex_key


class TruncationMismatch(Exception):
    pass


class UnfoldRingElem:
    """Element of Q[u]/m^(N+1), a dict of exponent tuples -> Fraction."""

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars, order, terms=None):
        self.nvars = nvars
        self.order = order
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise ValueError("bad u-exponent %r" % (exp,))
                if sum(exp) > order:
                    continue
                c = Fraction(c)
                if c:
                    c0 = clean.get(exp)
                    c = c + c0 if c0 is not None else c
                    if c:
                        clean[exp] = c
                    else:
                        del clean[exp]
        self.terms = clean

    @classmethod
    def zero(cls, nvars, order):
        return cls(nvars, order)

    @classmethod
    def constant(cls, nvars, order, c):
        return cls(nvars, order, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, order, i):
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, order, {exp: Fraction(1)})

    def _check(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise TruncationMismatch(
                "ring mismatch: (%d vars, order %d) vs (%d vars, order %d)"
                % (self.nvars, self.order, other.nvars, other.order))

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UnfoldRingElem.constant(self.nvars, self.order, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            c0 = terms.get(exp)
            c = c + c0 if c0 is not None else c
            if c:
                terms[exp] = c
            elif exp in terms:
                del terms[exp]
        out = UnfoldRingElem.__new__(UnfoldRingElem)
        out.nvars, out.order, out.terms = self.nvars, self.order, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = UnfoldRingElem.__new__(UnfoldRingElem)
        out.nvars, out.order = self.nvars, self.order
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UnfoldRingElem.constant(self.nvars, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = UnfoldRingElem.__new__(UnfoldRingElem)
            out.nvars, out.order = self.nvars, self.order
            out.terms = {e: c * v for e, v in self.terms.items()} if c else {}
            return out
        self._check(other)
        order = self.order
        terms = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                c0 = terms.get(e)
                c = c + c0 if c0 is not None else c
                if c:
                    terms[e] = c
                elif e in terms:
                    del terms[e]
        out = UnfoldRingElem.__new__(UnfoldRingElem)
        out.nvars, out.order, out.terms = self.nvars, order, terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        out = UnfoldRingElem.constant(self.nvars, self.order, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UnfoldRingElem.constant(self.nvars, self.order, other)
        if not isinstance(other, UnfoldRingElem):
            return NotImplemented
        return (self.nvars == other.nvars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self.terms.items())))

    def truncate(self, order):
        """Image in the smaller quotient Q[u]/m^(order+1)."""
        if order > self.order:
            raise TruncationMismatch(
                "cannot extend truncation order %d to %d" % (self.order, order))
        return UnfoldRingElem(self.nvars, order, self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append("u%d" % (i + 1))
                elif e:
                    factors.append("u%d^%d" % (i + 1, e))
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append("%s*%s" % (c, mono))
        return " + ".join(parts)

    __repr__ = __str__


def exp_series(elem, order=None):
    """exp(elem) in the truncated ring; elem must have zero constant term."""
    if elem.constant_term():
        raise ValueError("exp of an element with nonzero constant term")
    out = UnfoldRingElem.constant(elem.nvars, elem.order, 1)
    power = UnfoldRingElem.constant(elem.nvars, elem.order, 1)
    fact = 1
    for k in range(1, elem.order + 1):
        power = power * elem
        if power.is_zero():
            break
        fact *= k
        out = out + power * Fraction(1, fact)
    return out
