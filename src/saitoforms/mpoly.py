"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent tuples to nonzero Fractions.
Negative exponents are permitted when the polynomial is flagged as Laurent.
A polynomial with a truncation order N lives in Q[x]/m^(N+1), m the ideal
of the variables: terms of total degree above N are dropped at
construction and in products, and both sides of an operation must share
the order. Monomial comparisons use graded reverse lexicographic
(grevlex) order.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from operator import add, mul, neg


class PolynomialError(Exception):
    pass


class TruncationMismatch(PolynomialError):
    pass


def exact_rational(what, value):
    """value as a Fraction when it is exact, an int (not a bool) or a
    Fraction, else a ValueError naming what: Fraction() would read a
    float as its binary fraction and a bool as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError("%s %r is not an exact rational (an int or a "
                         "Fraction)" % (what, value))
    return Fraction(value)


def grevlex_key(exp):
    """Sort key realizing grevlex: compare total degree, then reversed
    exponents with the *smallest* last variable winning ties."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True if monomial a divides monomial b (componentwise)."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b, a):
    """Exponent of monomial b / monomial a."""
    return tuple(x - y for x, y in zip(b, a))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class MPoly:
    """Polynomial (or Laurent polynomial) in named variables, truncated
    above total degree `order` when one is given."""

    __slots__ = ("variables", "terms", "laurent", "order")

    def __init__(self, variables, terms=None, laurent=False, order=None):
        self.variables = tuple(variables)
        self.laurent = laurent
        self.order = order
        clean = {}
        n = len(self.variables)
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != n:
                    raise PolynomialError(
                        "exponent arity %d != %d variables" % (len(exp), n))
                if not laurent and any(e < 0 for e in exp):
                    raise PolynomialError(
                        "negative exponent %r in non-Laurent polynomial" % (exp,))
                if order is not None and sum(exp) > order:
                    continue
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    c0 = clean.get(exp)
                    c = c + c0 if c0 is not None else c
                    if c:
                        clean[exp] = c
                    else:
                        del clean[exp]
        self.terms = clean

    def _like(self, terms, laurent=None):
        """A polynomial in the same variables and order with the given
        (already clean) terms."""
        out = MPoly.__new__(MPoly)
        out.variables = self.variables
        out.laurent = self.laurent if laurent is None else laurent
        out.order = self.order
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables, laurent=False):
        return cls(variables, {}, laurent)

    @classmethod
    def constant(cls, variables, c, laurent=False, order=None):
        n = len(variables)
        return cls(variables, {(0,) * n: c}, laurent, order)

    @classmethod
    def variable(cls, name, variables, laurent=False):
        variables = tuple(variables)
        i = variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exp: 1}, laurent)

    @classmethod
    def monomial(cls, variables, exp, coeff=1, laurent=False):
        return cls(variables, {tuple(exp): coeff}, laurent)

    def _scalar(self, c):
        return MPoly.constant(self.variables, c, self.laurent, self.order)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def _check(self, other):
        if self.variables != other.variables:
            raise PolynomialError(
                "variable mismatch: %r vs %r" % (self.variables, other.variables))
        if self.order != other.order:
            raise TruncationMismatch(
                "truncation order mismatch: %r vs %r"
                % (self.order, other.order))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        self._check(other)
        big, small = self.terms, other.terms
        if len(small) > len(big):
            big, small = small, big
        terms = dict(big)
        for exp, c in small.items():
            c0 = terms.get(exp)
            c = c + c0 if c0 is not None else c
            if c:
                terms[exp] = c
            elif exp in terms:
                del terms[exp]
        return self._like(terms, self.laurent or other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._like({e: c * v for e, v in self.terms.items()}
                              if c else {})
        self._check(other)
        order = self.order
        right = list(other.terms.items())
        if order is not None:
            # Over-order pairs are never formed: the right terms sorted by
            # degree are cut where the left term's room runs out.
            right.sort(key=lambda term: sum(term[0]))
            degrees = [sum(e) for e, _ in right]
        terms = {}
        for e1, c1 in self.terms.items():
            part = right if order is None else \
                right[:bisect_right(degrees, order - sum(e1))]
            for e2, c2 in part:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                c0 = terms.get(e)
                c = c + c0 if c0 is not None else c
                if c:
                    terms[e] = c
                elif e in terms:
                    del terms[e]
        return self._like(terms, self.laurent or other.laurent)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise PolynomialError("the power of a polynomial needs a "
                                  "nonnegative integer exponent, got %r"
                                  % (k,))
        if len(self.terms) == 1:
            # A single term is raised in one step; past the order it is 0.
            (exp, c), = self.terms.items()
            if self.order is not None and sum(exp) * k > self.order:
                return self._like({})
            return self._like({tuple(e * k for e in exp): c ** k})
        out = self._scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.variables == other.variables
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.order,
                     frozenset(self.terms.items())))

    def truncate(self, order):
        """Image in the smaller quotient Q[x]/m^(order+1)."""
        if self.order is not None and order > self.order:
            raise TruncationMismatch(
                "cannot extend truncation order %d to %d"
                % (self.order, order))
        return MPoly(self.variables, self.terms, self.laurent, order)

    # -- calculus and structure ---------------------------------------

    def diff(self, var):
        """Partial derivative with respect to a named variable or index."""
        i = var if isinstance(var, int) else self.variables.index(var)
        terms = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            terms[tuple(new)] = c * e
        # distinct exponents stay distinct and c * e is nonzero: clean
        return self._like(terms)

    def leading(self):
        """(exponent, coefficient) of the grevlex-largest term."""
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=reverse)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append("%s^%d" % (name, e))
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


class WeightSystem:
    """Rational weights q_i in (0, 1/2] for the variables of a polynomial.

    The weights are also kept as integer numerators `nums` over their least
    common denominator `den`, so that a weighted degree is den times an
    integer: scaled_degree."""

    def __init__(self, weights):
        self.weights = tuple(Fraction(q) for q in weights)
        for q in self.weights:
            if not (0 < q <= Fraction(1, 2)):
                raise PolynomialError("weight %s outside (0, 1/2]" % q)
        self.den = math.lcm(*(q.denominator for q in self.weights))
        self.nums = tuple(int(q * self.den) for q in self.weights)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def scaled_degree(self, exp):
        """den times the weighted degree of exp, an int."""
        return sum(map(mul, self.nums, exp))

    def degree_of_exponent(self, exp):
        return Fraction(self.scaled_degree(exp), self.den)

    def weighted_degree(self, poly):
        """Weighted degree if poly is weighted homogeneous, else None.
        Zero polynomial reports None as well."""
        degs = {self.scaled_degree(e) for e in poly.terms}
        if len(degs) == 1:
            return Fraction(degs.pop(), self.den)
        return None

    def central_charge(self):
        return sum(1 - 2 * q for q in self.weights)
