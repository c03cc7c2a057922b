import math
from fractions import Fraction

import pytest

from saitoforms.brieskorn import ReducedClass, reduce_monomial
from saitoforms.mpoly import MPoly
from saitoforms.parsing import parse_poly
from saitoforms.singularity import P1MirrorData, analyze
from saitoforms.unfolding import (
    OppositeFiltration, OscillatorData, oscillating_projection,
    positive_bound, z_product,
)


def var(name, variables):
    return MPoly.variable(name, variables)


def make_a(k):
    """A_k chain singularity z^(k+1), weights (1/(k+1),)."""
    f = var("z", ("z",)) ** (k + 1)
    return analyze(f, [Fraction(1, k + 1)])


def make_a_normalized(m):
    """z^(m+1)/(m+1): the normalization whose derivative is z^m."""
    f = var("z", ("z",)) ** (m + 1) * Fraction(1, m + 1)
    return analyze(f, [Fraction(1, m + 1)])


@pytest.fixture(scope="session")
def a2():
    return make_a(2)


@pytest.fixture(scope="session")
def e6_cusp():
    v = ("x", "y")
    return analyze(var("x", v) ** 3 + var("y", v) ** 4,
                   [Fraction(1, 3), Fraction(1, 4)])


@pytest.fixture(scope="session")
def e12():
    v = ("x", "y")
    return analyze(var("x", v) ** 3 + var("y", v) ** 7,
                   [Fraction(1, 3), Fraction(1, 7)])


@pytest.fixture(scope="session")
def e13():
    v = ("x", "y")
    return analyze(var("x", v) ** 3 + var("x", v) * var("y", v) ** 5,
                   [Fraction(1, 3), Fraction(2, 15)])


@pytest.fixture(scope="session")
def elliptic():
    """Simple elliptic cone point (z1^3 + z2^3 + z3^3)/3."""
    v = ("z1", "z2", "z3")
    f = (var("z1", v) ** 3 + var("z2", v) ** 3 + var("z3", v) ** 3) \
        * Fraction(1, 3)
    return analyze(f, [Fraction(1, 3)] * 3)


@pytest.fixture(scope="session")
def quartic_pair():
    """(x^4 + y^4)/4: one odd anti-diagonal gap, moduli dimension 1."""
    v = ("x", "y")
    f = (var("x", v) ** 4 + var("y", v) ** 4) * Fraction(1, 4)
    return analyze(f, [Fraction(1, 4), Fraction(1, 4)])


@pytest.fixture(scope="session")
def p1_q2():
    return P1MirrorData(2)


# (f, variables, weights) checked against independent oracles: A2, E6,
# E12, E13, the elliptic cone, a loop polynomial and x^6 + y^6 + x^3 y^3.
ORACLE_ZOO = [
    ("z^3", ("z",), ["1/3"]),
    ("x^3 + y^4", ("x", "y"), ["1/3", "1/4"]),
    ("x^3 + y^7", ("x", "y"), ["1/3", "1/7"]),
    ("x^3 + x*y^5", ("x", "y"), ["1/3", "2/15"]),
    ("1/3*z1^3 + 1/3*z2^3 + 1/3*z3^3", ("z1", "z2", "z3"), ["1/3"] * 3),
    ("x^3*y + y^3*z + z^3*x", ("x", "y", "z"), ["1/4"] * 3),
    ("x^6 + y^6 + x^3*y^3", ("x", "y"), ["1/6", "1/6"]),
]


def analyze_oracle_case(case, orthogonalize=True):
    f, variables, weights = case
    return analyze(parse_poly(f, variables),
                   [Fraction(q) for q in weights], orthogonalize)


def monomials_up_to(data, degree):
    """Every exponent of weighted degree at most `degree`."""
    found = [()]
    for q in data.weights:
        found = [e + (k,) for e in found
                 for k in range(int(degree / q) + 1)]
    return [e for e in found
            if data.weights.degree_of_exponent(e) <= degree]


# --- small exact helpers only the tests use ---------------------------

def mat_mul(a, b):
    """The product of two dense Fraction matrices."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def in_row_space(vector, echelon, pivots):
    """Whether vector lies in the span of linalg.row_space_basis's rows."""
    row = list(vector)
    for erow, p in zip(echelon, pivots):
        if row[p]:
            c = row[p]
            row = [x - c * y for x, y in zip(row, erow)]
    return all(x == 0 for x in row)


def subs_values(poly, values):
    """poly evaluated at the point {name: Fraction}, exactly."""
    total = Fraction(0)
    for exp, c in poly.terms.items():
        for name, e in zip(poly.variables, exp):
            c *= Fraction(values[name]) ** e
        total += c
    return total


# --- the oscillating projection in ring order -------------------------

def ring_order_projection(unf, classes, filtration, floor=None):
    """oscillating_projection computed the other way round, as an oracle:
    each product term (t0, h, r) of a class is first multiplied out to
    the ring-coefficient polynomial r * h, then each z-term of
    (F-f)^K/K! from unf.exp_powers(), a ring element, times it through
    z_product, every product monomial reduced with its ring coefficient,
    then the phi coordinates rewritten into Phi(c) coordinates. With a
    floor it makes the ring-order cut: a z-term of (F-f)^K/K! whose
    products all reduce below the floor is skipped."""
    base = unf.base
    mu = base.mu
    graded = floor is not None and base.mode != "laurent"
    if graded:
        scale = math.lcm(*(q.denominator for q in base.weights))

        def degree(e):
            return sum(int(q * scale) * x for q, x in zip(base.weights, e))
    out = []
    for terms in classes:
        acc = ReducedClass(mu)
        for t0, h, r in terms:
            if not h:
                continue
            h = [(e, r * c) for e, c in h.items()]
            for K, power in enumerate(unf.exp_powers()):
                items = list(power.items())
                if graded:
                    top = max(degree(e) for e, _ in h)
                    items = [(e, c) for e, c in items if degree(e) + top
                             >= (floor + K - t0) * scale]
                for exp, coeff in z_product(items, h).items():
                    if coeff:
                        acc.add_scaled(reduce_monomial(base, exp), coeff,
                                       t0 - K)
        upper = {}
        for k, vec in acc.coeffs.items():
            for l, x in enumerate(vec):
                for j, w in enumerate(filtration.inv[l]):
                    if x and w:
                        row = upper.setdefault(k + filtration.t_power(l, j),
                                               [unf.ring_zero()] * mu)
                        row[j] = row[j] + x * w
        out.append(ReducedClass(mu, {k: row for k, row in upper.items()
                                     if floor is None or k >= floor}))
    return out


def phi_classes(unf, filtration):
    """Each Phi_i as product terms with the ring coefficient 1, the input
    of oscillating_projection for the oscillator rows."""
    one = unf.ring_one()
    return [[(t0, h, one) for t0, h in filtration.upper(i)]
            for i in range(unf.base.mu)]


def full_oscillator_family(unf, c=None):
    """The whole A^(k) family down to k = -N: row i of A^(k) is the t^k
    part of the oscillating projection of Phi_i with no floor."""
    filt = OppositeFiltration(unf.base, c)
    mu = unf.base.mu
    rows = oscillating_projection(unf, phi_classes(unf, filt), filt)
    matrices = {}
    for i, row in enumerate(rows):
        for k, vec in row.coeffs.items():
            matrices.setdefault(k, [[unf.ring_zero()] * mu
                                    for _ in range(mu)])[i] = list(vec)
    return OscillatorData(unf, filt, matrices, positive_bound(unf.base, unf.N))


# --- series oracles for the simple elliptic family ---------------------

def elliptic_g(order):
    """1 + sum (-1)^r s^(3r) prod_{j<=r}(3j-2)^3 / (3r)!"""
    out = {0: Fraction(1)}
    for r in range(1, order // 3 + 1):
        num = Fraction((-1) ** r)
        for j in range(1, r + 1):
            num *= Fraction(3 * j - 2) ** 3
        out[3 * r] = num / math.factorial(3 * r)
    return out


def elliptic_h(order):
    """s + sum (-1)^r s^(3r+1) prod_{j<=r}(3j-1)^3 / (3r+1)!"""
    out = {1: Fraction(1)}
    for r in range(1, (order - 1) // 3 + 1):
        num = Fraction((-1) ** r)
        for j in range(1, r + 1):
            num *= Fraction(3 * j - 1) ** 3
        out[3 * r + 1] = num / math.factorial(3 * r + 1)
    return out


def series_reciprocal(series, order):
    a0 = series.get(0)
    inv = {0: 1 / a0}
    for k in range(1, order + 1):
        acc = sum(series.get(m, 0) * inv.get(k - m, 0)
                  for m in range(1, k + 1))
        inv[k] = -acc / a0
    return inv


def series_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}
