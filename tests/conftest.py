import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from saitoforms import linalg, unfolding
from saitoforms.brieskorn import ReducedClass, reduce_monomial
from saitoforms.groebner import divide
from saitoforms.mpoly import MPoly
from saitoforms.parsing import parse_poly
from saitoforms.singularity import P1MirrorData, analyze
from saitoforms.unfolding import (
    OppositeFiltration, OscillatorData, UnfoldRingElem,
    oscillating_projection, positive_bound, z_product,
)


def var(name, variables):
    return MPoly.variable(name, variables)


def u_degree(unf, exp):
    """The graded weight sum alpha_l (1 - d_l) of a u-monomial, in
    Fractions from the basis degrees: independent of the unfolding's own
    integer grading."""
    return sum((1 - unf.base.degrees[j]) * e for j, e in zip(unf.indices, exp))


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


# mu = 81, s = 2: the anti-diagonal slot (81, 1) has the even gap 2, and
# an opposite filtration can chain the degree-2 row through a degree-1
# row down to degree 0.
QUARTIC_FOURFOLD = ("x^4 + y^4 + z^4 + w^4", ("x", "y", "z", "w"),
                    ["1/4"] * 4)


@pytest.fixture(scope="session")
def quartic_fourfold():
    return analyze_oracle_case(QUARTIC_FOURFOLD)


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


def normal_form(data, h):
    """Remainder of h on division by the Groebner basis of data."""
    return divide(h, [g for g, _ in data.groebner])[1]


def coords(data, terms):
    """Coordinates in the Milnor basis of data of a fully reduced
    polynomial, given by its terms {exponent: coefficient}."""
    out = [Fraction(0)] * data.mu
    for exp, c in terms.items():
        m = data.std_index.get(exp)
        if m is None:
            raise ValueError("%s is not reduced"
                             % MPoly(data.variables, terms))
        for i, v in data.basis_inv[m]:
            out[i] += c * v
    return out


def reference_reduction(data, exp):
    """Reduction of z^exp by the cofactor algorithm, as an oracle for
    brieskorn.reduce_monomial: divide by the Groebner basis, turn the
    quotients into cofactors over the partials through the basis rows,
    and continue with -sum_i d/dz_i cofactor_i."""
    basis = [g for g, _ in data.groebner]
    current = MPoly.monomial(data.variables, exp)
    out = {}
    k = 0
    while current:
        quotients, rem = divide(current, basis)
        if rem:
            out[k] = dict(enumerate(coords(data, rem.terms)))
        nxt = MPoly.zero(data.variables)
        for i in range(data.n):
            cofactor = MPoly.zero(data.variables)
            for q, (_, row) in zip(quotients, data.groebner):
                cofactor = cofactor + q * row[i]
            nxt = nxt - cofactor.diff(i)
        current = nxt
        k += 1
    return ReducedClass(data.mu, out)


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


def dense_basis_inverse(data):
    """basis_inv rebuilt from the whole mu x mu matrix of the basis in
    standard-monomial coordinates by one inversion, as an oracle for the
    inversion one degree slice at a time."""
    mat = [[Fraction(0)] * data.mu for _ in range(data.mu)]
    for i, phi in enumerate(data.basis):
        for exp, c in phi.terms.items():
            mat[i][data.std_index[exp]] = c
    return [[(i, v) for i, v in enumerate(row) if v]
            for row in linalg.mat_inv(mat)]


def count_products(monkeypatch):
    """A list that gains one entry at each MPoly product until the
    monkeypatch is undone: the work guards of the projection count its
    products with it."""
    calls = []
    mul = MPoly.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting)
    return calls


def count_reductions(monkeypatch):
    """Records of the projection's reductions until the monkeypatch is
    undone: .reduced gains the P of each Projector._reduce call, and
    .monomials the exponent of each reduce_monomial call the projection
    makes."""
    seen = SimpleNamespace(reduced=[], monomials=[])
    reduce, reduce_mono = unfolding.Projector._reduce, \
        unfolding.reduce_monomial

    def reducing(self, P, t0, h):
        seen.reduced.append(P)
        return reduce(self, P, t0, h)

    def reducing_monomial(base, exp):
        seen.monomials.append(exp)
        return reduce_mono(base, exp)

    monkeypatch.setattr(unfolding.Projector, "_reduce", reducing)
    monkeypatch.setattr(unfolding, "reduce_monomial", reducing_monomial)
    return seen


# --- the oscillating projection in ring order -------------------------

def full_floor(unf, classes):
    """t_min - N, t_min the least t-power of the classes' product terms:
    the floor at which oscillating_projection keeps every t-power. P_alpha
    lowers t by at most |alpha|, the factor of the constant direction by
    at most N - |gamma| <= N - |alpha|, and the reduction and the inverse
    basis change only raise it."""
    return min(t0 for terms in classes for t0, _, _ in terms) - unf.N


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
                for j, w in filtration.inverse[l].items():
                    if x:
                        row = upper.setdefault(k + filtration.t_power(l, j),
                                               {})
                        row[j] = row.get(j, unf.ring_zero()) + x * w
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
    part of the oscillating projection of Phi_i at the floor -N."""
    filt = OppositeFiltration(unf.base, c)
    mu = unf.base.mu
    classes = phi_classes(unf, filt)
    rows = oscillating_projection(unf, classes, filt,
                                  full_floor(unf, classes))
    matrices = {}
    for i, row in enumerate(rows):
        for k, vec in row.coeffs.items():
            matrices.setdefault(k, [[unf.ring_zero()] * mu
                                    for _ in range(mu)])[i] = list(vec)
    return OscillatorData(unf, filt, matrices, positive_bound(unf.base, unf.N))


def recursive_solve(unf, filtration):
    """zeta_+ as [(t-power, 1-based j, {u-exponent: Fraction})], by the
    recursion of primitive.solve_primitive with each part read from
    oscillating_projection: zeta^(d) is minus the u-degree-d part of the
    projection of the whole of zeta^(<d) at the floor 0. Each projection
    walks every term from alpha = 0, applies the factor of the constant
    direction and keeps nothing, so this is an oracle for the solve's
    walk records and replays."""
    zeta = {(0, 0): {(0,) * unf.nu: Fraction(1)}}
    for d in range(1, unf.N + 1):
        terms = [(q + t0, h, UnfoldRingElem(unf.nu, unf.N, poly))
                 for (q, j), poly in zeta.items()
                 for t0, h in filtration.upper(j)]
        projected, = oscillating_projection(unf, [terms], filtration, 0)
        for k, row in projected.rows.items():
            for j, elem in row.items():
                part = {g: -c for g, c in elem.terms.items() if sum(g) == d}
                if part:
                    zeta.setdefault((k, j), {}).update(part)
    return sorted((q, j + 1, poly) for (q, j), poly in zeta.items())


# --- closed-form higher residue pairings of the univariate models -----
#
# Oracles for singularity.K, which reads K off the Brieskorn reduction;
# these do no reduction:
#
# * A_m, f = z^(m+1)/(m+1), volume form dz:
#       K(a, b) = sum_r (-t)^r Res_0( b (1/f') D^r(a) dz ),
#       D(g) = d/dz (g / f'),
#   whose single-argument specialization is the classical product formula
#       sum_r (-t)^r prod_{k<r}(m + k(m+1)) Res_0( h dz / z^(r(m+1)+m) ).
#
# * the P^1 mirror f = z + q/z, volume form dz/z:
#       K(a, b) = sum_r t^r (Res_0 + Res_inf)( b (1/(z^2-q)) D^r(a) dz ),
#       D(g) = z d/dz ( z g / (z^2 - q) ),
#   where all rational functions have denominator a power of P = z^2 - q,
#   so both residues are computed from exact finite series expansions.
#   Its sign convention is the opposite one: K(t a, b) = -t K(a, b), so
#   this series at -t is singularity.K's.
#
# Both run on Laurent MPolys in the one variable z. The A_m step is
# g -> (g z^(-m))'. The P^1 step keeps D^r(a) = num / P^k and maps num
# to (z num + z^2 num') P - 2(k+1) z^3 num; the residues of num / P^k dz
# at 0 and at infinity read one binomial series of (1 - x w)^(-k).
# Values are dicts {t_power: Fraction} without zero values.

_Z = ("z",)


def _laurent(h):
    """A {power: coeff} dict or a one-variable MPoly, as one in z."""
    if isinstance(h, MPoly):
        if len(h.variables) != 1:
            raise ValueError("univariate pairing needs one variable")
        terms = h.terms
    else:
        terms = {(int(e),): c for e, c in dict(h).items()}
    return MPoly(_Z, terms, laurent=True)


def _monomial(e, c=1):
    return MPoly(_Z, {(e,): c}, laurent=True)


def _res0(a, b):
    """Res_0(a b dz), the z^(-1) coefficient of a * b, read off without
    forming the product."""
    b = b.terms
    return sum((c * b[(-1 - e,)] for (e,), c in a.terms.items()
                if (-1 - e,) in b), Fraction(0))


def higher_residue_Am(h, m, t_order):
    """Closed-form higher residue of a single class in the A_m model."""
    h = _laurent(h)
    out = {}
    product = Fraction(1)
    for r in range(t_order + 1):
        # Res_0(h dz / z^(r(m+1)+m)) is the z^(r(m+1)+m-1) coefficient.
        value = product * h.terms.get((r * (m + 1) + m - 1,), 0) * (-1) ** r
        if value:
            out[r] = value
        product *= m + r * (m + 1)
    return out


def pairing_univariate_Am(a, b, m, t_order):
    """K(a, b) for the A_m model through order t^t_order."""
    g, b = _laurent(a), _laurent(b)
    out = {}
    for r in range(t_order + 1):
        g = g._like({(e - m,): c for (e,), c in g.terms.items()})
        value = _res0(b, g) * (-1) ** r
        if value:
            out[r] = value
        g = g.diff(0)
    return out


def _binomial_residue(num, k, x, lead, step):
    """The z^(-1) coefficient of num z^lead (1 - x z^step)^(-k), by
    (1 - x w)^(-k) = sum_j binom(k+j-1, j) x^j w^j."""
    total = Fraction(0)
    for (e,), c in num.terms.items():
        j, off = divmod(-1 - e - lead, step)
        if not off and j >= 0:
            total += c * math.comb(k + j - 1, j) * x ** j
    return total


def _p1_residues(num, q, k):
    """(Res_0 + Res_inf)(num / (z^2 - q)^k dz), num a Laurent polynomial:
    at 0, (z^2 - q)^(-k) = (-q)^(-k) (1 - z^2/q)^(-k); at infinity it is
    z^(-2k) (1 - q z^(-2))^(-k), and Res_inf is minus the z^(-1)
    coefficient there."""
    return _binomial_residue(num, k, 1 / q, 0, 2) / (-q) ** k \
        - _binomial_residue(num, k, q, -2 * k, -2)


def pairing_univariate_p1(a, b, q, t_order):
    """K(a, b) for the P^1 mirror through order t^t_order, in the
    convention K(t a, b) = -t K(a, b)."""
    q = Fraction(q)
    num, b = _laurent(a), _laurent(b)
    z, z2 = _monomial(1), _monomial(2)
    P = z2 - q
    out = {}
    k = 0                         # D^r(a) = num / P^k
    for r in range(t_order + 1):
        value = _p1_residues(b * num, q, k + 1)
        if value:
            out[r] = value
        num = (z * num + z2 * num.diff(0)) * P \
            + _monomial(3, -2 * (k + 1)) * num
        k += 2
    return out


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
