"""Reference computations for the benchmark's correctness checks.

Everything here is derived from closed formulas or first principles and
imports nothing from the library it checks. Polynomials are plain dicts
{exponent tuple: Fraction}; series are dicts {power: Fraction}.
"""

import math
from fractions import Fraction


# -- weight systems ------------------------------------------------------


def central_charge(weights):
    """s = sum(1 - 2 q_i)."""
    return sum(1 - 2 * Fraction(q) for q in weights)


def milnor_orlik_mu(weights):
    """Milnor number of a weighted-homogeneous isolated singularity,
    mu = prod(1/q_i - 1) (Milnor-Orlik)."""
    mu = Fraction(1)
    for q in weights:
        mu *= 1 / Fraction(q) - 1
    if mu.denominator != 1:
        raise ValueError("weights %s give a non-integer mu %s" % (weights, mu))
    return int(mu)


def weighted_degree(exp, weights):
    return sum(Fraction(q) * e for q, e in zip(weights, exp))


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_divexact(num, den):
    """Exact quotient of integer polynomials (coefficient lists, lowest
    power first); raises if den does not divide num."""
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quot[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num):
        raise ValueError("inexact polynomial division")
    return quot


def poincare_polynomial(weights):
    """prod (1 - T^(1-q_i)) / (1 - T^(q_i)) written in S = T^(1/L), L the
    common denominator of the weights. Returns (coefficients in S, L)."""
    weights = [Fraction(q) for q in weights]
    lcd = 1
    for q in weights:
        lcd = lcd * q.denominator // math.gcd(lcd, q.denominator)
    num, den = [1], [1]
    for q in weights:
        a = int((1 - q) * lcd)
        b = int(q * lcd)
        num = _int_poly_mul(num, [1] + [0] * (a - 1) + [-1])
        den = _int_poly_mul(den, [1] + [0] * (b - 1) + [-1])
    return _int_poly_divexact(num, den), lcd


def poincare_exponents(weights):
    """Sorted multiset of the exponents of the Poincare polynomial: the
    weighted degrees of any homogeneous Milnor basis."""
    coeffs, lcd = poincare_polynomial(weights)
    out = []
    for k, c in enumerate(coeffs):
        if c < 0:
            raise ValueError("negative Poincare coefficient at T^%s"
                             % Fraction(k, lcd))
        out.extend([Fraction(k, lcd)] * c)
    return out


def monomials_up_to(weights, bound):
    """All exponent tuples of weighted degree <= bound, sorted."""
    weights = [Fraction(q) for q in weights]
    out = []

    def grow(prefix, degree):
        i = len(prefix)
        if i == len(weights):
            out.append(tuple(prefix))
            return
        e = 0
        while degree + e * weights[i] <= bound:
            grow(prefix + [e], degree + e * weights[i])
            e += 1

    grow([], Fraction(0))
    return sorted(out)


# -- plain polynomial arithmetic -----------------------------------------


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def poly_text(terms, variables):
    """Render a polynomial in the job-document syntax ("1/3*x^3+y")."""
    parts = []
    for exp in sorted(terms, reverse=True):
        c = Fraction(terms[exp])
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(variables, exp) if e)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = "%s*%s" % (abs(c), mono)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else (text or "0")


# -- Brieskorn-lattice and grading checks ----------------------------------


def t_shift(classes, shift, scale=1):
    """scale * t^shift * (sum_k t^k v_k), classes as {k: [coeffs]}."""
    return {k + shift: [scale * c for c in vec] for k, vec in classes.items()}


def classes_equal(a, b):
    """Equality of {k: [coeffs]} classes, ignoring zero t-components."""
    def clean(x):
        return {k: list(v) for k, v in x.items() if any(v)}
    return clean(a) == clean(b)


def unit_class(j, mu):
    """The class of the j-th basis element (0-based): t^0 e_j."""
    return {0: [Fraction(int(i == j)) for i in range(mu)]}


def class_degree_defects(classes, degree, basis_degrees):
    """Components t^k v_k[j] of the reduced class of a homogeneous element
    of weighted degree `degree` that break deg t^k phi_j = k + d_j."""
    return [(k, j) for k, vec in classes.items() for j, c in enumerate(vec)
            if c and k + basis_degrees[j] != degree]


def record_grading_defects(records, basis_degrees, u_degrees):
    """Terms of zeta_+ = sum t^q g_qj(u) Phi_j off degree zero, where
    deg t = 1, deg Phi_j = d_j and deg u_l = 1 - d(direction l).
    records: [(q, j 1-based, {u-exponent: coeff})]."""
    out = []
    for q, j, terms in records:
        for exp in terms:
            deg = q + basis_degrees[j - 1] + sum(
                a * d for a, d in zip(exp, u_degrees))
            if deg:
                out.append((q, j, exp))
    return out


def constant_class_defects(records, nu):
    """zeta_+ at u = 0 must be the constant class: coefficient 1 on
    t^0 Phi_1 and 0 everywhere else."""
    zero = (0,) * nu
    out = []
    for q, j, terms in records:
        want = 1 if (q, j) == (0, 1) else 0
        if terms.get(zero, 0) != want:
            out.append((q, j))
    if not any((q, j) == (0, 1) for q, j, _ in records):
        out.append((0, 1))
    return out


# -- simple elliptic periods --------------------------------------------


def elliptic_g(order):
    """Period g(s) = 1 + sum_r (-1)^r s^(3r) prod_{j<=r}(3j-2)^3 / (3r)!."""
    out = {0: Fraction(1)}
    num = Fraction(1)
    for r in range(1, order // 3 + 1):
        num *= -Fraction(3 * r - 2) ** 3
        out[3 * r] = num / math.factorial(3 * r)
    return out


def elliptic_h(order):
    """Period h(s) = s + sum_r (-1)^r s^(3r+1) prod_{j<=r}(3j-1)^3 / (3r+1)!."""
    out = {1: Fraction(1)}
    num = Fraction(1)
    for r in range(1, (order - 1) // 3 + 1):
        num *= -Fraction(3 * r - 1) ** 3
        out[3 * r + 1] = num / math.factorial(3 * r + 1)
    return out


def picard_fuchs_residual(series, order):
    """Coefficients of (1 + s^3) v'' + 3 s^2 v' + s v through s^order,
    for v given through s^(order + 2); all zero for a period."""
    v = series.get
    out = {}
    for n in range(order + 1):
        acc = (n + 2) * (n + 1) * v(n + 2, 0)
        acc += (n - 1) * (n - 2) * v(n - 1, 0)
        acc += 3 * (n - 1) * v(n - 1, 0)
        acc += v(n - 1, 0)
        if acc:
            out[n] = acc
    return out


def series_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def series_reciprocal(series, order):
    """1/series through s^order; series must have a nonzero constant."""
    a0 = Fraction(series[0])
    inv = {0: 1 / a0}
    for k in range(1, order + 1):
        acc = sum(series.get(m, 0) * inv[k - m] for m in range(1, k + 1))
        inv[k] = -acc / a0
    return {k: c for k, c in inv.items() if c}


# -- chain-model pairings -----------------------------------------------


def am_pairing(i, j, m, t_order, scale=Fraction(1)):
    """Higher residue pairing K(z^i, z^j) for f = scale * z^(m+1)/(m+1).

    With D(g) = d/dz(g / f'), D^r(z^i) = prod_{k<r}(i - m - k(m+1))
    z^(i - r(m+1)) / scale^r, so K = sum_r (-t)^r Res(z^j D^r(z^i) dz/f')
    has the single term r = (i + j - m + 1)/(m + 1) when that is a
    nonnegative integer."""
    r, rem = divmod(i + j - m + 1, m + 1)
    if rem or r < 0 or r > t_order:
        return {}
    value = Fraction((-1) ** r) / Fraction(scale) ** (r + 1)
    for k in range(r):
        value *= i - m - k * (m + 1)
    return {r: value} if value else {}


def chain_residue(i, m, scale=Fraction(1)):
    """Classical residue Res[z^i dz / f'] for f = scale * z^(m+1)/(m+1)."""
    return 1 / Fraction(scale) if i == m - 1 else Fraction(0)


def sesquisymmetric(k_ab, k_ba):
    """K(a, b)(t) == K(b, a)(-t) for two series {r: value}."""
    flipped = {r: (-1) ** r * v for r, v in k_ba.items()}
    return {r: v for r, v in k_ab.items() if v} == \
        {r: v for r, v in flipped.items() if v}
