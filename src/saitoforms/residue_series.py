"""Higher residue pairings for univariate models, as exact t-series.

Two closed-form kernels are implemented:

* A_m, f = z^(m+1)/(m+1), volume form dz:
      K(a, b) = sum_r (-t)^r Res_0( b (1/f') D^r(a) dz ),
      D(g) = d/dz (g / f'),
  whose single-argument specialization is the classical product formula
      sum_r (-t)^r prod_{k<r}(m + k(m+1)) Res_0( h dz / z^(r(m+1)+m) ).

* the P^1 mirror f = z + q/z, volume form dz/z:
      K(a, b) = sum_r t^r (Res_0 + Res_inf)( b (1/(z^2-q)) D^r(a) dz ),
      D(g) = z d/dz ( z g / (z^2 - q) ),
  where all rational functions have denominator a power of P = z^2 - q,
  so both residues are computed from exact finite series expansions.

Both kernels run on Laurent MPolys in the one variable z. The A_m step
is g -> (g z^(-m))'. The P^1 step keeps D^r(a) = num / P^k and maps num
to (z num + z^2 num') P - 2(k+1) z^3 num; the residues of num / P^k dz
at 0 and at infinity read one binomial series of (1 - x w)^(-k).

Values are dicts {t_power: Fraction} without zero values; by convention
K(a,b)(t) equals K(b,a)(-t).
"""

from fractions import Fraction
from math import comb

from .mpoly import MPoly

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
            total += c * comb(k + j - 1, j) * x ** j
    return total


def _p1_residues(num, q, k):
    """(Res_0 + Res_inf)(num / (z^2 - q)^k dz), num a Laurent polynomial:
    at 0, (z^2 - q)^(-k) = (-q)^(-k) (1 - z^2/q)^(-k); at infinity it is
    z^(-2k) (1 - q z^(-2))^(-k), and Res_inf is minus the z^(-1)
    coefficient there."""
    return _binomial_residue(num, k, 1 / q, 0, 2) / (-q) ** k \
        - _binomial_residue(num, k, q, -2 * k, -2)


def pairing_univariate_p1(a, b, q, t_order):
    """K(a, b) for the P^1 mirror through order t^t_order."""
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


def pairing_univariate(a, b, t_order, m=None, q=None):
    """Dispatch on the model: pass m for A_m, q for the P^1 mirror."""
    if (m is None) == (q is None):
        raise ValueError("specify exactly one of m (A_m) or q (P^1 mirror)")
    if m is not None:
        return pairing_univariate_Am(a, b, m, t_order)
    return pairing_univariate_p1(a, b, q, t_order)
