"""Groebner bases, mu, normal forms and the higher residue pairings
checked against sympy (a test-only dependency; the module is skipped
without it)."""

import itertools
import random
from fractions import Fraction

import pytest

from saitoforms.mpoly import MPoly, grevlex_key

from conftest import (ORACLE_ZOO, analyze_oracle_case, monomials_up_to,
                      normal_form, pairing_univariate_Am,
                      pairing_univariate_p1)

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import grevlex  # noqa: E402


def _to_sympy(poly, gens):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[g ** e for g, e in zip(gens, exp)])
        for exp, c in poly.terms.items()])


def test_sympy_grevlex_is_grevlex_key():
    exps = list(itertools.product(range(4), repeat=3))
    random.Random(3).shuffle(exps)
    assert sorted(exps, key=grevlex) == sorted(exps, key=grevlex_key)


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_groebner_mu_and_normal_forms_match_sympy(case):
    data = analyze_oracle_case(case)
    gens = sympy.symbols(list(data.variables))
    theirs = sympy.groebner([_to_sympy(p, gens) for p in data.partials],
                            *gens, order="grevlex", domain=sympy.QQ)
    # same ideal: inter-reducing our basis gives sympy's reduced basis
    ours = sympy.groebner([_to_sympy(g, gens) for g, _ in data.groebner],
                          *gens, order="grevlex", domain=sympy.QQ)
    assert set(ours.exprs) == set(theirs.exprs)
    leads = [p.monoms(order="grevlex")[0] for p in theirs.polys]
    assert sorted(g.leading()[0] for g, _ in data.groebner) == sorted(leads)
    # mu: the monomials outside sympy's leading-term ideal, counted in the
    # box cut out by its pure powers
    box = [min(le[i] for le in leads if sum(le) == le[i])
           for i in range(data.n)]
    standard = [e for e in itertools.product(*map(range, box))
                if not any(all(a >= b for a, b in zip(e, le))
                           for le in leads)]
    assert data.mu == len(standard)
    sample = monomials_up_to(data, data.s + 3)
    for exp in random.Random(len(sample)).sample(sample,
                                                 min(len(sample), 20)):
        mono = MPoly.monomial(data.variables, exp)
        _, rem = sympy.reduced(_to_sympy(mono, gens), theirs.exprs, *gens,
                               order="grevlex")
        assert sympy.expand(_to_sympy(normal_form(data, mono), gens)
                            - rem) == 0


# -- higher residue pairings from their defining formulas -----------------

def _series_of(terms, z):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * z ** e
                       for e, c in terms.items()])


def _res_inf(expr, z):
    """Res_inf(expr dz) = -Res_0(expr(1/w) / w^2 dw), after z = 1/w."""
    w = sympy.Dummy("w")
    return -sympy.residue(expr.subs(z, 1 / w) / w ** 2, w, 0)


def _sympy_pairing(a, b, t_order, res, kernel, step, sign):
    z = sympy.Symbol("z")
    a, b = _series_of(a, z), _series_of(b, z)
    out = {}
    for r in range(t_order + 1):
        value = sign ** r * res(sympy.cancel(b * a / kernel(z)), z)
        if value:
            out[r] = Fraction(int(value.p), int(value.q))
        a = sympy.cancel(step(a, z))
    return out


AM_PAIRS = [
    (2, {4: 1, 7: 3}, {0: 1, 6: 1, 8: 3}),
    (3, {4: 2, 8: 2, 15: 1}, {2: 2, 4: 3, 10: 1}),
    (4, {1: 3, 6: 2, 11: 1}, {2: 2, 12: 3, 24: 2}),
]


@pytest.mark.parametrize("m, a, b", AM_PAIRS)
def test_am_pairing_matches_its_defining_formula(m, a, b):
    # K(a, b) = sum_r (-t)^r Res_0(b D^r(a) / f' dz), D(g) = (g / f')'
    want = _sympy_pairing(
        a, b, 4, lambda h, z: sympy.residue(h, z, 0),
        lambda z: z ** m, lambda g, z: sympy.diff(g / z ** m, z), -1)
    assert len(want) >= 4
    assert pairing_univariate_Am(a, b, m, 4) == want


P1_PAIRS = [
    ({-1: 1, 0: 1}, {5: 1, 6: 1}),
    ({-5: Fraction(1, 2)}, {0: 1, 1: 3}),
]


@pytest.mark.parametrize("a, b", P1_PAIRS)
def test_p1_pairing_matches_its_defining_formula(a, b):
    # K(a, b) = sum_r t^r (Res_0 + Res_inf)(b D^r(a) / (z^2 - q) dz),
    # D(g) = z (z g / (z^2 - q))', at q = 2
    q = 2
    want = _sympy_pairing(
        a, b, 4, lambda h, z: sympy.residue(h, z, 0) + _res_inf(h, z),
        lambda z: z ** 2 - q,
        lambda g, z: z * sympy.diff(z * g / (z ** 2 - q), z), 1)
    assert len(want) >= 3
    assert pairing_univariate_p1(a, b, q, 4) == want
