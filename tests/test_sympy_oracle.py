"""Groebner bases, mu and normal forms checked against sympy (a test-only
dependency; the module is skipped without it)."""

import itertools
import random

import pytest

from saitoforms.mpoly import MPoly, grevlex_key

from conftest import ORACLE_ZOO, analyze_oracle_case, monomials_up_to

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
        assert sympy.expand(_to_sympy(data.normal_form(mono), gens)
                            - rem) == 0
