"""The higher residue pairing K: the closed-form A_m and P^1 series of
conftest against their defining properties, and singularity.K, which
reads K off the Brieskorn reduction, against those closed forms."""

import random
import re
from fractions import Fraction

import pytest

from saitoforms.brieskorn import reduce_class
from saitoforms.mpoly import MPoly
from saitoforms.singularity import (K, P1MirrorData, analyze,
                                    pairing_univariate)

from conftest import (ORACLE_ZOO, analyze_oracle_case, higher_residue_Am,
                      make_a_normalized, pairing_univariate_Am,
                      pairing_univariate_p1)


def test_closed_form_matches_pairing_with_one():
    for m in range(1, 5):
        for j in range(0, 10):
            closed = higher_residue_Am({j: Fraction(1)}, m, 8)
            paired = pairing_univariate_Am({j: Fraction(1)},
                                           {0: Fraction(1)}, m, 8)
            assert closed == paired


def test_leading_term_is_classical_residue():
    # t^0 coefficient of K(h, 1) equals the residue pairing with 1
    for m in (2, 3, 4):
        data = make_a_normalized(m)
        for j in range(0, 2 * m):
            series = higher_residue_Am({j: Fraction(1)}, m, 6)
            h = MPoly(("z",), {(j,): Fraction(1)})
            assert series.get(0, 0) == data.classical_residue(h)


def test_chain_pairing_sesquisymmetric():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randrange(1, 6)
        a = {rng.randrange(0, 9): Fraction(rng.randrange(-4, 5))}
        b = {rng.randrange(0, 9): Fraction(rng.randrange(-4, 5))}
        kab = pairing_univariate_Am(a, b, m, 8)
        kba = pairing_univariate_Am(b, a, m, 8)
        assert kab == {r: c * (-1) ** r for r, c in kba.items() if c}


def test_chain_degree_law():
    # nonzero t^r needs r = deg(a) + deg(b) - s with deg(z^j) = j/(m+1)
    for m in range(1, 6):
        s = Fraction(m - 1, m + 1)
        for i in range(0, 7):
            for j in range(0, 7):
                series = pairing_univariate_Am({i: Fraction(1)},
                                               {j: Fraction(1)}, m, 8)
                for r, c in series.items():
                    if c:
                        assert r == Fraction(i + j, m + 1) - s


@pytest.mark.parametrize("m", [-1, 0, 1.5, Fraction(2), True, "2"],
                         ids=["-1", "0", "1.5", "Fraction", "bool", "str"])
def test_pairing_univariate_rejects_a_bad_m(m):
    # m = -1 raised a bare ZeroDivisionError, 1.5 a TypeError, and True
    # was read as 1
    with pytest.raises(ValueError, match=re.escape(
            "m must be an integer >= 1, got %r" % (m,))):
        pairing_univariate({0: Fraction(1)}, {0: Fraction(1)}, 4, m=m)


def test_global_pairing_values():
    for q in (Fraction(1), Fraction(2), Fraction(-3)):
        one = {0: Fraction(1)}
        phi2 = {-1: q}
        inv = {-1: Fraction(1)}
        assert pairing_univariate_p1(one, one, q, 10) == {}
        assert pairing_univariate_p1(one, phi2, q, 10) == {0: Fraction(-1)}
        assert pairing_univariate_p1(inv, inv, q, 10) == {}


def test_global_pairing_sesquisymmetric():
    for q in (Fraction(2), Fraction(-3)):
        for i in range(-3, 4):
            for j in range(-3, 4):
                a = {i: Fraction(1)}
                b = {j: Fraction(1)}
                kab = pairing_univariate_p1(a, b, q, 8)
                kba = pairing_univariate_p1(b, a, q, 8)
                assert kab == {r: c * (-1) ** r for r, c in kba.items() if c}


def test_dispatcher_routes_both_models():
    a = {1: Fraction(1)}
    assert pairing_univariate(a, a, 6, m=3) == pairing_univariate_Am(a, a, 3, 6)
    assert pairing_univariate(a, a, 6, q=2) == \
        pairing_univariate_p1(a, a, Fraction(2), 6)


# --- singularity.K against oracles that do no reduction ---------------

def _scaled(series, lead):
    """A chain closed form for z^(m+1)/(m+1), rescaled to f' = lead z^m:
    the t^r term is divided by lead^(r+1)."""
    return {r: v / lead ** (r + 1) for r, v in series.items()}


def _poly(terms, variables=("z",), laurent=False):
    return MPoly(variables, terms, laurent=laurent)


def test_K_on_chains_is_the_closed_form_over_the_lead():
    rng = random.Random(20)
    for m in range(1, 7):
        for coeff in (Fraction(1, m + 1), Fraction(1), Fraction(5),
                      Fraction(2, 7)):
            data = analyze(_poly({(m + 1,): coeff}), [Fraction(1, m + 1)])
            pairs = [tuple({rng.randrange(0, 3 * m + 4):
                            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                            for _ in range(rng.randrange(1, 3))}
                           for _ in range(2)) for _ in range(10)]
            got = K(data, [(_poly({(e,): c for e, c in a.items()}),
                            _poly({(e,): c for e, c in b.items()}))
                           for a, b in pairs], 8)
            lead = coeff * (m + 1)
            for (a, b), series in zip(pairs, got):
                assert series == _scaled(pairing_univariate_Am(a, b, m, 8),
                                         lead)


def test_K_on_the_mirror_is_the_residue_series_at_minus_t():
    rng = random.Random(21)
    for q in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5)):
        data = P1MirrorData(q)
        pairs = [tuple({rng.randrange(-4, 5): Fraction(rng.randrange(-3, 4))
                        for _ in range(rng.randrange(1, 4))}
                       for _ in range(2)) for _ in range(15)]
        got = K(data, [(_poly({(e,): c for e, c in a.items()}, laurent=True),
                        _poly({(e,): c for e, c in b.items()}, laurent=True))
                       for a, b in pairs], 6)
        for (a, b), series in zip(pairs, got):
            closed = pairing_univariate_p1(a, b, q, 6)
            assert series == {r: (-1) ** r * v for r, v in closed.items()}


def _series_product(a, b, t_order):
    out = {}
    for r, x in a.items():
        for s, y in b.items():
            if r + s <= t_order:
                out[r + s] = out.get(r + s, 0) + x * y
    return {r: v for r, v in out.items() if v}


@pytest.mark.parametrize("p, r", [(3, 4), (2, 5), (4, 4), (3, 7)])
def test_K_is_thom_sebastiani_on_a_sum_of_chains(p, r):
    # f = x^p/p + y^r/r: K(x^i y^j, x^k y^l) is the product of the chain
    # pairings K(x^i, x^k) on x^p/p and K(y^j, y^l) on y^r/r
    v = ("x", "y")
    f = _poly({(p, 0): Fraction(1, p), (0, r): Fraction(1, r)}, v)
    data = analyze(f, [Fraction(1, p), Fraction(1, r)])
    rng = random.Random(p * 10 + r)
    exps = []
    for n in range(30):
        i, j = rng.randrange(0, 2 * p + 1), rng.randrange(0, 2 * r + 1)
        if n % 2:
            # a partner of complementary degree, so that K can be nonzero
            k = (p - 2 - i) % p + p * rng.randrange(0, 2)
            l = (r - 2 - j) % r + r * rng.randrange(0, 2)
        else:
            k, l = rng.randrange(0, 2 * p + 1), rng.randrange(0, 2 * r + 1)
        exps.append(((i, j), (k, l)))
    got = K(data, [(_poly({a: 1}, v), _poly({b: 1}, v)) for a, b in exps], 6)
    nonzero = 0
    for ((i, j), (k, l)), series in zip(exps, got):
        want = _series_product(
            pairing_univariate_Am({i: Fraction(1)}, {k: Fraction(1)}, p - 1,
                                  6),
            pairing_univariate_Am({j: Fraction(1)}, {l: Fraction(1)}, r - 1,
                                  6), 6)
        assert series == want
        nonzero += bool(series)
    assert nonzero


@pytest.mark.parametrize("case", ORACLE_ZOO, ids=[c[0] for c in ORACLE_ZOO])
def test_K_on_the_basis_is_the_residue_pairing(case):
    data = analyze_oracle_case(case)
    eta = data.residue_pairing_matrix()
    got = K(data, [(a, b) for a in data.basis for b in data.basis], 4)
    assert got == [{0: x} if x else {} for row in eta for x in row]


def test_K_is_sesquilinear_and_sesquisymmetric(e12):
    # [g f_i] = -t [d_i g], so K(t a, b) = t K(a, b) = -K(a, t b) reads
    # K(g f_i, b) = -t K(d_i g, b) and K(a, g f_i) = t K(a, d_i g). Sums
    # of monomials of several degrees reduce to several t-powers.
    v = e12.variables
    rng = random.Random(12)

    def poly():
        return MPoly(v, {(rng.randrange(0, 6), rng.randrange(0, 14)):
                         rng.randrange(1, 5) for _ in range(4)})

    def shift(series, sign):
        return {r + 1: sign * x for r, x in series.items() if r < 6}

    several = odd = 0
    for _ in range(25):
        g, b = poly(), poly()
        i = rng.randrange(2)
        gf, dg = g * e12.partials[i], g.diff(i)
        several += len(reduce_class(e12, gf).rows) > 1
        left, right, down_left, down_right = K(
            e12, [(gf, b), (b, gf), (dg, b), (b, dg)], 6)
        odd += any(r % 2 for r in left)
        assert left == shift(down_left, -1)
        assert right == shift(down_right, 1)
        assert left == {r: (-1) ** r * x for r, x in right.items()}
        a, c = poly(), poly()
        ab, cb = K(e12, [(a, b), (c, b)], 6)
        combined = {r: 2 * ab.get(r, 0) + 3 * cb.get(r, 0)
                    for r in sorted(ab.keys() | cb.keys())}
        assert K(e12, [(a * 2 + c * 3, b)], 6)[0] == \
            {r: x for r, x in combined.items() if x}
    assert several and odd
