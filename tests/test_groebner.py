import random
from fractions import Fraction

from saitoforms.groebner import (buchberger_with_cofactors, divide,
                                 standard_monomials)
from saitoforms.mpoly import MPoly


def _vars2():
    v = ("x", "y")
    return MPoly.variable("x", v), MPoly.variable("y", v)


def rand_poly(rng, variables, nterms=4, maxdeg=4):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        exp = tuple(rng.randrange(maxdeg + 1) for _ in variables)
        terms[exp] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return MPoly(variables, terms)


def test_divide_reconstructs():
    rng = random.Random(21)
    x, y = _vars2()
    divisors = [x ** 2 + y, x * y - 1]
    for _ in range(50):
        h = rand_poly(rng, ("x", "y"))
        quots, rem = divide(h, divisors)
        acc = rem
        for q, d in zip(quots, divisors):
            acc = acc + q * d
        assert acc == h
        # remainder has no term divisible by a divisor lead
        for exp in rem.terms:
            for d in divisors:
                lead, _ = d.leading()
                assert any(e < le for e, le in zip(exp, lead)) or exp != lead


def test_buchberger_cofactors_express_basis():
    x, y = _vars2()
    gens = [x ** 2, x * y + y ** 3]
    groebner = buchberger_with_cofactors(gens)
    for g, row in groebner:
        acc = MPoly.constant(("x", "y"), 0)
        for c, gen in zip(row, gens):
            acc = acc + c * gen
        assert acc == g


def _normal_form_with_cofactors(h, gb, n_generators):
    """Remainder and cofactors over the original generators, from the
    quotients over the basis and the basis rows."""
    qs, rem = divide(h, [g for g, _ in gb])
    cof = [MPoly.zero(h.variables) for _ in range(n_generators)]
    for q, (_, row) in zip(qs, gb):
        cof = [c + q * r for c, r in zip(cof, row)]
    return rem, cof


def test_normal_form_membership():
    x, y = _vars2()
    gens = [x ** 2 + y ** 2, x * y]
    gb = buchberger_with_cofactors(gens)
    h = (x ** 2 + y ** 2) * (x + 3) + x * y * y
    rem, cof = _normal_form_with_cofactors(h, gb, len(gens))
    assert rem == MPoly.constant(("x", "y"), 0)
    acc = rem
    for c, gen in zip(cof, gens):
        acc = acc + c * gen
    assert acc == h


def test_normal_form_idempotent():
    rng = random.Random(5)
    x, y = _vars2()
    gens = [x ** 3 - y, y ** 2 + x]
    gb = buchberger_with_cofactors(gens)
    for _ in range(30):
        h = rand_poly(rng, ("x", "y"))
        rem, cof = _normal_form_with_cofactors(h, gb, len(gens))
        acc = rem
        for c, gen in zip(cof, gens):
            acc = acc + c * gen
        assert acc == h
        rem2, _ = _normal_form_with_cofactors(rem, gb, len(gens))
        assert rem2 == rem


def test_standard_monomials_milnor_numbers():
    # partial derivative ideals of standard chain/cusp points
    x, y = _vars2()
    cases = [
        ([x ** 2, y ** 3], 6),        # x^3 + y^4
        ([x ** 2, y ** 6], 12),       # x^3 + y^7
        ([3 * x ** 2 + y ** 5, 5 * x * y ** 4], 13),  # x^3 + x*y^5
    ]
    for gens, mu in cases:
        gb = buchberger_with_cofactors(gens)
        std = standard_monomials(gb)
        assert len(std) == mu
        # sorted in increasing grevlex
        assert std == sorted(std, key=lambda e: (sum(e), tuple(-t for t in reversed(e))))
