import random
from fractions import Fraction

import pytest

from saitoforms import MPoly, TruncationMismatch, UnfoldRingElem, exp_series


def rand_elem(rng, nvars, order, nterms=5):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        exp = tuple(rng.randrange(order + 1) for _ in range(nvars))
        terms[exp] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return UnfoldRingElem(nvars, order, terms)


def test_construction_truncates():
    e = UnfoldRingElem(1, 2, {(0,): Fraction(1), (3,): Fraction(5)})
    assert e.terms == {(0,): Fraction(1)}


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_elem(rng, 2, 4)
        b = rand_elem(rng, 2, 4)
        c = rand_elem(rng, 2, 4)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_mul_truncates_high_degree():
    u = UnfoldRingElem(1, 3, {(2,): Fraction(1)})
    assert (u * u).terms == {}


def test_truncated_product_matches_plain_product():
    # the truncated product never forms over-order pairs; the reference
    # multiplies without an order and truncates afterwards
    rng = random.Random(4)
    for nvars, order in ((1, 6), (2, 4), (3, 3)):
        for _ in range(30):
            a = rand_elem(rng, nvars, order, nterms=8)
            b = rand_elem(rng, nvars, order, nterms=8)
            plain = MPoly(a.variables, a.terms) * MPoly(b.variables, b.terms)
            assert a * b == plain.truncate(order)


def test_order_mismatch_rejected():
    a = UnfoldRingElem(1, 2, {(0,): Fraction(1)})
    b = UnfoldRingElem(1, 3, {(0,): Fraction(1)})
    with pytest.raises(TruncationMismatch):
        a + b


def test_truncate_downward_only():
    a = UnfoldRingElem(1, 4, {(3,): Fraction(1), (1,): Fraction(2)})
    t = a.truncate(2)
    assert t.order == 2 and t.terms == {(1,): Fraction(2)}
    with pytest.raises(TruncationMismatch):
        a.truncate(5)


def test_exp_series_matches_factorials():
    u = UnfoldRingElem(1, 5, {(1,): Fraction(1)})
    e = exp_series(u)
    import math
    for k in range(6):
        assert e.terms.get((k,), 0) == Fraction(1, math.factorial(k))


def test_exp_series_homomorphism():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_elem(rng, 2, 4)
        b = rand_elem(rng, 2, 4)
        a = a - UnfoldRingElem(2, 4, {(0, 0): a.terms.get((0, 0), Fraction(0))})
        b = b - UnfoldRingElem(2, 4, {(0, 0): b.terms.get((0, 0), Fraction(0))})
        assert exp_series(a + b) == exp_series(a) * exp_series(b)


def test_exp_series_needs_zero_constant():
    with pytest.raises(ValueError):
        exp_series(UnfoldRingElem(1, 3, {(0,): Fraction(1)}))


def test_exp_series_needs_a_truncation_order():
    # an untruncated element has an exponential series with no last term
    u = MPoly(("u1",), {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="no truncation order"):
        exp_series(u)
