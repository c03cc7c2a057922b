import random
from fractions import Fraction

import pytest

from saitoforms.linalg import (
    SingularMatrix, identity, mat_inv, row_space_basis,
)

from conftest import in_row_space, mat_mul


def rand_mat(rng, n, m):
    return [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
             for _ in range(m)] for _ in range(n)]


def test_inverse_random():
    rng = random.Random(17)
    done = 0
    while done < 25:
        a = rand_mat(rng, 4, 4)
        try:
            inv = mat_inv(a)
        except SingularMatrix:
            continue
        assert mat_mul(a, inv) == identity(4)
        assert mat_mul(inv, a) == identity(4)
        done += 1


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        mat_inv([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_one_by_one_block_is_one_division():
    assert mat_inv([[Fraction(-3, 4)]]) == [[Fraction(-4, 3)]]
    assert mat_inv([[2]]) == [[Fraction(1, 2)]]


@pytest.mark.parametrize("zero", [Fraction(0), 0])
def test_one_by_one_singular_block_raises(zero):
    with pytest.raises(SingularMatrix, match="^matrix is singular at "
                                             "column 0$"):
        mat_inv([[zero]])


def test_solve_consistency():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_mat(rng, 3, 3)
        try:
            inv = mat_inv(a)
        except SingularMatrix:
            continue
        b = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
        x = [sum(inv[i][j] * b[j] for j in range(3)) for i in range(3)]
        assert [sum(a[i][j] * x[j] for j in range(3)) for i in range(3)] == b


def test_row_space_membership():
    rng = random.Random(8)
    for _ in range(40):
        rows = rand_mat(rng, 4, 6)
        ech, pivots = row_space_basis(rows)
        assert len(ech) == len(pivots)
        for r in rows:
            assert in_row_space(r, ech, pivots)
        # random combinations stay inside
        combo = [Fraction(0)] * 6
        for r in rows:
            c = Fraction(rng.randrange(-3, 4))
            combo = [a + c * b for a, b in zip(combo, r)]
        assert in_row_space(combo, ech, pivots)


def test_row_space_excludes_outside():
    rows = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)]]
    ech, pivots = row_space_basis(rows)
    assert not in_row_space([Fraction(0), Fraction(0), Fraction(1)], ech, pivots)
