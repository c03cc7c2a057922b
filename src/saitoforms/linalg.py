"""Dense exact linear algebra over Fraction (small matrices only)."""

from fractions import Fraction


class SingularMatrix(Exception):
    pass


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def mat_inv(a):
    """Inverse by Gauss-Jordan; raises SingularMatrix if not invertible."""
    n = len(a)
    work = [[Fraction(x) for x in row] + ident
            for row, ident in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular at column %d" % col)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def row_space_basis(rows):
    """Row-reduce a list of vectors; returns (echelon_rows, pivot_cols)."""
    echelon = []
    pivots = []
    for row in rows:
        row = list(row)
        for erow, p in zip(echelon, pivots):
            if row[p]:
                c = row[p]
                row = [x - c * y for x, y in zip(row, erow)]
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        inv = 1 / row[p]
        echelon.append([x * inv for x in row])
        pivots.append(p)
    return echelon, pivots

