"""Small exact linear algebra over Fraction matrices.

Matrices are immutable tuples of tuples so they can live inside hashable,
frozen dataclasses. Everything here is exact; float conversion happens only
at the numpy boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]
IntMat = tuple[tuple[int, ...], ...]


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, x: Vec) -> Vec:
    return tuple(sum(c * xc for c, xc in zip(row, x)) for row in a)


def dot(x: Vec, y: Vec) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def det(a: Mat) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return result


def bareiss(a: Sequence[Sequence[int]]) -> tuple[int, IntMat]:
    """Determinant and adjugate of a square integer matrix, fraction-free.

    Gauss-Jordan elimination on [a | I] in which every step divides exactly by
    the previous pivot (Bareiss, Math. Comp. 22, 1968), so each entry stays an
    integer minor of the input. With p the last pivot and s the sign of the
    row swaps, the left block ends as p*I and the right block as p*a^-1, so
    det a = s*p and adj a = s*(right block). A singular matrix has no last
    pivot; its adjugate is built from the cofactors instead.
    """
    n = len(a)
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    sign, previous = 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_row is None:
            return 0, _cofactor_adjugate(a)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for r in range(n):
            factor = rows[r][k]
            if r != k and (factor or pivot != previous):
                rows[r] = [
                    (pivot * x - factor * y) // previous
                    for x, y in zip(rows[r], rows[k])
                ]
        previous = pivot
    return sign * previous, tuple(tuple(sign * x for x in row[n:]) for row in rows)


def _cofactor_adjugate(a: Sequence[Sequence[int]]) -> IntMat:
    n = len(a)

    def minor(i: int, j: int) -> int:
        rest = [[*row[:j], *row[j + 1 :]] for k, row in enumerate(a) if k != i]
        return bareiss(rest)[0]

    return tuple(
        tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n)
    )


def inverse(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination; raises ValueError if singular."""
    n = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def solve(a: Mat, b: Vec) -> Vec:
    """Solve a x = b exactly for square invertible a; raises ValueError if singular."""
    return mat_vec(inverse(a), b)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    nrows, ncols = shape(a)
    rows = [list(r) for r in a]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((k for k in range(r, nrows) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][col]:
                factor = rows[k][col]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def nullspace(a: Mat) -> tuple[Vec, ...]:
    """Basis of the exact kernel of a (list of column vectors of length ncols)."""
    nrows, ncols = shape(a)
    if nrows == 0:
        return tuple(tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols))
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def to_float(a: Sequence[Sequence]) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)
