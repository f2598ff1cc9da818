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
