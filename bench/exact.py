"""The benchmark's own exact arithmetic: determinants, Cramer's rule, cone
membership and wall structure.

Nothing here imports the package under test, so answers and witness checks
built on it are independent of the code being measured.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return result


def cramer(generators: Sequence[Vec], x: Sequence) -> Optional[Vec]:
    """Coefficients a with sum a_i g_i = x by Cramer's rule, or None if the
    generators are dependent."""
    d = det(generators)
    if d == 0:
        return None
    coeffs = []
    for i in range(len(generators)):
        replaced = list(generators)
        replaced[i] = tuple(Fraction(v) for v in x)
        coeffs.append(det(replaced) / d)
    return tuple(coeffs)


def in_closed_cone(generators: Sequence[Vec], x: Sequence) -> bool:
    coeffs = cramer(generators, x)
    return coeffs is not None and all(a >= 0 for a in coeffs)


def in_open_cone(generators: Sequence[Vec], x: Sequence) -> bool:
    coeffs = cramer(generators, x)
    return coeffs is not None and all(a > 0 for a in coeffs)


def walls(simplices: Iterable[Sequence[int]]) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
    """Codimension-one faces mapped to (maximal simplex, opposite vertex) pairs."""
    out: dict[tuple[int, ...], list] = {}
    for s in simplices:
        for p in s:
            out.setdefault(tuple(v for v in s if v != p), []).append((tuple(s), p))
    return out


def wall_normal(generators: Sequence[Vec], n: int) -> Optional[Vec]:
    """A nonzero normal of the hyperplane spanned by n - 1 generators, from the
    cofactor expansion of det(x, g_1, ..., g_{n-1})."""
    if n == 1:
        return (Fraction(1),)
    normal = []
    for k in range(n):
        minor = [[g[j] for j in range(n) if j != k] for g in generators]
        normal.append((-1) ** k * det(minor))
    return tuple(normal) if any(normal) else None


def dot(x: Sequence, y: Sequence) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))


def independent(fan) -> bool:
    return all(det(fan.real_generators(s)) != 0 for s in fan.simplices)


def integer_det(fan, simplex) -> int:
    return int(det([fan.integer(i) for i in simplex]))


def regular_wall(fan, wall: Sequence[int]) -> bool:
    """Whether the wall lies in exactly two maximal cones whose opposite
    vertices lie strictly on opposite sides of its hyperplane."""
    incident = walls(fan.simplices).get(tuple(wall), [])
    if len(incident) != 2:
        return False
    normal = wall_normal(fan.real_generators(wall), fan.n)
    if normal is None:
        return False
    (_, p), (_, q) = incident
    sp, sq = dot(normal, fan.real(p)), dot(normal, fan.real(q))
    return sp != 0 and sq != 0 and (sp > 0) != (sq > 0)


def axioms(fan, samples: Sequence[Vec] = ()) -> dict[str, bool]:
    """Independent verdict per axiom.

    Purity, pseudomanifold, independence and nonsingularity are exact.
    Non-overlap and completeness are judged at the given sample directions by
    Cramer-rule membership: a sample interior to two cones breaks non-overlap
    and a sample in no closed cone breaks completeness.
    """
    overlap = covered = True
    gens = [fan.real_generators(s) for s in fan.simplices]
    for x in samples:
        interior = sum(in_open_cone(g, x) for g in gens)
        overlap = overlap and interior <= 1
        covered = covered and any(in_closed_cone(g, x) for g in gens)
    return {
        "purity": all(len(s) == fan.n for s in fan.simplices),
        "pseudomanifold": all(len(inc) == 2 for inc in walls(fan.simplices).values()),
        "linear_independence": independent(fan),
        "nonoverlap": overlap,
        "completeness": covered,
        "nonsingularity": all(abs(integer_det(fan, s)) == 1 for s in fan.simplices),
    }
