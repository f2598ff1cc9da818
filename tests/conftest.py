"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's code paths: membership uses
Leibniz determinants with Cramer's rule, and 2D cone overlap is decided by
sector arithmetic instead of Fourier-Motzkin feasibility. Non-overlap,
toricness and the invariant structure are re-decided the long way, over every
cone or chart pair.
"""

import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from topfan.czalgebra import CZMat
from topfan.fan import SimplicialComplex, TopologicalFan

#: Committed test data: generated fans and golden CLI output (see data/README.md).
DATA = Path(__file__).parent / "data"


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for r in range(n):
            prod *= Fraction(rows[r][perm[r]])
        total += sign * prod
    return total


def cramer_membership(generators, point):
    """Coefficients of point over the generators, or None when dependent."""
    n = len(point)
    columns = [[Fraction(g[r]) for g in generators] for r in range(n)]
    d = leibniz_det(columns)
    if d == 0:
        return None
    coords = []
    for i in range(n):
        replaced = [row[:] for row in columns]
        for r in range(n):
            replaced[r][i] = Fraction(point[r])
        coords.append(leibniz_det(replaced) / d)
    return tuple(coords)


def cramer_inverse(rows):
    """Exact inverse as the adjugate over the Leibniz determinant."""
    n = len(rows)
    d = leibniz_det(rows)

    def minor(r, c):
        return [
            [rows[i][j] for j in range(n) if j != c] for i in range(n) if i != r
        ]

    return [
        [(-1) ** (i + j) * leibniz_det(minor(j, i)) / d for j in range(n)]
        for i in range(n)
    ]


def strictly_inside(fan, simplex, point):
    gens = [fan.real_row(i) for i in sorted(simplex)]
    coeffs = cramer_membership(gens, point)
    return coeffs is not None and all(c > 0 for c in coeffs)


def inside_closed(fan, simplex, point):
    gens = [fan.real_row(i) for i in sorted(simplex)]
    coeffs = cramer_membership(gens, point)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def _cross(a, b):
    return Fraction(a[0]) * Fraction(b[1]) - Fraction(a[1]) * Fraction(b[0])


def _same_ray(a, b):
    return _cross(a, b) == 0 and (
        Fraction(a[0]) * Fraction(b[0]) + Fraction(a[1]) * Fraction(b[1]) > 0
    )


def _ray_strictly_in_sector(u, a, b):
    d = _cross(a, b)
    if d > 0:
        return _cross(a, u) > 0 and _cross(u, b) > 0
    return _cross(b, u) > 0 and _cross(u, a) > 0


def sectors_overlap(gens_a, gens_b):
    """2D oracle: do two simplicial sectors share interior rays?"""
    a1, a2 = gens_a
    b1, b2 = gens_b
    if {True} == {
        _same_ray(a1, b1) or _same_ray(a1, b2),
        _same_ray(a2, b1) or _same_ray(a2, b2),
    }:
        return True
    return any(
        _ray_strictly_in_sector(u, a1, a2) for u in (b1, b2)
    ) or any(_ray_strictly_in_sector(u, b1, b2) for u in (a1, a2))


def brute_force_nonoverlap_2d(fan):
    maximal = fan.maximal_simplices()
    for p in range(len(maximal)):
        for q in range(p + 1, len(maximal)):
            gens_p = [fan.real_row(i) for i in maximal[p]]
            gens_q = [fan.real_row(i) for i in maximal[q]]
            if sectors_overlap(gens_p, gens_q):
                return False
    return True


def fme_overlap(fan, simplex_a, simplex_b):
    """An OverlapWitness when strictly positive combinations of the two cones'
    generators meet, else None, decided by Fourier-Motzkin elimination over
    the kernel of [gens_a | -gens_b]."""
    from topfan import fme, linalg
    from topfan.fan import OverlapWitness

    gens_a = [fan.real_row(i) for i in simplex_a]
    gens_b = [fan.real_row(i) for i in simplex_b]
    cols = len(gens_a) + len(gens_b)
    equalities = linalg.mat(
        [
            [g[row] for g in gens_a] + [-g[row] for g in gens_b]
            for row in range(fan.n)
        ]
    )
    kernel = linalg.nullspace(equalities)
    if not kernel:
        return None
    rows = [(tuple(basis[t] for basis in kernel), Fraction(0)) for t in range(cols)]
    y = fme.strict_feasible(rows, len(kernel))
    if y is None:
        return None
    x = tuple(sum(y[s] * kernel[s][t] for s in range(len(kernel))) for t in range(cols))
    coeffs_a, coeffs_b = x[: len(gens_a)], x[len(gens_a) :]
    point = tuple(
        sum(c * g[row] for c, g in zip(coeffs_a, gens_a)) for row in range(fan.n)
    )
    return OverlapWitness(simplex_a, simplex_b, point, coeffs_a, coeffs_b)


def all_pairs_nonoverlap(fan):
    """Every cone pair by Fourier-Motzkin elimination; the first overlapping
    pair in sorted order is the witness."""
    from topfan.fan import AxiomCheck

    maximal = fan.maximal_simplices()
    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            witness = fme_overlap(fan, maximal[a], maximal[b])
            if witness is not None:
                detail = "two maximal cones share interior points"
                return AxiomCheck(False, witness, detail)
    return AxiomCheck(True)


# ---------------------------------------------------------------------------
# all-pairs oracles for toricness and the invariant structure


def all_pairs_toric(fan):
    """Toric when every chart change of every ordered pair is holomorphic."""
    from topfan.charts import is_holomorphic, transition

    maximal = fan.maximal_simplices()
    return all(
        is_holomorphic(transition(fan, a, b)) for a in maximal for b in maximal
    )


def per_chart_structure(fan):
    """(J0, None) when all chart candidates agree, else (None, the first
    differing pair of charts in sorted order)."""
    from topfan.acs import invariant_acs_candidates

    candidates = invariant_acs_candidates(fan)
    simplices = sorted(candidates)
    for a in range(len(simplices)):
        for b in range(a + 1, len(simplices)):
            if candidates[simplices[a]] != candidates[simplices[b]]:
                return None, (simplices[a], simplices[b])
    return candidates[simplices[0]], None


def toric_coordinates(fan):
    """(G, H) = (V_I^-1 B_I, V_I^-1 C_I) for the first maximal cone I."""
    cone = fan.maximal_simplices()[0]
    v_inv = cramer_inverse([fan.integer_row(i) for i in cone])
    real = [[comp.b for comp in fan.beta[i]] for i in cone]
    imaginary = [[comp.c for comp in fan.beta[i]] for i in cone]
    return _matmul(v_inv, real), _matmul(v_inv, imaginary)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def map_by_automorphism(fan, a_b, a_c):
    """Image of every fan vector under the CZ matrix A with integer part 1:
    real parts b -> A_b b, imaginary parts c -> A_c b + c."""
    n = fan.n
    beta = []
    for vector in fan.beta:
        b = [comp.b for comp in vector]
        beta.append(
            tuple(
                CZMat(
                    sum(a_b[j][k] * b[k] for k in range(n)),
                    sum(a_c[j][k] * b[k] for k in range(n)) + vector[j].c,
                    vector[j].v,
                )
                for j in range(n)
            )
        )
    return TopologicalFan(n, fan.sc, tuple(beta))


def ordinary_image(fan):
    """The fan mapped by A_b = (G^T)^-1, A_c = -H^T (G^T)^-1, A_v = 1."""
    g, h = toric_coordinates(fan)
    a_b = cramer_inverse([list(col) for col in zip(*g)])
    a_c = [[-x for x in row] for row in _matmul([list(col) for col in zip(*h)], a_b)]
    return map_by_automorphism(fan, a_b, a_c)


# ---------------------------------------------------------------------------
# work-count guards


def replace_aliases(monkeypatch, function, replacement):
    """Bind replacement under every name a topfan module gives function."""
    for name, module in list(sys.modules.items()):
        if name == "topfan" or name.startswith("topfan."):
            for alias, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, alias, replacement)


def forbid(monkeypatch, function):
    """Make every alias of a package function raise when called."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{function.__module__}.{function.__name__} was called")

    replace_aliases(monkeypatch, function, forbidden)


# ---------------------------------------------------------------------------
# fan mutations


def remove_maximal_simplex(fan, simplex):
    """Drop one maximal simplex, reindexing away any orphaned vertices."""
    target = tuple(sorted(simplex))
    keep = [s for s in fan.maximal_simplices() if s != target]
    used = sorted(set().union(*(set(s) for s in keep)))
    remap = {v: k for k, v in enumerate(used)}
    sc = SimplicialComplex(len(used), [[remap[v] for v in s] for s in keep])
    return TopologicalFan(fan.n, sc, tuple(fan.beta[v] for v in used))


def duplicate_cone(fan, simplex):
    """Clone the vertices of one maximal simplex and re-add the same cone."""
    target = tuple(sorted(simplex))
    m = fan.m
    beta = fan.beta + tuple(fan.beta[v] for v in target)
    clone = tuple(range(m, m + len(target)))
    sc = SimplicialComplex(m + len(target), fan.maximal_simplices() + [clone])
    return TopologicalFan(fan.n, sc, beta)


def random_structure(rng, n, ell, require_j21=False):
    """Random conjugate of the standard structure; squares to minus identity."""
    import numpy as np

    from topfan import linalg
    from topfan.acs import OrbitACS, std_complex_structure

    size = 2 * (n + ell)
    std = linalg.to_float(std_complex_structure(n + ell))
    while True:
        s = np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)])
        if abs(np.linalg.det(s)) < 0.05:
            continue
        j0 = s @ std @ np.linalg.inv(s)
        if not require_j21:
            return OrbitACS(ell, j0.tolist())
        if ell > 0 and np.max(np.abs(j0[2 * n :, : 2 * n])) > 0.05:
            return OrbitACS(ell, j0.tolist())


@pytest.fixture(scope="session")
def catalog_fans():
    from topfan import catalog

    return catalog.all_fans()


@pytest.fixture(scope="session")
def committed_fans():
    """The generated fans under data/fans, by file stem."""
    from topfan.fanio import parse_fan

    return {
        path.stem: parse_fan(path.read_text())
        for path in sorted((DATA / "fans").glob("*.json"))
    }
