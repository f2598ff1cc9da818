"""Invariant (stably) complex structure analysis.

A constant matrix J0 on the dense orbit pulls back to each chart as a
conjugated field over the chart coordinates. Whether that field extends
smoothly over the chart closure is decided by two block conditions: the
lower-left stabilization block must vanish, and the conjugated top-left block
must commute with the diagonal complex scalars. The per-chart candidate for
an honest almost complex structure is computed exactly, and existence asks
all charts to produce the same matrix, which is tested once per vertex.
"""

from __future__ import annotations

import cmath
import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .charts import (
    FORMULA_RTOL,
    Verdict,
    chart_block_matrix,
    classify,
    orbit_jacobian,
    _maximal_or_raise,
)
from .errors import DomainError, InvalidFanError
from .fan import TopologicalFan, validate

Number = Union[int, Fraction, float]
Matrix = tuple[tuple[Number, ...], ...]

#: Log-log slope window flagging an entry that blows up like 1/t.
BLOWUP_SLOPE_WINDOW = (-1.1, -0.9)

#: Default constancy threshold for probe variation.
CONSTANCY_TOL = 1e-6


def _freeze(matrix: Sequence[Sequence[Number]]) -> Matrix:
    return tuple(tuple(x for x in row) for row in matrix)


def _is_exact(matrix: Matrix) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in matrix for x in row)


def std_complex_structure(n: int) -> linalg.Mat:
    """Block diagonal of n copies of the 2x2 rotation [[0, -1], [1, 0]]."""
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for s in range(n):
        out[2 * s][2 * s + 1] = Fraction(-1)
        out[2 * s + 1][2 * s] = Fraction(1)
    return tuple(tuple(row) for row in out)


class ExtensionVerdict(enum.Enum):
    SMOOTH_EXTENSION = "SmoothExtension"
    NO_SMOOTH_EXTENSION = "NoSmoothExtension"


@dataclass(frozen=True)
class OrbitACS:
    """Constant structure matrix on the dense orbit, stabilized by rank 2*ell."""

    ell: int
    j0: Matrix

    def __init__(self, ell: int, j0: Sequence[Sequence[Number]]):
        frozen = _freeze(j0)
        size = len(frozen)
        if ell < 0:
            raise ValueError("stabilization rank must be nonnegative")
        if any(len(row) != size for row in frozen):
            raise ValueError("structure matrix must be square")
        if size < 2 * ell + 2 or size % 2 != 0:
            raise ValueError(f"size {size} inconsistent with ell={ell}")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "j0", frozen)

    @property
    def size(self) -> int:
        return len(self.j0)

    @property
    def n(self) -> int:
        return self.size // 2 - self.ell

    def as_float(self) -> np.ndarray:
        return linalg.to_float(self.j0)

    def squares_to_minus_identity(self, tol: float = FORMULA_RTOL) -> bool:
        if _is_exact(self.j0):
            exact = linalg.mat(self.j0)
            return linalg.mat_mul(exact, exact) == linalg.mat_neg(
                linalg.identity(self.size)
            )
        square = self.as_float() @ self.as_float()
        return bool(np.max(np.abs(square + np.eye(self.size))) <= tol)


@dataclass(frozen=True)
class BlockAnalysis:
    """Outcome of the smooth-extension test for one chart matrix."""

    j21_forced_zero: bool
    j21_offenders: tuple[tuple[int, int], ...]
    top_left_commutant: bool
    forced_form: Optional[tuple[int, ...]]
    verdict: ExtensionVerdict


@dataclass(frozen=True)
class ProbeReport:
    """Per-entry growth exponents along a scaled ray plus torus-orbit variation."""

    slopes: tuple[tuple[float, ...], ...]
    blowup_entries: tuple[tuple[int, int], ...]
    max_variation: float
    constant: bool


@dataclass(frozen=True)
class CrossCheckReport:
    """Joint verdict of the toricness test and the structure-existence test."""

    acs_exists: bool
    toric: bool
    equivalence_holds: bool
    stabilized_zero_accepted: Optional[bool]
    stabilized_j21_rejected: Optional[bool]


@lru_cache(maxsize=1024)
def _chart_blocks(fan: TopologicalFan, simplex: tuple[int, ...]):
    b = chart_block_matrix(fan, simplex)
    return b, linalg.inverse(b)


def acs_field(
    fan: TopologicalFan,
    simplex: Iterable[int],
    acs: OrbitACS,
    w: Sequence[complex],
) -> np.ndarray:
    """The structure matrix in chart coordinates at a dense-orbit point."""
    s = _maximal_or_raise(fan, simplex)
    n = fan.n
    if acs.size != 2 * (n + acs.ell):
        raise ValueError(f"structure size {acs.size} does not match 2(n+ell)")
    if len(w) != n:
        raise ValueError(f"expected {n} coordinates, got {len(w)}")
    if any(wi == 0 for wi in w):
        raise DomainError("field evaluation needs nonzero coordinates")

    b_exact, b_inv_exact = _chart_blocks(fan, s)
    bt = orbit_jacobian(fan, s, w)
    b_inv = linalg.to_float(b_inv_exact)
    t_inv = np.zeros((2 * n, 2 * n))
    for pos, wi in enumerate(map(complex, w)):
        # exact inverse of the torus factor: the plain complex embedding
        t_inv[2 * pos : 2 * pos + 2, 2 * pos : 2 * pos + 2] = [
            [wi.real, -wi.imag],
            [wi.imag, wi.real],
        ]

    size = acs.size
    forward = np.eye(size)
    forward[: 2 * n, : 2 * n] = bt
    backward = np.eye(size)
    backward[: 2 * n, : 2 * n] = t_inv @ b_inv
    return backward @ acs.as_float() @ forward


def _split_blocks(matrix: Matrix, n: int):
    j11 = tuple(row[: 2 * n] for row in matrix[: 2 * n])
    j21 = tuple(row[: 2 * n] for row in matrix[2 * n :])
    return j11, j21


def _commutant_generators(n: int) -> list[linalg.Mat]:
    gens = []
    for s in range(n):
        scale = [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
        scale[2 * s][2 * s] = Fraction(2)
        scale[2 * s + 1][2 * s + 1] = Fraction(2)
        gens.append(tuple(tuple(r) for r in scale))
        rot = [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
        rot[2 * s][2 * s] = Fraction(0)
        rot[2 * s + 1][2 * s + 1] = Fraction(0)
        rot[2 * s][2 * s + 1] = Fraction(-1)
        rot[2 * s + 1][2 * s] = Fraction(1)
        gens.append(tuple(tuple(r) for r in rot))
    return gens


def in_torus_commutant(matrix: Sequence[Sequence[Number]], tol: float = 0.0) -> bool:
    """Whether a 2n x 2n matrix commutes with every diagonal complex scalar.

    Tested against two generators per slot: a real scaling by 2 and a quarter
    rotation. Exact entries are compared exactly; floats within tol.
    """
    m = _freeze(matrix)
    n = len(m) // 2
    if _is_exact(m) and tol == 0.0:
        exact = linalg.mat(m)
        return all(
            linalg.mat_mul(exact, g) == linalg.mat_mul(g, exact)
            for g in _commutant_generators(n)
        )
    dense = linalg.to_float(m)
    for g in _commutant_generators(n):
        gf = linalg.to_float(g)
        if np.max(np.abs(dense @ gf - gf @ dense)) > max(tol, 1e-9):
            return False
    return True


def commutant_block_structure(
    matrix: Sequence[Sequence[Number]], tol: float = 0.0
) -> bool:
    """Independent characterization: off-diagonal 2x2 blocks vanish and each
    diagonal block has the complex shape [[a, -b], [b, a]]."""
    m = linalg.to_float(_freeze(matrix))
    n = len(m) // 2
    eps = max(tol, 0.0)
    for bi in range(n):
        for bj in range(n):
            block = m[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]
            if bi != bj:
                if np.max(np.abs(block)) > eps:
                    return False
            else:
                if (
                    abs(block[0, 0] - block[1, 1]) > eps
                    or abs(block[0, 1] + block[1, 0]) > eps
                ):
                    return False
    return True


def smooth_extension_analysis(
    acs: OrbitACS, chart_matrix: Sequence[Sequence[Number]], tol: float = 0.0
) -> BlockAnalysis:
    """Decide whether the orbit structure extends smoothly over one chart.

    The lower-left block scales like the inverse coordinate radius, so any
    nonzero entry of J21 B rules the extension out; the top-left block must
    conjugate into the commutant of the diagonal complex scalars.
    """
    b = _freeze(chart_matrix)
    n = len(b) // 2
    if acs.size != 2 * (n + acs.ell):
        raise ValueError("chart matrix size does not match the structure")
    exact = _is_exact(acs.j0) and _is_exact(b)

    j11, j21 = _split_blocks(acs.j0, n)
    offenders: list[tuple[int, int]] = []
    if acs.ell > 0:
        if exact:
            product = linalg.mat_mul(linalg.mat(j21), linalg.mat(b))
            offenders = [
                (r, c)
                for r, row in enumerate(product)
                for c, x in enumerate(row)
                if x != 0
            ]
        else:
            product = linalg.to_float(j21) @ linalg.to_float(b)
            threshold = max(tol, 1e-12)
            offenders = [
                (r, c)
                for r in range(product.shape[0])
                for c in range(product.shape[1])
                if abs(product[r, c]) > threshold
            ]
    j21_zero = not offenders

    if exact:
        b_mat = linalg.mat(b)
        conjugated = linalg.mat_mul(
            linalg.mat_mul(linalg.inverse(b_mat), linalg.mat(j11)), b_mat
        )
        commutant = in_torus_commutant(conjugated)
    else:
        bf = linalg.to_float(b)
        conjugated = np.linalg.inv(bf) @ linalg.to_float(j11) @ bf
        conjugated = _freeze(conjugated.tolist())
        commutant = in_torus_commutant(conjugated, tol=max(tol, 1e-9))

    forced: Optional[tuple[int, ...]] = None
    if j21_zero and commutant and acs.squares_to_minus_identity():
        dense = linalg.to_float(conjugated)
        forced = tuple(
            1 if dense[2 * s + 1, 2 * s] > 0 else -1 for s in range(n)
        )

    verdict = (
        ExtensionVerdict.SMOOTH_EXTENSION
        if j21_zero and commutant
        else ExtensionVerdict.NO_SMOOTH_EXTENSION
    )
    return BlockAnalysis(
        j21_forced_zero=j21_zero,
        j21_offenders=tuple(offenders),
        top_left_commutant=commutant,
        forced_form=forced,
        verdict=verdict,
    )


def invariant_acs_candidates(
    fan: TopologicalFan, simplices: Optional[Iterable[tuple[int, ...]]] = None
) -> dict[tuple[int, ...], linalg.Mat]:
    """Exact candidate structure matrices B S B^{-1}, for every chart by default."""
    std = std_complex_structure(fan.n)
    out = {}
    for simplex in fan.maximal_simplices() if simplices is None else simplices:
        b, b_inv = _chart_blocks(fan, tuple(simplex))
        out[simplex] = linalg.mat_mul(linalg.mat_mul(b, std), b_inv)
    return out


def _vertex_test(fan: TopologicalFan):
    """I0, its candidate J0, and the first chart with a vertex i where J0 u_i != w_i
    (or None); u_i, w_i are columns 2k, 2k+1 of a block matrix with i in slot k.
    As J0^2 = -1, a chart's candidate is J0 exactly when all its vertices pass."""
    first = fan.maximal_simplices()[0]
    j0 = invariant_acs_candidates(fan, [first])[first]
    failing = set()
    for i, vector in enumerate(fan.beta):
        u = [x for comp in vector for x in (comp.b, comp.c)]
        if linalg.mat_vec(j0, u) != tuple(x for comp in vector for x in (0, comp.v)):
            failing.add(i)
    other = next((s for s in fan.maximal_simplices() if failing.intersection(s)), None)
    return first, j0, other


def invariant_acs(fan: TopologicalFan) -> Optional[OrbitACS]:
    """The invariant almost complex structure, when all charts agree exactly."""
    if not validate(fan).all_passed:
        raise InvalidFanError("invariant_acs needs a fan passing validation")
    _, j0, other = _vertex_test(fan)
    return None if other else OrbitACS(0, j0)


def disagreeing_charts(
    fan: TopologicalFan,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first chart and the first chart whose candidate differs from it, if any."""
    first, _, other = _vertex_test(fan)
    return (first, other) if other else None


def divergence_probe(
    fan: TopologicalFan,
    simplex: Iterable[int],
    acs: OrbitACS,
    ray: Sequence[complex],
    steps: int = 12,
    slope_window: tuple[float, float] = BLOWUP_SLOPE_WINDOW,
    constancy_tol: float = CONSTANCY_TOL,
    seed: int = 7,
) -> ProbeReport:
    """Probe the chart field toward the origin and along the torus orbit.

    Uniformly shrinking the ray isolates radial growth: entries fed by the
    stabilization block scale like 1/t (slope -1) while complex-linear data
    stays flat. Conjugation effects invisible to uniform scaling are caught by
    re-evaluating at random per-slot complex multiples of the ray.
    """
    s = _maximal_or_raise(fan, simplex)
    if any(r == 0 for r in ray):
        raise DomainError("probe ray needs nonzero coordinates")
    if steps < 2:
        raise ValueError("need at least two probe steps")

    size = acs.size
    values = []
    for k in range(1, steps + 1):
        t = 2.0 ** (-k)
        values.append(acs_field(fan, s, acs, tuple(t * complex(r) for r in ray)))
    xs = np.array([-float(k) for k in range(1, steps + 1)])
    slopes = np.zeros((size, size))
    for r in range(size):
        for c in range(size):
            series = np.array([abs(v[r, c]) for v in values])
            if series.max() < 1e-10:
                continue
            ys = np.log2(np.maximum(series, 1e-300))
            slopes[r, c] = np.polyfit(xs, ys, 1)[0]

    blowup = tuple(
        (r, c)
        for r in range(size)
        for c in range(size)
        if slope_window[0] <= slopes[r, c] <= slope_window[1]
    )

    rng = random.Random(seed)
    base = acs_field(fan, s, acs, tuple(complex(r) for r in ray))
    variation = 0.0
    for _ in range(max(steps, 8)):
        multipliers = [
            cmath.rect(math.exp(rng.uniform(-0.7, 0.7)), rng.uniform(0, 2 * math.pi))
            for _ in range(fan.n)
        ]
        point = tuple(u * complex(r) for u, r in zip(multipliers, ray))
        variation = max(
            variation, float(np.max(np.abs(acs_field(fan, s, acs, point) - base)))
        )

    return ProbeReport(
        slopes=tuple(tuple(float(x) for x in row) for row in slopes),
        blowup_entries=blowup,
        max_variation=variation,
        constant=variation <= constancy_tol,
    )


def stabilized(acs_matrix: linalg.Mat, ell: int) -> OrbitACS:
    """Pad an exact 2n x 2n structure with ell standard complex planes."""
    n = len(acs_matrix) // 2
    size = 2 * (n + ell)
    out = [[Fraction(0)] * size for _ in range(size)]
    for r in range(2 * n):
        for c in range(2 * n):
            out[r][c] = Fraction(acs_matrix[r][c])
    tail = std_complex_structure(ell)
    for r in range(2 * ell):
        for c in range(2 * ell):
            out[2 * n + r][2 * n + c] = tail[r][c]
    return OrbitACS(ell, out)


def equivalence_holds(structure: Optional[OrbitACS], verdict: Verdict) -> bool:
    """The paper's equivalence: a structure exists exactly when the fan is toric."""
    return (structure is not None) == (verdict is Verdict.TORIC)


def equivalence_cross_check(fan: TopologicalFan, ell: int = 1) -> CrossCheckReport:
    """Check that structure existence and toricness agree, and that any
    stabilized completion of an existing structure forces a zero J21 block."""
    structure = invariant_acs(fan)
    verdict = classify(fan)

    zero_ok: Optional[bool] = None
    j21_rejected: Optional[bool] = None
    if structure is not None and ell > 0:
        b = chart_block_matrix(fan, fan.maximal_simplices()[0])
        good = stabilized(linalg.mat(structure.j0), ell)
        zero_ok = (
            smooth_extension_analysis(good, b).verdict
            is ExtensionVerdict.SMOOTH_EXTENSION
        )
        # B is invertible, so any one nonzero J21 entry gives J21 B != 0
        bad_rows = [list(row) for row in good.j0]
        bad_rows[2 * fan.n][0] = Fraction(1)
        bad = OrbitACS(ell, bad_rows)
        j21_rejected = (
            smooth_extension_analysis(bad, b).verdict
            is ExtensionVerdict.NO_SMOOTH_EXTENSION
        )

    return CrossCheckReport(
        acs_exists=structure is not None,
        toric=verdict is Verdict.TORIC,
        equivalence_holds=equivalence_holds(structure, verdict),
        stabilized_zero_accepted=zero_ok,
        stabilized_j21_rejected=j21_rejected,
    )
