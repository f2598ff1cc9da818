"""Equivariant chart atlas: characters, transition tables, orbit coordinates.

Each maximal simplex I carries a chart whose coordinates are indexed by the
vertices of I in sorted order. Transition maps between charts are products of
generalized monomials; their exponent tables are exact CZMat pairings, and a
fan is toric exactly when every such exponent is an integer multiple of the
identity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .czalgebra import (
    CZMat,
    CZVector,
    ComplexPoint,
    cz_power,
    dual_basis,
    is_scalar_integer,
    pairing,
)
from .errors import DomainError, InvalidFanError, UnknownSimplexError
from .fan import TopologicalFan, validate

#: Default tolerance for identities that hold exactly in real arithmetic.
FORMULA_RTOL = 1e-9

#: Default tolerance for finite-difference comparisons.
FINITE_DIFF_RTOL = 1e-6

TWO_PI = 2.0 * math.pi

ChartPoint = tuple[ComplexPoint, ...]


class Verdict(enum.Enum):
    TORIC = "Toric"
    NON_TORIC_TOPOLOGICAL = "NonToricTopological"


@dataclass(frozen=True)
class Chart:
    """A maximal simplex with the dual basis of its vectors."""

    simplex: tuple[int, ...]
    duals: tuple[CZVector, ...]


@dataclass(frozen=True)
class TransitionMap:
    """Exponent table of one chart change; rows follow target, columns source."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    table: tuple[tuple[CZMat, ...], ...]


@dataclass(frozen=True)
class OrbitPoint:
    """Coordinates on (R x R/2pi Z)^n; angles are reduced into [0, 2pi)."""

    tau: tuple[float, ...]
    theta: tuple[float, ...]


def _maximal_or_raise(fan: TopologicalFan, simplex: Iterable[int]) -> tuple[int, ...]:
    s = tuple(sorted(int(v) for v in simplex))
    if frozenset(s) not in fan.sc.maximal_simplices:
        raise UnknownSimplexError(f"{tuple(v + 1 for v in s)} is not maximal")
    return s


@lru_cache(maxsize=4096)
def _chart_cached(fan: TopologicalFan, simplex: tuple[int, ...]) -> Chart:
    duals = dual_basis([fan.beta[i] for i in simplex])
    return Chart(simplex, duals)


def chart(fan: TopologicalFan, simplex: Iterable[int]) -> Chart:
    """Dual basis data for a maximal simplex (cached per fan and simplex)."""
    return _chart_cached(fan, _maximal_or_raise(fan, simplex))


def cocharacter(beta_i: CZVector, h: ComplexPoint) -> ChartPoint:
    """One-parameter subgroup C* -> (C*)^n attached to a fan vector."""
    if h == 0:
        raise DomainError("cocharacter needs a nonzero argument")
    return tuple(cz_power(h, comp) for comp in beta_i)


def character(alpha: CZVector, g: Sequence[ComplexPoint]) -> ComplexPoint:
    """Product of generalized powers prod_j g_j ** alpha_j."""
    if len(g) != len(alpha):
        raise ValueError(f"expected {len(alpha)} components, got {len(g)}")
    if any(gj == 0 for gj in g):
        raise DomainError("character needs nonzero components")
    value = 1 + 0j
    for gj, aj in zip(g, alpha):
        value *= cz_power(gj, aj)
    return value


def _monomial(values: Sequence[ComplexPoint], exponents: Sequence[CZMat]) -> ComplexPoint:
    """prod values[t] ** exponents[t] with the zero-coordinate policy.

    A zero coordinate is legal only when its exponent is a scalar integer
    gamma >= 0: gamma = 0 contributes the empty factor, gamma > 0 forces 0.
    """
    vanishes = False
    for z, e in zip(values, exponents):
        if z == 0:
            gamma = is_scalar_integer(e)
            if gamma is None or gamma < 0:
                raise DomainError(f"zero coordinate met exponent {e!r}")
            if gamma > 0:
                vanishes = True
    if vanishes:
        return 0j
    value = 1 + 0j
    for z, e in zip(values, exponents):
        if z == 0:
            continue
        value *= cz_power(z, e)
    return value


def chart_map(
    fan: TopologicalFan, simplex: Iterable[int], z: Sequence[ComplexPoint]
) -> ChartPoint:
    """Chart coordinates of a point of C^m with z_j != 0 away from the simplex."""
    s = _maximal_or_raise(fan, simplex)
    if len(z) != fan.m:
        raise ValueError(f"expected {fan.m} coordinates, got {len(z)}")
    inside = set(s)
    for j, zj in enumerate(z):
        if zj == 0 and j not in inside:
            raise DomainError(f"coordinate {j + 1} must be nonzero off the simplex")
    duals = chart(fan, s).duals
    result = []
    for dual in duals:
        exponents = [pairing(dual, fan.beta[j]) for j in range(fan.m)]
        result.append(_monomial(z, exponents))
    return tuple(result)


def transition(
    fan: TopologicalFan, source: Iterable[int], target: Iterable[int]
) -> TransitionMap:
    """Exact exponent table of the chart change source -> target."""
    src = _maximal_or_raise(fan, source)
    tgt = _maximal_or_raise(fan, target)
    duals = chart(fan, tgt).duals
    table = tuple(
        tuple(pairing(dual, fan.beta[i]) for i in src) for dual in duals
    )
    return TransitionMap(src, tgt, table)


def evaluate_transition(t: TransitionMap, w: Sequence[ComplexPoint]) -> ChartPoint:
    """Apply a transition map to chart coordinates (zero policy as in _monomial)."""
    if len(w) != len(t.source):
        raise ValueError(f"expected {len(t.source)} coordinates, got {len(w)}")
    return tuple(_monomial(w, row) for row in t.table)


def is_holomorphic(t: TransitionMap) -> bool:
    """Whether every exponent of the table is an integer multiple of the identity."""
    return all(
        is_scalar_integer(entry) is not None for row in t.table for entry in row
    )


def exponent_certificate(
    fan: TopologicalFan,
) -> list[tuple[tuple[int, ...], int, int, CZMat, Optional[int]]]:
    """All pairings (chart simplex, chart vertex, fan vertex) with scalar flags."""
    rows = []
    for simplex in fan.maximal_simplices():
        duals = chart(fan, simplex).duals
        for pos, k in enumerate(simplex):
            for j in range(fan.m):
                entry = pairing(duals[pos], fan.beta[j])
                rows.append((simplex, k, j, entry, is_scalar_integer(entry)))
    return rows


def classify(fan: TopologicalFan) -> Verdict:
    """Toric when every transition is a Laurent monomial, non-toric otherwise:
    exactly when B = V G and C = V H for the real, imaginary and integer parts
    B, C, V of the fan vectors, with G = V_I^-1 B_I, H = V_I^-1 C_I for a cone I."""
    if not validate(fan).all_passed:
        raise InvalidFanError("classify needs a fan passing validation")
    real = linalg.mat(fan.real_row(i) for i in range(fan.m))
    imaginary = linalg.mat((comp.c for comp in vector) for vector in fan.beta)
    integer = linalg.mat(fan.integer_row(i) for i in range(fan.m))
    cone = fan.maximal_simplices()[0]
    v_inv = linalg.inverse(tuple(integer[i] for i in cone))
    toric = all(
        linalg.mat_mul(integer, linalg.mat_mul(v_inv, [part[i] for i in cone])) == part
        for part in (real, imaginary)
    )
    return Verdict.TORIC if toric else Verdict.NON_TORIC_TOPOLOGICAL


# ---------------------------------------------------------------------------
# dense-orbit coordinates


def orbit_coordinates(
    fan: TopologicalFan, simplex: Iterable[int], w: Sequence[ComplexPoint]
) -> OrbitPoint:
    """Logarithmic orbit coordinates of a chart point with all w_i nonzero.

    tau_j  = 1/2 sum_i b_i^j ln(x_i^2 + y_i^2)
    theta_j = sum_i (c_i^j / 2 ln(x_i^2 + y_i^2) + v_i^j atan2(y_i, x_i))  mod 2pi
    """
    s = _maximal_or_raise(fan, simplex)
    if len(w) != len(s):
        raise ValueError(f"expected {len(s)} coordinates, got {len(w)}")
    if any(wi == 0 for wi in w):
        raise DomainError("orbit coordinates need all coordinates nonzero")
    log_r2 = [math.log(wi.real**2 + wi.imag**2) for wi in map(complex, w)]
    args = [math.atan2(wi.imag, wi.real) for wi in map(complex, w)]
    tau = []
    theta = []
    for j in range(fan.n):
        t = 0.0
        a = 0.0
        for pos, i in enumerate(s):
            comp = fan.beta[i][j]
            t += 0.5 * float(comp.b) * log_r2[pos]
            a += 0.5 * float(comp.c) * log_r2[pos] + comp.v * args[pos]
        tau.append(t)
        theta.append(a % TWO_PI)
    return OrbitPoint(tuple(tau), tuple(theta))


def torus_factor(w: ComplexPoint) -> np.ndarray:
    """The 2x2 factor [[x, y], [-y, x]] / (x^2 + y^2) of the orbit Jacobian."""
    w = complex(w)
    if w == 0:
        raise DomainError("torus factor undefined at zero")
    r2 = w.real**2 + w.imag**2
    return np.array([[w.real, w.imag], [-w.imag, w.real]]) / r2


def chart_block_matrix(fan: TopologicalFan, simplex: Iterable[int]) -> linalg.Mat:
    """Exact 2n x 2n matrix of 2x2 blocks; block (j, i) holds beta_i^j."""
    s = _maximal_or_raise(fan, simplex)
    n = fan.n
    rows = []
    for j in range(n):
        top = []
        bottom = []
        for i in s:
            comp = fan.beta[i][j]
            top.extend([comp.b, Fraction(0)])
            bottom.extend([comp.c, Fraction(comp.v)])
        rows.append(tuple(top))
        rows.append(tuple(bottom))
    return tuple(rows)


def orbit_jacobian(
    fan: TopologicalFan, simplex: Iterable[int], w: Sequence[ComplexPoint]
) -> np.ndarray:
    """Differential of the orbit coordinates: the block product B T."""
    s = _maximal_or_raise(fan, simplex)
    if len(w) != len(s):
        raise ValueError(f"expected {len(s)} coordinates, got {len(w)}")
    n = fan.n
    out = np.zeros((2 * n, 2 * n))
    factors = [torus_factor(wi) for wi in w]
    for j in range(n):
        for pos, i in enumerate(s):
            comp = fan.beta[i][j]
            block = np.array([[float(comp.b), 0.0], [float(comp.c), float(comp.v)]])
            out[2 * j : 2 * j + 2, 2 * pos : 2 * pos + 2] = block @ factors[pos]
    return out
