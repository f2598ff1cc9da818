"""The ring of lower-triangular pairs (complex-by-integer data) behind fan vectors.

An element is the 2x2 real matrix [[b, 0], [c, v]] with b, c rational and v an
integer. These matrices encode one component of a fan vector and, at the same
time, the exponent of a generalized monomial

    z ** [[b,0],[c,v]]  :=  |z|**(b + i c) * (z/|z|)**v.

Multiplication is the (noncommutative) matrix product; the subring of scalar
integer multiples of the identity marks exactly the holomorphic exponents.
All exact arithmetic is over ``fractions.Fraction``; floats appear only in the
numeric evaluation path ``cz_power``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import DomainError, NotUnimodular, SingularRealPart

#: Exact scalar type used for all fan data.
Rational = Fraction

#: Numeric evaluation points; exact code paths never touch these.
ComplexPoint = complex

RationalLike = Union[Rational, int, str]


def _rat(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CZMat:
    """The 2x2 matrix [[b, 0], [c, v]]; immutable and hashable."""

    b: Fraction
    c: Fraction
    v: int

    def __init__(self, b: RationalLike, c: RationalLike, v: int):
        object.__setattr__(self, "b", _rat(b))
        object.__setattr__(self, "c", _rat(c))
        cv = _rat(v)
        if cv.denominator != 1:
            raise ValueError(f"integer part must be an integer, got {v!r}")
        object.__setattr__(self, "v", int(cv))

    @staticmethod
    def identity() -> "CZMat":
        return CZMat(1, 0, 1)

    @staticmethod
    def zero() -> "CZMat":
        return CZMat(0, 0, 0)

    @staticmethod
    def scalar(gamma: int) -> "CZMat":
        """gamma times the identity (the holomorphic exponents)."""
        return CZMat(gamma, 0, gamma)

    def __add__(self, other: "CZMat") -> "CZMat":
        return CZMat(self.b + other.b, self.c + other.c, self.v + other.v)

    def __sub__(self, other: "CZMat") -> "CZMat":
        return CZMat(self.b - other.b, self.c - other.c, self.v - other.v)

    def __neg__(self) -> "CZMat":
        return CZMat(-self.b, -self.c, -self.v)

    def __mul__(self, other: "CZMat") -> "CZMat":
        return cz_mul(self, other)

    def __repr__(self) -> str:
        return f"CZMat({self.b}, {self.c}, {self.v})"


#: An n-tuple of CZMat components, one fan vector.
CZVector = tuple[CZMat, ...]


def cz_mul(a: CZMat, b: CZMat) -> CZMat:
    """Matrix product; the shape [[*,0],[*,*]] is closed under it."""
    return CZMat(a.b * b.b, a.c * b.b + a.v * b.c, a.v * b.v)


def pairing(alpha: Sequence[CZMat], beta: Sequence[CZMat]) -> CZMat:
    """Sum of componentwise products, alpha factors on the left."""
    if len(alpha) != len(beta):
        raise ValueError(f"length mismatch: {len(alpha)} vs {len(beta)}")
    acc = CZMat.zero()
    for a, b in zip(alpha, beta):
        acc = acc + cz_mul(a, b)
    return acc


def is_scalar_integer(m: CZMat) -> Optional[int]:
    """The integer gamma with m = gamma * identity, or None."""
    if m.c == 0 and m.b == m.v:
        return m.v
    return None


def cz_power(z: ComplexPoint, m: CZMat) -> ComplexPoint:
    """Generalized power |z|**(b+ic) * (z/|z|)**v, written in polar form.

    For z = r e^{i t} the value is r**b * e^{i (c ln r + v t)} with t the
    principal argument in (-pi, pi]. z = 0 is allowed only for scalar integer
    exponents gamma > 0, where the continuous extension is 0.
    """
    z = complex(z)
    if z == 0:
        gamma = is_scalar_integer(m)
        if gamma is not None and gamma > 0:
            return 0j
        raise DomainError(f"0 ** {m!r} is undefined")
    r = abs(z)
    ln_r = math.log(r)
    theta = math.atan2(z.imag, z.real)
    modulus = math.exp(float(m.b) * ln_r)
    angle = float(m.c) * ln_r + m.v * theta
    return cmath.rect(modulus, angle)


def dual_basis(betas: Sequence[CZVector]) -> tuple[CZVector, ...]:
    """The unique vectors (alpha_h) with pairing(alpha_h, beta_i) = delta * identity.

    Splitting each component into rational parts (b, c) and integer part v, the
    defining equations decouple into three matrix equations solved exactly:
    P = (B^T)^-1, U = (V^T)^-1 and Q = -U C^T P. The integer part of the dual
    stays integral exactly when |det V| = 1.
    """
    n = len(betas)
    if any(len(beta) != n for beta in betas):
        raise ValueError("dual_basis needs n vectors of length n")
    b_mat = linalg.mat([[beta[j].b for j in range(n)] for beta in betas])
    c_mat = linalg.mat([[beta[j].c for j in range(n)] for beta in betas])
    v_mat = linalg.mat([[beta[j].v for j in range(n)] for beta in betas])

    if linalg.det(b_mat) == 0:
        raise SingularRealPart("real parts of the basis are linearly dependent")
    v_det = linalg.det(v_mat)
    if abs(v_det) != 1:
        raise NotUnimodular(f"integer part has determinant {v_det}")

    p = linalg.inverse(linalg.transpose(b_mat))
    u = linalg.inverse(linalg.transpose(v_mat))
    q = linalg.mat_neg(linalg.mat_mul(linalg.mat_mul(u, linalg.transpose(c_mat)), p))

    duals = []
    for h in range(n):
        components = tuple(
            CZMat(p[h][j], q[h][j], int(u[h][j])) for j in range(n)
        )
        duals.append(components)
    return tuple(duals)


def real_matrix(m: CZMat) -> np.ndarray:
    """The 2x2 float matrix [[b, 0], [c, v]]."""
    return np.array([[float(m.b), 0.0], [float(m.c), float(m.v)]], dtype=float)


def standard_vector(n: int, j: int) -> CZVector:
    """The j-th standard basis vector, diagonally embedded (0-based j)."""
    return tuple(CZMat.scalar(1 if k == j else 0) for k in range(n))


def diagonal_vector(entries: Sequence[int]) -> CZVector:
    """Diagonal embedding of an integer vector, component a -> (a, a)."""
    return tuple(CZMat.scalar(int(a)) for a in entries)
