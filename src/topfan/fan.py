"""Topological fans: simplicial combinatorics plus exact axiom validation.

A fan couples an abstract simplicial complex on m vertices with one vector of
CZMat components per vertex. Validation decides, in exact rational
arithmetic, whether the real-part cones tile R^n without interior overlaps,
whether their union is all of R^n, and whether every maximal simplex has a
unimodular integer part. Failing axioms carry witnesses that can be re-checked
by independent arithmetic.

Each validate, cones_nonoverlapping or is_complete call first builds one
integer cone table (`_ConeTable`): every real-part row scaled by a positive
integer to an integer row, and per maximal cone the determinant and the
adjugate of its generators, found fraction-free by Bareiss elimination. Every
membership, independence and wall-side decision reads only signs from it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import fme, linalg
from .czalgebra import CZMat, CZVector, diagonal_vector
from .errors import (
    FanStructureError,
    GenerationError,
    PreconditionError,
    UnknownSimplexError,
)
from .linalg import Vec

#: Default seed for the random directions that validate samples when the
#: wall structure and one generic point do not decide completeness.
DEGREE_SAMPLE_SEED = 1729

#: Accepted generic samples per completeness check.
DEGREE_SAMPLE_COUNT = 16

Simplex = frozenset[int]


def _as_simplex(vertices: Iterable[int]) -> Simplex:
    return frozenset(int(v) for v in vertices)


@dataclass(frozen=True)
class SimplicialComplex:
    """Pure simplicial complex given by its maximal simplices (0-based vertices)."""

    m: int
    maximal_simplices: frozenset[Simplex]

    def __init__(self, m: int, maximal_simplices: Iterable[Iterable[int]]):
        simplices = [_as_simplex(s) for s in maximal_simplices]
        if m <= 0:
            raise FanStructureError("vertex count must be positive")
        if not simplices:
            raise FanStructureError("empty complex")
        if len(set(simplices)) != len(simplices):
            raise FanStructureError("duplicate maximal simplices")
        sizes = {len(s) for s in simplices}
        if len(sizes) != 1:
            raise FanStructureError(f"maximal simplices of mixed sizes {sorted(sizes)}")
        if 0 in sizes:
            raise FanStructureError("empty maximal simplex")
        for s in simplices:
            if any(v < 0 or v >= m for v in s):
                raise FanStructureError(f"vertex out of range in {sorted(s)}")
        covered = set().union(*simplices)
        if covered != set(range(m)):
            missing = sorted(set(range(m)) - covered)
            raise FanStructureError(f"vertices {missing} lie in no maximal simplex")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "maximal_simplices", frozenset(simplices))

    @property
    def simplex_size(self) -> int:
        return len(next(iter(self.maximal_simplices)))

    def sorted_maximal(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(s)) for s in self.maximal_simplices)

    def contains(self, simplex: Iterable[int]) -> bool:
        s = _as_simplex(simplex)
        return any(s <= mx for mx in self.maximal_simplices)


@dataclass(frozen=True)
class TopologicalFan:
    """Pair of a simplicial complex and one CZ vector per vertex."""

    n: int
    sc: SimplicialComplex
    beta: tuple[CZVector, ...]

    def __init__(self, n: int, sc: SimplicialComplex, beta: Sequence[CZVector]):
        if n <= 0:
            raise FanStructureError("dimension must be positive")
        if sc.m < n:
            raise FanStructureError(f"m={sc.m} < n={n} is degenerate")
        if sc.simplex_size != n:
            raise FanStructureError(
                f"maximal simplices have {sc.simplex_size} vertices, expected {n}"
            )
        beta = tuple(tuple(v) for v in beta)
        if len(beta) != sc.m:
            raise FanStructureError(f"need {sc.m} vectors, got {len(beta)}")
        for i, vector in enumerate(beta):
            if len(vector) != n:
                raise FanStructureError(f"vector {i + 1} has length {len(vector)}")
            if not all(isinstance(c, CZMat) for c in vector):
                raise FanStructureError(f"vector {i + 1} holds non-CZMat entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "beta", beta)

    @property
    def m(self) -> int:
        return self.sc.m

    def real_row(self, i: int) -> Vec:
        return tuple(self.beta[i][j].b for j in range(self.n))

    def integer_row(self, i: int) -> tuple[int, ...]:
        return tuple(self.beta[i][j].v for j in range(self.n))

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        return self.sc.sorted_maximal()


# ---------------------------------------------------------------------------
# witnesses and reports


@dataclass(frozen=True)
class OverlapWitness:
    """A rational point strictly inside the cones of two distinct simplices."""

    simplex_a: tuple[int, ...]
    simplex_b: tuple[int, ...]
    point: Vec
    coefficients_a: Vec
    coefficients_b: Vec


@dataclass(frozen=True)
class UncoveredWitness:
    """A rational direction lying in no closed maximal cone."""

    direction: Vec


@dataclass(frozen=True)
class MultiCoverWitness:
    """A rational point interior to two or more maximal cones."""

    point: Vec
    simplices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WallWitness:
    """A ridge that breaks the wall structure (wrong multiplicity or side)."""

    wall: tuple[int, ...]
    simplices: tuple[tuple[int, ...], ...]
    reason: str


@dataclass(frozen=True)
class DeterminantWitness:
    """A maximal simplex whose integer part is not unimodular."""

    simplex: tuple[int, ...]
    determinant: int


@dataclass(frozen=True)
class DependenceWitness:
    """A maximal simplex whose real-part generators are linearly dependent."""

    simplex: tuple[int, ...]


@dataclass(frozen=True)
class DisconnectedWitness:
    """Wall-adjacency components that never meet."""

    components: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: object = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom outcome of validate(); failing axioms carry exact witnesses."""

    purity: AxiomCheck
    pseudomanifold: AxiomCheck
    linear_independence: AxiomCheck
    nonoverlap: AxiomCheck
    completeness: AxiomCheck
    nonsingularity: AxiomCheck
    determinants: tuple[tuple[tuple[int, ...], int], ...] = field(default=())
    seed: int = DEGREE_SAMPLE_SEED

    def checks(self) -> dict[str, AxiomCheck]:
        return {
            "purity": self.purity,
            "pseudomanifold": self.pseudomanifold,
            "linear_independence": self.linear_independence,
            "nonoverlap": self.nonoverlap,
            "completeness": self.completeness,
            "nonsingularity": self.nonsingularity,
        }

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks().values())


# ---------------------------------------------------------------------------
# cone geometry helpers


def cone_generators(fan: TopologicalFan, simplex: Iterable[int]) -> tuple[Vec, ...]:
    """Real-part generator rows for a simplex of the complex (sorted vertex order)."""
    s = _as_simplex(simplex)
    if s and not fan.sc.contains(s):
        raise UnknownSimplexError(f"{sorted(v + 1 for v in s)} is not a simplex")
    return tuple(fan.real_row(i) for i in sorted(s))


def _integer_row(row: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """A positive integer scale and the integer row scale * row."""
    scale = math.lcm(*(x.denominator for x in row))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in row)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


@dataclass(frozen=True)
class _Cone:
    """A cone's real-part generators, each scaled by a positive integer to an
    integer row, and the determinant of those rows.

    When the determinant is nonzero, `normals` holds the inward facet normals:
    row k of the adjugate of the generator columns, times the sign of the
    determinant. Normal k vanishes on every generator but the k-th, so its
    product with a point has the sign of the point's k-th coefficient.
    """

    scales: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    det: int
    normals: Optional[linalg.IntMat]

    def facet_values(self, point: Sequence[int]) -> list[int]:
        """Each inward facet normal times an integer point (cones with normals only)."""
        return [_dot(normal, point) for normal in self.normals]

    def coefficients(self, x: Vec) -> Optional[Vec]:
        """Exact coefficients of x over the unscaled generators, or None."""
        if self.normals is None:
            return None
        return tuple(
            scale * linalg.dot(normal, x) / abs(self.det)
            for scale, normal in zip(self.scales, self.normals)
        )


def _cone(
    integer_rows: Sequence[tuple[int, tuple[int, ...]]], simplex: Sequence[int]
) -> _Cone:
    """The cone of a simplex, from each vertex's (scale, integer row)."""
    scales, rows = zip(*(integer_rows[i] for i in simplex))
    det, adjugate = linalg.bareiss(tuple(zip(*rows)))
    normals = None
    if det:
        sign = 1 if det > 0 else -1
        normals = tuple(tuple(sign * x for x in row) for row in adjugate)
    return _Cone(scales, rows, det, normals)


def cone_coefficients(
    fan: TopologicalFan, simplex: Sequence[int], x: Vec
) -> Optional[Vec]:
    """Coefficients a with sum a_i g_i = x, or None if the generators are dependent."""
    s = sorted(simplex)
    integer_rows = {i: _integer_row(fan.real_row(i)) for i in s}
    return _cone(integer_rows, s).coefficients(linalg.vec(x))


def _in_span(gens: Sequence[Vec], x: Vec) -> bool:
    stacked = linalg.mat(list(gens) + [list(x)])
    only = linalg.mat(gens)
    return len(linalg.rref(stacked)[1]) == len(linalg.rref(only)[1])


#: Each wall (a maximal simplex minus one vertex) with the maximal simplices
#: that hold it, each paired with its opposite vertex; sorted by wall.
Walls = list[tuple[Simplex, list[tuple[Simplex, int]]]]


@dataclass(frozen=True)
class _ConeTable:
    """What the tiling checks read about a fan's real-part cones, built once
    per `validate`, `cones_nonoverlapping` or `is_complete` call: the sorted
    maximal simplices, each with its `_Cone`, and the walls with the two axiom
    checks made on them alone. It is local to one call, so no thread shares it.
    """

    fan: TopologicalFan
    cones: dict[tuple[int, ...], _Cone]
    walls: Walls
    pseudomanifold: AxiomCheck
    sides: AxiomCheck


def _cone_table(fan: TopologicalFan) -> _ConeTable:
    integer_rows = [_integer_row(fan.real_row(i)) for i in range(fan.m)]
    cones = {s: _cone(integer_rows, s) for s in fan.maximal_simplices()}
    walls = _walls(fan)
    sides = _wall_side_check(fan, cones, walls)
    return _ConeTable(fan, cones, walls, _pseudomanifold_check(walls), sides)


def _covered(table: _ConeTable, x: Vec) -> bool:
    """Whether x lies in some closed maximal cone."""
    point = _integer_row(x)[1]
    for s, cone in table.cones.items():
        if cone.normals is None:
            # dependent generators: fall back to a conservative span test
            if _in_span([table.fan.real_row(i) for i in s], x):
                return True
        elif min(cone.facet_values(point)) >= 0:
            return True
    return False


# ---------------------------------------------------------------------------
# axiom checks


def _purity_check(fan: TopologicalFan) -> AxiomCheck:
    # construction already enforces this; re-verified so the report stands alone
    for s in fan.maximal_simplices():
        if len(s) != fan.n:
            return AxiomCheck(False, WallWitness(s, (s,), "wrong simplex size"))
    return AxiomCheck(True)


def _linear_independence_check(table: _ConeTable) -> AxiomCheck:
    for s, cone in table.cones.items():
        if cone.det == 0:
            return AxiomCheck(
                False,
                DependenceWitness(s),
                "real parts of a maximal simplex are dependent",
            )
    return AxiomCheck(True)


def _walls(fan: TopologicalFan) -> Walls:
    walls: dict[Simplex, list[tuple[Simplex, int]]] = {}
    for mx in fan.sc.maximal_simplices:
        for p in mx:
            walls.setdefault(mx - {p}, []).append((mx, p))
    return sorted(walls.items(), key=lambda kv: sorted(kv[0]))


def _pseudomanifold_check(walls: Walls) -> AxiomCheck:
    for wall, incident in walls:
        if len(incident) != 2:
            return AxiomCheck(
                False,
                WallWitness(
                    tuple(sorted(wall)),
                    tuple(tuple(sorted(mx)) for mx, _ in incident),
                    f"wall lies in {len(incident)} maximal simplices, expected 2",
                ),
            )
    return AxiomCheck(True)


def _wall_normal(fan: TopologicalFan, wall: Simplex) -> Optional[Vec]:
    gens = [fan.real_row(i) for i in sorted(wall)]
    if not gens:
        # n = 1: the wall is the origin and any nonzero scalar serves
        return (Fraction(1),) if fan.n == 1 else None
    kernel = linalg.nullspace(linalg.mat(gens))
    if len(kernel) != 1:
        return None
    return kernel[0]


def _wall_side(cones: dict[tuple[int, ...], _Cone], mx: Simplex, p: int) -> int:
    """det(W, p) for the wall W = mx - {p} in sorted order followed by p, up to
    a positive factor: det(mx) with p moved from its sorted place to the end."""
    s = tuple(sorted(mx))
    det = cones[s].det
    return det if (len(s) - 1 - s.index(p)) % 2 == 0 else -det


def _wall_side_check(
    fan: TopologicalFan, cones: dict[tuple[int, ...], _Cone], walls: Walls
) -> AxiomCheck:
    for wall, incident in walls:
        if len(incident) != 2:
            continue
        side_p, side_q = (_wall_side(cones, mx, p) for mx, p in incident)
        if side_p * side_q < 0:
            continue
        witness = WallWitness(
            tuple(sorted(wall)),
            tuple(tuple(sorted(mx)) for mx, _ in incident),
            "opposite vertices do not straddle the wall hyperplane",
        )
        if _wall_normal(fan, wall) is None:
            return AxiomCheck(False, witness, "wall spans a degenerate hyperplane")
        return AxiomCheck(False, witness)
    return AxiomCheck(True)


def _generic_degree(table: _ConeTable) -> int:
    """How many open maximal cones hold the first point x = (1, t, ..., t^(n-1)),
    for t = 1/97, 1 + 1/97, 2 + 1/97, ..., that lies on no facet hyperplane.

    A facet hyperplane meets this curve in at most n - 1 points, so the walk
    stops within (facet hyperplanes) * (n - 1) + 1 steps. Call it only when
    every wall is good: then each vertex of a cone lies strictly off the
    hyperplane of the wall opposite it, so every cone has facet normals.
    """
    t = Fraction(1, 97)
    while True:
        point = _integer_row(tuple(t**e for e in range(table.fan.n)))[1]
        values = [cone.facet_values(point) for cone in table.cones.values()]
        if all(0 not in c for c in values):
            return sum(1 for c in values if min(c) > 0)
        t += 1


def _covered_once(table: _ConeTable) -> bool:
    """Whether every wall is good and one generic point lies in exactly one open cone.

    A wall is good when it lies in exactly two maximal cones whose opposite
    vertices are strictly on opposite sides of it. Crossing a good wall leaves
    one cone and enters another, so when every wall is good, the number of open
    cones that hold a point off every facet hyperplane is the same everywhere
    (De Loera, Rambau and Santos, *Triangulations*, ch. 4). That number is 1
    exactly when the cone interiors are pairwise disjoint and the closed cones
    cover R^n.
    """
    if not (table.pseudomanifold.passed and table.sides.passed):
        return False
    return _generic_degree(table) == 1


def _connectivity_check(table: _ConeTable) -> AxiomCheck:
    maximal = list(table.cones)
    index = {frozenset(s): k for k, s in enumerate(maximal)}
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(maximal))}
    for _, incident in table.walls:
        if len(incident) == 2:
            a, b = (index[mx] for mx, _ in incident)
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) == len(maximal):
        return AxiomCheck(True)
    inside = tuple(maximal[k] for k in sorted(seen))
    outside = tuple(maximal[k] for k in range(len(maximal)) if k not in seen)
    return AxiomCheck(
        False,
        DisconnectedWitness((inside, outside)),
        "wall-adjacency graph is disconnected",
    )


def _random_direction(rng: random.Random, n: int) -> Vec:
    while True:
        x = tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n)
        )
        if any(c != 0 for c in x):
            return x


def _degree_check(table: _ConeTable, seed: int) -> AxiomCheck:
    rng = random.Random(seed)
    accepted = 0
    attempts = 0
    while accepted < DEGREE_SAMPLE_COUNT:
        attempts += 1
        if attempts > 200 * DEGREE_SAMPLE_COUNT:
            return AxiomCheck(False, None, "could not sample generic directions")
        x = _random_direction(rng, table.fan.n)
        point = _integer_row(x)[1]
        interior: list[tuple[int, ...]] = []
        on_boundary = False
        for s, cone in table.cones.items():
            if cone.normals is None:
                continue
            lowest = min(cone.facet_values(point))
            if lowest > 0:
                interior.append(s)
            elif lowest == 0:
                on_boundary = True
                break
        if on_boundary:
            continue
        if len(interior) == 0:
            return AxiomCheck(False, UncoveredWitness(x), "uncovered direction")
        if len(interior) > 1:
            return AxiomCheck(
                False,
                MultiCoverWitness(x, tuple(interior)),
                "direction covered more than once",
            )
        accepted += 1
    return AxiomCheck(True)


def _uncovered_near_wall(
    table: _ConeTable, wall: Simplex, away_from: int
) -> Optional[UncoveredWitness]:
    """Search for an uncovered direction just across a defective wall."""
    fan = table.fan
    if fan.n == 1:
        for candidate in ((Fraction(1),), (Fraction(-1),)):
            if not _covered(table, candidate):
                return UncoveredWitness(candidate)
        return None
    normal = _wall_normal(fan, wall)
    if normal is None:
        return None
    side = linalg.dot(normal, fan.real_row(away_from))
    if side == 0:
        return None
    direction = tuple(-x if side > 0 else x for x in normal)
    base = tuple(
        sum(col) for col in zip(*(fan.real_row(i) for i in sorted(wall)))
    )
    eps = Fraction(1)
    for _ in range(40):
        candidate = tuple(b + eps * d for b, d in zip(base, direction))
        if any(c != 0 for c in candidate) and not _covered(table, candidate):
            return UncoveredWitness(candidate)
        eps /= 2
    return None


def _uncovered_by_sampling(
    table: _ConeTable, seed: int, budget: int = 500
) -> Optional[UncoveredWitness]:
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(budget):
        x = _random_direction(rng, table.fan.n)
        if not _covered(table, x):
            return UncoveredWitness(x)
    return None


def _separated(a: _Cone, b: _Cone) -> bool:
    """Whether a facet hyperplane of cone a has every generator of cone b on
    its closed outer side. The open cone a lies strictly inside that facet's
    half-space and every positive combination of b's generators lies outside
    it, so the two cones share no interior point."""
    return a.normals is not None and any(
        all(_dot(normal, row) <= 0 for row in b.rows) for normal in a.normals
    )


def _nonoverlap_check(table: _ConeTable) -> AxiomCheck:
    fan = table.fan
    cones = list(table.cones.items())
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            (simplex_a, cone_a), (simplex_b, cone_b) = cones[a], cones[b]
            if _separated(cone_a, cone_b) or _separated(cone_b, cone_a):
                continue
            gens_a = [fan.real_row(i) for i in simplex_a]
            gens_b = [fan.real_row(i) for i in simplex_b]
            cols = len(gens_a) + len(gens_b)
            equalities = linalg.mat(
                [
                    [gens_a[i][row] for i in range(len(gens_a))]
                    + [-gens_b[k][row] for k in range(len(gens_b))]
                    for row in range(fan.n)
                ]
            )
            kernel = linalg.nullspace(equalities)
            if not kernel:
                continue
            rows = [
                (tuple(basis[t] for basis in kernel), Fraction(0))
                for t in range(cols)
            ]
            y = fme.strict_feasible(rows, len(kernel))
            if y is None:
                continue
            x = tuple(
                sum(y[s] * kernel[s][t] for s in range(len(kernel)))
                for t in range(cols)
            )
            coeffs_a = x[: len(gens_a)]
            coeffs_b = x[len(gens_a) :]
            point = tuple(
                sum(coeffs_a[i] * gens_a[i][row] for i in range(len(gens_a)))
                for row in range(fan.n)
            )
            return AxiomCheck(
                False,
                OverlapWitness(simplex_a, simplex_b, point, coeffs_a, coeffs_b),
                "two maximal cones share interior points",
            )
    return AxiomCheck(True)


def _completeness_check(table: _ConeTable, seed: int) -> AxiomCheck:
    for defect, fallback in (
        (table.pseudomanifold, "wall defect"),
        (table.sides, "wall side defect"),
    ):
        if defect.passed:
            continue
        witness = defect.witness
        if isinstance(witness, WallWitness) and witness.simplices:
            wall = frozenset(witness.wall)
            opposite = next(iter(frozenset(witness.simplices[0]) - wall), None)
            if opposite is not None:
                found = _uncovered_near_wall(table, wall, opposite)
                if found:
                    return AxiomCheck(False, found, "support misses a direction")
        found = _uncovered_by_sampling(table, seed)
        return AxiomCheck(False, found or witness, defect.detail or fallback)

    connectivity = _connectivity_check(table)
    if not connectivity.passed:
        found = _uncovered_by_sampling(table, seed)
        return AxiomCheck(False, found or connectivity.witness, connectivity.detail)

    return _degree_check(table, seed)


def _nonsingularity_check(
    fan: TopologicalFan,
) -> tuple[AxiomCheck, tuple[tuple[tuple[int, ...], int], ...]]:
    determinants = []
    failure: Optional[DeterminantWitness] = None
    for s in fan.maximal_simplices():
        d = linalg.bareiss([fan.integer_row(i) for i in s])[0]
        determinants.append((s, d))
        if abs(d) != 1 and failure is None:
            failure = DeterminantWitness(s, d)
    if failure is not None:
        return (
            AxiomCheck(False, failure, "integer part is not unimodular"),
            tuple(determinants),
        )
    return AxiomCheck(True), tuple(determinants)


# ---------------------------------------------------------------------------
# public operations


def cones_nonoverlapping(fan: TopologicalFan) -> AxiomCheck:
    """Exact pairwise disjointness of maximal cone interiors (report-valued).

    Holds at once when every wall is good and one generic point lies in exactly
    one open cone; otherwise every pair that no facet hyperplane of either cone
    separates is decided by Fourier-Motzkin elimination, and the first
    overlapping pair is the witness.
    """
    table = _cone_table(fan)
    if _covered_once(table):
        return AxiomCheck(True)
    return _nonoverlap_check(table)


def is_complete(fan: TopologicalFan, seed: int = DEGREE_SAMPLE_SEED) -> AxiomCheck:
    """Whether the closed cones cover all of R^n.

    Holds at once when every wall is good and one generic point lies in exactly
    one open cone. Otherwise a wall defect, a disconnected wall graph or a
    seeded sample of directions decides, and `seed` picks the samples.
    """
    if not _purity_check(fan).passed:
        raise PreconditionError("purity must hold")
    table = _cone_table(fan)
    if _covered_once(table):
        return AxiomCheck(True)
    if not _nonoverlap_check(table).passed:
        raise PreconditionError("cone interiors overlap")
    return _completeness_check(table, seed)


def is_nonsingular(fan: TopologicalFan) -> AxiomCheck:
    """Whether every maximal simplex has integer part of determinant +-1."""
    return _nonsingularity_check(fan)[0]


def is_ordinary(fan: TopologicalFan) -> bool:
    """Whether every component is the diagonal embedding of an integer."""
    return all(
        comp.c == 0 and comp.b == comp.v for vector in fan.beta for comp in vector
    )


@lru_cache(maxsize=512)
def _validate_cached(fan: TopologicalFan, seed: int) -> ValidationReport:
    purity = _purity_check(fan)
    table = _cone_table(fan)
    independence = _linear_independence_check(table)
    if _covered_once(table):
        nonoverlap = completeness = AxiomCheck(True)
    else:
        nonoverlap = _nonoverlap_check(table)
        completeness = _completeness_check(table, seed)
    nonsingularity, determinants = _nonsingularity_check(fan)
    return ValidationReport(
        purity=purity,
        pseudomanifold=table.pseudomanifold,
        linear_independence=independence,
        nonoverlap=nonoverlap,
        completeness=completeness,
        nonsingularity=nonsingularity,
        determinants=determinants,
        seed=seed,
    )


def validate(fan: TopologicalFan, seed: int = DEGREE_SAMPLE_SEED) -> ValidationReport:
    """Run every axiom check and report all outcomes (no short-circuiting)."""
    return _validate_cached(fan, seed)


# ---------------------------------------------------------------------------
# random fan corpus generator


def _random_rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _blowup_vectors(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Cyclic primitive integer vectors with consecutive determinants +1."""
    seeds = {
        "cp2": [(1, 0), (0, 1), (-1, -1)],
        "quadric": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    }
    rays = list(seeds[rng.choice(["cp2", "quadric"])])
    while len(rays) < size:
        k = rng.randrange(len(rays))
        a, b = rays[k], rays[(k + 1) % len(rays)]
        rays.insert(k + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def random_fan(seed: int, n: int, size_bound: int = 5) -> TopologicalFan:
    """Seeded valid fan for the test corpus (n = 1 or 2 only)."""
    if n not in (1, 2):
        raise ValueError(f"random_fan supports n in {{1, 2}}, got {n}")
    rng = random.Random(seed)
    for _ in range(32):
        fan = _random_fan_once(rng, n, max(size_bound, 3))
        if fan is not None and validate(fan).all_passed:
            return fan
    raise GenerationError(f"no valid fan for seed={seed}, n={n}")


def _random_fan_once(
    rng: random.Random, n: int, size_bound: int
) -> Optional[TopologicalFan]:
    flavor = rng.choice(["ordinary", "twisted", "stretched", "generic"])
    if n == 1:
        v1, v2 = rng.choice([1, -1]), rng.choice([1, -1])
        if flavor == "ordinary":
            b1, b2, c1, c2 = Fraction(1), Fraction(-1), Fraction(0), Fraction(0)
            v1, v2 = 1, -1
        else:
            b1 = _random_rational(rng, 1, 9, 4)
            b2 = -_random_rational(rng, 1, 9, 4)
            zero_c = flavor == "stretched"
            c1 = Fraction(0) if zero_c else _random_rational(rng, -4, 4, 4)
            c2 = Fraction(0) if zero_c else _random_rational(rng, -4, 4, 4)
        sc = SimplicialComplex(2, [[0], [1]])
        beta = ((CZMat(b1, c1, v1),), (CZMat(b2, c2, v2),))
        return TopologicalFan(1, sc, beta)

    rays = _blowup_vectors(rng, size_bound)
    m = len(rays)
    sc = SimplicialComplex(m, [[i, (i + 1) % m] for i in range(m)])
    if flavor == "ordinary":
        beta = tuple(diagonal_vector(v) for v in rays)
        return TopologicalFan(2, sc, beta)

    perturb = flavor in ("stretched", "generic")
    with_c = flavor in ("twisted", "generic")
    magnitude = max(abs(x) for v in rays for x in v)
    den = 8 * magnitude
    vectors = []
    for v in rays:
        if perturb:
            b = tuple(
                Fraction(x) + Fraction(rng.randint(-2, 2), den) for x in v
            )
        else:
            b = tuple(Fraction(x) for x in v)
        c = tuple(
            _random_rational(rng, -3, 3, 4) if with_c else Fraction(0)
            for _ in range(2)
        )
        vectors.append(tuple(CZMat(b[j], c[j], v[j]) for j in range(2)))
    return TopologicalFan(2, sc, tuple(vectors))
