"""Seeded corpus of topological fans whose answers are known by construction.

Fans are built from the projective-space and Hirzebruch fans by stellar
subdivision: a maximal cone I is replaced by the n cones obtained by swapping
one of its vertices for the new vector sum_{i in I} beta_i.  Sums of CZ data
keep every integer part unimodular and put the new real part strictly inside
I, so validity is preserved.  Twists, rational rescaling of real parts and the
four defect mutations are applied afterwards, and every expected answer comes
from the construction and from the exact arithmetic in ``exact.py`` -- never
from the package under test.

Fans are plain data: ``Fan(n, vectors, simplices)`` where each vector is a
tuple of (b, c, v) triples and each simplex a sorted tuple of 0-based vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import exact

Triple = tuple[Fraction, Fraction, int]


@dataclass(frozen=True)
class Fan:
    n: int
    vectors: tuple[tuple[Triple, ...], ...]
    simplices: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def cones(self) -> int:
        return len(self.simplices)

    def real(self, i: int) -> tuple[Fraction, ...]:
        return tuple(t[0] for t in self.vectors[i])

    def integer(self, i: int) -> tuple[int, ...]:
        return tuple(t[2] for t in self.vectors[i])

    def real_generators(self, simplex) -> list[tuple[Fraction, ...]]:
        return [self.real(i) for i in simplex]


def _ordinary(n: int, rays, simplices) -> Fan:
    vectors = tuple(
        tuple((Fraction(x), Fraction(0), int(x)) for x in ray) for ray in rays
    )
    return Fan(n, vectors, tuple(sorted(tuple(sorted(s)) for s in simplices)))


def cp(n: int) -> Fan:
    rays = [[int(j == i) for j in range(n)] for i in range(n)] + [[-1] * n]
    simplices = [[i for i in range(n + 1) if i != omit] for omit in range(n + 1)]
    return _ordinary(n, rays, simplices)


def hirzebruch(a: int) -> Fan:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return _ordinary(2, rays, [[0, 1], [1, 2], [2, 3], [3, 0]])


def _vector_sum(fan: Fan, simplex) -> tuple[Triple, ...]:
    return tuple(
        (
            sum((fan.vectors[i][j][0] for i in simplex), Fraction(0)),
            sum((fan.vectors[i][j][1] for i in simplex), Fraction(0)),
            sum(fan.vectors[i][j][2] for i in simplex),
        )
        for j in range(fan.n)
    )


def subdivide(fan: Fan, rng: random.Random, cones: int) -> Fan:
    """Stellar subdivisions until the fan has at least ``cones`` maximal cones.

    Each step subdivides a cone of least total |integer entry|, ties broken by
    the seed.  Entries stay as small as possible, so fans of one size cost
    about the same to decide whatever the seed.
    """
    vectors = list(fan.vectors)
    simplices = list(fan.simplices)
    while len(simplices) < cones:
        weights = [sum(abs(x) for i in s for _, _, x in vectors[i]) for s in simplices]
        lightest = min(weights)
        cone = simplices.pop(rng.choice([k for k, w in enumerate(weights) if w == lightest]))
        new = len(vectors)
        vectors.append(_vector_sum(Fan(fan.n, tuple(vectors), ()), cone))
        for i in cone:
            simplices.append(tuple(sorted([v for v in cone if v != i] + [new])))
    return Fan(fan.n, tuple(vectors), tuple(sorted(simplices)))


# ---------------------------------------------------------------------------
# non-toric twist


def twist(fan: Fan, rng: random.Random, scaled: int = 3) -> Fan:
    """Rescale a few real parts by positive non-integer rationals and give one
    vertex c != 0, keeping some maximal cone clear of every modified vertex.

    The modified vertices are drawn from those in the fewest maximal cones, and
    the factors have small numerators and denominators, so twisted fans of one
    size cost about the same to decide whatever the seed.  Rescaling a real
    part by a positive scalar keeps every cone, so validity is unchanged.  The
    untouched cone has ordinary duals, and pairing them with a modified vector
    gives an exponent that is not a scalar integer, so the fan is
    NonToricTopological; that cone's ACS candidate is the standard rotation
    while a cone through a modified vertex gives another, so no invariant
    structure exists.
    """
    degree = [sum(i in s for s in fan.simplices) for i in range(fan.m)]
    by_degree = sorted(range(fan.m), key=lambda i: (degree[i], rng.random()))
    for _ in range(100):
        modified = rng.sample(by_degree[: max(2 * (scaled + 1), fan.n + 1)], scaled + 1)
        if any(not set(s) & set(modified) for s in fan.simplices):
            break
    else:
        raise RuntimeError("no maximal cone avoids the twisted vertices")
    vectors = [list(vec) for vec in fan.vectors]
    for i in modified[:scaled]:
        factor = rng.choice((Fraction(3, 2), Fraction(2, 3), Fraction(4, 3), Fraction(3, 4)))
        vectors[i] = [(b * factor, c, v) for b, c, v in vectors[i]]
    j = modified[scaled]
    k = rng.randrange(fan.n)
    b, c, v = vectors[j][k]
    vectors[j][k] = (b, c + rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))), v)
    return Fan(fan.n, tuple(tuple(vec) for vec in vectors), fan.simplices)


# ---------------------------------------------------------------------------
# defect mutations


#: Axioms each mutation breaks by construction; every other axiom still holds.
MUTATION_TARGETS = {
    "drop-cone": ("pseudomanifold", "completeness"),
    "move-ray": ("nonoverlap",),
    "flip-real": ("nonoverlap", "completeness"),
    "double-integer": ("nonsingularity",),
}


@dataclass(frozen=True)
class Mutation:
    fan: Fan
    targets: tuple[str, ...]
    #: Points the construction knows to be bad: uncovered, or interior to two cones.
    evidence: tuple


def drop_cone(fan: Fan, rng: random.Random) -> Mutation:
    k = rng.randrange(fan.cones)
    dropped = fan.simplices[k]
    rest = fan.simplices[:k] + fan.simplices[k + 1 :]
    # the barycentre of the dropped cone is interior to it and so lies in no
    # other closed cone: an uncovered direction
    centre = _barycentre(fan, dropped)
    return Mutation(Fan(fan.n, fan.vectors, rest), MUTATION_TARGETS["drop-cone"], (centre,))


def _covered(fan: Fan, x) -> bool:
    return any(exact.in_closed_cone(fan.real_generators(s), x) for s in fan.simplices)


def _barycentre(fan: Fan, simplex) -> tuple[Fraction, ...]:
    return tuple(sum(col) for col in zip(*fan.real_generators(simplex)))


def _newest(fan: Fan) -> range:
    """The last quarter of the vertices, the most recent subdivision rays.

    Mutations touch these, so the first overlapping cone pair sits late in
    the sorted order whatever the seed, and the cost of finding it varies
    little."""
    return range(fan.m - max(fan.m // 4, 1), fan.m)


def move_ray(fan: Fan, rng: random.Random) -> Optional[Mutation]:
    """Move vertex p of a cone W+{p} just across the wall W into W+{q}.

    The moved cone then lies inside W+{q}.  A move is kept only when every
    cone stays independent and the old ray and the old star of p stay
    covered, so non-overlap is the only axiom that breaks.
    """
    walls = exact.walls(fan.simplices)
    choices = sorted(
        (w, p, q)
        for w, inc in walls.items()
        if len(inc) == 2
        for (_, p), (_, q) in (inc, inc[::-1])
        if p in _newest(fan)
    )
    for _ in range(50):
        wall, p, q = rng.choice(choices)
        base = _barycentre(fan, wall)
        delta = Fraction(1, 4)
        moved = tuple(x + delta * y for x, y in zip(base, fan.real(q)))
        vectors = list(fan.vectors)
        vectors[p] = tuple((moved[j], c, v) for j, (_, c, v) in enumerate(fan.vectors[p]))
        candidate = Fan(fan.n, tuple(vectors), fan.simplices)
        if not exact.independent(candidate):
            continue
        star = [s for s in fan.simplices if p in s]
        if not all(_covered(candidate, x) for x in [fan.real(p)] + [_barycentre(fan, s) for s in star]):
            continue
        # 2 * sum(W) + delta * b_q is interior to both W+{p'} and W+{q}
        point = tuple(2 * x + delta * y for x, y in zip(base, fan.real(q)))
        return Mutation(candidate, MUTATION_TARGETS["move-ray"], (point,))
    return None


def flip_real(fan: Fan, rng: random.Random) -> Optional[Mutation]:
    """Negate the real part of one vertex j.

    The old ray b_j then lies in no closed cone.  A flip is kept only when
    some point of a flipped cone is interior to a cone away from j, which is
    the overlap witness.
    """
    order = list(_newest(fan))
    rng.shuffle(order)
    for j in order:
        vectors = list(fan.vectors)
        vectors[j] = tuple((-b, c, v) for b, c, v in fan.vectors[j])
        candidate = Fan(fan.n, tuple(vectors), fan.simplices)
        if not exact.independent(candidate):
            continue
        away = [fan.real_generators(s) for s in fan.simplices if j not in s]
        for flipped in (s for s in fan.simplices if j in s):
            face = _barycentre(fan, [v for v in flipped if v != j])
            for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
                point = tuple(eps * y - x for x, y in zip(fan.real(j), face))
                if any(exact.in_open_cone(g, point) for g in away):
                    evidence = (fan.real(j), point)
                    return Mutation(candidate, MUTATION_TARGETS["flip-real"], evidence)
    return None


def double_integer(fan: Fan, rng: random.Random) -> Mutation:
    """Double the integer part of one vertex: every cone through it has det +-2."""
    j = rng.randrange(fan.m)
    vectors = list(fan.vectors)
    vectors[j] = tuple((b, c, 2 * v) for b, c, v in fan.vectors[j])
    return Mutation(Fan(fan.n, tuple(vectors), fan.simplices), MUTATION_TARGETS["double-integer"], ())


MUTATIONS = {
    "drop-cone": drop_cone,
    "move-ray": move_ray,
    "flip-real": flip_real,
    "double-integer": double_integer,
}


# ---------------------------------------------------------------------------
# documents


def _rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def document(fan: Fan) -> dict:
    """The fan document format read by ``topfan --fan`` (1-based vertices)."""
    return {
        "n": fan.n,
        "m": fan.m,
        "simplices": [[v + 1 for v in s] for s in fan.simplices],
        "beta": [[[_rational(b), _rational(c), v] for b, c, v in vec] for vec in fan.vectors],
    }
