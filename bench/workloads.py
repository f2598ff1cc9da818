"""The four seeded workloads and their known answers.

Every workload is a fixed list of ops per pass, so each run of a given seed
does the same work and the medians compare like with like.  A seed is an int,
or a string such as ``"7.2"`` for the corpus of the third pass of a run with
seed 7.

* ``toric-tiling``: ordinary fans (b = v, c = 0) from stellar subdivision of
  cp2, Hirzebruch and cp3, M from 8 to 64.  Answer: every axiom passes,
  ``Toric``, J0 is the standard rotation.  ``classify`` cannot short-circuit
  here, so every transition table is built and every cone pair reaches
  nullspace plus FME.
* ``nontoric-twist``: subdivided cp3/cp4 with three real parts rescaled and one
  c-twist, M from 16 to 64.  Answer: valid, ``NonToricTopological``, no ACS.
* ``defective``: the four mutations of members of the first two workloads.
  Answer: exit code 1, the targeted axiom fails, and every witness re-checks.
* ``eval-sweep``: chart points on four small fans of the first two workloads;
  one point in eight has an extreme but legal magnitude.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import corpus

VALID_TORIC = {"exit": 0, "valid": True, "classification": "Toric", "acs_exists": True}
VALID_NONTORIC = {
    "exit": 0,
    "valid": True,
    "classification": "NonToricTopological",
    "acs_exists": False,
}

#: (n, maximal cones) per fan of one pass.  M roughly doubles along each
#: ladder; small rungs repeat so that one pass holds enough CLI samples for a
#: tail percentile while the largest rung still dominates the exact work.  The
#: repeats also put the median and the tail sample of the CLI latencies inside
#: a group of like fans rather than on the edge between two rungs.
TORIC_LADDER = (
    (2, 8), (2, 8), (3, 8), (2, 16), (2, 16), (3, 16), (3, 16), (2, 32), (2, 32), (3, 32), (2, 64),
)
TWIST_LADDER = ((3, 16), (3, 16), (3, 16), (4, 16), (3, 32), (4, 32), (3, 64))

#: Mutated members: (source ladder, index in it) for each mutation kind.  The
#: witness searches behind a moved ray cost 10-20% more or less from one fan to
#: the next, so a pass mutates seven mid-sized members, M 16 to 32, and the
#: throughput of a pass varies little with the seed; no one fan dominates.
DEFECT_SOURCES = (
    ("toric", 3), ("toric", 5), ("toric", 7), ("toric", 9), ("twist", 0), ("twist", 3), ("twist", 4),
)

#: Fans of the eval sweep: (source ladder, index in it).
EVAL_FANS = (("toric", 3), ("toric", 5), ("twist", 0), ("twist", 3))
EVAL_POINTS = 1536
EVAL_CLI_POINTS = 16
#: Every EXTREME_EVERY-th point has an extreme magnitude; every PROBE_EVERY-th
#: point (offset so the two never coincide) also runs the divergence probe.
EXTREME_EVERY = 8
PROBE_EVERY = 8


@dataclass
class FanItem:
    label: str
    fan: corpus.Fan
    expected: dict
    path: str = ""


@dataclass
class Corpus:
    kind: str  # "report" or "point"
    items: list[FanItem]
    points: list[dict] = field(default_factory=list)
    structure_paths: dict[int, str] = field(default_factory=dict)

    def fan_paths(self) -> list[str]:
        return [item.path for item in self.items]


def _base(n: int, position: int, rng: random.Random) -> corpus.Fan:
    """cp(n), or for n = 2 every other rung a Hirzebruch surface with small a,
    so both seeds appear in every pass and entries stay comparable."""
    if n == 2 and position % 2:
        return corpus.hirzebruch(rng.choice((0, 1)))
    return corpus.cp(n)


def toric_ladder(seed: int | str) -> list[FanItem]:
    rng = random.Random(f"toric-{seed}")
    items = []
    for position, (n, cones) in enumerate(TORIC_LADDER):
        fan = corpus.subdivide(_base(n, position, rng), rng, cones)
        items.append(FanItem(f"toric-n{n}-M{fan.cones}", fan, VALID_TORIC))
    return items


def twist_ladder(seed: int | str) -> list[FanItem]:
    rng = random.Random(f"twist-{seed}")
    items = []
    for n, cones in TWIST_LADDER:
        fan = corpus.twist(corpus.subdivide(corpus.cp(n), rng, cones), rng)
        items.append(FanItem(f"twist-n{n}-M{fan.cones}", fan, VALID_NONTORIC))
    return items


def defect_items(seed: int | str) -> list[FanItem]:
    rng = random.Random(f"defect-{seed}")
    ladders = {"toric": toric_ladder(seed), "twist": twist_ladder(seed)}
    items = []
    for kind, mutate in corpus.MUTATIONS.items():
        for source, index in DEFECT_SOURCES:
            base = ladders[source][index]
            mutation = next(filter(None, (mutate(base.fan, rng) for _ in range(10))), None)
            if mutation is None:
                raise RuntimeError(f"{kind} found no admissible change of {base.label}")
            expected = {"exit": 1, "valid": False, "targets": list(mutation.targets)}
            items.append(FanItem(f"{kind}-{base.label}", mutation.fan, expected))
    return items


def standard_structure(n: int, ell: int = 1) -> list[list[int]]:
    size = 2 * (n + ell)
    rows = [[0] * size for _ in range(size)]
    for s in range(n + ell):
        rows[2 * s][2 * s + 1] = -1
        rows[2 * s + 1][2 * s] = 1
    return rows


def _coordinate(rng: random.Random, extreme: bool) -> complex:
    if extreme:
        exponent = rng.uniform(170, 220) * rng.choice([-1, 1])
        modulus = 10.0**exponent
    else:
        modulus = math.exp(rng.uniform(-1.5, 1.5))
    return cmath.rect(modulus, rng.uniform(-math.pi, math.pi))


def eval_points(seed: int | str, fans: list[corpus.Fan]) -> list[dict]:
    rng = random.Random(f"eval-{seed}")
    points = []
    for k in range(EVAL_POINTS):
        index = k % len(fans)
        fan = fans[index]
        simplex, target = rng.sample(fan.simplices, 2)
        extreme = k % EXTREME_EVERY == EXTREME_EVERY // 2
        coords = [_coordinate(rng, False) for _ in range(fan.n)]
        if extreme:
            coords[rng.randrange(fan.n)] = _coordinate(rng, True)
        points.append(
            {
                "fan": index,
                "simplex": list(simplex),
                "target": list(target),
                "point": [[w.real, w.imag] for w in coords],
                "extreme": extreme,
                "probe": k % PROBE_EVERY == 0,
            }
        )
    return points


def build(workload: str, seed: int | str, work: Path) -> Corpus:
    """Generate the workload's inputs into ``work`` and return them with their answers."""
    if workload == "toric-tiling":
        result = Corpus("report", toric_ladder(seed))
    elif workload == "nontoric-twist":
        result = Corpus("report", twist_ladder(seed))
    elif workload == "defective":
        result = Corpus("report", defect_items(seed))
    elif workload == "eval-sweep":
        ladders = {"toric": toric_ladder(seed), "twist": twist_ladder(seed)}
        items = [ladders[source][index] for source, index in EVAL_FANS]
        result = Corpus("point", items)
        result.points = eval_points(seed, [item.fan for item in items])
        for n in sorted({item.fan.n for item in items}):
            path = work / f"structure-n{n}.json"
            path.write_text(json.dumps(standard_structure(n)))
            result.structure_paths[n] = str(path)
    else:
        raise KeyError(workload)
    for k, item in enumerate(result.items):
        path = work / f"{k:02d}-{item.label}.json"
        path.write_text(json.dumps(corpus.document(item.fan)))
        item.path = str(path)
    return result


WORKLOADS = ("toric-tiling", "nontoric-twist", "defective", "eval-sweep")
