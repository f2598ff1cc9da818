"""Output checker: every op is judged against the answer known by construction.

An op fails when it raised, printed a traceback, exited with the wrong code,
emitted JSON that a strict parser rejects, or returned a verdict, witness or
value that disagrees with the known answer.  Witnesses are re-checked with the
benchmark's own arithmetic.  Reports are never byte-compared, and the report's
``seed`` field is not read.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Optional

import exact

FORMULA_TOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _rationals(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _simplex(values) -> tuple[int, ...]:
    return tuple(sorted(int(v) - 1 for v in values))


def standard_rotation(n: int) -> list[list[str]]:
    """The report rendering of the block-diagonal standard complex structure."""
    rows = [["0"] * (2 * n) for _ in range(2 * n)]
    for s in range(n):
        rows[2 * s][2 * s + 1] = "-1"
        rows[2 * s + 1][2 * s] = "1"
    return rows


# ---------------------------------------------------------------------------
# witnesses


def witness_problem(fan, witness: dict) -> Optional[str]:
    """None when the witness re-checks in exact arithmetic, else the reason."""
    maximal = set(fan.simplices)
    kind = witness.get("kind")
    if kind == "overlap":
        a, b = _simplex(witness["simplex_a"]), _simplex(witness["simplex_b"])
        point = _rationals(witness["point"])
        if a == b or a not in maximal or b not in maximal:
            return "overlap witness names bad simplices"
        for s in (a, b):
            if not exact.in_open_cone(fan.real_generators(s), point):
                return f"overlap point not interior to {s}"
        return None
    if kind == "uncovered":
        direction = _rationals(witness["direction"])
        if not any(direction):
            return "zero uncovered direction"
        for s in fan.simplices:
            if exact.in_closed_cone(fan.real_generators(s), direction):
                return f"uncovered direction lies in cone {s}"
        return None
    if kind == "multicover":
        point = _rationals(witness["point"])
        cones = [_simplex(s) for s in witness["simplices"]]
        if len(set(cones)) < 2:
            return "multicover names fewer than two cones"
        for s in cones:
            if s not in maximal or not exact.in_open_cone(fan.real_generators(s), point):
                return f"multicover point not interior to {s}"
        return None
    if kind == "determinant":
        s = _simplex(witness["simplex"])
        if s not in maximal:
            return "determinant witness names a non-maximal simplex"
        own = exact.integer_det(fan, s)
        if own != witness["determinant"] or abs(own) == 1:
            return f"determinant {witness['determinant']} vs own {own}"
        return None
    if kind == "dependence":
        s = _simplex(witness["simplex"])
        if s not in maximal or exact.det(fan.real_generators(s)) != 0:
            return "dependence witness has independent generators"
        return None
    if kind == "wall":
        wall = _simplex(witness["wall"])
        if wall not in exact.walls(fan.simplices):
            return f"{wall} is not a face of a maximal cone"
        return f"wall {wall} is regular" if exact.regular_wall(fan, wall) else None
    if kind == "disconnected":
        components = [{_simplex(s) for s in comp} for comp in witness["components"]]
        if set().union(*components) != maximal or sum(map(len, components)) != len(maximal):
            return "components do not partition the cones"
        for incident in exact.walls(fan.simplices).values():
            owners = {next(k for k, c in enumerate(components) if s in c) for s, _ in incident}
            if len(owners) > 1:
                return "components share a wall"
        return None
    return f"unknown witness kind {kind!r}"


# ---------------------------------------------------------------------------
# report and eval outputs


def check_report(fan, expected: dict, code, out: str, err: str) -> Optional[str]:
    """Judge one ``topfan report --format json`` output; None when correct."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    try:
        doc = strict_loads(out)
        results = doc["results"]
        validation = results["validation"]
        axioms = validation["axioms"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad report JSON: {exc}"
    for entry in validation.get("determinants", []):
        s = _simplex(entry["simplex"])
        if exact.integer_det(fan, s) != entry["determinant"]:
            return f"determinant of {s} reported as {entry['determinant']}"
    if expected["valid"]:
        if not validation["all_passed"] or not all(a["passed"] for a in axioms.values()):
            return "valid fan reported failing"
        if results.get("classification") != expected["classification"]:
            return f"classification {results.get('classification')!r}"
        acs = results.get("acs") or {}
        if acs.get("exists") != expected["acs_exists"] or acs.get("equivalence_holds") is not True:
            return f"acs block {acs!r}"
        if expected["acs_exists"] and acs.get("j0") != standard_rotation(fan.n):
            return "J0 is not the standard rotation"
        return None
    if validation["all_passed"]:
        return "defective fan reported valid"
    for name in expected["targets"]:
        if axioms[name]["passed"]:
            return f"targeted axiom {name} reported passing"
    for name, axiom in axioms.items():
        if not axiom["passed"] and "witness" in axiom:
            problem = witness_problem(fan, axiom["witness"])
            if problem:
                return f"{name}: {problem}"
    return None


def orbit_formula(fan, simplex, point) -> tuple[list[float], list[float], float]:
    """Closed-form tau and theta with ln|w| = log(abs(w)), and the size of the
    largest term (the scale for the tolerance)."""
    logs = [math.log(abs(w)) for w in point]
    args = [math.atan2(w.imag, w.real) for w in point]
    tau, theta, scale = [], [], 1.0
    for j in range(fan.n):
        t = a = 0.0
        for pos, i in enumerate(simplex):
            b, c, v = fan.vectors[i][j]
            terms = (float(b) * logs[pos], float(c) * logs[pos], v * args[pos])
            t += terms[0]
            a += terms[1] + terms[2]
            scale = max(scale, *(abs(x) for x in terms))
        tau.append(t)
        theta.append(a)
    return tau, theta, scale


def orbit_problem(fan, simplex, point, tau, theta) -> Optional[str]:
    want_tau, want_theta, scale = orbit_formula(fan, simplex, point)
    tol = FORMULA_TOL * scale * max(1, len(simplex))
    if len(tau) != fan.n or len(theta) != fan.n:
        return "wrong number of orbit coordinates"
    for got, want in zip(tau, want_tau):
        if not math.isfinite(got) or abs(got - want) > tol:
            return f"tau {got} vs {want}"
    for got, want in zip(theta, want_theta):
        gap = abs(cmath.phase(cmath.rect(1.0, got - want)))
        if not math.isfinite(got) or gap > tol:
            return f"theta {got} vs {want} (mod 2pi)"
    return None


def check_eval_cli(fan, op: dict, code, out: str, err: str) -> Optional[str]:
    """Judge one ``topfan eval --format json`` output against the formula.

    An extreme-magnitude point may also be refused cleanly (exit 1, no
    traceback): overflow of the transition image is a domain error.
    """
    if "Traceback" in err:
        return "traceback on stderr"
    if op["extreme"] and code == 1 and err.startswith("error:"):
        return None
    if code != 0:
        return f"exit code {code}"
    try:
        results = strict_loads(out)["results"]
        tau, theta = results["tau"], results["theta"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad eval JSON: {exc}"
    missing = {"transition_image", "jacobian", "jfield", "probe"} - set(results)
    if missing:
        return f"eval report lacks {sorted(missing)}"
    return orbit_problem(fan, op["simplex"], op["complex_point"], tau, theta)


def check_eval_api(fan, op: dict, result: dict) -> Optional[str]:
    """Judge one in-process chart-point evaluation.

    tau/theta must match the closed formula.  Every other stage must return
    finite values; at an extreme-magnitude point it may instead raise the
    package's own domain error.
    """
    if result.get("orbit_error"):
        return f"orbit_coordinates raised {result['orbit_error']}"
    problem = orbit_problem(fan, op["simplex"], op["complex_point"], result["tau"], result["theta"])
    if problem:
        return problem
    for stage, status in result["stages"].items():
        if status == "ok" or (op["extreme"] and status == "TopfanError"):
            continue
        return f"{stage}: {status}"
    return None
