"""One in-process repetition, run in a fresh interpreter by ``run.py``.

    python bench/worker.py JOB.json RESULT.json

The job lists the ops of one pass.  ``report`` ops are argument lists handed
to ``topfan.cli.main`` with stdout and stderr captured; ``point`` ops evaluate
one chart point through the public API on fans parsed once beforehand.  With
``trace`` set, every public layer function is wrapped first (see tracer.py),
and extra per-axiom calls run after the timed ops.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def _finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, complex):
        return cmath.isfinite(value)
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    return True


def run_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is a failed op, recorded with its traceback
            code = None
            error = traceback.format_exc()
    return {"code": code, "out": out.getvalue(), "err": err.getvalue() + (error or "")}


def run_point(topfan, fan, structure, op: dict) -> dict:
    """Evaluate one chart point.  Stage values are kept raw; ``judge_point``
    inspects them after the timed pass."""
    simplex = op["simplex"]
    point = tuple(complex(x, y) for x, y in op["point"])
    result: dict = {"values": {}}
    try:
        orbit = topfan.orbit_coordinates(fan, simplex, point)
        result["tau"], result["theta"] = list(orbit.tau), list(orbit.theta)
    except Exception as exc:  # recorded; the checker counts the op as failed
        result["orbit_error"] = type(exc).__name__
    stages = {
        "jacobian": lambda: topfan.orbit_jacobian(fan, simplex, point),
        "transition": lambda: topfan.evaluate_transition(
            topfan.transition(fan, simplex, op["target"]), point
        ),
        "acs_field": lambda: topfan.acs_field(fan, simplex, structure, point),
    }
    if op["probe"]:
        stages["probe"] = lambda: topfan.divergence_probe(fan, simplex, structure, point)
    for name, stage in stages.items():
        try:
            result["values"][name] = stage()
        except topfan.TopfanError:
            result["values"][name] = "TopfanError"
        except Exception as exc:  # any other exception is a failed stage
            result["values"][name] = type(exc).__name__
    return result


def judge_point(result: dict) -> dict:
    """Replace raw stage values by "ok", "nonfinite" or the exception name."""
    stages = {}
    for name, value in result.pop("values").items():
        if isinstance(value, str):
            stages[name] = value
            continue
        if name == "probe":
            value = (value.slopes, value.max_variation)
        stages[name] = "ok" if _finite(value) else "nonfinite"
    result["stages"] = stages
    return result


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  ``ru_maxrss`` alone would not
    do: Linux carries it across exec, so a child can report its parent's peak."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(tracer, ops, run_one) -> dict:
    """Run ops back to back; per-op wall times and span ranges."""
    results, secs, ranges = [], [], []
    before = tracer.counters() if tracer else {}
    start = time.perf_counter()
    for op in ops:
        lo = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        results.append(run_one(op))
        secs.append(time.perf_counter() - t0)
        ranges.append((lo, tracer.mark() if tracer else 0))
    wall = time.perf_counter() - start
    group = {"wall_s": wall, "secs": secs, "results": results}
    if tracer:
        group["trace"] = tracer.summary(ranges)
        group["trace"]["counters"] = {k: v - before[k] for k, v in tracer.counters().items()}
        group["trace"]["spans_total"] = tracer.mark()
    return group


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import topfan
    import topfan.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    groups = {}
    if job["kind"] == "report":
        groups["ops"] = timed_pass(tracer, job["ops"], lambda argv: run_cli(topfan.cli.main, argv))
    else:
        fans = [topfan.parse_fan(Path(p).read_text()) for p in job["fans"]]
        structures = {
            fan.n: topfan.acs.stabilized(topfan.std_complex_structure(fan.n), 1) for fan in fans
        }
        groups["ops"] = timed_pass(
            tracer,
            job["ops"],
            lambda op: run_point(topfan, fans[op["fan"]], structures[fans[op["fan"]].n], op),
        )
        groups["ops"]["results"] = [judge_point(r) for r in groups["ops"]["results"]]
    if job.get("cli_argvs"):
        groups["cli"] = timed_pass(tracer, job["cli_argvs"], lambda argv: run_cli(topfan.cli.main, argv))
    if tracer is not None and job.get("axiom_fans"):
        # per-axiom timings: the public axiom checks called directly, traced only
        def axioms(path):
            fan = topfan.parse_fan(Path(path).read_text())
            topfan.cones_nonoverlapping(fan)
            try:
                topfan.is_complete(fan)
            except topfan.PreconditionError:
                pass
            topfan.is_nonsingular(fan)

        groups["axioms"] = timed_pass(tracer, job["axiom_fans"], axioms)

    doc = {
        "rss_mb": peak_rss_mb(),
        "groups": groups,
    }
    if tracer is not None and job.get("spans_path"):
        tracer.write(job["spans_path"])
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
