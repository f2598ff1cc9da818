"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest bench

They check the corpus against independent oracles, the checker against
tampered outputs, and the harness against the package's own output.  Nothing
here asserts on wall-clock time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
REPORT_AXIOMS = ("purity", "pseudomanifold", "linear_independence", "nonoverlap", "completeness", "nonsingularity")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]), PYTHONHASHSEED="0")


def directions(seed: int, n: int, count: int = 24) -> list[tuple[Fraction, ...]]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(n))
        if any(x):
            out.append(x)
    return out


def sector_tiling(fan: corpus.Fan) -> bool:
    """n = 2 oracle: the cones, turned counter-clockwise, chain the rays into
    one cycle, and a generic direction lies in exactly one open sector.  Each
    wall crossing leaves one sector and enters the next, so the covering
    number is the same everywhere and one direction settles it."""
    successor = {}
    for a, b in fan.simplices:
        d = exact.det([fan.real(a), fan.real(b)])
        if d == 0:
            return False
        first, second = (a, b) if d > 0 else (b, a)
        if first in successor:
            return False
        successor[first] = second
    start, seen, ray = fan.simplices[0][0], 0, fan.simplices[0][0]
    while True:
        ray = successor.get(ray)
        seen += 1
        if ray is None or seen > fan.m:
            return False
        if ray == start:
            break
    if seen != fan.m:
        return False
    for x in directions(0, 2):
        on_ray = any(exact.det([x, fan.real(i)]) == 0 for i in range(fan.m))
        if not on_ray:
            return sum(exact.in_open_cone(fan.real_generators(s), x) for s in fan.simplices) == 1
    return False


def valid_fans(seed: int):
    return workloads.toric_ladder(seed) + workloads.twist_ladder(seed)


# ---------------------------------------------------------------------------
# corpus


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_fans_pass_the_independent_oracle(seed):
    for item in valid_fans(seed):
        fan = item.fan
        verdict = exact.axioms(fan, directions(seed, fan.n))
        assert all(verdict.values()), (item.label, verdict)
        if fan.n == 2:
            assert sector_tiling(fan), item.label


@pytest.mark.parametrize("seed", SEEDS)
def test_ladders_grow_in_m(seed):
    for ladder, spec in ((workloads.toric_ladder(seed), workloads.TORIC_LADDER),
                         (workloads.twist_ladder(seed), workloads.TWIST_LADDER)):
        assert [(item.fan.n, item.fan.cones >= cones) for item, (n, cones) in zip(ladder, spec)] == [
            (n, True) for n, _ in spec
        ]
        assert all(item.fan.cones <= cones + item.fan.n for item, (_, cones) in zip(ladder, spec))


@pytest.mark.parametrize("seed", SEEDS)
def test_twist_leaves_an_ordinary_cone_with_a_non_scalar_pairing(seed):
    """The NonToricTopological answer: duals of an untouched ordinary cone pair
    with some twisted vector to a non-scalar exponent."""
    for item in workloads.twist_ladder(seed):
        fan = item.fan
        ordinary = {
            i for i in range(fan.m) if all(c == 0 and b == v for b, c, v in fan.vectors[i])
        }
        plain = next(s for s in fan.simplices if set(s) <= ordinary)
        # rows of (V^T)^-1 by Cramer: the dual of vertex h solves V^T a = e_h
        columns = [fan.integer(i) for i in plain]
        duals = [
            exact.cramer([tuple(Fraction(x) for x in col) for col in zip(*columns)], [int(k == h) for k in range(fan.n)])
            for h in range(fan.n)
        ]
        non_scalar = False
        for j in set(range(fan.m)) - ordinary:
            for alpha in duals:
                b = sum(a * fan.vectors[j][k][0] for k, a in enumerate(alpha))
                c = sum(a * fan.vectors[j][k][1] for k, a in enumerate(alpha))
                v = sum(a * fan.vectors[j][k][2] for k, a in enumerate(alpha))
                non_scalar |= b != v or c != 0
        assert non_scalar, item.label


@pytest.mark.parametrize("kind", sorted(corpus.MUTATIONS))
@pytest.mark.parametrize("seed", SEEDS)
def test_each_mutation_breaks_only_its_targets(kind, seed):
    rng = random.Random(seed)
    for source in (workloads.toric_ladder(seed)[4], workloads.twist_ladder(seed)[0]):
        mutation = None
        while mutation is None:
            mutation = corpus.MUTATIONS[kind](source.fan, rng)
        samples = directions(seed, source.fan.n) + list(mutation.evidence)
        verdict = exact.axioms(mutation.fan, samples)
        broken = {name for name in REPORT_AXIOMS if not verdict[name]}
        assert broken == set(mutation.targets), (kind, source.label, verdict)


def test_double_integer_gives_determinant_two():
    fan = workloads.toric_ladder(1)[4].fan
    mutation = corpus.double_integer(fan, random.Random(0))
    dets = {abs(exact.integer_det(mutation.fan, s)) for s in mutation.fan.simplices}
    assert dets == {1, 2}


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 5, tmp_path)
        again = workloads.build(name, 5, tmp_path)
        assert [i.fan for i in first.items] == [i.fan for i in again.items]
        assert first.points == again.points
    assert workloads.toric_ladder(5)[-1].fan != workloads.toric_ladder(6)[-1].fan


def test_eval_extreme_share_is_fixed():
    points = workloads.eval_points(3, [item.fan for item in valid_fans(3)[:2]])
    assert sum(p["extreme"] for p in points) * workloads.EXTREME_EVERY == len(points)
    assert not any(p["extreme"] and p["probe"] for p in points)
    assert sum(p["extreme"] for p in points[: workloads.EVAL_CLI_POINTS]) * workloads.EXTREME_EVERY == workloads.EVAL_CLI_POINTS


# ---------------------------------------------------------------------------
# checker


def _report(path: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "topfan.cli", "report", "--fan", path, "--format", "json"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )


def test_strict_json_rejects_non_finite_constants():
    with pytest.raises(ValueError):
        check.strict_loads('{"tau": [NaN]}')
    with pytest.raises(ValueError):
        check.strict_loads('{"tau": [-Infinity]}')
    assert check.strict_loads('{"tau": [1.5]}') == {"tau": [1.5]}


def test_checker_accepts_real_outputs_and_rejects_tampered_ones(tmp_path):
    built = workloads.build("defective", 2, tmp_path)
    kinds_seen = set()
    for item in built.items[::4] + built.items[1::4]:
        proc = _report(item.path)
        assert check.check_report(item.fan, item.expected, proc.returncode, proc.stdout, proc.stderr) is None
        doc = json.loads(proc.stdout)
        axioms = doc["results"]["validation"]["axioms"]
        for name, axiom in axioms.items():
            witness = axiom.get("witness")
            if axiom["passed"] or witness is None or witness["kind"] not in ("overlap", "uncovered", "determinant"):
                continue
            kinds_seen.add(witness["kind"])
            bad = json.loads(json.dumps(doc))
            tampered = bad["results"]["validation"]["axioms"][name]["witness"]
            if witness["kind"] == "overlap":
                tampered["point"] = [str(-Fraction(x)) for x in witness["point"]]
            elif witness["kind"] == "uncovered":
                tampered["direction"] = [str(x) for x in item.fan.real(0)]
            else:
                tampered["determinant"] = witness["determinant"] + 1
            assert check.check_report(item.fan, item.expected, 1, json.dumps(bad), "") is not None
        assert check.check_report(item.fan, item.expected, 0, proc.stdout, "") is not None
        assert check.check_report(item.fan, item.expected, 1, proc.stdout, "Traceback (most recent call last)") is not None
    assert kinds_seen == {"overlap", "uncovered", "determinant"}


def test_checker_rejects_wrong_verdicts(tmp_path):
    built = workloads.build("nontoric-twist", 1, tmp_path)
    item = built.items[0]
    proc = _report(item.path)
    assert check.check_report(item.fan, item.expected, 0, proc.stdout, proc.stderr) is None
    doc = json.loads(proc.stdout)
    doc["results"]["classification"] = "Toric"
    assert check.check_report(item.fan, item.expected, 0, json.dumps(doc), "") is not None
    toric = workloads.build("toric-tiling", 1, tmp_path).items[0]
    doc = json.loads(_report(toric.path).stdout)
    doc["results"]["acs"]["j0"][0][1] = "1"
    assert check.check_report(toric.fan, toric.expected, 0, json.dumps(doc), "") is not None


def test_eval_formula_check_wraps_angles():
    fan = workloads.toric_ladder(1)[4].fan
    simplex = fan.simplices[0]
    point = [complex(0.5, -1.5), complex(-2.0, 0.25)]
    tau, theta, _ = check.orbit_formula(fan, simplex, point)
    assert check.orbit_problem(fan, simplex, point, tau, [t % 6.283185307179586 for t in theta]) is None
    assert check.orbit_problem(fan, simplex, point, tau, [t + 1e-6 for t in theta]) is not None
    assert check.orbit_problem(fan, simplex, point, [t + 1e-6 for t in tau], theta) is not None
    tiny = [complex(1e-200, 1e-200), complex(1.0, 0.0)]
    tau, theta, _ = check.orbit_formula(fan, simplex, tiny)
    assert all(abs(t) < 1e4 for t in tau)


# ---------------------------------------------------------------------------
# harness


def _worker(job: dict, tmp_path: Path) -> dict:
    job_path, result_path = tmp_path / "job.json", tmp_path / "result.json"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
        env=ENV, check=True, timeout=300,
    )
    return json.loads(result_path.read_text())


def test_harness_leaves_stdout_bytes_unchanged(tmp_path):
    """Captured in-process output, traced or not, equals the CLI child's stdout."""
    built = workloads.build("eval-sweep", 1, tmp_path)
    argvs = [run.cli_args(workloads.build("toric-tiling", 1, tmp_path))[4]] + run.cli_args(built)[:3]
    for trace in (False, True):
        doc = _worker({"kind": "report", "trace": trace, "ops": argvs}, tmp_path)
        for argv, result in zip(argvs, doc["groups"]["ops"]["results"]):
            child = subprocess.run(
                [sys.executable, "-m", "topfan.cli", *argv], env=ENV, capture_output=True, timeout=120
            )
            assert result["out"].encode() == child.stdout
            assert result["code"] == child.returncode


def test_tracer_wraps_every_alias():
    code = (
        "import topfan, topfan.charts, topfan.acs, topfan.cli, topfan.fan, topfan.czalgebra\n"
        "from tracer import Tracer\n"
        "t = Tracer(); assert t.install() > 50\n"
        "v = topfan.fan.validate\n"
        "assert hasattr(v, '__wrapped__')\n"
        "assert topfan.charts.validate is v and topfan.acs.validate is v and topfan.cli.validate is v and topfan.validate is v\n"
        "assert topfan.charts.dual_basis is topfan.czalgebra.dual_basis is topfan.dual_basis\n"
        "assert hasattr(topfan.charts.dual_basis, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True, timeout=60)


def test_tail_and_growth_statistics():
    samples = [float(k) for k in range(1, 31)]
    assert run.tail(samples) == (20.0, 100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.log_slope([8, 16, 32, 64], [1, 4, 16, 64]) == pytest.approx(2.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == wanted
    if workload != "eval-sweep":
        assert doc["failed"] == 0
