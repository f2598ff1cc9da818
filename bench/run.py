#!/usr/bin/env python3
"""Benchmark of the topfan package and CLI on a seeded fan corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``./src`` by fresh child interpreters, and the benchmark writes only under
``./.bench_work``.  Load is a closed loop with one client: one CLI child or
one in-process pass at a time.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh interpreter,
``import topfan`` and parsing every input), ``cli_s.p50`` and ``cli_s.tail``
(wall time of one CLI child), ``ops_per_s`` (in-process throughput, a fresh
interpreter per repetition), ``ok_frac`` (share of attempted ops that
succeeded with the known answer) and ``peak_rss_mb``.  ``--trace 1`` wraps
every public layer function and prints per-layer self times, call counts and
work ratios for one pass.

Every output is checked against an answer known by construction.  The last
line of stdout is one JSON object; ``correct`` is false, and the exit code 1,
when any op disagrees with its answer, other than the extreme-magnitude eval
points that fail in the package as a known defect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

#: CLI passes and in-process repetitions per 20 s of --seconds, per workload.
#: Counts, not a clock, end each phase, so a run of a given seed always does
#: the same work; at the reference commit 20 s of passes take about 20 s,
#: except on defective: its throughput needs three corpora to vary little with
#: the seed, and those take about 30 s.
PASSES_PER_20_S = {
    "toric-tiling": (3, 2),
    "nontoric-twist": (4, 2),
    "defective": (3, 3),
    "eval-sweep": (7, 8),
}

#: Set-up samples per run, spread over the passes so that they see the same
#: machine conditions as the rest of the run.
SETUP_SAMPLES = 12
#: Stop starting passes once a run has taken this long (a pathological
#: slowdown), and kill any child still running at the deadline.
RUN_BUDGET_S = 120
RUN_DEADLINE_S = 170

SETUP_SCRIPT = """
import sys
from pathlib import Path
import topfan
for path in sys.argv[1:]:
    topfan.parse_fan(Path(path).read_text())
"""


class Harness:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        # One BLAS thread per child: the package multiplies matrices of size at
        # most 2(n + l), where a second thread gains nothing, and the thread
        # OpenBLAS starts at import competes with the child for the cores, so
        # start-up times would follow the load of the rest of the machine.
        threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **threads)
        self.started = time.perf_counter()
        self.jobs = 0

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def child(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        t0 = time.perf_counter()
        timeout = max(1.0, RUN_DEADLINE_S - (t0 - self.started))
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=self.root, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            proc = None
        return time.perf_counter() - t0, proc

    def cli(self, args: list[str]) -> dict:
        secs, proc = self.child([sys.executable, "-m", "topfan.cli", *args])
        if proc is None:
            return {"secs": secs, "code": None, "out": "", "err": "timeout"}
        return {"secs": secs, "code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

    def worker(self, job: dict) -> dict:
        self.jobs += 1
        job_path = self.work / f"job-{self.jobs}.json"
        result_path = self.work / f"result-{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        _, proc = self.child([sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)])
        if proc is None or proc.returncode != 0 or not result_path.exists():
            detail = "timeout" if proc is None else proc.stderr[-2000:]
            raise RuntimeError(f"in-process worker failed: {detail}")
        doc = json.loads(result_path.read_text())
        job_path.unlink()
        result_path.unlink()
        return doc


# ---------------------------------------------------------------------------
# ops of one pass


def cli_args(corpus: workloads.Corpus) -> list[list[str]]:
    if corpus.kind == "report":
        return [["report", "--fan", path, "--format", "json"] for path in corpus.fan_paths()]
    argvs = []
    for op in corpus.points[: workloads.EVAL_CLI_POINTS]:
        fan = corpus.items[op["fan"]].fan
        point = ",".join(repr(x) for pair in op["point"] for x in pair)
        argvs.append(
            [
                "eval", "--fan", corpus.items[op["fan"]].path,
                "--simplex", ",".join(str(v + 1) for v in op["simplex"]),
                f"--point={point}",  # '=' keeps a leading minus sign from reading as an option
                "--transition", ",".join(str(v + 1) for v in op["target"]),
                "--jacobian",
                "--jfield", "1", corpus.structure_paths[fan.n],
                "--format", "json",
            ]
        )
    return argvs


def cli_ops(corpus: workloads.Corpus) -> list[dict]:
    """The op (fan item or eval point) behind each CLI argument list."""
    if corpus.kind == "report":
        return [{"item": k} for k in range(len(corpus.items))]
    return corpus.points[: workloads.EVAL_CLI_POINTS]


def worker_job(corpus: workloads.Corpus, trace: bool) -> dict:
    """One in-process pass; traced passes of a report workload add the
    per-axiom calls."""
    if corpus.kind == "report":
        job = {"kind": "report", "trace": trace, "ops": cli_args(corpus)}
        if trace:
            job["axiom_fans"] = corpus.fan_paths()
        return job
    return {"kind": "point", "trace": trace, "fans": corpus.fan_paths(), "ops": corpus.points}


def _complex_point(op: dict) -> dict:
    return {**op, "complex_point": [complex(x, y) for x, y in op["point"]]}


def judge_cli(corpus: workloads.Corpus, op: dict, result: dict):
    """(problem or None, whether a failure is the known extreme-magnitude defect)."""
    if corpus.kind == "report":
        item = corpus.items[op["item"]]
        problem = check.check_report(item.fan, item.expected, result["code"], result["out"], result["err"])
        return problem, False
    fan = corpus.items[op["fan"]].fan
    problem = check.check_eval_cli(fan, _complex_point(op), result["code"], result["out"], result["err"])
    return problem, op["extreme"]


def judge_worker(corpus: workloads.Corpus, doc: dict) -> list[tuple[str | None, bool]]:
    verdicts = []
    ops = doc["groups"]["ops"]["results"]
    if corpus.kind == "report":
        for k, result in enumerate(ops):
            verdicts.append(judge_cli(corpus, {"item": k}, result))
    else:
        for op, result in zip(corpus.points, ops):
            fan = corpus.items[op["fan"]].fan
            verdicts.append((check.check_eval_api(fan, _complex_point(op), result), op["extreme"]))
    if "cli" in doc["groups"]:
        for op, result in zip(cli_ops(corpus), doc["groups"]["cli"]["results"]):
            verdicts.append(judge_cli(corpus, op, result))
    return verdicts


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, verdict: tuple[str | None, bool], label: str) -> bool:
        problem, known_defect = verdict
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if not known_defect:
            self.unexpected.append(f"{label}: {problem}")
        return False


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; the median when there are fewer than eleven samples."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return statistics.median(ordered), 50.0
    rank = len(ordered) - 10  # 1-based rank of the sample with ten above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x over the positive pairs."""
    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pairs}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pairs)
    my = statistics.fmean(y for _, y in pairs)
    return sum((x - mx) * (y - my) for x, y in pairs) / sum((x - mx) ** 2 for x, _ in pairs)


def scaled(count: int, seconds: int) -> int:
    return max(1, round(count * seconds / 20))


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(h: Harness, name: str, seed: int, seconds: int, tally: Tally) -> dict:
    # Each pass decides its own corpus, drawn from the seed: the first is the
    # corpus of the traced run, the k-th that of seed "<seed>.<k>".  A run so
    # averages over several corpora, and its medians vary less with the seed
    # than the cost of any one generated fan does.
    cli_passes, repetitions = (scaled(count, seconds) for count in PASSES_PER_20_S[name])
    passes = max(cli_passes, repetitions)
    corpora = []
    for k in range(passes):
        work = h.work / f"pass-{k}"
        work.mkdir()
        corpora.append(workloads.build(name, seed if k == 0 else f"{seed}.{k}", work))

    setup = []

    def set_up(corpus: workloads.Corpus, samples: int) -> None:
        for _ in range(samples):
            secs, proc = h.child([sys.executable, "-c", SETUP_SCRIPT, *corpus.fan_paths()])
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"setup failed: {proc.stderr if proc else 'timeout'}")
            setup.append(secs)

    set_up(corpora[0], 1)  # warm-up: byte-code compilation and file cache
    setup.clear()

    # set-up samples, CLI passes and in-process repetitions alternate, so all
    # see the same spread of machine conditions over the run
    cli_ok, rates, rss = [], [], []
    for k, corpus in enumerate(corpora):
        set_up(corpus, -(-SETUP_SAMPLES // passes))
        if k < cli_passes:
            for argv, op in zip(cli_args(corpus), cli_ops(corpus)):
                result = h.cli(argv)
                if tally.add(judge_cli(corpus, op, result), f"cli {' '.join(argv[:3])}"):
                    cli_ok.append(result["secs"])
        if k < repetitions:
            doc = h.worker(worker_job(corpus, trace=False))
            for verdict in judge_worker(corpus, doc):
                tally.add(verdict, "in-process op")
            group = doc["groups"]["ops"]
            rates.append(len(group["secs"]) / group["wall_s"])
            rss.append(doc["rss_mb"])
        if h.over_budget():
            break

    cli_tail, pct = tail(cli_ok) if cli_ok else (float("inf"), 0.0)
    print(f"cli_s.tail is p{pct:.0f} of {len(cli_ok)} successful CLI samples")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cli_s.p50": (statistics.median(cli_ok) if cli_ok else float("inf"), "s"),
        "cli_s.tail": (cli_tail, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# traced run

#: Per-layer self times and call counts reported for these functions.
TIMED = (
    "fan.validate", "fan.cone_coefficients",
    "fme.strict_feasible",
    "linalg.nullspace", "linalg.det", "linalg.inverse", "linalg.rref", "linalg.solve",
    "charts.classify", "charts.transition", "charts.exponent_certificate", "charts.chart",
    "charts.is_holomorphic", "charts.orbit_coordinates", "charts.orbit_jacobian",
    "charts.evaluate_transition",
    "czalgebra.dual_basis", "czalgebra.pairing", "czalgebra.cz_mul", "czalgebra.cz_power",
    "acs.invariant_acs", "acs.invariant_acs_candidates", "acs.equivalence_cross_check",
    "acs.disagreeing_charts", "acs.acs_field", "acs.divergence_probe",
    "fanio.parse_fan", "fanio.render_report", "fanio.fan_digest", "fanio.validation_doc",
    "cli.main",
)
#: Timed from the extra per-axiom calls of the traced run only.
AXIOM_TIMED = ("fan.cones_nonoverlapping", "fan.is_complete", "fan.is_nonsingular")


def _merge_functions(groups: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for group in groups:
        for name, stats in group["trace"]["functions"].items():
            into = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for key in into:
                into[key] += stats[key]
    return merged


def traced(h: Harness, corpus: workloads.Corpus, tally: Tally) -> dict:
    argvs, ops = cli_args(corpus), cli_ops(corpus)
    cli_secs = []
    for argv, op in zip(argvs, ops):
        result = h.cli(argv)
        tally.add(judge_cli(corpus, op, result), f"cli {' '.join(argv[:3])}")
        cli_secs.append(result["secs"])

    plain_job, job = worker_job(corpus, trace=False), worker_job(corpus, trace=True)
    if corpus.kind == "point":
        # the eval commands also run through cli.main in-process, untraced and traced
        plain_job["cli_argvs"] = job["cli_argvs"] = argvs
    job["spans_path"] = str(h.work / "spans.npz")
    plain = h.worker(plain_job)
    doc = h.worker(job)
    for verdict in judge_worker(corpus, plain) + judge_worker(corpus, doc):
        tally.add(verdict, "in-process op")

    groups = doc["groups"]
    workload_groups = [g for name, g in groups.items() if name != "axioms"]
    functions = _merge_functions(workload_groups)
    axiom_functions = _merge_functions([groups["axioms"]]) if "axioms" in groups else {}
    counters = {
        key: sum(g["trace"]["counters"][key] for g in workload_groups)
        for key in workload_groups[0]["trace"]["counters"]
    }

    def stat(name: str, key: str, source=functions) -> float:
        return float(source.get(name, {}).get(key, 0))

    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        metrics[f"{name}_s"] = (stat(name, "self_s"), "s")
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in AXIOM_TIMED:
        metrics[f"{name}_s"] = (stat(name, "self_s", axiom_functions), "s")
        metrics[f"{name}.calls"] = (stat(name, "calls", axiom_functions), "count")
    for layer in LAYERS:
        total = sum(s["self_s"] for fn, s in functions.items() if fn.split(".")[0] == layer)
        metrics[f"layer.{layer}_s"] = (float(total), "s")

    feasible_calls = stat("fme.strict_feasible", "calls")
    metrics["fme.input_rows"] = (float(counters["fme_rows"]), "count")
    metrics["fme.feasible_frac"] = (
        counters["fme_feasible"] / feasible_calls if feasible_calls else 0.0,
        "fraction",
    )
    failing = counters["failing_axioms"]
    metrics["fan.witness_frac"] = (
        counters["failing_with_witness"] / failing if failing else 1.0,
        "fraction",
    )
    charts_total = sum(item.fan.cones for item in corpus.items)
    metrics["czalgebra.dual_basis_per_chart"] = (stat("czalgebra.dual_basis", "calls") / charts_total, "ratio")

    # how validate and classify grow with M over the workload's fans
    validate_growth = classify_growth = 0.0
    if corpus.kind == "report":
        per_op = groups["ops"]["trace"]["per_op"]
        cones = [item.fan.cones for item in corpus.items]
        validate_growth = log_slope(cones, [op["fan.validate"] for op in per_op])
        classify_growth = log_slope(cones, [op["charts.classify"] for op in per_op])
    metrics["fan.validate_s.growth"] = (validate_growth, "slope")
    metrics["charts.classify_s.growth"] = (classify_growth, "slope")

    # the CLI children against the same commands run through cli.main in-process
    cli_group = "ops" if corpus.kind == "report" else "cli"
    main_secs = plain["groups"][cli_group]["secs"]
    outputs = [r["out"] for r in groups[cli_group]["results"]]
    metrics["cli.process_overhead_s"] = (statistics.median(c - m for c, m in zip(cli_secs, main_secs)), "s")
    metrics["fanio.report_bytes"] = (statistics.fmean(len(o.encode()) for o in outputs), "bytes")

    traced_ops, plain_ops = groups["ops"], plain["groups"]["ops"]
    metrics["trace.overhead"] = (traced_ops["wall_s"] / plain_ops["wall_s"], "ratio")
    # the worst op: share of its in-process wall time that its spans' self times cover
    coverage = min(op["self_s"] / secs for op, secs in zip(traced_ops["trace"]["per_op"], traced_ops["secs"]))
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.spans"] = (float(traced_ops["trace"]["spans"]), "count")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "topfan" / "__init__.py").is_file():
        print("error: run from the root of a topfan checkout (no src/topfan here)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    h = Harness(root, work)
    tally = Tally()
    if args.trace:
        metrics = traced(h, workloads.build(args.workload, args.seed, work), tally)
    else:
        metrics = end_to_end(h, args.workload, args.seed, args.seconds, tally)

    for line in tally.unexpected[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {tally.attempted} ops, {tally.failed} failed "
        f"(failed_frac {tally.failed / tally.attempted:.4f}), {len(tally.unexpected)} unexpected"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    correct = not tally.unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
