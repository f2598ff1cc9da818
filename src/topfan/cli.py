"""Command line front end.

Subcommands: validate, classify, dual, transition, acs, eval, examples,
report. Exit codes are a stable contract: 0 on success, 1 on a domain or
axiom failure, 2 on parse or IO failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import acs as acs_mod
from . import catalog, fanio
from . import charts
from .czalgebra import is_scalar_integer
from .errors import (
    DomainError,
    FanParseError,
    InvalidFanError,
    TopfanError,
    UnknownSimplexError,
)
from .fan import DEGREE_SAMPLE_SEED, TopologicalFan, validate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2


def _load_fan(path: str) -> TopologicalFan:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FanParseError(f"cannot read {path}: {exc}") from None
    return fanio.parse_fan(text)


def _parse_simplex(raw: str) -> tuple[int, ...]:
    try:
        vertices = tuple(int(v) for v in raw.replace(" ", "").split(",") if v)
    except ValueError:
        raise FanParseError(f"bad simplex {raw!r}; expected e.g. '1,2'") from None
    if not vertices:
        raise FanParseError("empty simplex argument")
    return tuple(v - 1 for v in vertices)


def _parse_point(raw: str) -> tuple[complex, ...]:
    try:
        parts = [float(v) for v in raw.replace(" ", "").split(",") if v]
    except ValueError:
        raise FanParseError(f"bad point {raw!r}; expected 'x1,y1,x2,y2,...'") from None
    if len(parts) % 2 != 0:
        raise FanParseError("point needs an even number of reals (x, y pairs)")
    return tuple(complex(parts[k], parts[k + 1]) for k in range(0, len(parts), 2))


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(fanio.render_report(report))


def _emit_lines(lines: Sequence[str], fmt: str) -> None:
    if fmt == "text":
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    report = validate(fan, seed=args.seed)
    doc = fanio.make_report("validate", fan, fanio.validation_doc(report))
    _print_report(doc, args.format)
    lines = []
    for name, check in report.checks().items():
        status = "pass" if check.passed else "FAIL"
        extra = f"  witness: {fanio.witness_doc(check.witness)}" if not check.passed else ""
        lines.append(f"{name:20s} {status}{extra}")
    lines.append(
        f"determinants: {[([v + 1 for v in s], d) for s, d in report.determinants]}"
    )
    _emit_lines(lines, args.format)
    return EXIT_OK if report.all_passed else EXIT_FAILURE


def cmd_classify(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    verdict = charts.classify(fan)
    results: dict = {"classification": verdict.value}
    lines = [verdict.value]
    if args.certificate:
        entries = []
        for simplex, k, j, entry, gamma in charts.exponent_certificate(fan):
            entries.append(
                {
                    "chart": [v + 1 for v in simplex],
                    "chart_vertex": k + 1,
                    "fan_vertex": j + 1,
                    "exponent": fanio.czmat_doc(entry),
                    "scalar_integer": gamma,
                }
            )
            flag = f"= {gamma} * id" if gamma is not None else "not scalar-integer"
            lines.append(
                f"chart {[v + 1 for v in simplex]} vertex {k + 1} | "
                f"beta_{j + 1}: {fanio.czmat_doc(entry)}  {flag}"
            )
        results["certificate"] = entries
    doc = fanio.make_report("classify", fan, results)
    _print_report(doc, args.format)
    _emit_lines(lines, args.format)
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    simplex = _parse_simplex(args.simplex)
    ch = charts.chart(fan, simplex)
    results = {
        "simplex": [v + 1 for v in ch.simplex],
        "duals": [[fanio.czmat_doc(comp) for comp in dual] for dual in ch.duals],
    }
    doc = fanio.make_report("dual", fan, results)
    _print_report(doc, args.format)
    lines = []
    for pos, dual in enumerate(ch.duals):
        lines.append(
            f"alpha[{ch.simplex[pos] + 1}] = "
            + " ".join(str(fanio.czmat_doc(c)) for c in dual)
        )
    _emit_lines(lines, args.format)
    return EXIT_OK


def cmd_transition(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    t = charts.transition(fan, _parse_simplex(args.source), _parse_simplex(args.target))
    rows = []
    lines = []
    for r, k in enumerate(t.target):
        for c, i in enumerate(t.source):
            entry = t.table[r][c]
            gamma = is_scalar_integer(entry)
            rows.append(
                {
                    "target_vertex": k + 1,
                    "source_vertex": i + 1,
                    "exponent": fanio.czmat_doc(entry),
                    "scalar_integer": gamma,
                }
            )
            flag = f"= {gamma} * id" if gamma is not None else "not scalar-integer"
            lines.append(
                f"w'_{k + 1} <- w_{i + 1}: {fanio.czmat_doc(entry)}  {flag}"
            )
    holo = charts.is_holomorphic(t)
    lines.append(f"holomorphic: {holo}")
    results = {
        "source": [v + 1 for v in t.source],
        "target": [v + 1 for v in t.target],
        "exponents": rows,
        "holomorphic": holo,
    }
    doc = fanio.make_report("transition", fan, results)
    _print_report(doc, args.format)
    _emit_lines(lines, args.format)
    return EXIT_OK


def cmd_acs(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    structure = acs_mod.invariant_acs(fan)
    cross = acs_mod.equivalence_cross_check(fan)
    results: dict = {
        "exists": structure is not None,
        "equivalence": {
            "acs_exists": cross.acs_exists,
            "toric": cross.toric,
            "holds": cross.equivalence_holds,
            "stabilized_zero_accepted": cross.stabilized_zero_accepted,
            "stabilized_j21_rejected": cross.stabilized_j21_rejected,
        },
    }
    lines = []
    if structure is not None:
        results["j0"] = fanio.matrix_doc(structure.j0)
        lines.append("invariant structure exists; J0 =")
        for row in structure.j0:
            lines.append("  [" + ", ".join(str(Fraction(x)) for x in row) + "]")
    else:
        pair = acs_mod.disagreeing_charts(fan)
        candidates = acs_mod.invariant_acs_candidates(fan, pair)
        results["disagreeing_charts"] = [[v + 1 for v in s] for s in pair]
        results["candidates"] = {
            ",".join(str(v + 1) for v in s): fanio.matrix_doc(candidates[s])
            for s in pair
        }
        lines.append("no invariant structure; disagreeing charts:")
        for s in pair:
            lines.append(
                f"  chart {[v + 1 for v in s]}: {fanio.matrix_doc(candidates[s])}"
            )
    lines.append(f"equivalence with toricness holds: {cross.equivalence_holds}")
    doc = fanio.make_report("acs", fan, results)
    _print_report(doc, args.format)
    _emit_lines(lines, args.format)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    simplex = _parse_simplex(args.simplex)
    point = _parse_point(args.point)
    orbit = charts.orbit_coordinates(fan, simplex, point)
    results: dict = {
        "simplex": [v + 1 for v in simplex],
        "tau": list(orbit.tau),
        "theta": list(orbit.theta),
    }
    lines = [f"tau   = {list(orbit.tau)}", f"theta = {list(orbit.theta)}"]
    if args.transition:
        t = charts.transition(fan, simplex, _parse_simplex(args.transition))
        image = charts.evaluate_transition(t, point)
        results["transition_image"] = [[z.real, z.imag] for z in image]
        lines.append(f"transition image = {list(image)}")
    if args.jacobian:
        jac = charts.orbit_jacobian(fan, simplex, point)
        results["jacobian"] = [[float(x) for x in row] for row in jac]
        lines.append(f"jacobian = {jac.tolist()}")
    if args.jfield:
        ell_raw, j0_path = args.jfield
        try:
            ell = int(ell_raw)
        except ValueError:
            raise FanParseError(f"bad stabilization rank {ell_raw!r}") from None
        try:
            raw = json.loads(Path(j0_path).read_text())
        except OSError as exc:
            raise FanParseError(f"cannot read {j0_path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise FanParseError(exc.msg, f"line {exc.lineno}") from None
        matrix = [
            [Fraction(x) if isinstance(x, (int, str)) else float(x) for x in row]
            for row in raw
        ]
        structure = acs_mod.OrbitACS(ell, matrix)
        field = acs_mod.acs_field(fan, simplex, structure, point)
        probe = acs_mod.divergence_probe(fan, simplex, structure, point)
        results["jfield"] = [[float(x) for x in row] for row in field]
        results["probe"] = {
            "slopes": [list(row) for row in probe.slopes],
            "blowup_entries": [list(e) for e in probe.blowup_entries],
            "max_variation": probe.max_variation,
            "constant": probe.constant,
        }
        lines.append(f"jfield = {field.tolist()}")
        lines.append(
            f"probe: blowups={list(probe.blowup_entries)} "
            f"max_variation={probe.max_variation:.3e} constant={probe.constant}"
        )
    doc = fanio.make_report("eval", fan, results)
    _print_report(doc, args.format)
    _emit_lines(lines, args.format)
    return EXIT_OK


def cmd_examples(args: argparse.Namespace) -> int:
    if args.list:
        for name in catalog.names():
            print(name)
        return EXIT_OK
    try:
        fan = catalog.get(args.emit)
    except KeyError:
        raise FanParseError(f"unknown example {args.emit!r}") from None
    text = fanio.emit_fan(fan)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    fan = _load_fan(args.fan)
    report = validate(fan, seed=args.seed)
    results: dict = {"validation": fanio.validation_doc(report)}
    if report.all_passed:
        verdict = charts.classify(fan)
        structure = acs_mod.invariant_acs(fan)
        results["classification"] = verdict.value
        results["acs"] = {
            "exists": structure is not None,
            "j0": fanio.matrix_doc(structure.j0) if structure else None,
            "equivalence_holds": acs_mod.equivalence_holds(structure, verdict),
        }
    doc = fanio.make_report("report", fan, results)
    sys.stdout.write(fanio.render_report(doc))
    return EXIT_OK if report.all_passed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topfan",
        description="Exact validation, charts, and structure analysis of topological fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--fan", required=True, help="fan document (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=DEGREE_SAMPLE_SEED)

    p = sub.add_parser("validate", help="run all fan axioms")
    add_common(p, seed=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="decide toric vs nontoric")
    add_common(p)
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual", help="dual basis of a maximal simplex")
    add_common(p)
    p.add_argument("--simplex", required=True, help="1-based vertices, e.g. '1,2'")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("transition", help="exponent table of a chart change")
    add_common(p)
    p.add_argument("--source", required=True, help="1-based vertices of the source")
    p.add_argument("--target", required=True, help="1-based vertices of the target")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("acs", help="invariant structure analysis")
    add_common(p)
    p.set_defaults(func=cmd_acs)

    p = sub.add_parser("eval", help="evaluate orbit coordinates at a chart point")
    add_common(p)
    p.add_argument("--simplex", required=True)
    p.add_argument("--point", required=True, help="'x1,y1,x2,y2,...'")
    p.add_argument("--transition", help="target simplex for the chart change")
    p.add_argument("--jacobian", action="store_true")
    p.add_argument("--jfield", nargs=2, metavar=("ELL", "J0FILE"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("examples", help="list or emit catalog fans")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--emit", metavar="NAME")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("report", help="full JSON report: validation + classification + acs")
    add_common(p, seed=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FanParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, InvalidFanError, UnknownSimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except TopfanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
