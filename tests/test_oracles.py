"""The linear toricness test and the per-vertex structure test against the
all-pairs oracles, the paper's statement on toric fans, the covering-degree
rule against the pairwise non-overlap and sampled completeness checks, the
facet separation test against all-pairs Fourier-Motzkin elimination, and
guards that a report decides each question once, without transition tables
and without pairwise Fourier-Motzkin elimination on valid fans."""

from dataclasses import replace
from itertools import combinations

import pytest

from conftest import (
    all_pairs_nonoverlap,
    all_pairs_toric,
    duplicate_cone,
    fme_overlap,
    forbid,
    ordinary_image,
    per_chart_structure,
    remove_maximal_simplex,
    replace_aliases,
)
from topfan import acs, catalog, charts, czalgebra, fme
from topfan.acs import disagreeing_charts, invariant_acs
from topfan.charts import Verdict, classify, transition
from topfan.cli import main
from topfan.fan import (
    DEGREE_SAMPLE_SEED,
    _completeness_check,
    _cone_table,
    _covered_once,
    _nonoverlap_check,
    _separated,
    _validate_cached,
    is_ordinary,
    random_fan,
    validate,
)
from topfan.fanio import emit_fan

#: Oracle fans stay at M <= 16 so that the all-pairs checks stay cheap.
MAX_CONES = 16


@pytest.fixture(scope="module")
def oracle_fans(catalog_fans, committed_fans):
    fans = dict(catalog_fans)
    for seed in range(40):
        fans[f"random-{seed}"] = random_fan(seed, 1 + seed % 2, 4 + seed % 3)
    for name, fan in committed_fans.items():
        if validate(fan).all_passed:
            fans[name] = fan
    assert all(len(fan.maximal_simplices()) <= MAX_CONES for fan in fans.values())
    return fans


def test_oracle_set_has_both_verdicts_and_every_dimension(oracle_fans):
    verdicts = {classify(fan) for fan in oracle_fans.values()}
    assert verdicts == set(Verdict)
    assert {fan.n for fan in oracle_fans.values()} == {1, 2, 3, 4}


def test_classify_agrees_with_all_pairs_transitions(oracle_fans):
    for name, fan in oracle_fans.items():
        toric = classify(fan) is Verdict.TORIC
        assert toric == all_pairs_toric(fan), name


def test_vertex_test_agrees_with_per_chart_candidates(oracle_fans):
    for name, fan in oracle_fans.items():
        j0, pair = per_chart_structure(fan)
        structure = invariant_acs(fan)
        assert (structure.j0 if structure else None) == j0, name
        assert disagreeing_charts(fan) == pair, name


def test_report_rule_and_cross_check_agree(oracle_fans):
    for name, fan in oracle_fans.items():
        holds = acs.equivalence_holds(invariant_acs(fan), classify(fan))
        assert holds and acs.equivalence_cross_check(fan).equivalence_holds, name


def test_toric_fans_are_ordinary_after_a_cz_automorphism(oracle_fans):
    toric = 0
    for name, fan in oracle_fans.items():
        image = ordinary_image(fan)
        if classify(fan) is not Verdict.TORIC:
            assert not is_ordinary(image), name
            continue
        toric += 1
        assert is_ordinary(image), name
        assert validate(image).all_passed, name
        maximal = fan.maximal_simplices()
        for a in maximal:
            for b in maximal:
                table = transition(fan, a, b).table
                assert transition(image, a, b).table == table, name
    assert toric > 0


@pytest.mark.parametrize("name", ["hirzebruch-1", "nontoric-surface"])
def test_report_and_acs_decide_once_without_transition_tables(
    name, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "fan.json"
    path.write_text(emit_fan(catalog.get(name)))
    for function in (charts.transition, czalgebra.pairing, charts.exponent_certificate):
        forbid(monkeypatch, function)
    calls = []
    original = charts.classify

    def counting(fan):
        calls.append(fan)
        return original(fan)

    replace_aliases(monkeypatch, original, counting)
    for command in ("report", "acs"):
        calls.clear()
        assert main([command, "--fan", str(path), "--format", "json"]) == 0, command
        assert "Traceback" not in capsys.readouterr().err
        assert len(calls) == 1, command


def test_covering_degree_agrees_with_pairwise_and_sampled_checks(
    catalog_fans, committed_fans
):
    fans = dict(catalog_fans, **committed_fans)
    for seed in range(40):
        fans[f"random-{seed}"] = random_fan(seed, 1 + seed % 2, 4 + seed % 3)
    for name, fan in fans.items():
        report = validate(fan)
        table = _cone_table(fan)
        assert report.nonoverlap == _nonoverlap_check(table), name
        completeness = _completeness_check(table, DEGREE_SAMPLE_SEED)
        assert report.completeness == completeness, name
        tiles = report.nonoverlap.passed and report.completeness.passed
        assert _covered_once(table) == tiles, name
        if tiles:
            for seed in (0, 1, 2, 99, 1000003):
                again = validate(fan, seed=seed)
                assert replace(again, seed=0) == replace(report, seed=0), name


def test_report_decides_tiling_without_pairwise_elimination(
    catalog_fans, committed_fans, tmp_path, monkeypatch, capsys
):
    fans = dict(catalog_fans, **committed_fans)
    valid = [name for name, fan in fans.items() if validate(fan).all_passed]
    assert len(valid) == len(catalog_fans) + 6
    _validate_cached.cache_clear()
    forbid(monkeypatch, fme.strict_feasible)
    for name in valid:
        path = tmp_path / f"{name}.json"
        path.write_text(emit_fan(fans[name]))
        assert main(["report", "--fan", str(path), "--format", "json"]) == 0, name
        assert "Traceback" not in capsys.readouterr().err, name


def test_separated_pairs_are_disjoint_and_nonoverlap_matches_all_pairs_oracle(
    catalog_fans, committed_fans
):
    fans = dict(catalog_fans, **committed_fans)
    for seed in range(40):
        fans[f"random-{seed}"] = random_fan(seed, 1 + seed % 2, 4 + seed % 3)
    for name, fan in list(catalog_fans.items()) + [
        (f"random-{seed}", fans[f"random-{seed}"]) for seed in range(0, 40, 4)
    ]:
        maximal = fan.maximal_simplices()
        target = maximal[len(name) % len(maximal)]
        fans[f"{name}-removed"] = remove_maximal_simplex(fan, target)
        fans[f"{name}-duplicated"] = duplicate_cone(fan, target)
    skipped = 0
    for name, fan in fans.items():
        assert validate(fan).nonoverlap == all_pairs_nonoverlap(fan), name
        cones = _cone_table(fan).cones.items()
        for (simplex_a, cone_a), (simplex_b, cone_b) in combinations(cones, 2):
            if _separated(cone_a, cone_b) or _separated(cone_b, cone_a):
                skipped += 1
                assert fme_overlap(fan, simplex_a, simplex_b) is None, (name, simplex_a)
    assert skipped > 0
