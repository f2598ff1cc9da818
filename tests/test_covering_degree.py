"""The covering-degree rule of validate: the moment-curve walk to a generic
point, and fans whose walls are all good but whose cones cover the plane
more than once, which keep the pairwise non-overlap and sampled
completeness verdicts."""

import pytest

from conftest import forbid, strictly_inside
from topfan import catalog, fme
from topfan.czalgebra import CZMat, diagonal_vector
from topfan.errors import PreconditionError
from topfan.fan import (
    DisconnectedWitness,
    MultiCoverWitness,
    OverlapWitness,
    SimplicialComplex,
    TopologicalFan,
    _completeness_check,
    _cone_table,
    _generic_degree,
    _nonoverlap_check,
    cones_nonoverlapping,
    is_complete,
    validate,
)


def test_generic_point_walks_past_a_ray_on_the_moment_curve(monkeypatch):
    # cp2 with the real part of its first ray moved to (97, 1), which holds
    # (1, 1/97), the first point of the moment-curve walk
    cp2 = catalog.cp(2)
    real = [(97, 1), (0, 1), (-97, -2)]
    beta = tuple(
        tuple(CZMat(b, 0, comp.v) for b, comp in zip(row, vector))
        for row, vector in zip(real, cp2.beta)
    )
    fan = TopologicalFan(2, cp2.sc, beta)
    assert _generic_degree(_cone_table(fan)) == 1
    forbid(monkeypatch, fme.strict_feasible)
    assert validate(fan).all_passed


def two_copies_of_cp2():
    cp2 = catalog.cp(2)
    simplices = cp2.maximal_simplices()
    sc = SimplicialComplex(6, simplices + [[v + 3 for v in s] for s in simplices])
    return TopologicalFan(2, sc, cp2.beta + cp2.beta)


def triple_cover():
    """Eight rays at 45 degree steps; cone k joins rays k and k + 3."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    sc = SimplicialComplex(8, [[k, (k + 3) % 8] for k in range(8)])
    return TopologicalFan(2, sc, tuple(diagonal_vector(r) for r in rays))


@pytest.mark.parametrize(
    "build, degree, kind",
    [(two_copies_of_cp2, 2, DisconnectedWitness), (triple_cover, 3, MultiCoverWitness)],
)
def test_good_walls_with_degree_above_one_keep_the_pairwise_verdicts(
    build, degree, kind
):
    fan = build()
    table = _cone_table(fan)
    assert table.pseudomanifold.passed and table.sides.passed
    assert _generic_degree(table) == degree
    report = validate(fan)
    assert report.nonoverlap == _nonoverlap_check(table) == cones_nonoverlapping(fan)
    assert report.completeness == _completeness_check(table, report.seed)
    with pytest.raises(PreconditionError):
        is_complete(fan)

    overlap = report.nonoverlap.witness
    assert isinstance(overlap, OverlapWitness)
    assert strictly_inside(fan, overlap.simplex_a, overlap.point)
    assert strictly_inside(fan, overlap.simplex_b, overlap.point)

    assert not report.completeness.passed
    w = report.completeness.witness
    assert isinstance(w, kind)
    if kind is MultiCoverWitness:
        assert len(w.simplices) == degree
        assert all(strictly_inside(fan, s, w.point) for s in w.simplices)
    else:
        inside, outside = w.components
        assert sorted(inside + outside) == fan.maximal_simplices()
        # no wall joins the components, and each holds the overlap point alone
        assert all(len(set(a) & set(b)) < fan.n - 1 for a in inside for b in outside)
        for component in w.components:
            assert any(strictly_inside(fan, s, overlap.point) for s in component)
