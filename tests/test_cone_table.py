"""The integer cone table of fan validation: Bareiss determinants and
adjugates against Leibniz, sign membership against Cramer's rule, and guards
that valid fans are validated without Fraction inverses, nullspaces or
Fourier-Motzkin elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cramer_membership, forbid, leibniz_det, replace_aliases
from topfan import fme, linalg
from topfan.czalgebra import diagonal_vector
from topfan.fan import (
    DependenceWitness,
    SimplicialComplex,
    TopologicalFan,
    UncoveredWitness,
    _cone,
    _cone_table,
    _integer_row,
    _validate_cached,
    validate,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def square_matrices(draw, entries):
    """n x n matrices for n = 1-4; about a third have a row that is a multiple
    of another row, so singular matrices are well represented."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        source, target = draw(st.permutations(range(n)))[:2]
        rows[target] = [draw(entries) * x for x in rows[source]]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices(st.integers(-20, 20)))
def test_bareiss_determinant_and_adjugate(a):
    n = len(a)
    det, adjugate = linalg.bareiss(a)
    assert det == leibniz_det(a)
    product = [
        [sum(adjugate[i][k] * a[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[det * (i == j) for j in range(n)] for i in range(n)]


@st.composite
def cones_and_points(draw):
    generators = draw(square_matrices(rationals))
    n = len(generators)
    if draw(st.booleans()):
        # a combination of the generators, often with zero or negative
        # coefficients, so facets and their outer sides are hit
        weight = st.sampled_from([-1, 0, 0, 1, 2, Fraction(1, 3)])
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        point = [
            sum(w * g[r] for w, g in zip(weights, generators)) for r in range(n)
        ]
    else:
        point = draw(st.lists(rationals, min_size=n, max_size=n))
    return generators, point


@settings(max_examples=150, deadline=None)
@given(cones_and_points())
def test_sign_membership_agrees_with_cramer(case):
    generators, point = case
    cone = _cone([_integer_row(g) for g in generators], range(len(generators)))
    expected = cramer_membership(generators, point)
    assert cone.coefficients(tuple(point)) == expected
    if expected is None:
        assert cone.det == 0 and cone.normals is None
        return
    lowest = min(cone.facet_values(_integer_row(point)[1]))
    assert (lowest >= 0) == all(c >= 0 for c in expected)
    assert (lowest > 0) == all(c > 0 for c in expected)


def ordinary_fan(rays, simplices):
    sc = SimplicialComplex(len(rays), simplices)
    return TopologicalFan(len(rays[0]), sc, tuple(diagonal_vector(r) for r in rays))


def test_wall_sides_with_a_dependent_cone_or_a_degenerate_wall():
    # cone {0, 2} holds the opposite rays (1, 0) and (-1, 0): its determinant
    # is 0, so ray 2 lies on the line of wall {0} and the wall is not straddled
    flat = ordinary_fan([(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2], [0, 2]])
    table = _cone_table(flat)
    assert table.pseudomanifold.passed
    assert (table.sides.passed, table.sides.witness.wall) == (False, (0,))
    assert table.sides.detail == ""
    report = validate(flat)
    assert report.linear_independence.witness == DependenceWitness((0, 2))
    # the dependent cone is tested by its span: (1, -1) is off the x-axis
    uncovered = UncoveredWitness((Fraction(1), Fraction(-1)))
    assert report.completeness.witness == uncovered

    # wall {0, 1} spans a line, not a plane, in both cones that hold it
    line = ordinary_fan(
        [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2], [0, 1, 3]]
    )
    sides = _cone_table(line).sides
    assert (sides.passed, sides.witness.wall) == (False, (0, 1))
    assert sides.detail == "wall spans a degenerate hyperplane"


def test_valid_fans_validate_without_fraction_inverses_or_elimination(
    catalog_fans, committed_fans, monkeypatch
):
    fans = dict(catalog_fans, **committed_fans)
    valid = [name for name, fan in fans.items() if validate(fan).all_passed]
    assert len(valid) == len(catalog_fans) + 6
    _validate_cached.cache_clear()
    for function in (linalg.det, linalg.inverse, linalg.nullspace, fme.strict_feasible):
        forbid(monkeypatch, function)
    for name in valid:
        assert validate(fans[name]).all_passed, name


#: Fourier-Motzkin calls of one validate on each committed defective fan; the
#: all-pairs check made 55, 39, 4 and 52.
FME_CALLS = {
    "drop-cone-toric-n3-M12": 0,
    "move-ray-toric-n2-M12": 1,
    "flip-real-twist-n3-M12": 1,
    "move-ray-twist-n3-M16": 1,
}


@pytest.mark.parametrize("name", sorted(FME_CALLS))
def test_elimination_runs_only_on_pairs_no_facet_separates(
    name, committed_fans, monkeypatch
):
    calls = []
    original = fme.strict_feasible

    def counting(*args):
        calls.append(args)
        return original(*args)

    replace_aliases(monkeypatch, original, counting)
    _validate_cached.cache_clear()
    assert not validate(committed_fans[name]).all_passed
    assert len(calls) == FME_CALLS[name]
