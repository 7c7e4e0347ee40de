"""Chart model: points, the one-parameter flow, loci, bundle actions."""

from fractions import Fraction

import pytest

from agdeform.exactalg import PoleAtPoint, UsageError
from agdeform.model import (
    Chart,
    ChartPoint,
    NotDecomposable,
    SymbolicMatrix,
    bundle_actions,
    flow_point,
    flow_point_split_form,
    holonomy,
    split_fixed_plus_rank1,
)

CHART = Chart(3)


def test_chart_point_parse_format_roundtrip():
    point = ChartPoint.parse(CHART, "1,3;2,0;0,0")
    assert point.is_numeric
    assert point.entries[0] == (Fraction(1), Fraction(3))
    assert point.format() == "1,3;2,0;0,0"
    fancy = ChartPoint.parse(CHART, "1/2,-3;0,2/7;1,1")
    assert fancy.entries[1][1] == Fraction(2, 7)
    assert ChartPoint.parse(CHART, fancy.format()) == fancy


def test_chart_point_parse_errors():
    with pytest.raises(UsageError):
        ChartPoint.parse(CHART, "1,2;3,4")
    with pytest.raises(UsageError):
        ChartPoint.parse(CHART, "1;2;3")
    with pytest.raises(UsageError):
        ChartPoint.parse(CHART, "1,x;2,0;0,0")


def test_generic_point_is_symbolic():
    X = ChartPoint.generic(CHART)
    assert not X.is_numeric
    with pytest.raises(UsageError):
        X.format()
    assert X.entries[2][0] == CHART.x(3, 1)


def test_flow_worked_example():
    X = ChartPoint.parse(CHART, "1,3;2,0;0,0")
    assert flow_point(X, 1).format() == "1/2,3/2;1,-3;0,0"


def test_flow_fixes_time_zero_and_strongly_fixed_points():
    X = ChartPoint.parse(CHART, "1,3;2,0;0,0")
    assert flow_point(X, 0) == X
    fixed = ChartPoint.parse(CHART, "0,0;0,5;0,-2")
    assert flow_point(fixed, Fraction(7, 3)) == fixed


def test_flow_pole():
    X = ChartPoint.parse(CHART, "2,3;1,0;0,0")
    with pytest.raises(PoleAtPoint):
        flow_point(X, Fraction(-1, 2))


def test_flow_group_law_numeric():
    X = ChartPoint.parse(CHART, "1,3;2,-1;1/2,0")
    s, t = Fraction(1, 3), Fraction(2)
    assert flow_point(flow_point(X, t), s) == flow_point(X, s + t)


def test_flow_group_law_symbolic_n2():
    chart = Chart(2)
    X = ChartPoint.generic(chart)
    t, s = chart.param("t"), chart.param("s")
    assert flow_point(flow_point(X, t), s) == flow_point(X, s + t)


def test_split_fixed_plus_rank1():
    X = ChartPoint.parse(CHART, "2,3;4,-1;0,5")
    fixed, direction = split_fixed_plus_rank1(X)
    zero = CHART.const(0)
    # strongly fixed: the first column and x12 vanish
    assert all(row[0] == zero for row in fixed.entries)
    assert fixed.entries[0][1] == zero
    # direction has rank one: all 2x2 minors vanish
    d = direction.entries
    for i in range(3):
        for j in range(i + 1, 3):
            assert d[i][0] * d[j][1] - d[i][1] * d[j][0] == zero
    recombined = tuple(
        tuple(a + b for a, b in zip(rf, rd))
        for rf, rd in zip(fixed.entries, direction.entries)
    )
    assert recombined == X.lifted_entries()


def test_split_undefined_on_h0():
    X = ChartPoint.parse(CHART, "0,3;4,-1;0,5")
    with pytest.raises(NotDecomposable):
        split_fixed_plus_rank1(X)


def test_split_form_matches_flow():
    X = ChartPoint.parse(CHART, "2,3;4,-1;0,5")
    t = Fraction(1, 5)
    assert flow_point_split_form(X, t).entries == flow_point(X, t).lifted_entries()


def test_bundle_actions_dual_consistency():
    """Stored duals are transpose-inverses of the primal actions."""
    X = ChartPoint.generic(CHART)
    t = CHART.param("t")
    actions = bundle_actions(X, t)
    ident2 = SymbolicMatrix.identity(CHART.table, 2)
    identn = SymbolicMatrix.identity(CHART.table, 3)
    assert actions.on_e.transpose() * actions.on_estar == ident2
    assert actions.on_f.transpose() * actions.on_fstar == identn


def test_bundle_actions_displayed_entries():
    """Row-covector action matrices (transposes of the stored duals)."""
    X = ChartPoint.generic(CHART)
    t = CHART.param("t")
    actions = bundle_actions(X, t)
    one = CHART.const(1)
    u = one + t * CHART.x(1, 1)
    assert actions.on_e[0, 0] == u
    assert actions.on_e[0, 1] == t * CHART.x(1, 2)
    assert actions.on_e[1, 0] == CHART.const(0)
    assert actions.on_e[1, 1] == one
    estar_row = actions.on_estar.transpose()
    assert estar_row[0, 0] == u.inverse()
    assert estar_row[0, 1] == -t * CHART.x(1, 2) * u.inverse()
    assert actions.on_f[1, 0] == -t * CHART.x(2, 1) * u.inverse()
    assert actions.on_f[0, 0] == u.inverse()
    fstar_row = actions.on_fstar.transpose()
    assert fstar_row[0, 0] == u
    assert fstar_row[1, 0] == t * CHART.x(2, 1)


def test_volume_compatibility():
    """det on E is 1 + t x11 and det on F is its inverse, so the product is 1."""
    X = ChartPoint.generic(CHART)
    t = CHART.param("t")
    actions = bundle_actions(X, t)
    u = CHART.const(1) + t * CHART.x(1, 1)
    e, f = actions.on_e, actions.on_f
    det_e = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    # on_f is lower-triangular, so its determinant is the diagonal product
    assert all(f[i, j].is_zero() for i in range(3) for j in range(i + 1, 3))
    det_f = f[0, 0] * f[1, 1] * f[2, 2]
    assert det_e == u
    assert det_f == u.inverse()
    assert det_e * det_f == CHART.const(1)


def test_holonomy_cocycle_numeric():
    X = ChartPoint.parse(CHART, "1,2;0,1;3,-1")
    s, t = Fraction(1, 2), Fraction(1, 3)
    lhs = holonomy(X, s + t)
    rhs = holonomy(flow_point(X, t), s) * holonomy(X, t)
    assert lhs == rhs


def test_holonomy_identity_at_zero():
    X = ChartPoint.parse(CHART, "1,2;0,1;3,-1")
    assert holonomy(X, 0) == SymbolicMatrix.identity(CHART.table, 5)


def test_evaluation_vector_binds_parameters():
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    vec = point.evaluation_vector(c=[Fraction(8), Fraction(9)])
    table = CHART.table
    assert vec[table.x_index(2, 2)] == 4
    assert vec[table.t_index] == vec[table.index("s")] == 0
    assert vec[table.c_index(2)] == 8
    assert vec[table.c_index(3)] == 9
    with pytest.raises(UsageError):
        ChartPoint.generic(CHART).evaluation_vector()


def test_symbolic_matrix_algebra():
    t = CHART.param("t")
    m = SymbolicMatrix(CHART.table, [[CHART.const(1), t], [CHART.const(0), CHART.const(1)]])
    sq = m * m
    assert sq[0, 1] == t + t
    assert m.transpose()[1, 0] == t
    vec = m.apply((CHART.const(2), CHART.const(3)))
    assert vec[0] == CHART.const(2) + t * CHART.const(3)
