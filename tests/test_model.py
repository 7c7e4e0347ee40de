"""Chart model: points, the one-parameter flow, loci, bundle actions."""

from fractions import Fraction

import pytest

from agdeform.deform import EndomorphismField, build_Phi, q_polynomial
from agdeform.exactalg import MismatchedTables, PoleAtPoint, Polynomial, UsageError
from agdeform.model import (
    Chart,
    ChartPoint,
    GenericFlow,
    NotDecomposable,
    SymbolicMatrix,
    bundle_actions,
    flow_matrix,
    flow_point,
    flow_point_split_form,
    holonomy,
    split_fixed_plus_rank1,
)

CHART = Chart(3)


def constant_matrix(point):
    """The numeric point as an n x 2 SymbolicMatrix of constants."""
    chart = point.chart
    return SymbolicMatrix(chart.table, [[chart.const(v) for v in row] for row in point.entries])


def parsed_matrix(text):
    return constant_matrix(ChartPoint.parse(CHART, text))


def test_chart_point_parse_format_roundtrip():
    point = ChartPoint.parse(CHART, "1,3;2,0;0,0")
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


def test_numeric_point_refuses_bools_and_floats():
    """A numeric entry is an int or a Fraction: a bool is refused as
    exactalg.coerce_rational refuses it (not read as 1 or 0), and so are a
    float, a string literal and a rational function, constant or not, in a
    point and as the flow time of a numeric point."""
    ints = [[1, 0], [0, 1], [1, 1]]
    assert ChartPoint(CHART, ints).format() == "1,0;0,1;1,1"
    assert ChartPoint(CHART, [[Fraction(1, 2), 0], [0, 1], [1, 1]]).format() == "1/2,0;0,1;1,1"
    for bad in (True, False, 0.5, 1.0, "1/2", "1", CHART.const(1), CHART.x(1, 1)):
        entries = [row[:] for row in ints]
        entries[0][0] = bad
        with pytest.raises(UsageError):
            ChartPoint(CHART, entries)
        with pytest.raises(UsageError):
            flow_point(ChartPoint(CHART, ints), bad)
    with pytest.raises(UsageError, match="cannot interpret"):
        ChartPoint(CHART, [[True, 0], [0, 1], [1, 1]])


def test_generic_point_is_symbolic():
    """The generic point is the n x 2 SymbolicMatrix of the coordinates;
    the symbolic flow refuses a time from another chart."""
    X = GenericFlow(CHART).point
    assert type(X) is SymbolicMatrix and (X.nrows, X.ncols) == (3, 2)
    assert X[2, 0] == CHART.x(3, 1) and X[0, 1] == CHART.x(1, 2)
    with pytest.raises(MismatchedTables):
        flow_matrix(X, Chart(2).param("t"))


def test_flow_worked_example():
    X = ChartPoint.parse(CHART, "1,3;2,0;0,0")
    assert flow_point(X, 1).format() == "1/2,3/2;1,-3;0,0"


def test_flow_symbolic_time_matches_numeric():
    """Oracle for the numeric closed form: flow_matrix of the generic point
    at symbolic t, with the point and the time substituted, is flow_point
    of the point, on and off x11 = 0.  At the pole 1 + t x11 = 0,
    flow_point raises PoleAtPoint."""
    flow = GenericFlow(CHART)
    table = CHART.table
    cases = (
        ("1,3;2,0;0,0", 1),
        ("2,-1/3;1/2,4;-3,5", Fraction(-2, 7)),
        ("0,3;4,-1;0,5", Fraction(5, 3)),
        ("-1/2,0;0,0;7,1/9", Fraction(1, 4)),
        ("3,1;-2,2;1,-1", Fraction(-1, 6)),
        ("1/3,-2/5;0,0;0,1", -4),
    )
    for text, t in cases:
        X = ChartPoint.parse(CHART, text)
        mapping = {table.x_index(i, j): CHART.const(v) for i, row in enumerate(X.entries, 1) for j, v in enumerate(row, 1)}
        mapping[table.index("t")] = CHART.const(t)
        assert flow.moved.substitute(mapping) == constant_matrix(flow_point(X, t))
    with pytest.raises(PoleAtPoint):
        flow_point(ChartPoint.parse(CHART, "2,3;1,0;0,0"), Fraction(-1, 2))


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
    X = GenericFlow(chart).point
    t, s = chart.param("t"), chart.param("s")
    assert flow_matrix(flow_matrix(X, t), s) == flow_matrix(X, s + t)


def test_split_fixed_plus_rank1():
    X = parsed_matrix("2,3;4,-1;0,5")
    fixed, direction = split_fixed_plus_rank1(X)
    zero = CHART.const(0)
    # strongly fixed: the first column and x12 vanish
    assert all(row[0] == zero for row in fixed.rows)
    assert fixed[0, 1] == zero
    # direction has rank one: all 2x2 minors vanish
    d = direction.rows
    for i in range(3):
        for j in range(i + 1, 3):
            assert d[i][0] * d[j][1] - d[i][1] * d[j][0] == zero
    recombined = tuple(
        tuple(a + b for a, b in zip(rf, rd))
        for rf, rd in zip(fixed.rows, direction.rows)
    )
    assert recombined == X.rows


def test_split_undefined_on_h0():
    X = parsed_matrix("0,3;4,-1;0,5")
    with pytest.raises(NotDecomposable):
        split_fixed_plus_rank1(X)


def test_split_form_matches_flow():
    X = ChartPoint.parse(CHART, "2,3;4,-1;0,5")
    t = Fraction(1, 5)
    split = flow_point_split_form(constant_matrix(X), CHART.const(t))
    assert split.rows == constant_matrix(flow_point(X, t)).rows


def test_bundle_actions_dual_consistency():
    """Stored duals are transpose-inverses of the primal actions."""
    X = GenericFlow(CHART).point
    t = CHART.param("t")
    actions = bundle_actions(X, t)
    ident2 = SymbolicMatrix.identity(CHART.table, 2)
    identn = SymbolicMatrix.identity(CHART.table, 3)
    assert actions.on_e.transpose() * actions.on_estar == ident2
    assert actions.on_f.transpose() * actions.on_fstar == identn


def test_bundle_actions_displayed_entries():
    """Row-covector action matrices (transposes of the stored duals)."""
    X = GenericFlow(CHART).point
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
    X = GenericFlow(CHART).point
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
    X = parsed_matrix("1,2;0,1;3,-1")
    s, t = CHART.const(Fraction(1, 2)), CHART.const(Fraction(1, 3))
    lhs = holonomy(X, s + t)
    rhs = holonomy(flow_matrix(X, t), s) * holonomy(X, t)
    assert lhs == rhs


def test_holonomy_identity_at_zero():
    X = parsed_matrix("1,2;0,1;3,-1")
    assert holonomy(X, CHART.const(0)) == SymbolicMatrix.identity(CHART.table, 5)


def test_evaluation_vector_binds_x_only():
    """The entries in the chart variable order, then 0 for t, s and every
    c_i: c is bound by Chart.c_substitution, never by a point."""
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    vec = point.evaluation_vector()
    table = CHART.table
    assert vec == (1, 2, 3, 4, 5, 6, 0, 0, 0, 0) and len(vec) == table.size
    assert all(type(v) is Fraction for v in vec)
    assert vec[table.x_index(2, 2)] == 4
    assert vec[table.index("t")] == vec[table.index("s")] == vec[table.c_index(3)] == 0
    with pytest.raises(TypeError):
        point.evaluation_vector(c=[Fraction(8), Fraction(9)])


def test_symbolic_matrix_algebra():
    t = CHART.param("t")
    m = SymbolicMatrix(CHART.table, [[CHART.const(1), t], [CHART.const(0), CHART.const(1)]])
    sq = m * m
    assert sq[0, 1] == t + t
    assert m.transpose()[1, 0] == t
    vec = m.apply((CHART.const(2), CHART.const(3)))
    assert vec[0] == CHART.const(2) + t * CHART.const(3)


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_substitute_matches_entrywise(n, monkeypatch):
    """Phi at the generically flowed point: the batch substitution equals
    entry-wise RationalFunction.substitute, stored form and all, and
    substitutes q once for the whole matrix."""
    chart = Chart(n)
    phi = build_Phi(chart)
    flowed = GenericFlow(chart).substitution
    q = q_polynomial(chart)
    substituted = []
    real = Polynomial.substitute

    def counted(self, mapping):
        substituted.append(self)
        return real(self, mapping)

    monkeypatch.setattr(Polynomial, "substitute", counted)
    batch = phi.substitute(flowed)
    monkeypatch.undo()
    assert sum(p == q for p in substituted) == 1
    assert type(batch) is EndomorphismField
    for got_row, row in zip(batch.rows, phi.rows):
        for got, entry in zip(got_row, row):
            want = entry.substitute(flowed)
            assert got == want
            assert (got.num, got.den) == (want.num, want.den)
