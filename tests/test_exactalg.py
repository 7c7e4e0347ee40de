"""Exact rational-function arithmetic: ring laws, calculus, degree facts."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdeform import checks, exactalg
from agdeform.curvature import nabla2_phi
from agdeform.deform import build_Phi, q_polynomial
from agdeform.exactalg import (
    MismatchedTables,
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    ScaledValues,
    UsageError,
    VariableTable,
    Dual,
    eps_part,
    exponent_pairs,
    flat_index,
    pack_monomial,
    parse_rational,
    render_polynomial,
    render_rational_function,
)
from agdeform.model import Chart, ChartPoint
from agdeform.torsion import TorsionAssembler
from oracles import assert_positive_multiple, evaluation_point

TABLE = VariableTable(3)


def rf_var(i, j):
    return RationalFunction.variable(TABLE, TABLE.x_index(i, j))


def q_rf():
    out = rf_var(1, 2) * rf_var(1, 2)
    for i in range(1, 4):
        out = out + rf_var(i, 1) * rf_var(i, 1)
    return out


def random_polynomial(rng, max_terms=4, max_degree=3, nvars=TABLE.size):
    """A random polynomial in the first nvars variables of TABLE."""
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * TABLE.size
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        coeffs[pack_monomial(mono)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(TABLE, coeffs)


def random_rational(rng):
    num = random_polynomial(rng)
    den = random_polynomial(rng)
    while den.is_zero():
        den = random_polynomial(rng)
    return RationalFunction.from_polynomial(num) / RationalFunction.from_polynomial(den)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)
    with pytest.raises(UsageError):
        parse_rational("zzz")
    with pytest.raises(UsageError):
        parse_rational("1/0")


def test_variable_table_layout():
    table = VariableTable(3)
    assert table.x_index(1, 1) == 0
    assert table.x_index(1, 2) == 1
    assert table.x_index(3, 2) == 5
    assert table.index("t") == 6
    assert table.index("s") == 7
    assert table.c_index(2) == 8
    assert table.c_index(3) == 9
    assert [table.render(i) for i in range(6)] == [
        "x11", "x12", "x21", "x22", "x31", "x32",
    ]


def test_flat_index_matches_chart_order():
    table = VariableTable(3)
    slots = [(i, jp) for i in (1, 2, 3) for jp in (1, 2)]
    assert [flat_index(i, jp) for i, jp in slots] == list(range(6))
    assert [table.names[flat_index(i, jp)] for i, jp in slots] == [
        f"x{i}{jp}" for i, jp in slots
    ]
    assert all(table.x_index(i, jp) == flat_index(i, jp) for i, jp in slots)


def test_mismatched_tables_rejected():
    """Values over different tables do not combine, in +, * or either path
    of dot; an equal table that is another object does."""
    other = VariableTable(4)
    x, y = RationalFunction.variable(TABLE, 0), RationalFunction.variable(other, 0)
    with pytest.raises(MismatchedTables):
        x + y
    with pytest.raises(MismatchedTables):
        x * y
    q = q_rf()
    for pairs in ([(x, y)], [(x / q, y), (x, x)]):
        with pytest.raises(MismatchedTables):
            exactalg.dot(TABLE, pairs)
    same = RationalFunction.variable(VariableTable(3), 0)
    assert exactalg.dot(TABLE, [(x, same)]) == x * x == x * same


@pytest.mark.parametrize(
    "num", [Polynomial.zero(TABLE), Polynomial.variable(TABLE, 0)], ids=["zero", "x11"]
)
def test_constructor_checks_every_factor_whatever_the_numerator(num):
    """A zero numerator is checked like any other: the zero factor and a
    negative exponent are usage errors, and a factor over another table is
    MismatchedTables, even with exponent -3."""
    zero, x21 = Polynomial.zero(TABLE), Polynomial.variable(TABLE, 2)
    foreign = Polynomial.variable(VariableTable(4), 0)
    for den in ([(zero, 1)], [(x21, 1), (zero, 2)], [(x21, -3)]):
        with pytest.raises(UsageError) as err:
            RationalFunction(num, den)
        assert type(err.value) is UsageError
    for exponent in (1, -3):
        with pytest.raises(MismatchedTables):
            RationalFunction(num, [(foreign, exponent)])


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFunction.zero(TABLE)


def test_cross_multiplied_equality_randomized():
    """p/q == (p f)/(q f) for a thousand random triples."""
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        f = random_polynomial(rng)
        if q.is_zero() or f.is_zero():
            continue
        lhs = RationalFunction.from_polynomial(p) / RationalFunction.from_polynomial(q)
        rhs = RationalFunction.from_polynomial(p * f) / RationalFunction.from_polynomial(
            q * f
        )
        assert lhs == rhs
        checked += 1


def test_equal_values_are_unhashable():
    """x11^2/(x11 x12) and x11/x12 are equal but stored differently, so no
    hash could agree with ==; RationalFunction refuses to hash."""
    x11, x12 = rf_var(1, 1), rf_var(1, 2)
    lhs = (x11 * x11) / (x11 * x12)
    rhs = x11 / x12
    assert lhs == rhs
    assert lhs.den != rhs.den
    for value in (lhs, rhs):
        with pytest.raises(TypeError):
            hash(value)


def test_inverse_and_division():
    rng = random.Random(3)
    one = RationalFunction.constant(TABLE, 1)
    for _ in range(40):
        a = random_rational(rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == one
        assert (one / a) * a == one
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero(TABLE).inverse()


def test_power():
    x = rf_var(1, 1)
    assert x ** 3 == x * x * x
    assert x ** 0 == RationalFunction.constant(TABLE, 1)
    with pytest.raises(UsageError):
        x ** -2


def test_quotient_rule_displayed_example():
    """d/dx11 of x12 x11 x21 x21 / q via the quotient rule, checked exactly."""
    q = q_rf()
    x11, x12, x21 = rf_var(1, 1), rf_var(1, 2), rf_var(2, 1)
    f = x12 * x11 * x21 * x21 / q
    got = f.differentiate(TABLE.x_index(1, 1))
    expected = (x12 * x21 * x21 * q - RationalFunction.constant(TABLE, 2) * x11 * x11 * x12 * x21 * x21) / (q * q)
    assert got == expected


def test_derivative_rules_randomized():
    rng = random.Random(23)
    for _ in range(25):
        a = random_rational(rng)
        b = random_rational(rng)
        var = rng.randrange(len(TABLE.names))
        da, db = a.differentiate(var), b.differentiate(var)
        assert (a * b).differentiate(var) == da * b + a * db
        assert (a + b).differentiate(var) == da + db


def test_mixed_partials_commute():
    rng = random.Random(5)
    for _ in range(15):
        f = random_rational(rng)
        v1 = rng.randrange(len(TABLE.names))
        v2 = rng.randrange(len(TABLE.names))
        assert f.differentiate(v1).differentiate(v2) == f.differentiate(v2).differentiate(v1)


def test_evaluate_commutes_with_arithmetic():
    rng = random.Random(41)
    for _ in range(25):
        a = random_rational(rng)
        b = random_rational(rng)
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in TABLE.names)
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
            vsum = (a + b).evaluate(point)
            vprod = (a * b).evaluate(point)
        except PoleAtPoint:
            continue
        assert vsum == va + vb
        assert vprod == va * vb


def test_substitution_composes_with_evaluation():
    rng = random.Random(19)
    x11 = rf_var(1, 1)
    sub = {TABLE.x_index(1, 1): x11 * x11 + RationalFunction.constant(TABLE, 1)}
    for _ in range(10):
        f = random_rational(rng)
        point = tuple(Fraction(rng.randint(-2, 2)) for _ in TABLE.names)
        moved = list(point)
        moved[TABLE.x_index(1, 1)] = point[TABLE.x_index(1, 1)] ** 2 + 1
        try:
            lhs = f.substitute(sub).evaluate(point)
            rhs = f.evaluate(tuple(moved))
        except PoleAtPoint:
            continue
        assert lhs == rhs


def test_pole_at_point():
    q = q_rf()
    f = RationalFunction.constant(TABLE, 1) / q
    origin = tuple(Fraction(0) for _ in TABLE.names)
    with pytest.raises(PoleAtPoint) as err:
        f.evaluate(origin)
    assert "x11^2 + x12^2 + x21^2 + x31^2" in str(err.value)


def _variable(name):
    return Polynomial.variable(TABLE, TABLE.index(name))


def _constant(value):
    return Polynomial.constant(TABLE, value)


#: Denominator factors in the chart variables, of degree 1 and 2; x11 - 3
#: is negative near the origin.
SCALED_FACTORS = (
    q_rf().num,
    _constant(1) + _variable("x12") * _variable("x11"),
    _variable("x11") - _constant(3),
    _variable("x21").scale(Fraction(2, 3)) + _variable("x32") - _constant(Fraction(1, 5)),
)

#: The chart variables x11..x32 of TABLE, which come first.
CHART_VARIABLES = 2 * TABLE.n


def _random_point(rng):
    """A random chart point as a full evaluation vector: t, s and c are 0."""
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(CHART_VARIABLES)]
    return tuple(x) + (Fraction(0),) * (TABLE.size - CHART_VARIABLES)


def _scaled_against_oracle(functions, point):
    """ScaledValues(functions).at(point) against the Fraction values: a
    positive multiple of them, or PoleAtPoint where the oracle has a pole."""
    values = ScaledValues(functions)
    try:
        exact = [f.evaluate(point) for f in functions]
    except PoleAtPoint:
        with pytest.raises(PoleAtPoint):
            values.at(point)
        return None
    scaled = values.at(point)
    assert_positive_multiple(scaled, exact)
    return scaled


def test_scaled_values_match_the_fraction_oracle_on_random_functions():
    """Seeded random numerators with Fraction coefficients, in every chart
    variable, over random products of powers of mixed factors, zero
    functions among them: at() is one positive multiple of the Fraction
    values."""
    rng = random.Random(25)
    evaluated = 0
    for _ in range(60):
        functions = []
        for _ in range(rng.randint(1, 5)):
            factors = rng.sample(SCALED_FACTORS, rng.randint(0, 3))
            den = [(factor, rng.randint(1, 3)) for factor in factors]
            num = random_polynomial(rng, nvars=CHART_VARIABLES)
            functions.append(RationalFunction(num, den))
        for _ in range(3):
            evaluated += _scaled_against_oracle(functions, _random_point(rng)) is not None
    assert evaluated > 150


def test_scaled_values_signs_and_zeros():
    """A factor negative at the point with an odd exponent flips the sign
    of the multiple and with an even one does not; zero functions, and a
    function that vanishes at the point, read 0."""
    x11, x22 = _variable("x11"), _variable("x22")
    odd = RationalFunction(_constant(1), [(x11 - _constant(3), 1)])
    even = RationalFunction(_constant(1), [(x11 - _constant(3), 2)])
    cubed = RationalFunction(x22 * x11 + _constant(Fraction(1, 2)), [(x11 - _constant(3), 3)])
    zero = RationalFunction.zero(TABLE)
    vanishing = RationalFunction(x11 - _constant(1), [(q_rf().num, 1)])
    point = ChartPoint.parse(Chart(3), "1,2;3,4;5,6").evaluation_vector()
    scaled = _scaled_against_oracle([odd, even, cubed, zero, vanishing], point)
    assert scaled[0] < 0 < scaled[1] and scaled[2] < 0
    assert scaled[3] == scaled[4] == 0
    assert _scaled_against_oracle([zero], point) == (0,)


def test_scaled_values_refuse_t_s_and_c():
    """A point binds x only, so a function in which t, s or some c_i occurs,
    in a numerator or in a denominator factor, is refused on construction,
    among chart-variable functions too; c is bound by substitution first."""
    x11 = _variable("x11")
    chart_only = RationalFunction(x11, [(x11 - _constant(3), 1)])
    for name in ("t", "s", "c2", "c3"):
        v = _variable(name)
        for bad in (RationalFunction(v * x11, []), RationalFunction(x11, [(_constant(1) + v * x11, 2)])):
            with pytest.raises(UsageError, match="substitute t, s and c"):
                ScaledValues([chart_only, bad])
    in_c = RationalFunction.variable(TABLE, TABLE.c_index(2)) * chart_only
    bound = in_c.substitute({TABLE.c_index(2): RationalFunction.constant(TABLE, 5)})
    point = ChartPoint.parse(Chart(3), "1,2;3,4;5,6").evaluation_vector()
    assert _scaled_against_oracle([bound], point) is not None


def test_scaled_values_pole_and_usage():
    """A vanishing denominator factor raises PoleAtPoint naming it; a point
    that does not bind every variable and functions over two tables are
    usage errors."""
    f = RationalFunction(_constant(1), [(q_rf().num, 2)])
    origin = tuple(Fraction(0) for _ in TABLE.names)
    with pytest.raises(PoleAtPoint) as err:
        ScaledValues([f, RationalFunction.zero(TABLE)]).at(origin)
    assert "x11^2 + x12^2 + x21^2 + x31^2" in str(err.value)
    with pytest.raises(UsageError):
        ScaledValues([f]).at(origin[:-1])
    with pytest.raises(MismatchedTables):
        ScaledValues([f, RationalFunction.zero(VariableTable(2))])


def test_degree_info():
    q = q_rf()
    assert q.num.chart_degree_range() == (2, 2)
    inv = RationalFunction.constant(TABLE, 1) / q
    assert inv.num.chart_degree_range() == (0, 0)
    assert inv.denominator_polynomial().chart_degree_range() == (2, 2)
    assert Polynomial.zero(TABLE).chart_degree_range() is None
    # t, s and the c_i carry chart weight zero
    for name in ("t", "s", "c2", "c3"):
        param = _poly_var(name)
        assert param.chart_degree_range() == (0, 0)
        assert (param * _poly_var("x11") + _poly_var("x12")).chart_degree_range() == (1, 1)


def _chart_degree_range_oracle(p):
    """chart_degree_range by the exponent_pairs of each monomial, the route
    the packed byte sum replaced."""
    if p.is_zero():
        return None
    n, size = p.table.n, p.table.size
    degrees = [sum(e for idx, e in exponent_pairs(mono, size) if idx < 2 * n) for mono in p.coeffs]
    return min(degrees), max(degrees)


def test_chart_degree_range_matches_exponent_pairs():
    """Over random polynomials in every variable of TABLE, and over each
    entry of Phi and its derivatives by x11 and c2 at n = 3 and 4."""
    rng = random.Random(11)
    polys = [random_polynomial(rng, max_terms=6, max_degree=8) for _ in range(300)]
    for n in (3, 4):
        table = VariableTable(n)
        phi = build_Phi(Chart(n))
        for f in (v for row in phi.rows for v in row):
            polys += [f.num, f.differentiate(0).num, f.differentiate(table.c_index(2)).num]
    assert sum(not p.is_zero() for p in polys) > 300
    for p in polys:
        assert p.chart_degree_range() == _chart_degree_range_oracle(p)


def test_degree_info_inhomogeneous():
    inhomogeneous = _poly_var("x11") + _poly_var("x12") * _poly_var("x21")
    assert inhomogeneous.chart_degree_range() == (1, 2)


def dual_slope(f, idx, point):
    """The eps part of f at point with coordinate idx seeded as Dual(p, 1)."""
    seeded = list(point)
    seeded[idx] = Dual(point[idx], 1)
    return eps_part(f.evaluate(seeded))


def hyper_dual_second(f, a, b, point):
    """The eps-eps part of f at point with a seeded in the inner and b in
    the outer Dual, as in checks.derivative_oracle_suite."""
    seeded = list(point)
    seeded[a] = Dual(Dual(point[a], 1), 0)
    seeded[b] = seeded[b] + Dual(0, 1)
    return eps_part(eps_part(f.evaluate(seeded)))


def fd_check(f, idx, point, step):
    """The relative error of a central finite difference against the dual
    slope of f by variable idx at point; the absolute value of the
    difference quotient where the slope vanishes.

    The float sanity oracle for Dual: the stencil values f(point +/- step
    e_idx) are exact and the quotient is formed in floats only at the end,
    so the error is pure truncation error of order step**2.
    """
    point = tuple(point)
    slope = dual_slope(f, idx, point)
    plus, minus = list(point), list(point)
    plus[idx] = point[idx] + step
    minus[idx] = point[idx] - step
    quotient = (f.evaluate(plus) - f.evaluate(minus)) / (2 * step)
    if slope:
        return abs(float((quotient - slope) / slope))
    return abs(float(quotient))


def test_fd_check_on_q():
    """On q the dual slope equals differentiate exactly, and the central
    difference agrees with it to truncation error."""
    q = q_rf()
    point = list(Fraction(0) for _ in TABLE.names)
    point[TABLE.x_index(1, 1)] = Fraction(2)
    point[TABLE.x_index(1, 2)] = Fraction(1)
    idx = TABLE.x_index(1, 1)
    assert q.differentiate(idx).evaluate(tuple(point)) == Fraction(4)
    assert dual_slope(q, idx, point) == Fraction(4)
    assert fd_check(q, idx, tuple(point), Fraction(1, 10_000)) < 1e-6
    assert fd_check(q.inverse(), idx, tuple(point), Fraction(1, 10_000)) < 1e-6


def test_fd_check_constant():
    f = RationalFunction.constant(TABLE, 5)
    point = tuple(Fraction(1) for _ in TABLE.names)
    assert dual_slope(f, TABLE.x_index(1, 1), point) == 0
    # a zero slope: the error is the difference quotient itself
    assert fd_check(f, TABLE.x_index(1, 1), point, Fraction(1, 100)) == 0.0


def test_fd_check_pole_in_stencil():
    """A pole in the stencil raises PoleAtPoint, and so does a dual
    evaluation at a pole, however nonzero its eps part: bool reads the
    value part only."""
    q = q_rf()
    f = RationalFunction.constant(TABLE, 1) / q
    point = list(Fraction(0) for _ in TABLE.names)
    point[TABLE.x_index(1, 1)] = Fraction(1, 10_000)
    with pytest.raises(PoleAtPoint):
        fd_check(f, TABLE.x_index(1, 1), tuple(point), Fraction(1, 10_000))
    assert not Dual(Fraction(0), 1) and Dual(Fraction(0), 1).eps == 1
    point[TABLE.x_index(1, 1)] = Fraction(0)
    with pytest.raises(PoleAtPoint):
        dual_slope(f, TABLE.x_index(1, 1), point)


def test_dual_slopes_equal_differentiate_on_random_rationals():
    """First and second derivatives by Dual and hyper-Dual equal those of
    differentiate at random points, for every variable (c and t included),
    and the central difference agrees with the dual slope."""
    rng = random.Random(7)
    checked = 0
    for _ in range(25):
        f = random_rational(rng)
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in TABLE.names)
        a, b = rng.randrange(len(TABLE.names)), rng.randrange(len(TABLE.names))
        try:
            f.evaluate(point)
            want = f.differentiate(a).evaluate(point)
        except PoleAtPoint:
            continue
        assert dual_slope(f, a, point) == want
        assert hyper_dual_second(f, a, b, point) == f.differentiate(a).differentiate(b).evaluate(point)
        assert hyper_dual_second(f, a, a, point) == f.differentiate(a).differentiate(a).evaluate(point)
        if want:
            assert fd_check(f, a, point, Fraction(1, 10**6)) < 1e-3
        checked += 1
    assert checked >= 15


def test_dual_slopes_equal_phi_table():
    """Every first derivative of the symbolic Phi at n = 3, and each
    second derivative by x11 and x12, at one point with symbolic c bound."""
    chart = Chart(3)
    phi = build_Phi(chart)
    point = evaluation_point(
        chart.table,
        [[Fraction(1, 3), Fraction(-2, 5)], [Fraction(3, 7), Fraction(1, 2)], [Fraction(-1, 4), 2]],
        c=[Fraction(3, 2), Fraction(-1)],
    )
    xs = [chart.table.x_index(i, j) for i in (1, 2, 3) for j in (1, 2)]
    nonzero = 0
    for row in range(6):
        for col in range(6):
            f = phi.rows[row][col]
            for idx in xs:
                want = phi.derivative(row, col, idx).evaluate(point)
                assert dual_slope(f, idx, point) == want
                nonzero += bool(want)
            for a in xs[:2]:
                for b in xs[:2]:
                    want = f.differentiate(a).differentiate(b).evaluate(point)
                    assert hyper_dual_second(f, a, b, point) == want
    assert nonzero > 100


def test_dual_refuses_floats_bools_and_negative_powers():
    d = Dual(Fraction(1, 2), 3)
    for bad in (0.5, True, "1"):
        for op in (operator.add, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(d, bad)
            with pytest.raises(TypeError):
                op(bad, d)
    with pytest.raises(TypeError):
        d ** -1
    with pytest.raises(TypeError):
        d ** True
    assert (d ** 0).value == 1 and (d ** 0).eps == 0
    cube = d ** 3
    assert (cube.value, cube.eps) == (Fraction(1, 8), 3 * Fraction(1, 4) * 3)
    quotient = 1 / d
    assert (quotient.value, quotient.eps) == (2, -12)
    negated = -d
    assert (negated.value, negated.eps) == (Fraction(-1, 2), -3)


def test_render_plain_and_latex():
    q = q_rf()
    assert render_polynomial(q.num) == "x11^2 + x12^2 + x21^2 + x31^2"
    f = RationalFunction.constant(TABLE, 1) / q
    assert render_rational_function(f) == "1/(x11^2 + x12^2 + x21^2 + x31^2)"
    latex = render_rational_function(f, latex=True)
    assert latex.startswith("\\frac{1}")
    assert "x_{11}^{2}" in latex


def test_scale_and_neg():
    q = q_rf()
    assert q.scale(Fraction(1, 2)) + q.scale(Fraction(1, 2)) == q
    assert -(-q) == q
    assert q.scale(0).is_zero()


def test_rational_entry_points_refuse_floats_and_bools():
    """A float or a bool is not an exact rational: a scale factor, a constant
    and a point coordinate are refused, as a polynomial coefficient is."""
    x11 = RationalFunction.variable(VariableTable(2), 0)
    for value in (0.1, True, False):
        with pytest.raises(UsageError):
            x11.scale(value)
        with pytest.raises(UsageError):
            Polynomial.constant(TABLE, value)
        with pytest.raises(UsageError):
            RationalFunction.constant(TABLE, value)
        with pytest.raises(UsageError):
            ChartPoint(Chart(3), [[value, 0], [0, 0], [0, 0]])
    with pytest.raises(UsageError):
        Polynomial(TABLE, {pack_monomial((0,) * TABLE.size): True})


@st.composite
def small_polys(draw):
    terms = draw(st.integers(0, 3))
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(terms):
        mono = [0] * nvars
        for _ in range(draw(st.integers(0, 2))):
            mono[draw(st.integers(0, nvars - 1))] += 1
        coeffs[pack_monomial(mono)] = Fraction(draw(st.integers(-4, 4)))
    return Polynomial(TABLE, coeffs)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_polynomial_ring_laws_hypothesis(p, r, s):
    assert p * (r + s) == p * r + p * s
    assert p * r == r * p
    assert (p - p).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_product_rule_hypothesis(p, r):
    fp = RationalFunction.from_polynomial(p)
    fr = RationalFunction.from_polynomial(r)
    var = TABLE.x_index(1, 1)
    lhs = (fp * fr).differentiate(var)
    rhs = fp.differentiate(var) * fr + fp * fr.differentiate(var)
    assert lhs == rhs


# -- the certified modular early-out of trial division ------------------------

P = (1 << 61) - 1


def _poly_var(name):
    return Polynomial.variable(TABLE, TABLE.index(name))


def _divisor_families():
    one = Polynomial.constant(TABLE, 1)
    q = q_rf().num
    x11, t, s = _poly_var("x11"), _poly_var("t"), _poly_var("s")
    # Monic in lex order with non-integer lower coefficients.
    fractional = (
        x11 * _poly_var("x12")
        + _poly_var("x21").scale(Fraction(1, 3))
        + Polynomial.constant(TABLE, Fraction(2, 5))
    )
    return {
        "q": q,
        "3q/2": q.scale(Fraction(3, 2)),
        "1+t*x11": one + t * x11,
        "1+t*x11+s*x11": one + t * x11 + s * x11,
        "x11": x11,
        "fractional": fractional,
    }


DIVISORS = _divisor_families()


@st.composite
def p_adic_polys(draw):
    """Polynomials whose denominators are sometimes divisible by p."""
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(draw(st.integers(0, 4))):
        mono = [0] * nvars
        for _ in range(draw(st.integers(0, 3))):
            mono[draw(st.integers(0, nvars - 1))] += 1
        den = draw(st.sampled_from((1, 1, 2, 3, P)))
        coeffs[pack_monomial(mono)] = Fraction(draw(st.integers(-6, 6)), den)
    return Polynomial(TABLE, coeffs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DIVISORS)), p_adic_polys())
def test_early_out_never_rejects_a_multiple_and_agrees_with_long_division(name, g):
    f = DIVISORS[name]
    product = f * g
    assert exactalg._divide_exact(product, f) == g
    if not g.is_zero():
        assert exactalg._divide_exact(g, f) == exactalg._long_division(g, f)


def test_early_out_agrees_with_long_division_on_recorded_calls(monkeypatch):
    """Every trial division made while building Phi_c (symbolic c), the
    torsion assembler and every entry of nabla2_phi at n = 3, and while
    running quick_suite(3), returns what plain long division returns; most
    of them are decided by the early-out, and the divisor's cached residue
    of each dividend equals one from a fresh zero with an empty cache."""
    calls = []
    fast = exactalg._divide_exact

    def record(dividend, divisor):
        result = fast(dividend, divisor)
        calls.append((dividend, divisor, result))
        return result

    checks.artifacts.cache_clear()
    monkeypatch.setattr(exactalg, "_divide_exact", record)
    try:
        phi = build_Phi(Chart(3))
        TorsionAssembler(phi)
        d2 = nabla2_phi(phi)
        slots = [(p, k) for p in (1, 2) for k in range(1, 4)]
        for (ip, j), (lp, m), (pp, o), (qp, r) in itertools.product(slots, repeat=4):
            d2.entry(ip, j, lp, m, pp, o, qp, r)
        assert all(r.status == checks.PASS for r in checks.quick_suite(3, 0))
    finally:
        monkeypatch.undo()
        checks.artifacts.cache_clear()
    skipped = 0
    for dividend, divisor, result in calls:
        assert result == exactalg._long_division(dividend, divisor)
        zero = exactalg._zero_point(divisor.key(), divisor.table.size)
        if zero is None:
            continue
        residue = zero.residue(dividend.coeffs)
        assert residue == exactalg._ZeroPoint(zero.point).residue(dividend.coeffs)
        skipped += bool(residue)
    assert skipped > len(calls) // 2


def _value_mod_p(f, point):
    total = 0
    for mono, coeff in _tuples(f).items():
        term = coeff.numerator * pow(coeff.denominator, -1, P)
        for x, e in zip(point, mono):
            term = term * pow(x, e, P)
        total += term
    return total % P


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_cached_zero_point_zeroes_its_divisor(name):
    f = DIVISORS[name]
    zero = exactalg._zero_point(f.key(), TABLE.size)
    point = zero.point
    assert _value_mod_p(f, point) == 0
    shifted = f + Polynomial.constant(TABLE, 1)
    assert _value_mod_p(shifted, point) != 0
    # A denominator divisible by p leaves the value mod p undefined.
    assert zero.residue(shifted.scale(Fraction(1, P)).coeffs) is None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zero_point_of_q_and_none_for_its_powers(n):
    q = q_polynomial(Chart(n))
    zero = exactalg._zero_point(q.key(), q.table.size)
    assert _value_mod_p(q, zero.point) == 0
    # The expanded q^2 and q^3 have degree 4 and 6 in every variable.
    assert exactalg._zero_point((q * q).key(), q.table.size) is None
    assert exactalg._zero_point((q * q * q).key(), q.table.size) is None


def test_divisor_keeps_its_zero_point_outside_eq_and_hash():
    """The first division by q stores q's zero point on q itself; the slot
    takes no part in equality or hashing."""
    q = q_polynomial(Chart(4))
    fresh = Polynomial(q.table, dict(q.coeffs))
    x11 = Polynomial.variable(q.table, 0)
    assert exactalg._divide_exact(q * x11, q) == x11
    assert q._zero is exactalg._zero_point(q.key(), q.table.size)
    assert q._zero is not None
    assert fresh._zero is exactalg._UNSET
    assert q == fresh and hash(q) == hash(fresh)
    # The hash is cached on the first call, and a polynomial built apart
    # hashes the same; equality reads neither cached slot.
    other = Polynomial(q.table, dict(q.coeffs))
    assert other._hash is None and q._hash is not None
    assert q == other and other == q
    assert hash(other) == hash(q) == q._hash == other._hash
    other._hash, other._zero = -1, None
    assert q == other and other == fresh


# -- the fused sum of raw terms -------------------------------------------------


def _pairwise_sum(table, terms):
    """The oracle for exactalg._sum_terms: expand every pair, normalize every
    term, then add the terms one at a time, each partial sum normalized
    again."""
    acc = RationalFunction.zero(table)
    for num, den in terms:
        if isinstance(num, tuple):
            num = num[0] * num[1]
        acc = acc + RationalFunction(num, den)
    return acc


def _stored(f):
    return f.num.coeffs, [(factor.key(), e) for factor, e in f.den]


#: Monic factors of the localization, with q also built apart so that equal
#: factors arrive as distinct objects.
KERNEL_FACTORS = (
    q_rf().num,
    Polynomial.constant(TABLE, 1) + _poly_var("t") * _poly_var("x11"),
    _poly_var("x11"),
    Polynomial(TABLE, dict(q_rf().num.coeffs)),
)


@st.composite
def raw_terms(draw):
    """A numerator (zero now and then) over up to three factors, which may
    repeat, as a raw product lists both operands' factors."""
    den = draw(
        st.lists(st.tuples(st.sampled_from(KERNEL_FACTORS), st.integers(1, 2)), max_size=3)
    )
    return draw(small_polys()), den


@settings(max_examples=150, deadline=None)
@given(st.lists(raw_terms(), max_size=6))
def test_sum_terms_matches_pairwise_accumulation(terms):
    fused = exactalg._sum_terms(TABLE, terms)
    oracle = _pairwise_sum(TABLE, terms)
    assert fused == oracle
    assert _stored(fused) == _stored(oracle)


def test_sum_terms_matches_pairwise_on_recorded_calls(monkeypatch):
    """Every fused sum that quick_suite(3) makes (matrix products and
    applications through dot, with their pairs unexpanded, substitution, and
    + itself) has the stored form of the pairwise accumulation of the same
    terms."""
    calls = []
    fused = exactalg._sum_terms

    def record(table, terms):
        terms = list(terms)
        result = fused(table, terms)
        calls.append((table, terms, result))
        return result

    checks.artifacts.cache_clear()
    monkeypatch.setattr(exactalg, "_sum_terms", record)
    try:
        assert all(r.status == checks.PASS for r in checks.quick_suite(3, 0))
    finally:
        monkeypatch.undo()
        checks.artifacts.cache_clear()
    assert sum(len(terms) > 2 for _, terms, _ in calls) > 100
    assert sum(isinstance(num, tuple) for _, terms, _ in calls for num, _ in terms) > 1000
    for table, terms, result in calls:
        assert _stored(result) == _stored(_pairwise_sum(table, terms))


@st.composite
def monic_factor_lists(draw):
    """Factors of KERNEL_FACTORS in any order, repeats allowed, with
    exponents 1-3, and a numerator that some of them divide."""
    den = draw(
        st.lists(st.tuples(st.sampled_from(KERNEL_FACTORS), st.integers(1, 3)), max_size=5)
    )
    num = draw(small_polys())
    for factor in draw(st.lists(st.sampled_from(KERNEL_FACTORS), max_size=3)):
        num = num * factor
    return num, den


@settings(max_examples=200, deadline=None)
@given(monic_factor_lists())
def test_internal_constructor_matches_the_checked_one(num_den):
    """RationalFunction._from_monic, which skips the checks and the monic
    scaling, stores what the public constructor stores."""
    num, den = num_den
    fast = RationalFunction._from_monic(num, den)
    assert _stored(fast) == _stored(RationalFunction(num, den))
    assert _stored(fast) == _stored(RationalFunction(num, list(reversed(den))))


def test_dot_matches_pairwise_on_shared_and_mixed_denominators():
    """A dot whose pairs all share one factorization is summed with its
    pairs unexpanded; one with mixed denominators goes over the lcm; both
    have the stored form of the pairwise sum of the expanded products."""
    q = q_rf()
    x11, x21, t = rf_var(1, 1), rf_var(2, 1), RationalFunction.variable(TABLE, TABLE.index("t"))
    qi = q.inverse()
    shared = [(x11 * qi, x21), (x21, x11 * x11 * qi), (q * qi * qi, t), (x11 * qi, -x11)]
    mixed = [(x11 * qi, x21 * qi), (x21, x11), (q, t * qi), (x11 * qi, x11 * x21)]
    for pairs, unexpanded in ((shared, True), (mixed, False)):
        terms = [((a.num, b.num), a.den + b.den) for a, b in pairs]
        numerators, _ = exactalg._align(terms)
        assert all(isinstance(num, tuple) for num in numerators) is unexpanded
        got = exactalg.dot(TABLE, pairs)
        want = _pairwise_sum(TABLE, [(a.num * b.num, a.den + b.den) for a, b in pairs])
        assert got == want
        assert _stored(got) == _stored(want)


def test_dot_and_substitute_skip_zero_terms():
    x11, x12 = rf_var(1, 1), rf_var(1, 2)
    zero = RationalFunction.zero(TABLE)
    q = q_rf()
    assert exactalg.dot(TABLE, []).is_zero()
    assert exactalg.dot(TABLE, [(zero, q), (q, zero)]).is_zero()
    assert exactalg.dot(TABLE, [(x11 / q, q), (zero, x12)]) == x11
    # x11 -> 0 kills every monomial with x11; x12 -> 1/q squares to 1/q^2.
    p = (x11 * x12 + x12 * x12 + rf_var(2, 1)).num
    out = p.substitute({0: zero, 1: q.inverse()})
    assert out == q.inverse() * q.inverse() + rf_var(2, 1)
    assert _stored(out) == _stored(q.inverse() * q.inverse() + rf_var(2, 1))


# -- the quotient rule -------------------------------------------------------


def _seeded_differentiate(f, idx):
    """Oracle: the constant-seeded quotient rule that RationalFunction.differentiate
    used before, num' prod f_i - num sum_i e_i f_i' prod_{j != i} f_j over
    prod f_i^(e_i + 1), with every factor in the sum, zero or not."""
    table = f.table
    if not f.den:
        return RationalFunction(f.num.differentiate(idx), ())
    factors = [g for g, _ in f.den]
    all_prod = Polynomial.constant(table, 1)
    for g in factors:
        all_prod = all_prod * g
    correction = Polynomial.zero(table)
    for i, (factor, exponent) in enumerate(f.den):
        partial = Polynomial.constant(table, exponent)
        for j, other in enumerate(factors):
            if j != i:
                partial = partial * other
        correction = correction + partial * factor.differentiate(idx)
    new_num = f.num.differentiate(idx) * all_prod - f.num * correction
    return RationalFunction(new_num, tuple((g, e + 1) for g, e in f.den))


#: Distinct monic denominator factors; each misses most variables, so most
#: draws differentiate by a variable that some factor does not depend on.
QUOTIENT_FACTORS = (
    q_rf().num,
    Polynomial.constant(TABLE, 1) + _poly_var("t") * _poly_var("x11"),
    _poly_var("x11"),
    _poly_var("x21") * _poly_var("x32") + _poly_var("c2"),
    _poly_var("x12") * _poly_var("x12") + Polynomial.constant(TABLE, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    small_polys(),
    st.lists(
        st.tuples(st.sampled_from(QUOTIENT_FACTORS), st.integers(1, 3)),
        max_size=3,
        unique_by=lambda entry: entry[0].key(),
    ),
    st.integers(0, TABLE.size - 1),
)
def test_quotient_rule_matches_seeded_formula(num, den, idx):
    """The seed-free quotient rule gives the value and the stored form of
    the constant-seeded one, for 0-3 distinct factors with exponents 1-3 and
    every variable."""
    f = RationalFunction(num, den)
    got = f.differentiate(idx)
    want = _seeded_differentiate(f, idx)
    assert got == want
    assert _stored(got) == _stored(want)


def test_quotient_rule_skips_factors_free_of_the_variable():
    """A factor that does not depend on the variable only gains one power,
    which trial division takes back."""
    f = RationalFunction(rf_var(2, 1).num, ((q_rf().num, 1), (_poly_var("x11"), 2)))
    assert f.differentiate(TABLE.x_index(2, 2)).is_zero()
    got = f.differentiate(TABLE.x_index(3, 1))
    assert got == _seeded_differentiate(f, TABLE.x_index(3, 1))
    assert _stored(got) == _stored(_seeded_differentiate(f, TABLE.x_index(3, 1)))
    assert sorted(e for _, e in got.den) == [2, 2]


# -- canonical coefficients: int when integral, Fraction otherwise ---------------


def _is_canonical(coeff):
    return type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


# The tuple-keyed loops that packed monomials replaced, kept as oracles: each
# takes and returns {exponent tuple: coefficient} maps, in Fractions.


def _unpack(mono, size=TABLE.size):
    exponents = [0] * size
    for idx, e in exponent_pairs(mono, size):
        exponents[idx] = e
    return tuple(exponents)


def _tuples(p):
    """p's coefficient map keyed by exponent tuples."""
    return {_unpack(mono, p.table.size): coeff for mono, coeff in p.coeffs.items()}


def _tuple_mul(p, r):
    """The all-Fraction product loop, the oracle for Polynomial.__mul__."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in r.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


def _tuple_add(p, r):
    """The all-Fraction sum loop, the oracle for Polynomial.__add__."""
    out = {m: Fraction(c) for m, c in p.items()}
    for mono, coeff in r.items():
        out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff)
    return {m: c for m, c in out.items() if c}


def _tuple_differentiate(p, idx):
    out = {}
    for mono, coeff in p.items():
        if mono[idx]:
            lowered = mono[:idx] + (mono[idx] - 1,) + mono[idx + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + Fraction(coeff) * mono[idx]
    return {m: c for m, c in out.items() if c}


def _tuple_divide(dividend, divisor):
    """Long division with true division of Fractions; None if not exact."""
    lead_mono = max(divisor)
    lead = Fraction(divisor[lead_mono])
    remainder = {m: Fraction(c) for m, c in dividend.items()}
    quotient = {}
    while remainder:
        mono = max(remainder)
        diff = tuple(a - b for a, b in zip(mono, lead_mono))
        if any(e < 0 for e in diff):
            return None
        q = quotient[diff] = remainder[mono] / lead
        for dm, dc in divisor.items():
            target = tuple(a + b for a, b in zip(diff, dm))
            acc = remainder.get(target, Fraction(0)) - q * Fraction(dc)
            if acc:
                remainder[target] = acc
            else:
                remainder.pop(target, None)
    return quotient


def _tuple_evaluate(p, point):
    total = Fraction(0)
    for mono, coeff in p.items():
        term = Fraction(coeff)
        for x, e in zip(point, mono):
            term *= x**e
        total += term
    return total


def _tuple_substitute(p, mapping):
    """Each monomial's unmapped variables times the powers of the mapped values."""
    total = RationalFunction.zero(TABLE)
    for mono, coeff in p.items():
        kept = [0 if idx in mapping else e for idx, e in enumerate(mono)]
        term = RationalFunction.from_polynomial(Polynomial(TABLE, {pack_monomial(kept): coeff}))
        for idx, e in enumerate(mono):
            if e and idx in mapping:
                term = term * mapping[idx] ** e
        total = total + term
    return total


def _tuple_residue(p, point):
    """The residue loop over a tuple-keyed map of canonical coefficients: the
    value mod p at point as one fraction num/den, returned as num, or None if
    a denominator is divisible by p; the oracle for _ZeroPoint.residue."""
    num, den = 0, 1
    for mono, coeff in p.items():
        integral = type(coeff) is int
        term = coeff if integral else coeff.numerator
        for x, e in zip(point, mono):
            term = term * pow(x, e, P) % P
        if integral:
            num = (num + term * den) % P
        else:
            d = coeff.denominator
            num = (num * d + term * den) % P
            den = den * d % P
    return num if den else None


@st.composite
def fractional_polys(draw):
    """Like small_polys, with coefficient denominators 1, 2 or 3."""
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(draw(st.integers(0, 3))):
        mono = [0] * nvars
        for _ in range(draw(st.integers(0, 2))):
            mono[draw(st.integers(0, nvars - 1))] += 1
        coeffs[pack_monomial(mono)] = Fraction(
            draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3)))
        )
    return Polynomial(TABLE, coeffs)


#: Evaluation points for the sampled polynomials: every variable bound.
_POINTS = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=TABLE.size,
    max_size=TABLE.size,
)


@settings(max_examples=150, deadline=None)
@given(
    fractional_polys(),
    fractional_polys(),
    st.integers(0, len(TABLE.names) - 1),
    st.sampled_from(("3q/2", "fractional")),
    _POINTS,
)
def test_mixed_coefficients_match_the_fraction_oracle(p, r, var, name, point):
    """Packed products, sums, derivatives, divisions, values, substitutions
    and residues equal the tuple-keyed Fraction loops above after unpacking."""
    f = DIVISORS[name]
    tp, tr, tf = _tuples(p), _tuples(r), _tuples(f)
    results = [
        (p * r, _tuple_mul(tp, tr)),
        (p + r, _tuple_add(tp, tr)),
        (p.differentiate(var), _tuple_differentiate(tp, var)),
        (exactalg._divide_exact(p * f, f), _tuple_divide(_tuple_mul(tp, tf), tf)),
        (exactalg._divide_exact(p, f), _tuple_divide(tp, tf)),
        (exactalg._long_division(p, f), _tuple_divide(tp, tf)),
        (exactalg._long_division(p * r, r) if r.coeffs else None,
         _tuple_divide(_tuple_mul(tp, tr), tr) if tr else None),
    ]
    for got, oracle in results:
        if oracle is None:
            assert got is None
            continue
        assert _tuples(got) == oracle
        assert all(_is_canonical(c) for c in got.coeffs.values())
    assert p.evaluate(point) == _tuple_evaluate(tp, point)
    mapping = {var: RationalFunction.from_polynomial(r) / RationalFunction.from_polynomial(f),
               TABLE.x_index(1, 1): RationalFunction.from_polynomial(f)}
    assert p.substitute(mapping) == _tuple_substitute(tp, mapping)
    zero = exactalg._zero_point(f.key(), TABLE.size)
    for g in (p, r, p * r, p.scale(Fraction(1, P))):
        assert zero.residue(g.coeffs) == _tuple_residue(_tuples(g), zero.point)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 127), min_size=TABLE.size, max_size=TABLE.size)))
def test_pack_round_trips_and_keeps_lex_order(exponent_lists):
    monos = [pack_monomial(e) for e in exponent_lists]
    assert [_unpack(m) for m in monos] == [tuple(e) for e in exponent_lists]
    assert [_unpack(m) for m in sorted(monos)] == sorted(map(tuple, exponent_lists))
    assert all(m & TABLE.guard == 0 for m in monos)


def _canonical_den(den):
    """Monic, non-constant factors with positive int exponents, sorted by
    key() without repeats: what RationalFunction._from_monic takes on trust
    from every stored den."""
    keys = [factor.key() for factor, _ in den]
    return all(
        not factor.is_constant() and factor.leading()[1] == 1 and type(e) is int and e > 0
        for factor, e in den
    ) and all(a < b for a, b in zip(keys, keys[1:]))


def test_quick_suite_stores_only_canonical_coefficients(monkeypatch):
    """No polynomial built during quick_suite(3) and quick_suite(4) stores a
    float, a bool or an integral Fraction, and every rational function built
    stores a canonical den; a float coefficient is refused."""
    built = []
    bad = []
    dens = []
    init, reduce, raw = Polynomial.__init__, RationalFunction._reduce, RationalFunction._raw

    def record(self, table, coeffs):
        init(self, table, coeffs)
        built.append(len(self.coeffs))
        bad.extend(c for c in self.coeffs.values() if not _is_canonical(c))

    def record_reduce(self, num, den):
        reduce(self, num, den)
        dens.append(self.den)

    def record_raw(num, den):
        out = raw(num, den)
        dens.append(out.den)
        return out

    checks.artifacts.cache_clear()
    monkeypatch.setattr(Polynomial, "__init__", record)
    monkeypatch.setattr(RationalFunction, "_reduce", record_reduce)
    monkeypatch.setattr(RationalFunction, "_raw", staticmethod(record_raw))
    try:
        for n in (3, 4):
            assert all(r.status == checks.PASS for r in checks.quick_suite(n, 0))
    finally:
        monkeypatch.undo()
        checks.artifacts.cache_clear()
    assert sum(built) > 10_000
    assert bad == []
    assert sum(len(den) for den in dens) > 1_000
    assert [den for den in dens if not _canonical_den(den)] == []
    mono = pack_monomial((0,) * TABLE.size)
    for value in (0.5, 0.0, True, "1"):
        with pytest.raises(UsageError):
            Polynomial(TABLE, {mono: value})


def test_integral_fraction_and_int_coefficients_are_one_value():
    """A polynomial built from Fraction(2) and one built from 2 store the same
    int, compare and hash equal, share key(), and as divisors fill one
    _zero_point entry."""
    x11 = Polynomial.variable(TABLE, 0).coeffs
    x12 = Polynomial.variable(TABLE, 1).coeffs
    (m11,), (m12,) = x11, x12
    from_fraction = Polynomial(TABLE, {m11: Fraction(2), m12: Fraction(1)})
    from_int = Polynomial(TABLE, {m11: 2, m12: 1})
    assert from_fraction == from_int
    assert hash(from_fraction) == hash(from_int)
    assert from_fraction.key() == from_int.key()
    assert all(type(c) is int for c in from_fraction.coeffs.values())
    dividend = from_int * _poly_var("x21")
    hits = exactalg._zero_point.cache_info().hits
    for divisor in (from_fraction, from_int):
        assert exactalg._divide_exact(dividend, divisor) == _poly_var("x21")
    assert exactalg._zero_point.cache_info().hits > hits
    assert from_fraction._zero is from_int._zero is not None


# -- the guard bits of packed monomials ------------------------------------------


@pytest.mark.parametrize("idx", range(TABLE.size))
def test_exponent_limit_raises_and_never_carries(idx):
    """Every variable reaches exponent 127; a product or power that would
    reach 128 raises, rather than carrying into the next field."""
    v = Polynomial.variable(TABLE, idx)
    top = v**127
    assert _tuples(top) == {tuple(127 if k == idx else 0 for k in range(TABLE.size)): 1}
    assert top.differentiate(idx) == (v**126).scale(127)
    with pytest.raises(UsageError):
        top * v
    with pytest.raises(UsageError):
        v**128
    with pytest.raises(UsageError):
        (v**64) * (v**64 + Polynomial.constant(TABLE, 1))
    half = RationalFunction.from_polynomial(v**64)
    with pytest.raises(UsageError):
        exactalg.dot(TABLE, [(half, half)])
    with pytest.raises(UsageError):
        pack_monomial([128 if k == idx else 0 for k in range(TABLE.size)])


def test_long_division_refuses_a_borrow_from_a_lower_field():
    """x11^2 is lex-above x11*x12, and x11^2 - x11*x12 is a positive int, but
    the x12 field would borrow, so x11*x12 does not divide x11^2; the same
    for every pair of fields."""
    for hi in range(TABLE.size):
        for lo in range(hi + 1, TABLE.size):
            x_hi, x_lo = (Polynomial.variable(TABLE, k) for k in (hi, lo))
            dividend, divisor = x_hi * x_hi + x_lo, x_hi * x_lo
            assert exactalg._long_division(dividend, divisor) is None
            assert _tuple_divide(_tuples(dividend), _tuples(divisor)) is None
            assert exactalg._long_division(divisor * x_hi, divisor) == x_hi
