"""Torsion of the deformed structure: brackets, D-expansion, rank-one lemma."""

import functools
import random
from fractions import Fraction

import pytest

from agdeform.deform import build_Phi, build_q
from agdeform.exactalg import PoleAtPoint, Polynomial, RationalFunction, UsageError, flat_index
from agdeform.model import Chart, ChartPoint
from agdeform.reptheory import pair_index
from agdeform.sampling import ball_sweep
from agdeform.torsion import (
    TorsionAssembler,
    TorsionValue,
    VectorField,
    _IntegerPolynomials,
    lemma_criterion,
    lie_bracket,
    pulled_frame,
    torsion_component,
)

CHART = Chart(3)


def test_flat_index_roundtrip():
    seen = set()
    for i in range(1, 5):
        for jp in (1, 2):
            a = flat_index(i, jp)
            assert (a // 2 + 1, a % 2 + 1) == (i, jp)
            seen.add(a)
    assert seen == set(range(8))


def test_vector_field_algebra():
    zero = VectorField.zero(CHART)
    e = VectorField.coordinate(CHART, 2, 1)
    assert zero.is_zero()
    assert (e - e).is_zero()
    assert (e + (-e)).is_zero()
    scaled = e.scale(CHART.x(1, 1))
    assert scaled.components[flat_index(2, 1)] == CHART.x(1, 1)
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    assert e.evaluate(point.evaluation_vector())[flat_index(2, 1)] == 1


def _random_field(chart, rng):
    comps = []
    for _ in range(2 * chart.n):
        poly = RationalFunction.constant(chart.table, Fraction(rng.randint(-2, 2)))
        for v in range(2 * chart.n):
            if rng.random() < 0.4:
                poly = poly + RationalFunction.variable(chart.table, v) * RationalFunction.constant(
                    chart.table, Fraction(rng.randint(-2, 2))
                )
        comps.append(poly)
    return VectorField(chart, comps)


def test_lie_bracket_properties():
    e1 = VectorField.coordinate(CHART, 1, 1)
    e2 = VectorField.coordinate(CHART, 2, 2)
    assert lie_bracket(e1, e2).is_zero()

    chart2 = Chart(2)
    rng = random.Random(7)
    for _ in range(5):
        a, b, c = (_random_field(chart2, rng) for _ in range(3))
        assert lie_bracket(a, b) == -lie_bracket(b, a)
        jacobi = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert jacobi.is_zero()


def test_pulled_frame_matches_coefficients():
    phi = build_Phi(CHART, [1, 0])
    frame = pulled_frame(phi)
    slots = [(i, jp) for i in range(1, 4) for jp in (1, 2)]
    for i, jp in slots:
        field = frame[flat_index(i, jp)]
        for k, pp in slots:
            expected = -phi.coefficient(pp, i, jp, k)
            if (k, pp) == (i, jp):
                expected = expected + CHART.const(1)
            assert field.components[flat_index(k, pp)] == expected

    trivial = pulled_frame(build_Phi(CHART, [0, 0]))
    for i, jp in slots:
        assert trivial[flat_index(i, jp)] == VectorField.coordinate(CHART, i, jp)


def test_torsion_component_closed_forms():
    """D = psi exactly: the Phi-correction annihilates the bracket section."""
    phi = build_Phi(CHART)
    q = build_q(CHART)
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    for s in (2, 3):
        comp = torsion_component(phi, s)
        cs = CHART.param(f"c{s}")
        assert all(f.is_zero() for f in phi.apply((-comp.bracket).components))
        for k in range(1, 4):
            xk1 = CHART.x(k, 1)
            assert comp.d_of_e1prime[k - 1] == (
                CHART.const(2) * cs * x11 ** 3 * x12 * xk1 / (q * q)
            )
            assert comp.d_section[1][k - 1] == (
                -cs * x11 * x11 * xk1 / q
                + CHART.const(2) * cs * x11 * x11 * x12 * x12 * xk1 / (q * q)
            )
    with pytest.raises(UsageError):
        torsion_component(phi, 1)
    with pytest.raises(UsageError):
        torsion_component(phi, 4)


def test_torsion_value_antisymmetry_and_vectorize():
    phi = build_Phi(CHART)
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    value = TorsionAssembler(phi).evaluate(point, c=(Fraction(1), Fraction(0)))
    size = 2 * CHART.n
    assert all(v == 0 for v in value.entry(3, 3))
    flat = value.vectorize()
    assert len(flat) == (size * (size - 1) // 2) * size
    for a in range(size):
        for b in range(size):
            ab = value.entry(a, b)
            ba = value.entry(b, a)
            assert ab == tuple(-v for v in ba)
            if a < b:
                offset = pair_index(a, b, size) * size
                assert flat[offset : offset + size] == ab


def test_assembler_matches_one_shot():
    """Symbolic c bound at evaluation agrees with Phi built at the numeric c."""
    assembler = TorsionAssembler(build_Phi(CHART))
    c = (Fraction(2), Fraction(-3))
    one_shot = TorsionAssembler(build_Phi(CHART, c))
    for text in ("1,2;3,4;5,6", "1,1;1,0;0,1"):
        point = ChartPoint.parse(CHART, text)
        a = assembler.evaluate(point, c=c)
        b = one_shot.evaluate(point)
        assert a.vectorize() == b.vectorize()


def test_zero_deformation_torsion_free():
    assembler = TorsionAssembler(build_Phi(CHART, [0, 0]))
    assert all(f.is_zero() for comps in assembler.symbolic.values() for f in comps)


def test_lemma_criterion():
    assembler = TorsionAssembler(build_Phi(CHART))
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    value = assembler.evaluate(point, c=(Fraction(1), Fraction(0)))
    assert lemma_criterion(value, 2)
    with pytest.raises(UsageError):
        lemma_criterion(value, 1)
    flat_value = assembler.evaluate(point, c=(Fraction(0), Fraction(0)))
    assert flat_value.is_zero()
    assert not lemma_criterion(flat_value, 2)


def test_pole_on_singular_set():
    phi = build_Phi(CHART)
    point = ChartPoint.parse(CHART, "0,0;0,1;0,1")  # q = 0 there
    with pytest.raises(PoleAtPoint):
        TorsionAssembler(phi).evaluate(point, c=(Fraction(1), Fraction(0)))


@functools.cache
def _numeric_assembler(n, c):
    return TorsionAssembler(build_Phi(Chart(n), [Fraction(v) for v in c]))


@pytest.mark.parametrize(
    "n, s, c, per_radius",
    [
        (3, 2, (2, -3), 10),
        (3, 3, (2, -3), 10),
        (3, 2, (1, 0), 10),
        (3, 3, (1, 0), 10),
        (4, 2, (1, 0, 0), 2),
        (4, 3, (0, 1, 0), 2),
    ],
)
def test_evaluate_scaled_matches_exact(n, s, c, per_radius):
    """The integer vector is a positive multiple of the exact one at seeded
    sweep points, and the lemma criterion gives the same verdict on both."""
    assembler = _numeric_assembler(n, c)
    chart = assembler.chart
    for _, point in ball_sweep(chart, s, per_radius, range(1, 4), seed=n + s):
        exact = assembler.evaluate(point)
        scaled = assembler.evaluate_scaled(point)
        assert all(isinstance(v, int) for v in scaled)
        pivot = next(i for i, v in enumerate(exact.vectorize()) if v)
        factor = scaled[pivot] / exact.vectorize()[pivot]
        assert factor > 0
        assert scaled == tuple(factor * v for v in exact.vectorize())
        assert lemma_criterion(TorsionValue.from_vector(n, point, scaled), s) == (
            lemma_criterion(exact, s)
        )


def test_from_vector_inverts_vectorize():
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    value = _numeric_assembler(3, (2, -3)).evaluate(point)
    again = TorsionValue.from_vector(3, point, value.vectorize())
    assert all(again.entry(a, b) == value.entry(a, b) for a in range(6) for b in range(6))


def test_scaled_pole_on_singular_set():
    assembler = _numeric_assembler(3, (1, 0))
    point = ChartPoint.parse(CHART, "0,0;0,1;0,1")  # q = 0 there
    with pytest.raises(PoleAtPoint):
        assembler.evaluate(point)
    with pytest.raises(PoleAtPoint):
        assembler.evaluate_scaled(point)


def test_scaled_needs_numeric_c():
    """Numerators in a symbolic c have no integer value at a chart point."""
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    with pytest.raises(ValueError):
        TorsionAssembler(build_Phi(CHART)).evaluate_scaled(point)


def test_integer_polynomials_scale_mixed_degrees():
    """values(X, D) = scale * D**degree * p(X / D) with one scale for all p,
    also when the degrees and coefficient denominators differ."""
    table = CHART.table
    x11 = Polynomial.variable(table, flat_index(1, 1))
    x21 = Polynomial.variable(table, flat_index(2, 1))
    polys = [
        x11 * x11 * x21 + Polynomial.constant(table, Fraction(1, 3)),
        x21.scale(Fraction(5, 2)),
    ]
    form = _IntegerPolynomials(polys, 2 * CHART.n)
    X, D = [3, 0, -4, 0, 0, 0], 8
    point = table.point(x=[[Fraction(3, 8), 0], [Fraction(-4, 8), 0], [0, 0]])
    values = form.values(X, D)
    exact = [p.evaluate(point) for p in polys]
    factor = values[0] / exact[0]
    assert factor > 0 and values == [factor * v for v in exact]
