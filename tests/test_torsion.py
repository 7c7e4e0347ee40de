"""Torsion of the deformed structure: brackets, D-expansion, rank-one lemma."""

import functools
import random
from fractions import Fraction

import pytest

from agdeform.deform import EndomorphismField, build_Phi, build_q
from agdeform.exactalg import (
    PoleAtPoint,
    RationalFunction,
    ScaledValues,
    UsageError,
    flat_index,
    substitute_all,
    two_form_block,
)
from agdeform.model import Chart, ChartPoint
from agdeform.sampling import ball_sweep
from agdeform.torsion import TorsionAssembler, lemma_criterion
from oracles import assert_positive_multiple, evaluation_point, phi_at

CHART = Chart(3)


def pulled_frame(phi):
    """The 2n fields E-tilde^{j'}_i = theta^{-1} (Id+Phi)^{-1} E^{j'}_i.

    Since Phi is nilpotent of order two, (Id+Phi)^{-1} = Id - Phi, and the
    field at flat_index(i, j') is that column of its matrix:
    E-tilde^{j'}_i = d^{j'}_i - sum_{p',k} Phi^{p'i}_{j'k} d^{p'}_k.
    """
    inverse = EndomorphismField.identity(phi.table, phi.nrows) - phi
    return tuple(zip(*inverse.rows))


def lie_bracket(xi, eta):
    """[xi, eta]^b = sum_a (xi^a d_a eta^b - eta^a d_a xi^b), each derivative
    taken afresh: with pulled_frame, the oracle for TorsionAssembler.pair,
    which reads two entries of Phi's table of first derivatives instead.

    Chart coordinate a is table variable a, so differentiation is by flat
    index directly.
    """
    size = len(xi)
    zero = RationalFunction.zero(xi[0].table)
    out = []
    for b in range(size):
        acc = zero
        for a in range(size):
            if not xi[a].is_zero():
                d = eta[b].differentiate(a)
                if not d.is_zero():
                    acc = acc + xi[a] * d
            if not eta[a].is_zero():
                d = xi[b].differentiate(a)
                if not d.is_zero():
                    acc = acc - eta[a] * d
        out.append(acc)
    return tuple(out)


def _stored(components):
    return [(v.num, v.den) for v in components]


def _torsion_oracle(phi, bracket):
    """(Id + Phi) theta(-bracket) in flat components: theta keeps the flat
    index, so this is (Id + Phi) applied to the negated components."""
    forward = EndomorphismField.identity(phi.table, phi.nrows) + phi
    return forward.apply(tuple(-f for f in bracket))


def _coordinate(i, j_prime):
    """The field d/dx_{i j'} = partial^{j'}_i, as its component tuple."""
    comps = [RationalFunction.zero(CHART.table)] * (2 * CHART.n)
    comps[flat_index(i, j_prime)] = CHART.const(1)
    return tuple(comps)


def test_flat_index_roundtrip():
    seen = set()
    for i in range(1, 5):
        for jp in (1, 2):
            a = flat_index(i, jp)
            assert (a // 2 + 1, a % 2 + 1) == (i, jp)
            seen.add(a)
    assert seen == set(range(8))


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
    return tuple(comps)


def test_lie_bracket_properties():
    e1 = _coordinate(1, 1)
    e2 = _coordinate(2, 2)
    assert all(f.is_zero() for f in lie_bracket(e1, e2))

    chart2 = Chart(2)
    rng = random.Random(7)
    for _ in range(5):
        a, b, c = (_random_field(chart2, rng) for _ in range(3))
        assert lie_bracket(a, b) == tuple(-f for f in lie_bracket(b, a))
        jacobi = zip(
            lie_bracket(a, lie_bracket(b, c)),
            lie_bracket(b, lie_bracket(c, a)),
            lie_bracket(c, lie_bracket(a, b)),
        )
        # componentwise sum of the three cyclic terms
        assert all((x + y + z).is_zero() for x, y, z in jacobi)


@pytest.mark.parametrize("c", [None, (Fraction(2), Fraction(-3))], ids=["symbolic", "c2_m3"])
def test_frame_bracket_matches_lie_bracket_n3(c):
    """The antisymmetrised derivative that pair reads equals the generic
    bracket of every pair of pulled-frame fields at n = 3, stored form and
    all: the Phi dPhi part of the bracket cancels."""
    phi = build_Phi(CHART) if c is None else phi_at(CHART, c)
    frame = pulled_frame(phi)
    assembler = TorsionAssembler(phi)
    size = 2 * CHART.n
    for f in range(size):
        for g in range(f + 1, size):
            got = assembler.pair(f, g)
            want = lie_bracket(frame[f], frame[g])
            assert got == want, (f, g)
            assert [(v.num, v.den) for v in got] == [(v.num, v.den) for v in want]


def test_frame_bracket_matches_lie_bracket_n4_components():
    """The brackets [E~^2'_s, E~^2'_1] of the torsion checks at n = 4,
    read as the assembler's pairs, equal the oracle, stored form and all;
    their negations are the torsion (Id + Phi) theta(-bracket)."""
    chart = Chart(4)
    phi = build_Phi(chart)
    frame = pulled_frame(phi)
    assembler = TorsionAssembler(phi)
    for s in range(2, 5):
        f, g = flat_index(s, 2), flat_index(1, 2)
        want = lie_bracket(frame[f], frame[g])
        bracket = assembler.pair(f, g)
        assert _stored(bracket) == _stored(want)
        assert _stored(-v for v in bracket) == _stored(_torsion_oracle(phi, want))


@pytest.mark.parametrize("c", [None, (Fraction(2), Fraction(-3))], ids=["symbolic", "c2_m3"])
def test_pair_matches_oracle_n3(c):
    """pair(f, g) is [E~_f, E~_g] for every ordered pair f != g at n = 3,
    and its negation is the torsion (Id + Phi) theta(-bracket) of the
    oracle bracket, stored form and all.  A repeat read returns the same
    object."""
    phi = build_Phi(CHART) if c is None else phi_at(CHART, c)
    frame = pulled_frame(phi)
    assembler = TorsionAssembler(phi)
    size = 2 * CHART.n
    for f in range(size):
        for g in range(size):
            if f == g:
                continue
            want = lie_bracket(frame[f], frame[g])
            got = assembler.pair(f, g)
            assert _stored(got) == _stored(want), (f, g)
            assert _stored(-v for v in got) == _stored(_torsion_oracle(phi, want)), (f, g)
            assert assembler.pair(f, g) is got
    assert len(assembler.pairs) == size * (size - 1)


def test_symbolic_matches_eager_construction():
    """symbolic, read through the pairs, equals the eager pair-major
    construction of (Id + Phi) theta(-bracket) over the oracle bracket at
    c = (2, -3), stored form and all, so the sweep's integer tables are
    the same as when the torsion was built through Id + Phi."""
    phi = phi_at(CHART, (Fraction(2), Fraction(-3)))
    frame = pulled_frame(phi)
    size = 2 * CHART.n
    eager = [
        f
        for a in range(size)
        for b in range(a + 1, size)
        for f in _torsion_oracle(phi, lie_bracket(frame[a], frame[b]))
    ]
    assembler = TorsionAssembler(phi)
    assert not assembler.pairs
    assert _stored(assembler.symbolic) == _stored(eager)
    assert sorted(assembler.pairs) == [(a, b) for a in range(size) for b in range(a + 1, size)]


def test_derivative_table_is_fresh_and_shared():
    """Every derivative(row, col, idx) equals a fresh differentiate, and a
    repeat read returns the same object."""
    phi = build_Phi(CHART)
    size = 2 * CHART.n
    for row in range(size):
        for col in range(size):
            for idx in range(CHART.table.size):
                first = phi.derivative(row, col, idx)
                assert first == phi.rows[row][col].differentiate(idx)
                assert phi.derivative(row, col, idx) is first
    assert len(phi.derivatives) == size * size * CHART.table.size


def test_pulled_frame_matches_coefficients():
    phi = phi_at(CHART, [1, 0])
    frame = pulled_frame(phi)
    slots = [(i, jp) for i in range(1, 4) for jp in (1, 2)]
    for i, jp in slots:
        field = frame[flat_index(i, jp)]
        for k, pp in slots:
            expected = -phi.coefficient(pp, i, jp, k)
            if (k, pp) == (i, jp):
                expected = expected + CHART.const(1)
            assert field[flat_index(k, pp)] == expected

    trivial = pulled_frame(phi_at(CHART, [0, 0]))
    for i, jp in slots:
        assert trivial[flat_index(i, jp)] == _coordinate(i, jp)


def test_torsion_component_closed_forms():
    """D = -bracket exactly: Phi annihilates the bracket section."""
    phi = build_Phi(CHART)
    assembler = TorsionAssembler(phi)
    q = build_q(CHART)
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    for s in (2, 3):
        bracket = assembler.pair(flat_index(s, 2), flat_index(1, 2))
        d = [-f for f in bracket]
        cs = CHART.param(f"c{s}")
        assert all(f.is_zero() for f in phi.apply(bracket))
        for k in range(1, 4):
            xk1 = CHART.x(k, 1)
            assert d[flat_index(k, 1)] == (
                CHART.const(2) * cs * x11 ** 3 * x12 * xk1 / (q * q)
            )
            assert d[flat_index(k, 2)] == (
                -cs * x11 * x11 * xk1 / q
                + CHART.const(2) * cs * x11 * x11 * x12 * x12 * xk1 / (q * q)
            )


def test_structure_map_matches_id_plus_phi():
    """The torsion block of every pair a < b at n = 3 is the deformed
    structure map (Id + Phi) theta applied to minus the oracle bracket,
    stored form and all, with c symbolic and at c = (2, -3); Phi kills each
    bracket, so that is the negated bracket."""
    size = 2 * CHART.n
    for c in (None, (Fraction(2), Fraction(-3))):
        phi = build_Phi(CHART) if c is None else phi_at(CHART, c)
        frame = pulled_frame(phi)
        assembler = TorsionAssembler(phi)
        for a in range(size):
            for b in range(a + 1, size):
                bracket = lie_bracket(frame[a], frame[b])
                assert all(f.is_zero() for f in phi.apply(bracket)), (a, b)
                base = two_form_block(a, b, size)[0]
                got = assembler.symbolic[base : base + size]
                assert _stored(got) == _stored(_torsion_oracle(phi, bracket)), (c, a, b)


def _exact(assembler, point, c=None):
    """The torsion vector at point in Fractions, c bound by the point if
    given: the oracle for TorsionAssembler.evaluate."""
    vec = evaluation_point(point.chart.table, point.entries, c=c)
    return tuple(f.evaluate(vec) for f in assembler.symbolic)


def test_evaluate_block_is_minus_d():
    """Pair-major layout: the block of the pair ((1,2'), (s,2')) holds
    T(E~^2'_1, E~^2'_s), which is -D for the component bracket taken in the
    other order."""
    phi = build_Phi(CHART)
    c = (Fraction(2), Fraction(-3))
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    assembler = TorsionAssembler(phi)
    values = _exact(assembler, point, c)
    size = 2 * CHART.n
    assert len(values) == (size * (size - 1) // 2) * size
    vec = evaluation_point(CHART.table, point.entries, c=c)
    for s in (2, 3):
        base = two_form_block(flat_index(1, 2), flat_index(s, 2), size)[0]
        block = values[base : base + size]
        assert any(block)
        # T(E~_s, E~_1) = -[E~_s, E~_1], so its negation is the bracket.
        bracket = assembler.pair(flat_index(s, 2), flat_index(1, 2))
        assert block == tuple(f.evaluate(vec) for f in bracket)


def test_assembler_matches_one_shot():
    """The symbolic-c torsion with the numeric c substituted, evaluated in
    integers, is a positive multiple of the integer torsion of Phi with
    that c substituted, and in Fractions, with c bound by the point, the
    two agree exactly."""
    assembler = TorsionAssembler(build_Phi(CHART))
    c = (Fraction(2), Fraction(-3))
    values = ScaledValues(substitute_all(assembler.symbolic, CHART.c_substitution(c)))
    one_shot = TorsionAssembler(phi_at(CHART, c))
    for text in ("1,2;3,4;5,6", "1,1;1,0;0,1", "1/2,-1/3;3/4,0;-2,1/5"):
        point = ChartPoint.parse(CHART, text)
        assert_positive_multiple(values.at(point.evaluation_vector()), one_shot.evaluate(point))
        assert _exact(assembler, point, c) == _exact(one_shot, point)


def test_evaluate_refuses_a_phi_with_symbolic_c():
    """A point binds x only, so evaluate on an assembler whose Phi still
    has some c_i in it, even in one entry, raises (exactalg.ScaledValues
    refuses the torsion) rather than read the torsion of the zero
    deformation; at numeric c it evaluates."""
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    with pytest.raises(UsageError, match="substitute t, s and c"):
        TorsionAssembler(build_Phi(CHART)).evaluate(point)
    phi = phi_at(CHART, (Fraction(1), Fraction(0)))
    rows = [list(row) for row in phi.rows]
    rows[2][1] = rows[2][1] + CHART.param("c3") * CHART.x(1, 1)
    with pytest.raises(UsageError, match="substitute t, s and c"):
        TorsionAssembler(EndomorphismField(phi.table, rows)).evaluate(point)
    assert any(TorsionAssembler(phi).evaluate(point))


def test_zero_deformation_torsion_free():
    """The symbolic Phi with c = 0 substituted has no torsion; a c-free
    term of Phi with a nonzero derivative would leave some."""
    assembler = TorsionAssembler(phi_at(CHART, [0, 0]))
    assert all(f.is_zero() for f in assembler.symbolic)


def test_lemma_criterion():
    assembler = TorsionAssembler(build_Phi(CHART))
    point = ChartPoint.parse(CHART, "1,2;3,4;5,6")
    value = _exact(assembler, point, (Fraction(1), Fraction(0)))
    assert lemma_criterion(value, 2, 3)
    for s in (1, 4):
        with pytest.raises(UsageError):
            lemma_criterion(value, s, 3)
    with pytest.raises(UsageError):
        lemma_criterion(value[:-1], 2, 3)
    with pytest.raises(UsageError):
        lemma_criterion(value, 2, 4)
    flat_value = _exact(assembler, point, (Fraction(0), Fraction(0)))
    assert not any(flat_value)
    assert not lemma_criterion(flat_value, 2, 3)


def test_pole_on_singular_set():
    """The symbolic-c torsion has a pole where q = 0, in Fractions with c
    bound by the point and in integers with c substituted alike."""
    assembler = TorsionAssembler(build_Phi(CHART))
    point = ChartPoint.parse(CHART, "0,0;0,1;0,1")  # q = 0 there
    c = (Fraction(1), Fraction(0))
    with pytest.raises(PoleAtPoint):
        _exact(assembler, point, c)
    with pytest.raises(PoleAtPoint):
        ScaledValues(substitute_all(assembler.symbolic, CHART.c_substitution(c))).at(
            point.evaluation_vector()
        )


@functools.cache
def _numeric_assembler(n, c):
    return TorsionAssembler(phi_at(Chart(n), [Fraction(v) for v in c]))


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
    """The integer vector of evaluate is a positive multiple of the exact
    one at seeded sweep points, and the lemma criterion gives the same
    verdict on both."""
    assembler = _numeric_assembler(n, c)
    chart = Chart(n)
    for point in ball_sweep(chart, s, per_radius, range(1, 4), seed=n + s):
        exact = _exact(assembler, point)
        scaled = assembler.evaluate(point)
        assert_positive_multiple(scaled, exact)
        assert lemma_criterion(scaled, s, n) == lemma_criterion(exact, s, n)


def test_scaled_pole_on_singular_set():
    assembler = _numeric_assembler(3, (1, 0))
    point = ChartPoint.parse(CHART, "0,0;0,1;0,1")  # q = 0 there
    with pytest.raises(PoleAtPoint):
        _exact(assembler, point)
    with pytest.raises(PoleAtPoint):
        assembler.evaluate(point)
