"""Second chart derivatives, the projection to kappa, and trace-part tests."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from agdeform import checks
from agdeform import curvature as curvature_mod
from agdeform.curvature import (
    kappa_closed_form,
    nabla2_phi,
    project_kappa,
    sorted_triples,
    trace_subspace,
)
from agdeform.deform import EndomorphismField, build_Phi, build_q
from agdeform.exactalg import RationalFunction, ScaledValues, UsageError, substitute_all
from agdeform.linalg import MatrixQ, membership, rref
from agdeform.model import Chart, ChartPoint
from oracles import assert_positive_multiple, evaluation_point, reduced_dense_rows

CHART = Chart(3)


def eager_nabla2_phi(phi):
    """Oracle: every second derivative of phi, built up front from every
    first derivative, keyed (ip, j, lp, m, pp, o, qp, r) like entry()."""
    table = phi.table
    n = table.n
    slots = [(p, k) for p in (1, 2) for k in range(1, n + 1)]
    first = {}
    for (pp, o), (qp, r), (lp, m) in product(slots, repeat=3):
        coeff = phi.coefficient(pp, o, qp, r)
        first[(lp, m, pp, o, qp, r)] = coeff.differentiate(table.x_index(m, lp))
    components = {}
    for key, inner in first.items():
        for ip, j in slots:
            components[(ip, j) + key] = inner.differentiate(table.x_index(j, ip))
    return components


def eager_project_kappa(components, chart):
    """Oracle: the (2', 1') kappa value of every (sorted triple, r), by steps
    1..3 over the eager components."""
    table = chart.table
    n = chart.n

    def contracted(ip, j, m, o, qp, r):
        acc = RationalFunction.zero(table)
        for lp in (1, 2):
            acc = acc + components[(ip, j, lp, m, lp, o, qp, r)]
        return acc

    values = {}
    for triple in sorted_triples(n):
        for r in range(1, n + 1):
            acc = RationalFunction.zero(table)
            for j, m, o in permutations(triple):
                skew = contracted(2, j, m, o, 1, r) - contracted(1, j, m, o, 2, r)
                acc = acc + skew.scale(Fraction(1, 2))
            values[(triple, r)] = acc.scale(Fraction(1, 6))
    return values


def _phi_and_projection():
    phi = build_Phi(CHART)
    d2 = nabla2_phi(phi)
    return phi, d2, project_kappa(d2)


PHI, D2, PROJ = _phi_and_projection()


def test_sorted_triples():
    triples = sorted_triples(3)
    assert len(triples) == 10
    assert triples[0] == (1, 1, 1)
    assert triples[-1] == (3, 3, 3)
    assert all(j <= m <= o for (j, m, o) in triples)


def test_second_derivatives_swap_symmetric():
    assert D2.swap_symmetric()


def test_displayed_second_derivatives():
    """The three closed-form second derivatives, valid for r >= 2 only."""
    q = build_q(CHART)
    qinv = q.inverse()
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    e = x11 * x11 + x12 * x12
    for r in (2, 3):
        xr1 = CHART.x(r, 1)
        a_expected = CHART.const(0)
        b_expected = CHART.const(0)
        c_expected = CHART.const(0)
        for i in (2, 3):
            ci = CHART.param(f"c{i}")
            base = ci * CHART.x(i, 1) * xr1
            a_expected = a_expected + base * (
                qinv
                - CHART.const(2) * e * qinv * qinv
                + CHART.const(8) * x12 * x12 * x11 * x11 * qinv * qinv * qinv
            )
            b_expected = b_expected + base * (
                CHART.const(2) * qinv
                - CHART.const(10) * x12 * x12 * qinv * qinv
                + CHART.const(8) * x12 ** 4 * qinv * qinv * qinv
            )
            c_expected = c_expected - base * (
                CHART.const(2) * qinv
                - CHART.const(10) * x11 * x11 * qinv * qinv
                + CHART.const(8) * x11 ** 4 * qinv * qinv * qinv
            )
        assert D2.entry(2, 1, 1, 1, 1, 1, 1, r) == a_expected
        assert D2.entry(2, 1, 2, 1, 2, 1, 1, r) == b_expected
        assert D2.entry(1, 1, 1, 1, 1, 1, 2, r) == c_expected

    # at r = 1 the derivative variables collide with x_{r1} and the closed
    # forms fail; pin the restriction
    xr1 = CHART.x(1, 1)
    a_at_one = CHART.const(0)
    for i in (2, 3):
        a_at_one = a_at_one + CHART.param(f"c{i}") * CHART.x(i, 1) * xr1 * (
            qinv
            - CHART.const(2) * e * qinv * qinv
            + CHART.const(8) * x12 * x12 * x11 * x11 * qinv * qinv * qinv
        )
    assert D2.entry(2, 1, 1, 1, 1, 1, 1, 1) != a_at_one


def test_trace_free_relation():
    for r in (1, 2, 3):
        assert D2.entry(2, 1, 1, 1, 1, 1, 1, r) == -D2.entry(1, 1, 2, 1, 2, 1, 2, r)


def test_projection_reduces_to_three_displays():
    half = Fraction(1, 2)
    for r in (2, 3):
        a = D2.entry(2, 1, 1, 1, 1, 1, 1, r)
        b = D2.entry(2, 1, 2, 1, 2, 1, 1, r)
        c = D2.entry(1, 1, 1, 1, 1, 1, 2, r)
        combo = (a + a + b - c).scale(half)
        assert PROJ.value((1, 1, 1), r) == combo


def test_component_sign_conventions():
    """The unprimed slots are symmetrized, so a value is kept on the sorted
    triple only: every order of the triple gives the same value."""
    assert PROJ.value((3, 1, 2), 1) == PROJ.value((1, 2, 3), 1)


def test_kappa_closed_form_identity():
    for r in (2, 3):
        assert PROJ.value((1, 1, 1), r) == kappa_closed_form(CHART, r)
    with pytest.raises(UsageError):
        kappa_closed_form(CHART, 1)
    with pytest.raises(UsageError):
        kappa_closed_form(CHART, 4)


def test_kappa_spot_values():
    formula = kappa_closed_form(CHART, 2)
    c = (Fraction(1), Fraction(0))
    generic = evaluation_point(CHART.table, [[2, 1], [1, 0], [2, 0]], c=c)
    assert formula.evaluate(generic) == Fraction(1, 20)
    # x21 = 0 kills every term when c = (1, 0)
    degenerate = evaluation_point(CHART.table, [[2, 1], [0, 0], [2, 0]], c=c)
    assert formula.evaluate(degenerate) == 0
    assert PROJ.value((1, 1, 1), 2).evaluate(degenerate) == 0


def _kappa_at_zero_deformation(term=None):
    """Every kappa value, keyed (triple, r), of the symbolic Phi with term
    added to entry [0, 0] if given, and c = 0 substituted."""
    phi = build_Phi(CHART)
    if term is not None:
        rows = [list(row) for row in phi.rows]
        rows[0][0] = rows[0][0] + term
        phi = EndomorphismField(phi.table, rows)
    proj = project_kappa(nabla2_phi(phi.substitute(CHART.c_substitution([0, 0]))))
    return {(t, r): proj.value(t, r) for t in sorted_triples(3) for r in (1, 2, 3)}


def test_projection_zero_at_zero_deformation():
    """kappa of the symbolic Phi at c = 0 vanishes.  kappa reads second
    derivatives, so a c-free linear term of Phi cannot show here, and nor
    can one like x22^2, which the contraction drops; the check
    torsion.zero_deformation catches both (tests/test_checks.py)."""
    assert all(v.is_zero() for v in _kappa_at_zero_deformation().values())


def test_projection_zero_at_zero_deformation_fails_on_a_c_free_term():
    """Positive control: x11*x22 in entry [0, 0] of the symbolic Phi leaves
    one kappa value nonzero at c = 0; x22^2 there leaves every one zero."""
    x11, x22 = CHART.x(1, 1), CHART.x(2, 2)
    values = _kappa_at_zero_deformation(x11 * x22)
    assert [key for key, v in values.items() if not v.is_zero()] == [((1, 1, 2), 1)]
    assert all(v.is_zero() for v in _kappa_at_zero_deformation(x22 * x22).values())


@pytest.mark.parametrize("n", [3, 4])
def test_lazy_tensor_and_projection_match_eager_oracle(n):
    """Every entry and every projected value built on demand equals the one
    the eager oracles build up front."""
    chart = CHART if n == 3 else Chart(n)
    phi = PHI if n == 3 else build_Phi(chart)
    components = eager_nabla2_phi(phi)
    assert len(components) == 16 * n**4
    lazy = nabla2_phi(phi)
    for key, value in components.items():
        assert lazy.entry(*key) == value, key
    # A fresh Phi under the projection, so the entries of its one
    # derivative table are built on demand by the projection itself.
    projection = project_kappa(nabla2_phi(build_Phi(chart)))
    for (triple, r), value in eager_project_kappa(components, chart).items():
        assert projection.value(triple, r) == value, (triple, r)


def test_curvature_suite_builds_few_second_derivatives(monkeypatch):
    """At n = 4 the four symbolic checks read 4n second derivatives and the
    n values of kappa on the triple (1, 1, 1); nothing else is built."""
    n = 4
    checks.artifacts.cache_clear()
    tensors, projections = [], []
    for name, seen in (("nabla2_phi", tensors), ("project_kappa", projections)):
        real = getattr(curvature_mod, name)

        def keep(arg, real=real, seen=seen):
            seen.append(real(arg))
            return seen[-1]

        monkeypatch.setattr(curvature_mod, name, keep)
    reports = checks.curvature_suite(n)
    assert [r.status for r in reports] == [checks.PASS] * 4
    (d2,), (projection,) = tensors, projections
    orders = Counter(len(key) - 2 for key in d2.phi.derivatives)
    assert set(orders) == {1, 2}
    assert 0 < orders[2] <= 4 * n
    assert 0 < orders[1] <= 4 * n
    assert sorted(projection.values) == [((1, 1, 1), r) for r in range(1, n + 1)]


def test_trace_subspace_dimension():
    assert trace_subspace(3).dim == 6
    assert trace_subspace(2).dim == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_subspace_matches_dense_rref(n, monkeypatch):
    """The sparse rows trace_subspace spans, densified and put through the
    dense rref oracle, give the same basis and pivot columns."""
    seen = []
    real = curvature_mod.span_subspace

    def recording(vectors, ambient):
        seen.append((vectors, ambient))
        return real(vectors, ambient)

    monkeypatch.setattr(curvature_mod, "span_subspace", recording)
    sub = trace_subspace(n)
    (vectors, ambient), = seen
    dense = [[Fraction(v.get(j, 0)) for j in range(ambient)] for v in vectors]
    result = rref(MatrixQ(dense))
    assert reduced_dense_rows(sub) == result.reduced.rows[: result.rank]
    assert sub.pivot_columns == result.pivot_columns
    assert sub.dim == n * (n + 1) // 2


def test_slice_values_are_a_positive_multiple_of_the_slice():
    """KappaProjection.flat_slice holds the values (triple, r) in slice
    order, and ScaledValues over it with c substituted, as the sampled
    check builds it, reads one positive integer multiple of their Fraction
    values with c bound by the point."""
    n = CHART.n
    order = [(triple, r) for triple in sorted_triples(n) for r in range(1, n + 1)]
    assert PROJ.flat_slice() == [PROJ.value(triple, r) for triple, r in order]
    for text, c in (("2,1;1,0;2,0", (1, 0)), ("1/2,-1/3;3/4,1;-2,1/5", (Fraction(2, 3), -1))):
        point = ChartPoint.parse(CHART, text)
        vec = evaluation_point(CHART.table, point.entries, c=c)
        exact = [PROJ.value(triple, r).evaluate(vec) for triple, r in order]
        assert any(exact)
        values = ScaledValues(substitute_all(PROJ.flat_slice(), CHART.c_substitution(c)))
        assert_positive_multiple(values.at(point.evaluation_vector()), exact)


def test_not_pure_trace():
    """The membership verdict that curvature.not_pure_trace reads: a zero
    slice and a pure-trace slice lie in the trace subspace, the kappa slice
    at a generic point does not, and a slice of the wrong length is a usage
    error."""
    n = 3
    sub = trace_subspace(n)
    triples = sorted_triples(n)
    zero_slice = [Fraction(0)] * (n * len(triples))
    assert membership(sub, zero_slice)

    # a manufactured pure-trace slice must stay inside the subspace
    s_matrix = {(1, 1): Fraction(2), (1, 2): Fraction(-1), (2, 2): Fraction(3),
                (1, 3): Fraction(0), (2, 3): Fraction(5), (3, 3): Fraction(-2)}

    def s_val(a, b):
        return s_matrix[tuple(sorted((a, b)))]

    trace_slice = [
        s_val(j, m) * (1 if o == r else 0)
        + s_val(j, o) * (1 if m == r else 0)
        + s_val(m, o) * (1 if j == r else 0)
        for (j, m, o) in triples
        for r in range(1, n + 1)
    ]
    assert membership(sub, trace_slice)

    point = ChartPoint.parse(CHART, "2,1;1,0;2,0")
    values = ScaledValues(substitute_all(PROJ.flat_slice(), CHART.c_substitution((1, 0))))
    generic_slice = values.at(point.evaluation_vector())
    assert not membership(sub, generic_slice)

    with pytest.raises(UsageError):
        membership(sub, [Fraction(0)])
