"""Second chart derivatives, the projection to kappa, and trace-part tests."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from agdeform import checks
from agdeform import curvature as curvature_mod
from agdeform.curvature import (
    kappa_closed_form,
    nabla2_phi,
    not_pure_trace,
    project_kappa,
    sorted_triples,
    trace_subspace,
)
from agdeform.deform import build_Phi, build_q
from agdeform.exactalg import RationalFunction, UsageError
from agdeform.linalg import MatrixQ, rref
from agdeform.model import Chart, ChartPoint

CHART = Chart(3)


def eager_nabla2_phi(phi):
    """Oracle: every second derivative of phi, built up front from every
    first derivative, keyed (ip, j, lp, m, pp, o, qp, r) like entry()."""
    chart = phi.chart
    n = chart.n
    table = chart.table
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
    generic = ChartPoint.parse(CHART, "2,1;1,0;2,0")
    assert formula.evaluate(generic.evaluation_vector(c=c)) == Fraction(1, 20)
    # x21 = 0 kills every term when c = (1, 0)
    degenerate = ChartPoint.parse(CHART, "2,1;0,0;2,0")
    assert formula.evaluate(degenerate.evaluation_vector(c=c)) == 0
    assert PROJ.value((1, 1, 1), 2).evaluate(degenerate.evaluation_vector(c=c)) == 0


def test_projection_zero_at_zero_deformation():
    proj0 = project_kappa(nabla2_phi(build_Phi(CHART, [0, 0])))
    assert all(proj0.value(t, r).is_zero() for t in sorted_triples(3) for r in (1, 2, 3))


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
    # A fresh tensor under the projection, so its entries are built on
    # demand by the projection itself.
    projection = project_kappa(nabla2_phi(phi))
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
    reports = checks.curvature_suite((n,))
    assert [r.status for r in reports] == [checks.PASS] * 4
    (d2,), (projection,) = tensors, projections
    assert 0 < len(d2.second) <= 4 * n
    assert 0 < len(d2.first) <= 4 * n
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
    rows = tuple(tuple(sub.basis[p].get(j, 0) for j in range(ambient)) for p in sub.pivot_columns)
    assert rows == result.reduced.rows[: result.rank]
    assert sub.pivot_columns == result.pivot_columns
    assert sub.dim == n * (n + 1) // 2


def test_not_pure_trace():
    n = 3
    sub = trace_subspace(n)
    triples = sorted_triples(n)
    zero_slice = [[Fraction(0)] * n for _ in triples]
    assert not not_pure_trace(zero_slice, sub)

    # a manufactured pure-trace slice must stay inside the subspace
    s_matrix = {(1, 1): Fraction(2), (1, 2): Fraction(-1), (2, 2): Fraction(3),
                (1, 3): Fraction(0), (2, 3): Fraction(5), (3, 3): Fraction(-2)}

    def s_val(a, b):
        return s_matrix[tuple(sorted((a, b)))]

    trace_slice = [
        [
            s_val(j, m) * (1 if o == r else 0)
            + s_val(j, o) * (1 if m == r else 0)
            + s_val(m, o) * (1 if j == r else 0)
            for r in range(1, n + 1)
        ]
        for (j, m, o) in triples
    ]
    assert not not_pure_trace(trace_slice, sub)

    point = ChartPoint.parse(CHART, "2,1;1,0;2,0")
    generic_slice = PROJ.evaluate_slice(point, c=(Fraction(1), Fraction(0)))
    assert not_pure_trace(generic_slice, sub)

    with pytest.raises(UsageError):
        not_pure_trace([[Fraction(0)]], sub)
