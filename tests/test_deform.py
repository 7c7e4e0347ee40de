"""Deformation family Phi_c: eigen-sections, nilpotency, flow invariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdeform import checks, deform, model
from agdeform.deform import (
    EndomorphismField,
    build_Phi,
    build_q,
    eigen_sections,
    invariance_check,
    parse_c,
    phi_i_matrix,
    phi_prime_matrix,
    q_polynomial,
    transformation_check,
    unscaled_flow_factor_check,
)
from agdeform.exactalg import UsageError, flat_index
from agdeform.model import (
    BundleActionMatrices,
    Chart,
    ChartPoint,
    GenericFlow,
    SymbolicMatrix,
    kron,
)
from oracles import evaluation_point, phi_at

CHART = Chart(3)
FAMILIES = ("v", "iota", "v_tilde", "iota_tilde", "w", "kappa", "w_tilde", "kappa_tilde")


def test_q_polynomial():
    q = q_polynomial(CHART)
    x12 = CHART.x(1, 2)
    expected = x12 * x12
    for i in range(1, 4):
        xi1 = CHART.x(i, 1)
        expected = expected + xi1 * xi1
    assert build_q(CHART) == expected
    assert q.chart_degree_range() == (2, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sf_sum_is_q_in_stored_form(n):
    """The closed forms' q, Chart.sf_sum, is the q that Phi is built from,
    numerator and denominator factors both, so switching the expected
    values to it keeps every pinned byte."""
    chart = Chart(n)
    got, want = chart.sf_sum(), build_q(chart)
    assert (got.num, got.den) == (want.num, want.den)
    assert got.num.coeffs == want.num.coeffs


def test_eigen_sections_components():
    sections = eigen_sections(CHART)
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    one, zero = CHART.const(1), CHART.const(0)
    assert list(sections) == list(FAMILIES)
    assert sections["v"] == {"v": (-x12, x11)}
    assert sections["iota"] == {"iota": (one, zero)}
    assert sections["v_tilde"] == {"v_tilde": (zero, one)}
    assert sections["iota_tilde"] == {"iota_tilde": (x11, x12)}
    assert sections["w"] == {"w": (CHART.x(1, 1), CHART.x(2, 1), CHART.x(3, 1))}
    assert sections["w_tilde"] == {"w_tilde": (one, zero, zero)}
    assert sections["kappa"] == {"kappa_2": (zero, one, zero), "kappa_3": (zero, zero, one)}
    assert sections["kappa_tilde"] == {
        "kappa_tilde^2": (-CHART.x(2, 1), x11, zero),
        "kappa_tilde^3": (-CHART.x(3, 1), zero, x11),
    }


def test_transformation_laws_hold_with_expected_factors():
    """Each law holds with the factor of transformation_check's docstring,
    grouped by family like eigen_sections; a wrong action would make it
    fail (see the next test)."""
    laws = transformation_check(GenericFlow(CHART))
    assert {family: list(group) for family, group in laws.items()} == {
        family: list(group) for family, group in eigen_sections(CHART).items()
    }
    assert all(holds for group in laws.values() for holds in group.values())
    assert sum(len(group) for group in laws.values()) == 6 + 2 * (CHART.n - 1)


def test_transformation_laws_fail_under_a_swapped_action(monkeypatch):
    """Positive control: with the actions on E and E* swapped, the four
    families on E and E* fail and the four on F and F* still hold."""
    real = model.bundle_actions

    def swapped(X, t):
        actions = real(X, t)
        return BundleActionMatrices(actions.on_estar, actions.on_e, actions.on_f, actions.on_fstar)

    monkeypatch.setattr(model, "bundle_actions", swapped)
    laws = transformation_check(GenericFlow(CHART))
    failing = {family for family, group in laws.items() if not any(group.values())}
    holding = {family for family, group in laws.items() if all(group.values())}
    assert failing == {"v", "iota", "v_tilde", "iota_tilde"}
    assert holding == {"w", "kappa", "w_tilde", "kappa_tilde"}


def test_phi_prime_and_phi_i_displays():
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    m = phi_prime_matrix(CHART)
    assert m[0, 0] == -x11 * x12
    assert m[0, 1] == x11 * x11
    assert m[1, 0] == -x12 * x12
    assert m[1, 1] == x11 * x12
    p2 = phi_i_matrix(CHART, 2)
    for k in range(3):
        xk1 = CHART.x(k + 1, 1)
        assert p2[k, 0] == -CHART.x(2, 1) * xk1
        assert p2[k, 1] == x11 * xk1
        assert p2[k, 2] == CHART.const(0)
    with pytest.raises(UsageError):
        phi_i_matrix(CHART, 1)
    with pytest.raises(UsageError):
        phi_i_matrix(CHART, 4)


def test_build_phi_guards():
    with pytest.raises(UsageError):
        build_Phi(Chart(2))


@pytest.mark.parametrize(
    "n, c", [(3, (0, Fraction(-1, 2))), (4, (Fraction(3, 2), 0, -2))], ids=["n3", "n4"]
)
def test_c_substitution_matches_symbolic_phi_with_c_bound(n, c):
    """Each entry of the symbolic Phi with c substituted, a zero c_i and a
    fractional one among them, equals at sampled points the symbolic entry
    evaluated in Fractions with c bound by the point."""
    chart = Chart(n)
    phi = build_Phi(chart)
    bound = phi.substitute(chart.c_substitution(c))
    rng = random.Random(n)
    for _ in range(3):
        entries = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)] for _ in range(n)]
        entries[0][0] += 10  # q(point) > 0
        point = ChartPoint(chart, entries)
        for got, symbolic in zip(bound.rows, phi.rows):
            for g, f in zip(got, symbolic):
                vec = evaluation_point(chart.table, entries, c=c)
                assert g.evaluate(point.evaluation_vector()) == f.evaluate(vec)
    assert not bound.is_zero()


@pytest.mark.parametrize(
    "c", [[1], [1, 2, 3], [1.5, 2], [True, 2], [1, False]],
    ids=["too_few", "too_many", "float", "bool", "bool_zero"],
)
def test_c_substitution_refuses_a_bad_c(c):
    with pytest.raises(UsageError):
        CHART.c_substitution(c)


def test_phi_rank_one_structure():
    """Each coefficient factors through the phi' and phi_i displays."""
    phi = phi_at(CHART, [Fraction(5), Fraction(-2)])
    q = build_q(CHART)
    mprime = phi_prime_matrix(CHART)
    for ip in (1, 2):
        for jp in (1, 2):
            for l in range(1, 4):
                for k in range(1, 4):
                    expected = (
                        CHART.const(5) * mprime[ip - 1, jp - 1] * phi_i_matrix(CHART, 2)[k - 1, l - 1]
                        + CHART.const(-2) * mprime[ip - 1, jp - 1] * phi_i_matrix(CHART, 3)[k - 1, l - 1]
                    ) / q
                    assert phi.coefficient(ip, l, jp, k) == expected


def _constant_field(rng):
    size = 2 * CHART.n
    rows = [[CHART.const(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
    return EndomorphismField(CHART.table, rows)


def _identity():
    return EndomorphismField.identity(CHART.table, 2 * CHART.n)


def test_compose_and_apply_layout():
    """The product and apply against the index formulas, on non-commuting fields."""
    rng = random.Random(5)
    phi, other = _constant_field(rng), _constant_field(rng)
    assert phi * other != other * phi
    composed = phi * other
    assert isinstance(composed, EndomorphismField)
    for ip in (1, 2):
        for jp in (1, 2):
            for l in range(1, 4):
                for k in range(1, 4):
                    want = sum(
                        (
                            phi.coefficient(ip, b, ap, k) * other.coefficient(ap, l, jp, b)
                            for ap in (1, 2)
                            for b in range(1, 4)
                        ),
                        CHART.const(0),
                    )
                    assert composed.coefficient(ip, l, jp, k) == want
    psi = [CHART.const(rng.randint(-3, 3)) for _ in range(2 * CHART.n)]
    image = phi.apply(psi)
    for ip in (1, 2):
        for k in range(1, 4):
            want = sum(
                (
                    phi.coefficient(ip, l, jp, k) * psi[flat_index(l, jp)]
                    for jp in (1, 2)
                    for l in range(1, 4)
                ),
                CHART.const(0),
            )
            assert image[flat_index(k, ip)] == want


def test_endomorphism_algebra():
    ident = _identity()
    phi = build_Phi(CHART)
    assert isinstance(ident, EndomorphismField)
    assert ident * phi == phi
    assert phi * ident == phi
    assert isinstance(ident + phi, EndomorphismField)
    assert (phi - phi).is_zero()
    assert not phi.is_zero()
    psi = [CHART.const(1), CHART.const(0)] * 3
    assert ident.apply(psi) == tuple(psi)


def test_nilpotency_and_traces_symbolic():
    phi = build_Phi(CHART)
    assert (phi * phi).is_zero()
    for l in range(1, 4):
        for k in range(1, 4):
            assert phi.partial_trace_primed(l, k).is_zero()
    for ip in (1, 2):
        for jp in (1, 2):
            assert phi.partial_trace_unprimed(ip, jp).is_zero()


def test_deformed_theta_inverse():
    phi = phi_at(CHART, [Fraction(1), Fraction(2)])
    ident = _identity()
    assert (ident + phi) * (ident - phi) == ident
    assert (ident - phi) * (ident + phi) == ident


def test_inverse_check_fails_for_non_nilpotent_field(monkeypatch):
    """Control for deform.inverse: a field with Phi o Phi != 0 fails the
    product identity (Id + Phi)(Id - Phi) = Id - Phi o Phi."""
    checks.artifacts.cache_clear()
    table = CHART.table
    x11 = CHART.x(1, 1)
    zero = CHART.const(0)
    # x11 on the diagonal: (x11 Id)^2 = x11^2 Id is nonzero.
    diagonal = EndomorphismField(
        table, [[x11 if a == b else zero for b in range(6)] for a in range(6)]
    )
    monkeypatch.setattr(checks, "build_Phi", lambda chart: diagonal)
    try:
        reports = {r.check_id: r for r in checks.phi_suite(3)}
    finally:
        checks.artifacts.cache_clear()
    assert reports["deform.nilpotent.n3"].status == checks.FAIL
    assert reports["deform.inverse.n3"].status == checks.FAIL
    assert reports["deform.inverse.n3"].detail.startswith("(Id + Phi)(Id - Phi) = Id")


def test_invariance_symbolic_and_numeric_t():
    phi = build_Phi(CHART)
    assert invariance_check(phi, GenericFlow(CHART))


def test_unscaled_flow_factor():
    flow = GenericFlow(CHART)
    assert unscaled_flow_factor_check(flow, 2)
    assert unscaled_flow_factor_check(flow, 3)
    with pytest.raises(UsageError):
        unscaled_flow_factor_check(flow, 1)


def _unscaled_kron(chart, i):
    """phi' (x) phi_i as one 2n x 2n matrix, read through the deform module
    so a patched phi_i_matrix is seen."""
    return kron(deform.phi_prime_matrix(chart), deform.phi_i_matrix(chart, i))


def _oracle_unscaled_law(flow, i):
    """The slow route of deform.unscaled_flow_factor_check: the 2n x 2n
    conjugation (A (x) B)(phi' (x) phi_i)(A (x) B)^{-1} against
    (1 + t x11)^UNSCALED_LAW_POWER (phi' (x) phi_i)(z^t X)."""
    chart = flow.chart
    unscaled = _unscaled_kron(chart, i)
    conjugated = flow.conjugator * unscaled * flow.conjugator_inverse
    factor = (chart.const(1) + flow.t * chart.x(1, 1)) ** deform.UNSCALED_LAW_POWER
    moved = unscaled.substitute(flow.substitution)
    scaled = SymbolicMatrix(chart.table, [[factor * v for v in row] for row in moved.rows])
    return conjugated == scaled


@pytest.mark.parametrize("n", [3, 4])
def test_factor_conjugation_matches_the_kronecker_conjugation(n):
    """The mixed-product rule behind unscaled_flow_factor_check: for every
    i, (A P A^{-1}) (x) (B Q B^{-1}) equals the full 2n x 2n conjugation of
    P (x) Q entry by entry, and both routes find the law."""
    chart = Chart(n)
    flow = GenericFlow(chart)
    for i in range(2, n + 1):
        full = flow.conjugator * _unscaled_kron(chart, i) * flow.conjugator_inverse
        by_factor = kron(*flow.conjugate_factors(phi_prime_matrix(chart), phi_i_matrix(chart, i)))
        assert (full.nrows, full.ncols) == (by_factor.nrows, by_factor.ncols) == (2 * n, 2 * n)
        for row_full, row_factor in zip(full.rows, by_factor.rows):
            for a, b in zip(row_full, row_factor):
                assert a == b
        assert _oracle_unscaled_law(flow, i)
        assert unscaled_flow_factor_check(flow, i)


def _phi_i_with_x22_x11(monkeypatch):
    """Make deform.phi_i_matrix add x22 x11 to entry [1, 1] of every phi_i."""
    real = deform.phi_i_matrix

    def perturbed(chart, i):
        rows = [list(row) for row in real(chart, i).rows]
        rows[1][1] = rows[1][1] + chart.x(2, 2) * chart.x(1, 1)
        return SymbolicMatrix(chart.table, rows)

    monkeypatch.setattr(deform, "phi_i_matrix", perturbed)


@pytest.mark.parametrize(
    "mutate",
    [_phi_i_with_x22_x11, lambda monkeypatch: monkeypatch.setattr(deform, "UNSCALED_LAW_POWER", 1)],
    ids=["phi_i_with_x22_x11", "factor_to_the_first_power"],
)
def test_unscaled_law_fails_on_a_mutant(monkeypatch, mutate):
    """Positive controls: a phi_i with an extra x22 x11 term, or the factor
    (1 + t x11) in place of its square, fails the law for every i, on the
    factor-by-factor route and on the 2n x 2n oracle alike."""
    mutate(monkeypatch)
    flow = GenericFlow(CHART)
    for i in range(2, CHART.n + 1):
        assert not unscaled_flow_factor_check(flow, i)
        assert not _oracle_unscaled_law(flow, i)


def test_parse_c():
    """parse_c only parses; Chart.c_substitution refuses a wrong count."""
    assert parse_c("1,0") == (Fraction(1), Fraction(0))
    assert parse_c("-1/2,3") == (Fraction(-1, 2), Fraction(3))
    assert parse_c("1") == (Fraction(1),)
    with pytest.raises(UsageError):
        CHART.c_substitution(parse_c("1"))
    with pytest.raises(UsageError):
        parse_c("1,zzz")


def test_substitute_specializes_c():
    """c_substitution binds c_i at c_index(i), in order, to exact constants."""
    table = CHART.table
    mapping = {
        table.c_index(2): CHART.const(1),
        table.c_index(3): CHART.const(0),
    }
    assert CHART.c_substitution([1, "0"]) == mapping


@settings(max_examples=15, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
)
def test_nilpotency_and_inverse_random_c(c):
    phi = phi_at(CHART, list(c))
    assert (phi * phi).is_zero()
    ident = _identity()
    assert (ident + phi) * (ident - phi) == ident
