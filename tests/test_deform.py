"""Deformation family Phi_c: eigen-sections, nilpotency, flow invariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdeform import checks
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
from agdeform.model import Chart

CHART = Chart(3)


def test_q_polynomial():
    q = q_polynomial(CHART)
    x12 = CHART.x(1, 2)
    expected = x12 * x12
    for i in range(1, 4):
        xi1 = CHART.x(i, 1)
        expected = expected + xi1 * xi1
    assert build_q(CHART) == expected
    assert q.chart_degree_range() == (2, 2)


def test_eigen_sections_components():
    sections = eigen_sections(CHART)
    x11, x12 = CHART.x(1, 1), CHART.x(1, 2)
    one, zero = CHART.const(1), CHART.const(0)
    assert sections.v == (-x12, x11)
    assert sections.iota == (one, zero)
    assert sections.v_tilde == (zero, one)
    assert sections.iota_tilde == (x11, x12)
    assert sections.w == (CHART.x(1, 1), CHART.x(2, 1), CHART.x(3, 1))
    assert sections.w_tilde == (one, zero, zero)
    assert sections.kappa[0] == (zero, one, zero)
    assert sections.kappa_tilde[0] == (-CHART.x(2, 1), x11, zero)
    assert sections.kappa_tilde[1] == (-CHART.x(3, 1), zero, x11)


def test_transformation_laws_hold_with_expected_factors():
    """Each law holds with the factor of transformation_check's docstring;
    a wrong factor would make it fail."""
    laws = {law.name: law for law in transformation_check(CHART)}
    assert all(law.holds for law in laws.values())
    assert len(laws) == 6 + 2 * (CHART.n - 1)


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
    with pytest.raises(UsageError):
        build_Phi(CHART, [1])
    with pytest.raises(UsageError):
        build_Phi(CHART, [1, 2, 3])


def test_phi_rank_one_structure():
    """Each coefficient factors through the phi' and phi_i displays."""
    phi = build_Phi(CHART, [Fraction(5), Fraction(-2)])
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
    phi = build_Phi(CHART, [Fraction(1), Fraction(2)])
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
        reports = {r.check_id: r for r in checks.phi_suite((3,))}
    finally:
        checks.artifacts.cache_clear()
    assert reports["deform.nilpotent.n3"].status == checks.FAIL
    assert reports["deform.inverse.n3"].status == checks.FAIL
    assert reports["deform.inverse.n3"].detail.startswith("(Id + Phi)(Id - Phi) = Id")


def test_invariance_symbolic_and_numeric_t():
    phi = build_Phi(CHART)
    assert invariance_check(phi)


def test_unscaled_flow_factor():
    assert unscaled_flow_factor_check(CHART, 2)
    assert unscaled_flow_factor_check(CHART, 3)
    with pytest.raises(UsageError):
        unscaled_flow_factor_check(CHART, 1)


def test_parse_c():
    assert parse_c(CHART, "1,0") == (Fraction(1), Fraction(0))
    assert parse_c(CHART, "-1/2,3") == (Fraction(-1, 2), Fraction(3))
    with pytest.raises(UsageError):
        parse_c(CHART, "1")
    with pytest.raises(UsageError):
        parse_c(CHART, "1,zzz")


def test_substitute_specializes_c():
    phi = build_Phi(CHART)
    table = CHART.table
    mapping = {
        table.c_index(2): CHART.const(1),
        table.c_index(3): CHART.const(0),
    }
    specialized = phi.substitute(mapping)
    assert specialized == build_Phi(CHART, [1, 0])


@settings(max_examples=15, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
)
def test_nilpotency_and_inverse_random_c(c):
    phi = build_Phi(CHART, list(c))
    assert (phi * phi).is_zero()
    ident = _identity()
    assert (ident + phi) * (ident - phi) == ident
