"""Exact rational-function arithmetic: ring laws, calculus, degree facts."""

import itertools
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
    UsageError,
    VariableTable,
    fd_check,
    flat_index,
    parse_rational,
    render_polynomial,
    render_rational_function,
)
from agdeform.model import Chart
from agdeform.torsion import TorsionAssembler

TABLE = VariableTable(3)


def rf_var(i, j):
    return RationalFunction.variable(TABLE, TABLE.x_index(i, j))


def q_rf():
    out = rf_var(1, 2) * rf_var(1, 2)
    for i in range(1, 4):
        out = out + rf_var(i, 1) * rf_var(i, 1)
    return out


def random_polynomial(rng, max_terms=4, max_degree=3):
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        coeffs[tuple(mono)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
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
    assert table.t_index == 6
    assert table.index("s") == 7
    assert table.c_index(2) == 8
    assert table.c_index(3) == 9
    assert [table.render(i) for i in range(6)] == [
        "x11", "x12", "x21", "x22", "x31", "x32",
    ]
    assert table.chart_weights[0] == 1 and table.chart_weights[table.t_index] == 0


def test_flat_index_matches_chart_order():
    table = VariableTable(3)
    slots = [(i, jp) for i in (1, 2, 3) for jp in (1, 2)]
    assert [flat_index(i, jp) for i, jp in slots] == list(range(6))
    assert [table.names[flat_index(i, jp)] for i, jp in slots] == [
        f"x{i}{jp}" for i, jp in slots
    ]
    assert all(table.x_index(i, jp) == flat_index(i, jp) for i, jp in slots)


def test_mismatched_tables_rejected():
    other = VariableTable(4)
    with pytest.raises(MismatchedTables):
        RationalFunction.variable(TABLE, 0) + RationalFunction.variable(other, 0)


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


def test_degree_info_inhomogeneous():
    inhomogeneous = _poly_var("x11") + _poly_var("x12") * _poly_var("x21")
    assert inhomogeneous.chart_degree_range() == (1, 2)


def test_fd_check_on_q():
    q = q_rf()
    point = list(Fraction(0) for _ in TABLE.names)
    point[TABLE.x_index(1, 1)] = Fraction(2)
    point[TABLE.x_index(1, 2)] = Fraction(1)
    assert q.differentiate(TABLE.x_index(1, 1)).evaluate(tuple(point)) == Fraction(4)
    assert fd_check(q, TABLE.x_index(1, 1), tuple(point), Fraction(1, 10_000)) < 1e-6


def test_fd_check_constant():
    f = RationalFunction.constant(TABLE, 5)
    point = tuple(Fraction(1) for _ in TABLE.names)
    # a zero derivative: the error is the difference quotient itself
    assert fd_check(f, TABLE.x_index(1, 1), point, Fraction(1, 100)) == 0.0


def test_fd_check_pole_in_stencil():
    q = q_rf()
    f = RationalFunction.constant(TABLE, 1) / q
    point = list(Fraction(0) for _ in TABLE.names)
    point[TABLE.x_index(1, 1)] = Fraction(1, 10_000)
    with pytest.raises(PoleAtPoint):
        fd_check(f, TABLE.x_index(1, 1), tuple(point), Fraction(1, 10_000))


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
            TABLE.point(x=[[value, 0], [0, 0], [0, 0]])
    with pytest.raises(UsageError):
        Polynomial(TABLE, {(0,) * TABLE.size: True})


@st.composite
def small_polys(draw):
    terms = draw(st.integers(0, 3))
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(terms):
        mono = [0] * nvars
        for _ in range(draw(st.integers(0, 2))):
            mono[draw(st.integers(0, nvars - 1))] += 1
        coeffs[tuple(mono)] = Fraction(draw(st.integers(-4, 4)))
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
        coeffs[tuple(mono)] = Fraction(draw(st.integers(-6, 6)), den)
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
    torsion assembler and every entry of nabla2_phi at n = 3 returns what
    plain long division returns, and most of them are decided by the
    early-out."""
    calls = []
    fast = exactalg._divide_exact

    def record(dividend, divisor):
        result = fast(dividend, divisor)
        calls.append((dividend, divisor, result))
        return result

    monkeypatch.setattr(exactalg, "_divide_exact", record)
    phi = build_Phi(Chart(3))
    TorsionAssembler(phi)
    d2 = nabla2_phi(phi)
    slots = [(p, k) for p in (1, 2) for k in range(1, 4)]
    for (ip, j), (lp, m), (pp, o), (qp, r) in itertools.product(slots, repeat=4):
        d2.entry(ip, j, lp, m, pp, o, qp, r)
    monkeypatch.undo()
    skipped = 0
    for dividend, divisor, result in calls:
        assert result == exactalg._long_division(dividend, divisor)
        zero = exactalg._zero_point(divisor.key())
        skipped += zero is not None and bool(zero.residue(dividend.coeffs))
    assert skipped > len(calls) // 2


def _value_mod_p(f, point):
    total = 0
    for mono, coeff in f.coeffs.items():
        term = coeff.numerator * pow(coeff.denominator, -1, P)
        for x, e in zip(point, mono):
            term = term * pow(x, e, P)
        total += term
    return total % P


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_cached_zero_point_zeroes_its_divisor(name):
    f = DIVISORS[name]
    zero = exactalg._zero_point(f.key())
    point = [powers[1] for powers in zero.powers]
    assert _value_mod_p(f, point) == 0
    shifted = f + Polynomial.constant(TABLE, 1)
    assert _value_mod_p(shifted, point) != 0
    # A denominator divisible by p leaves the value mod p undefined.
    assert zero.residue(shifted.scale(Fraction(1, P)).coeffs) is None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zero_point_of_q_and_none_for_its_powers(n):
    q = q_polynomial(Chart(n))
    zero = exactalg._zero_point(q.key())
    assert _value_mod_p(q, [powers[1] for powers in zero.powers]) == 0
    # The expanded q^2 and q^3 have degree 4 and 6 in every variable.
    assert exactalg._zero_point((q * q).key()) is None
    assert exactalg._zero_point((q * q * q).key()) is None


def test_divisor_keeps_its_zero_point_outside_eq_and_hash():
    """The first division by q stores q's zero point on q itself; the slot
    takes no part in equality or hashing."""
    q = q_polynomial(Chart(4))
    fresh = Polynomial(q.table, dict(q.coeffs))
    x11 = Polynomial.variable(q.table, 0)
    assert exactalg._divide_exact(q * x11, q) == x11
    assert q._zero is exactalg._zero_point(q.key())
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
    """The oracle for exactalg._sum_terms: normalize every term, then add
    the terms one at a time, each partial sum normalized again."""
    acc = RationalFunction.zero(table)
    for num, den in terms:
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
    applications, substitution, and + itself) has the stored form of the
    pairwise accumulation of the same terms."""
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
        assert all(r.status == checks.PASS for r in checks.quick_suite(3))
    finally:
        monkeypatch.undo()
        checks.artifacts.cache_clear()
    assert sum(len(terms) > 2 for _, terms, _ in calls) > 100
    for table, terms, result in calls:
        assert _stored(result) == _stored(_pairwise_sum(table, terms))


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


# -- canonical coefficients: int when integral, Fraction otherwise ---------------


def _is_canonical(coeff):
    return type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


def _fraction_mul(p, r):
    """The all-Fraction product loop, the oracle for Polynomial.__mul__."""
    out = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in r.coeffs.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


def _fraction_add(p, r):
    """The all-Fraction sum loop, the oracle for Polynomial.__add__."""
    out = {m: Fraction(c) for m, c in p.coeffs.items()}
    for mono, coeff in r.coeffs.items():
        out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff)
    return {m: c for m, c in out.items() if c}


def _fraction_differentiate(p, idx):
    out = {}
    for mono, coeff in p.coeffs.items():
        if mono[idx]:
            lowered = mono[:idx] + (mono[idx] - 1,) + mono[idx + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + Fraction(coeff) * mono[idx]
    return {m: c for m, c in out.items() if c}


def _fraction_divide(dividend, divisor):
    """Long division with true division of Fractions; None if not exact."""
    lead_mono = max(divisor.coeffs)
    lead = Fraction(divisor.coeffs[lead_mono])
    remainder = {m: Fraction(c) for m, c in dividend.coeffs.items()}
    quotient = {}
    while remainder:
        mono = max(remainder)
        diff = tuple(a - b for a, b in zip(mono, lead_mono))
        if any(e < 0 for e in diff):
            return None
        q = quotient[diff] = remainder[mono] / lead
        for dm, dc in divisor.coeffs.items():
            target = tuple(a + b for a, b in zip(diff, dm))
            acc = remainder.get(target, Fraction(0)) - q * Fraction(dc)
            if acc:
                remainder[target] = acc
            else:
                remainder.pop(target, None)
    return quotient


@st.composite
def fractional_polys(draw):
    """Like small_polys, with coefficient denominators 1, 2 or 3."""
    coeffs = {}
    nvars = len(TABLE.names)
    for _ in range(draw(st.integers(0, 3))):
        mono = [0] * nvars
        for _ in range(draw(st.integers(0, 2))):
            mono[draw(st.integers(0, nvars - 1))] += 1
        coeffs[tuple(mono)] = Fraction(
            draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3)))
        )
    return Polynomial(TABLE, coeffs)


@settings(max_examples=150, deadline=None)
@given(
    fractional_polys(),
    fractional_polys(),
    st.integers(0, len(TABLE.names) - 1),
    st.sampled_from(("3q/2", "fractional")),
)
def test_mixed_coefficients_match_the_fraction_oracle(p, r, var, name):
    f = DIVISORS[name]
    results = [
        (p * r, _fraction_mul(p, r)),
        (p + r, _fraction_add(p, r)),
        (p.differentiate(var), _fraction_differentiate(p, var)),
        (exactalg._divide_exact(p * f, f), _fraction_divide(p * f, f)),
        (exactalg._divide_exact(p, f), _fraction_divide(p, f)),
    ]
    for got, oracle in results:
        if oracle is None:
            assert got is None
            continue
        assert got.coeffs == oracle
        assert all(_is_canonical(c) for c in got.coeffs.values())


def test_quick_suite_stores_only_canonical_coefficients(monkeypatch):
    """No polynomial built during quick_suite(3) stores a float, a bool or an
    integral Fraction; a float coefficient is refused."""
    built = []
    bad = []
    init = Polynomial.__init__

    def record(self, table, coeffs):
        init(self, table, coeffs)
        built.append(len(self.coeffs))
        bad.extend(c for c in self.coeffs.values() if not _is_canonical(c))

    checks.artifacts.cache_clear()
    monkeypatch.setattr(Polynomial, "__init__", record)
    try:
        assert all(r.status == checks.PASS for r in checks.quick_suite(3))
    finally:
        monkeypatch.undo()
        checks.artifacts.cache_clear()
    assert sum(built) > 10_000
    assert bad == []
    mono = (0,) * TABLE.size
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
