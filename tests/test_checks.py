"""The per-n artifact cache: each shared object is built once per process."""

import functools
import re
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from agdeform import checks, cli, deform, model
from agdeform import curvature as curvature_mod
from agdeform import reptheory as rep_mod
from agdeform import torsion as torsion_mod
from agdeform.deform import EndomorphismField
from agdeform.exactalg import Polynomial, RationalFunction, UsageError, flat_index
from oracles import contains


@pytest.fixture
def fresh_cache():
    checks.artifacts.cache_clear()
    yield
    checks.artifacts.cache_clear()


def counting(monkeypatch, module, name, keep=lambda *args, **kwargs: True):
    """Replace module.name with a wrapper; returns the list of counted calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_quick_suite_builds_symbolic_phi_once(monkeypatch, fresh_cache):
    built = counting(monkeypatch, checks, "build_Phi")
    reports = checks.quick_suite(3, 0)
    assert all(r.status == checks.PASS for r in reports)
    assert len(built) == 1


def test_quick_suite_builds_one_flow_frame(monkeypatch, fresh_cache):
    """The four flow checks, the eigen laws and the invariance and
    unscaled-factor checks at n = 4 all read one GenericFlow."""
    built = counting(monkeypatch, checks, "GenericFlow")
    reports = checks.quick_suite(4, 0)
    assert all(r.status == checks.PASS for r in reports)
    assert len(built) == 1


def test_quick_suite_differentiates_each_phi_entry_once(monkeypatch, fresh_cache):
    """No (entry, variable) of the shared symbolic Phi is differentiated twice
    in quick_suite(4): the degree ledger, the torsion components' brackets
    and the curvature tensor all read Phi's one table of first derivatives."""
    phi = checks.artifacts(4).phi
    positions = {
        id(v): (row, col) for row, values in enumerate(phi.rows) for col, v in enumerate(values)
    }
    assert len(positions) == phi.nrows * phi.ncols
    seen = Counter()
    real = RationalFunction.differentiate

    def counted(self, idx):
        if id(self) in positions:
            seen[positions[id(self)], idx] += 1
        return real(self, idx)

    monkeypatch.setattr(RationalFunction, "differentiate", counted)
    reports = checks.quick_suite(4, 0)
    assert all(r.status == checks.PASS for r in reports)
    assert seen and max(seen.values()) == 1
    assert set(seen) == {(key[:2], key[2]) for key in phi.derivatives}


def test_reptheory_command_builds_partial1_once(monkeypatch, capsys, fresh_cache):
    calls = counting(monkeypatch, rep_mod, "build_partial1")
    assert cli.main(["reptheory", "--n", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_reptheory_command_builds_trace_embeddings_once(monkeypatch, capsys, fresh_cache):
    calls = counting(monkeypatch, rep_mod, "trace_embedding_vectors")
    assert cli.main(["reptheory", "--n", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_curvature_numeric_suite_builds_second_derivatives_once(monkeypatch, fresh_cache):
    """The symbolic and the numeric curvature checks at n = 3 share one build."""
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    reports = checks.curvature_suite(3) + checks.curvature_numeric_suite(3, 0)
    assert len(reports) == 6
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_curvature_objects_are_built_once_per_process(monkeypatch, fresh_cache):
    """Three suites in a row at n = 3 read one tensor and one projection."""
    tensors = counting(monkeypatch, curvature_mod, "nabla2_phi")
    projections = counting(monkeypatch, curvature_mod, "project_kappa")
    reports = checks.curvature_suite(3)
    reports += checks.curvature_numeric_suite(3, 0)
    reports += checks.quick_suite(3, 0)
    assert all(r.status == checks.PASS for r in reports)
    assert len(tensors) == 1
    assert len(projections) == 1


def test_quick_suite_builds_one_torsion_object_per_phi(monkeypatch, fresh_cache):
    """quick_suite(4) constructs TorsionAssembler once per Phi: as
    artifacts(4).torsion over the symbolic Phi, whose (s, 2'), (1, 2')
    pairs the bracket and D checks read, and once over that Phi at c = 0,
    whose every pair the zero check reads.  The symbolic-c torsion vector
    is never built."""
    built = counting(monkeypatch, checks, "TorsionAssembler")
    readers = set()
    real_pair = torsion_mod.TorsionAssembler.pair

    def pair(self, f, g):
        readers.add(self)
        return real_pair(self, f, g)

    monkeypatch.setattr(torsion_mod.TorsionAssembler, "pair", pair)
    reports = checks.quick_suite(4, 0)
    assert all(r.status == checks.PASS for r in reports)
    art = checks.artifacts(4)
    ((symbolic,), (flat,)) = sorted(built, key=lambda args: args[0] is not art.phi)
    assert symbolic is art.phi and flat.is_zero()
    torsion = art.torsion
    (zero,) = readers - {torsion}
    assert zero.phi is flat and len(zero.pairs) == 28
    assert sorted(torsion.pairs) == sorted((flat_index(s, 2), flat_index(1, 2)) for s in (2, 3, 4))
    assert "symbolic" not in vars(torsion)


def test_density_check_differentiates_only_its_phi_table(monkeypatch, fresh_cache):
    """The sweep's torsion reads the table of first derivatives of the
    sweep's Phi, the shared symbolic Phi with c substituted: during
    density_check every differentiate call is the first read of an (entry,
    variable) of that table, so no pulled-frame entry, and no entry of the
    symbolic Phi, is differentiated at all."""
    built = []
    reading = []
    calls = []
    real_substitute, real_derivative = EndomorphismField.substitute, EndomorphismField.derivative
    real_differentiate = RationalFunction.differentiate

    def substitute(self, mapping):
        built.append(real_substitute(self, mapping))
        return built[-1]

    def derivative(self, row, col, idx):
        reading.append((self, row, col, (row, col, idx) not in self.derivatives))
        try:
            return real_derivative(self, row, col, idx)
        finally:
            reading.pop()

    def differentiate(self, idx):
        calls.append((self, reading[-1] if reading else None))
        return real_differentiate(self, idx)

    monkeypatch.setattr(EndomorphismField, "substitute", substitute)
    monkeypatch.setattr(EndomorphismField, "derivative", derivative)
    monkeypatch.setattr(RationalFunction, "differentiate", differentiate)
    report, _ = checks.density_check(3, (Fraction(2), Fraction(-3)), 2, 1, 1)
    assert report.status == checks.PASS, report.detail
    (phi,) = built
    assert calls
    for entry, read in calls:
        assert read is not None, "a differentiate call outside Phi's table"
        field, row, col, first = read
        assert field is phi and first and entry is phi.rows[row][col]


def test_curvature_suite_builds_second_derivatives_once(monkeypatch, fresh_cache):
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    reports = checks.curvature_suite(3)
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_acceptance_suite_builds_n3_second_derivatives_once(monkeypatch, fresh_cache):
    """verify --all runs the symbolic and the numeric curvature checks and
    the derivative oracle at n = 3 on one build of Phi and one of
    nabla2_phi.  The other suites and the n = 4 curvature checks are stubbed
    out to keep the test small."""
    stub = checks.CheckReport("stub", checks.PASS, checks.NUMERIC, "")
    for name in ("flow_suite", "eigen_suite", "phi_suite", "torsion_suite",
                 "phi_kills_brackets_suite", "frame_quadratic_cancels_suite",
                 "torsion_zero_suite", "reptheory_suite"):
        monkeypatch.setattr(checks, name, lambda *args: [])
    monkeypatch.setattr(checks, "density_check", lambda *args: (stub, []))
    real_suite = checks.curvature_suite
    monkeypatch.setattr(checks, "curvature_suite", lambda n: [] if n == 4 else real_suite(n))
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    phis = counting(monkeypatch, checks, "build_Phi")
    reports = [r for r in checks.acceptance_suite(0, 8) if r is not stub]
    assert len(calls) == 1
    assert len(phis) == 1
    names = ("displays", "trace_free", "reduction", "kappa", "not_pure_trace", "mixed_partials")
    assert sorted(r.check_id for r in reports) == sorted(
        [f"curvature.{x}.n3" for x in names] + ["exactalg.derivative_oracle.n3"]
    )
    assert all(r.status == checks.PASS for r in reports)


def test_acceptance_suite_runs_every_suite_at_each_n_of_its_row(monkeypatch):
    """Every *_suite of checks but the two readers has a row in
    _suite_table, and acceptance_suite(0, 1) calls it at each n of that row:
    a suite left out of the table would never run under verify --all.  Each
    suite is stubbed with a recorder."""
    readers = ("acceptance_suite", "quick_suite")
    names = [name for name in dir(checks) if name.endswith("_suite") and name not in readers]
    calls = []
    for name in names:
        monkeypatch.setattr(checks, name, lambda n, *args, name=name: calls.append((name, n)) or [])
    stub = checks.CheckReport("stub", checks.PASS, checks.NUMERIC, "")
    monkeypatch.setattr(checks, "density_check", lambda n, *args: calls.append(("density_check", n)) or (stub, []))
    rows = {}
    for suite, ns, _ in checks._suite_table(0, 1):
        calls.clear()
        suite(ns[0])
        rows.update(dict.fromkeys({name for name, _ in calls}, ns))
    assert not set(names) - set(rows), "suites with no row in _suite_table"
    calls.clear()
    checks.acceptance_suite(0, 1)
    assert set(calls) == {(name, n) for name, ns in rows.items() for n in ns}


def test_derivative_oracle_fails_on_a_negated_table_entry(fresh_cache):
    """Positive control: one negated entry of Phi's shared table of first
    derivatives fails the oracle, which reads that table."""
    phi = checks.artifacts(3).phi
    key = (0, 0, 0)
    assert not phi.derivative(*key).is_zero()
    phi.derivatives[key] = -phi.derivatives[key]
    (report,) = checks.derivative_oracle_suite(3, 0)
    assert report.status == checks.FAIL
    assert report.detail == "derivative (0, 0, 0) of Phi differs from its dual value"
    phi.derivatives[key] = -phi.derivatives[key]
    (report,) = checks.derivative_oracle_suite(3, 0)
    assert report.status == checks.PASS


def test_derivative_oracle_fails_on_a_flipped_quotient_rule(monkeypatch, fresh_cache):
    """Positive control: with the sign of the quotient rule's correction
    term flipped, num'/D + num D'/D^2 in place of num'/D - num D'/D^2,
    Phi's table no longer equals the dual slopes, which never call
    differentiate."""
    real = RationalFunction.differentiate

    def flipped(self, idx):
        return RationalFunction(self.num.differentiate(idx), self.den).scale(2) - real(self, idx)

    monkeypatch.setattr(RationalFunction, "differentiate", flipped)
    (report,) = checks.derivative_oracle_suite(3, 0)
    assert report.status == checks.FAIL
    assert re.fullmatch(r"derivative \(\d+, \d+, \d+\) of Phi differs from its dual value", report.detail)


def test_derivative_oracle_fails_on_a_negated_second_derivative(fresh_cache):
    """Positive control for the hyper-dual half: one negated displayed
    second derivative fails the oracle."""
    d2 = checks.artifacts(3).second_derivatives
    key = (2, 1, 1, 1, 1, 1, 1, 3)
    d2.second[key] = -d2.entry(*key)
    (report,) = checks.derivative_oracle_suite(3, 0)
    assert report.status == checks.FAIL
    assert report.detail == f"derivative {key} of Phi differs from its dual value"


def test_phi_kills_every_bracket_at_n5(fresh_cache):
    """verify --n 5..12 and torsion --n >= 5 read the torsion as the negated
    pulled-frame bracket.  verify --all checks the identity behind that at
    n = 3 and 4; here it holds for all 45 pairs at n = 5, symbolic c."""
    (report,) = checks.phi_kills_brackets_suite(5)
    assert report.status == checks.PASS, report.detail
    assert report.detail == (
        "Phi theta[E~_a, E~_b] = 0 for all 45 pairs a < b of pulled-frame fields, symbolic c"
    )
    assert len(checks.artifacts(5).torsion.pairs) == 45


def _perturb_phi(monkeypatch, row, col, term):
    """Make checks.build_Phi add term(chart) to entry [row, col] of the
    symbolic Phi, which every Phi at numeric c is substituted from."""
    real = checks.build_Phi

    def perturbed(chart):
        phi = real(chart)
        rows = [list(r) for r in phi.rows]
        rows[row][col] = rows[row][col] + term(chart)
        return EndomorphismField(phi.table, rows)

    monkeypatch.setattr(checks, "build_Phi", perturbed)


def test_phi_kills_brackets_fails_on_an_extra_phi_entry(monkeypatch, fresh_cache):
    """Positive control: Phi with an extra x22 term in one entry no longer
    annihilates the brackets of its own pulled frame, and the Phi dPhi part
    of those brackets no longer cancels."""
    _perturb_phi(monkeypatch, 0, 0, lambda chart: chart.x(2, 2))
    (report,) = checks.phi_kills_brackets_suite(3)
    assert report.status == checks.FAIL
    assert report.detail == "Phi theta[E~_0, E~_1] is nonzero (flat indices)"
    (report,) = checks.frame_quadratic_cancels_suite(3)
    assert report.status == checks.FAIL
    assert report.detail == "the Phi dPhi term of [E~_0, E~_1] is nonzero (flat indices)"


def test_invariance_fails_on_an_extra_phi_entry(monkeypatch, fresh_cache):
    """Positive control: Phi with an extra x22 term at [0, 0] is no longer
    flow invariant; the unscaled generators do not read Phi and still pass."""
    _perturb_phi(monkeypatch, 0, 0, lambda chart: chart.x(2, 2))
    reports = {r.check_id: r for r in checks.phi_suite(3)}
    assert reports["deform.invariance.n3"].status == checks.FAIL
    assert reports["deform.unscaled_factor.n3"].status == checks.PASS


def test_unscaled_factor_fails_on_an_extra_phi_i_entry(monkeypatch, fresh_cache):
    """Positive control: a phi_i with an extra x22 x11 term at [1, 1] fails
    deform.unscaled_factor at its first generator; Phi, built apart from
    phi_i_matrix, keeps its invariance."""
    real = deform.phi_i_matrix

    def perturbed(chart, i):
        rows = [list(row) for row in real(chart, i).rows]
        rows[1][1] = rows[1][1] + chart.x(2, 2) * chart.x(1, 1)
        return model.SymbolicMatrix(chart.table, rows)

    monkeypatch.setattr(deform, "phi_i_matrix", perturbed)
    reports = {r.check_id: r for r in checks.phi_suite(3)}
    assert reports["deform.unscaled_factor.n3"].status == checks.FAIL
    assert reports["deform.unscaled_factor.n3"].detail == (
        "unscaled generator 2 fails the (1+t x11)^2 law"
    )
    assert reports["deform.invariance.n3"].status == checks.PASS


def test_frame_quadratic_cancels_at_n5(fresh_cache):
    """verify --n 5..12 and torsion --n >= 5 read each pulled-frame bracket
    as the antisymmetrised derivative of Phi.  verify --all checks that the
    Phi dPhi part cancels at n = 3 and 4; here it cancels for all 45 pairs
    at n = 5, symbolic c."""
    (report,) = checks.frame_quadratic_cancels_suite(5)
    assert report.status == checks.PASS, report.detail
    assert report.check_id == "torsion.frame_quadratic_cancels.n5"
    assert report.detail == (
        "sum_a (Phi[a,f] d_a Phi[b,g] - Phi[a,g] d_a Phi[b,f]) = 0 for all 45 pairs f < g,"
        " symbolic c"
    )


@pytest.mark.parametrize(
    "row, col, term, pair",
    [
        (0, 0, lambda chart: chart.x(2, 2) * chart.x(2, 2), (0, 1)),
        (1, 3, lambda chart: chart.x(1, 1) * chart.x(2, 1), (0, 3)),
    ],
    ids=["x22_squared_at_0_0", "x11_x21_at_1_3"],
)
def test_frame_quadratic_cancels_fails_on_an_extra_phi_entry(
    monkeypatch, fresh_cache, row, col, term, pair
):
    """Positive controls: a quadratic term added to one entry of Phi leaves
    a nonzero Phi dPhi part, and the report names the first pair it
    meets."""
    _perturb_phi(monkeypatch, row, col, term)
    (report,) = checks.frame_quadratic_cancels_suite(3)
    assert report.status == checks.FAIL
    f, g = pair
    assert report.detail == f"the Phi dPhi term of [E~_{f}, E~_{g}] is nonzero (flat indices)"


def test_eigen_suite_reports_each_family_apart(monkeypatch, fresh_cache):
    """Positive control of the family grouping: one failing law fails its
    own family only, and an empty family fails as missing."""
    real = deform.transformation_check

    def tampered(flow):
        laws = real(flow)
        laws["kappa_tilde"]["kappa_tilde^3"] = False
        laws["kappa"] = {}
        return laws

    monkeypatch.setattr(checks, "transformation_check", tampered)
    reports = {r.check_id: r for r in checks.eigen_suite(3)}
    failed = {check_id: r.detail for check_id, r in reports.items() if r.status == checks.FAIL}
    assert failed == {
        "eigen.law.kappa_tilde.n3": "law fails for: kappa_tilde^3",
        "eigen.law.kappa.n3": "no laws found for family kappa",
    }
    assert len(reports) == 8


def _with_v_copy(monkeypatch, sections: bool, table: bool):
    """Add a family v_copy, a copy of v, to deform.eigen_sections, to
    deform.EIGEN_FAMILIES, or to both."""
    real = deform.eigen_sections

    def with_copy(chart):
        got = real(chart)
        return {**got, "v_copy": {"v_copy": got["v"]["v"]}}

    if sections:
        monkeypatch.setattr(deform, "eigen_sections", with_copy)
    if table:
        monkeypatch.setitem(deform.EIGEN_FAMILIES, "v_copy", deform.EIGEN_FAMILIES["v"])


@pytest.mark.parametrize(
    "sections, table, count, failed",
    [
        (True, True, 9, {}),
        (False, True, 9, {"v_copy": "no laws found for family v_copy"}),
        (True, False, 8, dict.fromkeys(deform.EIGEN_FAMILIES, "error: 'v_copy'")),
    ],
    ids=["both_tables", "table_only", "sections_only"],
)
def test_eigen_suite_follows_the_family_table(monkeypatch, fresh_cache, sections, table, count, failed):
    """Positive controls of deform.EIGEN_FAMILIES: a ninth family in both
    tables is reported as its own check; one in the table alone fails as
    missing; one in eigen_sections alone makes transformation_check raise,
    so every eigen check fails naming it."""
    _with_v_copy(monkeypatch, sections, table)
    reports = {r.check_id: r for r in checks.eigen_suite(3)}
    assert len(reports) == count
    assert {
        check_id.split(".")[2]: r.detail for check_id, r in reports.items() if r.status == checks.FAIL
    } == failed
    if not failed:
        assert reports["eigen.law.v_copy.n3"].detail == "1 law(s) hold with symbolic t"


def test_zero_deformation_fails_on_a_c_free_phi_term(monkeypatch, fresh_cache):
    """Positive control: the symbolic-c Phi with a c-free x22 term in one
    entry keeps torsion at c = 0.  The check substitutes c = 0 into that
    shared Phi, so it fails; a Phi built apart at c = 0 would not carry the
    term."""
    _perturb_phi(monkeypatch, 0, 0, lambda chart: chart.x(2, 2))
    (report,) = checks.torsion_zero_suite(3)
    assert report.status == checks.FAIL
    assert report.detail == "a torsion entry is nonzero at c = 0"


def test_zero_deformation_fails_on_a_c_free_quadratic_term(monkeypatch, fresh_cache):
    """Positive control: x22^2 in one entry of the symbolic-c Phi, which
    leaves kappa at c = 0 zero (tests/test_curvature.py), keeps torsion at
    c = 0, so the check fails."""
    _perturb_phi(monkeypatch, 0, 0, lambda chart: chart.x(2, 2) * chart.x(2, 2))
    (report,) = checks.torsion_zero_suite(3)
    assert report.status == checks.FAIL
    assert report.detail == "a torsion entry is nonzero at c = 0"


def test_closed_forms_fail_on_a_wrong_q(monkeypatch, fresh_cache):
    """The expected values of the coefficients, the bracket, D, the displays
    and kappa are built over Chart.sf_sum, not over the q that Phi is built
    from, so Phi built over q - x_n1^2 fails each of them at n = 3."""
    real = deform.q_polynomial

    def mutant(chart):
        xn1 = Polynomial.variable(chart.table, chart.table.x_index(chart.n, 1))
        return real(chart) - xn1 * xn1

    monkeypatch.setattr(deform, "q_polynomial", mutant)
    reports = checks.phi_suite(3) + checks.torsion_suite(3) + checks.curvature_suite(3)
    failed = sorted(r.check_id for r in reports if r.status == checks.FAIL)
    assert failed == [
        "curvature.displays.n3",
        "curvature.kappa.n3",
        "deform.coefficients.n3",
        "deform.degree_ledger.n3",
        "torsion.bracket.n3.s2",
        "torsion.bracket.n3.s3",
        "torsion.d_expansion.n3.s2",
        "torsion.d_expansion.n3.s3",
    ]


@pytest.mark.parametrize(
    "c, s",
    [([1], 3), ([1, 2, 5], 2), ([1.5, 2], 2), ([True, 2], 2)],
    ids=["too_few", "too_many", "float", "bool"],
)
def test_sweep_refuses_a_bad_c_before_any_check(monkeypatch, fresh_cache, c, s):
    """c must hold n - 1 exact rationals: a wrong count or a float is a
    usage error raised before any check runs, never an IndexError or a FAIL
    report."""

    def refuse(*args):
        raise AssertionError("a check ran before the usage check")

    monkeypatch.setattr(checks, "_run", refuse)
    with pytest.raises(UsageError):
        checks.density_check(3, c, s, 0, 1)


def test_sweep_coerces_c_to_fractions(monkeypatch, fresh_cache):
    """Integer and literal entries of c reach the sweep as Fractions: the
    sweep's Phi is the shared symbolic Phi with c bound to (2, -3)."""
    built = counting(monkeypatch, EndomorphismField, "substitute")
    report, _ = checks.density_check(3, [2, "-3"], 2, 1, 1)
    assert report.status == checks.PASS, report.detail
    assert report.check_id == "torsion.density.n3.s2.c2_m3"
    art = checks.artifacts(3)
    ((phi, mapping),) = built
    assert phi is art.phi
    assert mapping == art.chart.c_substitution((Fraction(2), Fraction(-3)))
    report, _ = checks.density_check(3, ["4/2", "-6/2"], 2, 1, 1)
    assert report.check_id == "torsion.density.n3.s2.c2_m3", report.check_id


def test_reptheory_suite_passes_at_n6(fresh_cache):
    """Rank, kernel, cokernel, trace membership, trace span and lemma_image
    at n = 6, which the sparse eliminator makes cheap enough for tier 1."""
    reports = checks.reptheory_suite(6, 0)
    names = {r.check_id.split(".")[1] for r in reports}
    assert {"rank", "kernel", "complement", "trace_membership", "trace_span", "lemma_image"} <= names
    assert all(r.status == checks.PASS for r in reports), [r.detail for r in reports]


def test_every_membership_verdict_equals_the_fraction_oracle(monkeypatch, fresh_cache):
    """Every membership call made by quick_suite(4), by one sweep and by
    curvature.not_pure_trace.n3 answers as the Fraction oracle contains
    does; the calls give both answers (trace vectors in Im(partial1), sweep
    torsion and kappa slices outside), so each branch has its control."""
    verdicts = Counter()
    real = checks.membership

    def checked(subspace, vector):
        verdict = real(subspace, vector)
        assert verdict is contains(subspace, vector), vector
        verdicts[verdict] += 1
        return verdict

    monkeypatch.setattr(checks, "membership", checked)
    reports = checks.quick_suite(4, 0)
    report, records = checks.density_check(3, (Fraction(2), Fraction(-3)), 2, 0, 1)
    reports.append(report)
    reports += [
        r for r in checks.curvature_numeric_suite(3, 0) if r.check_id == "curvature.not_pure_trace.n3"
    ]
    assert all(r.status == checks.PASS for r in reports), [r.check_id for r in reports if r.status != checks.PASS]
    assert verdicts[True] >= len(checks.artifacts(4).trace_vectors)
    assert verdicts[False] >= len(records) + checks.KAPPA_SAMPLES
    assert not any(rec["membershipVerdict"] for rec in records)


#: The per-n builders, each of which must run inside a timed check.
BUILDERS = (
    (model, "GenericFlow"),
    (deform, "build_Phi"),
    (deform, "build_q"),
    (deform, "transformation_check"),
    (curvature_mod, "nabla2_phi"),
    (curvature_mod, "project_kappa"),
    (rep_mod, "build_partial1"),
    (rep_mod, "trace_embedding_vectors"),
)


@pytest.fixture
def builders_outside_checks(monkeypatch):
    """The list of builder calls made while no checks._run is active."""
    active = [0]
    outside = []

    def entered(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] -= 1

        return wrapper

    def guarded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                outside.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(checks, "_run", entered(checks._run))
    for owner, name in BUILDERS:
        original = getattr(owner, name)
        wrapper = guarded(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("agdeform.") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    spec = rep_mod.GradedAlgebraSpec
    monkeypatch.setattr(spec, "__init__", guarded("GradedAlgebraSpec", spec.__init__))
    return outside


@pytest.mark.parametrize(
    "suite",
    [lambda: checks.quick_suite(4, 0), lambda: checks.acceptance_suite(0, ball_count=1)],
    ids=["quick_suite_n4", "acceptance"],
)
def test_suite_builders_run_only_inside_checks(builders_outside_checks, fresh_cache, suite):
    """Every per-n builder runs inside the check that first reads it, so its
    time is reported as check time, not setup."""
    reports = suite()
    assert all(r.status == checks.PASS for r in reports)
    assert not builders_outside_checks, builders_outside_checks


@pytest.mark.parametrize(
    "argv",
    [
        ["flow"],
        ["phi"],
        ["torsion", "--sample-balls", "1"],
        ["curvature"],
        ["reptheory"],
        ["reptheory", "--n", "2", "--check", "surjective"],
        ["verify"],
    ],
    ids=lambda argv: "_".join(a.strip("-") for a in argv),
)
def test_command_builders_run_only_inside_checks(builders_outside_checks, capsys, fresh_cache, argv):
    """Each subcommand (without --emit) builds its per-n objects inside its
    checks only."""
    assert cli.main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
    assert not builders_outside_checks, builders_outside_checks


def _broken(*args):
    raise ZeroDivisionError("builder blew up")


@pytest.mark.parametrize(
    "module, name, suite, failing",
    [
        (curvature_mod, "nabla2_phi", lambda: checks.curvature_suite(3), 4),
        (curvature_mod, "nabla2_phi",
         lambda: checks.curvature_suite(3) + checks.curvature_numeric_suite(3, 0), 6),
        (rep_mod, "build_partial1", lambda: checks.reptheory_suite(3, 0), 7),
        (checks, "transformation_check", lambda: checks.eigen_suite(3), 8),
        (checks, "build_Phi", lambda: checks.phi_suite(3), 6),
        (checks, "TorsionAssembler", lambda: checks.torsion_suite(3), 4),
        (checks, "GenericFlow",
         lambda: checks.flow_suite(3) + checks.eigen_suite(3) + checks.phi_suite(3), 14),
    ],
    ids=["curvature", "curvature_numeric", "reptheory", "eigen", "phi", "torsion", "flow_frame"],
)
def test_builder_error_is_a_fail_report(monkeypatch, fresh_cache, module, name, suite, failing):
    """A per-n builder runs inside the checks that read it, so an exception
    in it becomes a fail report of each such check."""
    monkeypatch.setattr(module, name, _broken)
    reports = suite()
    failed = [r for r in reports if r.status == checks.FAIL]
    assert len(failed) == failing
    assert all("builder blew up" in r.detail for r in failed)


@pytest.mark.parametrize(
    "elapsed_ns, reported", [(1_600_000, 2), (1_400_000, 1), (400_000, 0), (2_000_000, 2)]
)
def test_run_rounds_elapsed_to_nearest_ms(monkeypatch, elapsed_ns, reported):
    """elapsedMs is the check time rounded, not floored: flooring moved about
    half a ms per check out of the summed check times."""
    clock = iter((10**9, 10**9 + elapsed_ns))
    monkeypatch.setattr(checks, "time", SimpleNamespace(perf_counter_ns=lambda: next(clock)))
    report = checks._run("x.n3", checks.SYMBOLIC, lambda: (True, "ok", None))
    assert report.elapsed_ms == reported
