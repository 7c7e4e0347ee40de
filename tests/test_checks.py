"""The per-n artifact cache: each shared object is built once per process."""

import functools
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from agdeform import checks, cli, deform
from agdeform import curvature as curvature_mod
from agdeform import reptheory as rep_mod
from agdeform import torsion as torsion_mod
from agdeform.deform import EndomorphismField
from agdeform.exactalg import RationalFunction, flat_index


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
    symbolic = counting(
        monkeypatch, checks, "build_Phi", lambda chart, c=None: c is None
    )
    reports = checks.quick_suite(3)
    assert all(r.status == checks.PASS for r in reports)
    assert len(symbolic) == 1


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
    reports = checks.quick_suite(4)
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
    reports = checks.curvature_suite((3,)) + checks.curvature_numeric_suite(3, 0)
    assert len(reports) == 6
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_curvature_objects_are_built_once_per_process(monkeypatch, fresh_cache):
    """Three suites in a row at n = 3 read one tensor and one projection."""
    tensors = counting(monkeypatch, curvature_mod, "nabla2_phi")
    projections = counting(monkeypatch, curvature_mod, "project_kappa")
    reports = checks.curvature_suite((3,))
    reports += checks.curvature_numeric_suite(3)
    reports += checks.quick_suite(3)
    assert all(r.status == checks.PASS for r in reports)
    assert len(tensors) == 1
    assert len(projections) == 1


def test_quick_suite_builds_only_the_torsion_s_pairs(fresh_cache):
    """The torsion checks of quick_suite(4) build the n - 1 pairs
    ((s, 2'), (1, 2')) of the one torsion object of the symbolic Phi, and
    no other pair."""
    reports = checks.quick_suite(4)
    assert all(r.status == checks.PASS for r in reports)
    assert sorted(checks.artifacts(4).torsion.pairs) == [
        (flat_index(s, 2), flat_index(1, 2)) for s in range(2, 5)
    ]


def test_density_check_differentiates_only_its_phi_table(monkeypatch, fresh_cache):
    """The sweep's torsion reads the table of first derivatives of the
    sweep's Phi: during density_check every differentiate call is the first
    read of an (entry, variable) of that table, so no pulled-frame entry is
    differentiated at all."""
    built = []
    reading = []
    calls = []
    real_build, real_derivative = checks.build_Phi, EndomorphismField.derivative
    real_differentiate = RationalFunction.differentiate

    def build_Phi(*args):
        built.append(real_build(*args))
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

    monkeypatch.setattr(checks, "build_Phi", build_Phi)
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
    reports = checks.curvature_suite((3,))
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_acceptance_suite_builds_n3_second_derivatives_once(monkeypatch, fresh_cache):
    """verify --all runs the symbolic and the numeric curvature checks at
    n = 3 on one build of nabla2_phi.  The other suites and the n = 4 curvature
    checks are stubbed out to keep the test small."""
    stub = checks.CheckReport("stub", checks.PASS, checks.NUMERIC, "")
    for name in ("flow_suite", "eigen_suite", "phi_suite", "torsion_suite",
                 "torsion_zero_suite", "reptheory_suite", "fd_oracle_suite"):
        monkeypatch.setattr(checks, name, lambda *args: [])
    monkeypatch.setattr(checks, "density_check", lambda *args: (stub, []))
    real_suite = checks.curvature_suite
    monkeypatch.setattr(checks, "curvature_suite", lambda ns: real_suite([n for n in ns if n != 4]))
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    reports = [r for r in checks.acceptance_suite() if r is not stub]
    assert len(calls) == 1
    names = ("displays", "trace_free", "reduction", "kappa", "not_pure_trace", "mixed_partials")
    assert sorted(r.check_id for r in reports) == sorted(f"curvature.{x}.n3" for x in names)
    assert all(r.status == checks.PASS for r in reports)


def test_reptheory_suite_passes_at_n6(fresh_cache):
    """Rank, kernel, cokernel, trace membership, trace span and lemma_image
    at n = 6, which the sparse eliminator makes cheap enough for tier 1."""
    reports = checks.reptheory_suite((6,))
    names = {r.check_id.split(".")[1] for r in reports}
    assert {"rank", "kernel", "complement", "trace_membership", "trace_span", "lemma_image"} <= names
    assert all(r.status == checks.PASS for r in reports), [r.detail for r in reports]


def test_every_membership_verdict_equals_the_fraction_oracle(monkeypatch, fresh_cache):
    """Every membership call made by quick_suite(4), by one sweep and by
    curvature.not_pure_trace.n3 answers as Subspace.contains does; the
    calls give both answers (trace vectors in Im(partial1), sweep torsion
    and kappa slices outside), so each branch has its control."""
    verdicts = Counter()
    real = checks.membership

    def checked(subspace, vector):
        verdict = real(subspace, vector)
        assert verdict is subspace.contains(vector), vector
        verdicts[verdict] += 1
        return verdict

    monkeypatch.setattr(checks, "membership", checked)
    monkeypatch.setattr(curvature_mod, "membership", checked)
    reports = checks.quick_suite(4)
    report, records = checks.density_check(3, (Fraction(2), Fraction(-3)), 2, 0, 1)
    reports.append(report)
    reports += [
        r for r in checks.curvature_numeric_suite(3) if r.check_id == "curvature.not_pure_trace.n3"
    ]
    assert all(r.status == checks.PASS for r in reports), [r.check_id for r in reports if r.status != checks.PASS]
    assert verdicts[True] >= len(checks.artifacts(4).trace_vectors)
    assert verdicts[False] >= len(records) + checks.KAPPA_SAMPLES
    assert not any(rec["membershipVerdict"] for rec in records)


#: The per-n builders, each of which must run inside a timed check.
BUILDERS = (
    (deform, "build_Phi"),
    (deform, "build_q"),
    (deform, "transformation_check"),
    (torsion_mod, "pulled_frame"),
    (torsion_mod, "frame_bracket"),
    (curvature_mod, "nabla2_phi"),
    (curvature_mod, "project_kappa"),
    (rep_mod, "build_partial1"),
    (rep_mod, "trace_embedding_vectors"),
)


@pytest.fixture
def builders_outside_checks(monkeypatch):
    """The list of builder calls made while no checks._run is active.

    The curvature command prints kappa_closed_form, which builds its own q
    on purpose (an expected value independent of artifacts(n).q); that
    display is output, not a check, so builders may run inside it too.
    """
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
    monkeypatch.setattr(cli, "kappa_closed_form", entered(cli.kappa_closed_form))
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
    [lambda: checks.quick_suite(4), lambda: checks.acceptance_suite(0, ball_count=1)],
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
        (curvature_mod, "nabla2_phi", lambda: checks.curvature_suite((3,)), 4),
        (curvature_mod, "nabla2_phi",
         lambda: checks.curvature_suite((3,)) + checks.curvature_numeric_suite(3, 0), 6),
        (rep_mod, "build_partial1", lambda: checks.reptheory_suite((3,)), 7),
        (checks, "transformation_check", lambda: checks.eigen_suite((3,)), 8),
        (checks, "build_Phi", lambda: checks.phi_suite((3,)), 6),
        (checks, "TorsionAssembler", lambda: checks.torsion_suite((3,)), 4),
    ],
    ids=["curvature", "curvature_numeric", "reptheory", "eigen", "phi", "torsion"],
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
