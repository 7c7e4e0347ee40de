"""The per-n artifact cache: each shared object is built once per process."""

import pytest

from agdeform import checks, cli
from agdeform import curvature as curvature_mod
from agdeform import reptheory as rep_mod


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
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    reports = checks.curvature_numeric_suite(3)
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_torsion_suite_builds_each_component_once_inside_checks(monkeypatch, fresh_cache):
    calls = counting(monkeypatch, checks, "torsion_component")
    reports = checks.torsion_suite((3,))
    assert all(r.status == checks.PASS for r in reports)
    assert sorted(s for _, s in calls) == [2, 3]


def test_torsion_component_error_is_a_fail_report(monkeypatch, fresh_cache):
    def broken(phi, s):
        raise ZeroDivisionError("bracket blew up")

    monkeypatch.setattr(checks, "torsion_component", broken)
    reports = checks.torsion_suite((3,))
    assert len(reports) == 4
    assert all(r.status == checks.FAIL and "bracket blew up" in r.detail for r in reports)


def test_curvature_suite_builds_second_derivatives_once(monkeypatch, fresh_cache):
    calls = counting(monkeypatch, curvature_mod, "nabla2_phi")
    reports = checks.curvature_suite((3,))
    assert all(r.status == checks.PASS for r in reports)
    assert len(calls) == 1


def test_acceptance_suite_builds_n3_second_derivatives_once(monkeypatch, fresh_cache):
    """verify --all runs curvature_suite and curvature_numeric_suite at n = 3
    on one build of nabla2_phi.  The other suites and the n = 4 curvature
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


def _broken(*args):
    raise ZeroDivisionError("builder blew up")


@pytest.mark.parametrize(
    "module, name, suite, failing",
    [
        (curvature_mod, "nabla2_phi", lambda: checks.curvature_suite((3,)), 4),
        (curvature_mod, "nabla2_phi", lambda: checks.curvature_numeric_suite(3), 2),
        (rep_mod, "build_partial1", lambda: checks.reptheory_suite((3,)), 7),
        (checks, "transformation_check", lambda: checks.eigen_suite((3,)), 8),
    ],
    ids=["curvature", "curvature_numeric", "reptheory", "eigen"],
)
def test_builder_error_is_a_fail_report(monkeypatch, fresh_cache, module, name, suite, failing):
    """A per-n builder runs inside the checks that read it, so an exception
    in it becomes a fail report of each such check."""
    monkeypatch.setattr(module, name, _broken)
    reports = suite()
    failed = [r for r in reports if r.status == checks.FAIL]
    assert len(failed) == failing
    assert all("builder blew up" in r.detail for r in failed)
