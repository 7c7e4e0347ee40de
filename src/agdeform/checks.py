"""Named verification checks shared by the CLI and the test suite.

Every check runs one mathematical claim to ground and returns a CheckReport.
Symbolic checks compare rational functions with tolerance zero; numeric
checks evaluate at deterministic sampled points.  Check ids are stable
strings, so report streams sort reproducibly.  The per-n objects the checks
share (the chart, q, the symbolic Phi_c, its torsion and second derivatives,
the eigen laws and partial1) come from one process-wide cache, artifacts(n),
so each is built once per process, inside the first check that reads it.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import curvature as curvature_mod
from . import reptheory as rep_mod
from .deform import (
    EndomorphismField,
    TransformationLaw,
    build_Phi,
    build_q,
    invariance_check,
    phi_i_matrix,
    phi_prime_matrix,
    transformation_check,
    unscaled_flow_factor_check,
)
from .exactalg import UsageError, fd_check, flat_index
from .linalg import membership, span_subspace
from .model import Chart, ChartPoint, flow_point, flow_point_split_form, holonomy
from .sampling import ball_sweep, generic_off_singular, sample_points
from .torsion import TorsionAssembler, lemma_components, lemma_criterion

PASS = "pass"
FAIL = "fail"

SYMBOLIC = "symbolicIdentity"
ORACLE = "oracleAgreement"
DIMENSION = "dimension"
NUMERIC = "numeric"

#: Sweep points sampled in each ball of the nonvanishing sweep.
PER_RADIUS = 100
#: Chart sizes at which reptheory_suite checks the equivariance of partial1.
EQUIVARIANCE_NS = (2, 3)
#: Points at which curvature.not_pure_trace evaluates the kappa slice.
KAPPA_SAMPLES = 25
#: Sampled triples and the relative-error bound of the finite-difference oracle.
FD_TRIPLES = 200
FD_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    status: str
    kind: str
    detail: str
    point: str | None = None
    elapsed_ms: int = 0

    def as_dict(self, timings: bool = False) -> dict:
        out = {
            "checkId": self.check_id,
            "status": self.status,
            "kind": self.kind,
            "detail": self.detail,
        }
        if self.point is not None:
            out["point"] = self.point
        if timings:
            out["elapsedMs"] = self.elapsed_ms
        return out


def _run(check_id: str, kind: str, fn: Callable[[], tuple]) -> CheckReport:
    """Time fn and convert its (ok, detail, point) result into a report."""
    start = time.perf_counter_ns()
    try:
        ok, detail, point = fn()
    except Exception as exc:
        ok, detail, point = False, f"error: {exc}", None
    # Rounded to the nearest ms: flooring would move half a ms per check
    # out of the summed check times.
    elapsed_ms = (time.perf_counter_ns() - start + 500_000) // 1_000_000
    status = PASS if ok else FAIL
    return CheckReport(check_id, status, kind, detail, point, elapsed_ms)


def sort_reports(reports: Sequence[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: r.check_id)


class Artifacts:
    """The per-n objects that several suites share, each built on first use:
    chart, q, phi, laws, torsion, second_derivatives, kappa, spec, partial1
    and trace_vectors.  torsion, second_derivatives and kappa are lazy in
    turn, so each of their entries is built inside the first check that
    reads it.
    """

    def __init__(self, n: int):
        self.n = n

    @functools.cached_property
    def chart(self) -> Chart:
        return Chart(self.n)

    @functools.cached_property
    def q(self):
        return build_q(self.chart)

    @functools.cached_property
    def phi(self) -> EndomorphismField:
        """Phi_c with the parameters c kept symbolic."""
        return build_Phi(self.chart)

    @functools.cached_property
    def laws(self) -> tuple[TransformationLaw, ...]:
        """The eigen-section transformation laws, symbolic t."""
        return transformation_check(self.chart)

    @functools.cached_property
    def torsion(self) -> TorsionAssembler:
        """The torsion of the pulled frame of the symbolic phi."""
        return TorsionAssembler(self.phi)

    @functools.cached_property
    def second_derivatives(self) -> curvature_mod.SecondDerivativeTensor:
        return curvature_mod.nabla2_phi(self.phi)

    @functools.cached_property
    def kappa(self) -> curvature_mod.KappaProjection:
        return curvature_mod.project_kappa(self.second_derivatives)

    @functools.cached_property
    def spec(self) -> rep_mod.GradedAlgebraSpec:
        return rep_mod.GradedAlgebraSpec(self.n)

    @functools.cached_property
    def partial1(self) -> rep_mod.Partial1Map:
        return rep_mod.build_partial1(self.spec)

    @functools.cached_property
    def trace_vectors(self) -> tuple[dict[int, Fraction], ...]:
        """Both trace-embedding families, as sparse rows in the target space
        of partial1."""
        return rep_mod.trace_embedding_vectors(self.n)


@functools.cache
def artifacts(n: int) -> Artifacts:
    """The process-wide Artifacts for chart size n."""
    return Artifacts(n)


# -- flow ------------------------------------------------------------------------------


def flow_suite(ns: Sequence[int] = (3, 4)) -> list[CheckReport]:
    reports = []
    for n in ns:
        art = artifacts(n)
        chart = art.chart
        X = ChartPoint.generic(chart)
        t = chart.param("t")
        s = chart.param("s")

        def group_law(X=X, t=t, s=s):
            lhs = flow_point(flow_point(X, t), s)
            rhs = flow_point(X, s + t)
            return lhs == rhs, "z^s(z^t X) = z^(s+t) X with symbolic s, t", None

        def cocycle(X=X, t=t, s=s):
            lhs = holonomy(X, s + t)
            rhs = holonomy(flow_point(X, t), s) * holonomy(X, t)
            return lhs == rhs, "p_(s+t)(X) = p_s(z^t X) p_t(X) with symbolic s, t", None

        def split_agreement(X=X, t=t):
            lhs = flow_point(X, t)
            rhs = flow_point_split_form(X, t)
            return (
                lhs == rhs,
                "matrix flow formula agrees with the fixed-plus-rank-one form off x11 = 0",
                None,
            )

        def q_transformation(art=art, X=X, t=t):
            chart, q = art.chart, art.q
            u = chart.const(1) + t * chart.x(1, 1)
            moved = q.substitute(flow_point(X, t).substitution())
            return (
                moved * u * u == q,
                "q(z^t X) (1 + t x11)^2 = q(X) with symbolic t",
                None,
            )

        reports.append(_run(f"flow.group_law.n{n}", SYMBOLIC, group_law))
        reports.append(_run(f"flow.holonomy_cocycle.n{n}", SYMBOLIC, cocycle))
        reports.append(_run(f"flow.split_form_agreement.n{n}", SYMBOLIC, split_agreement))
        reports.append(_run(f"flow.q_transformation.n{n}", SYMBOLIC, q_transformation))
    return reports


# -- eigen-section transformation laws -------------------------------------------------


def _law_family(name: str) -> str:
    """kappa_i and kappa_tilde^i fall into one family each over i."""
    for family in ("kappa_tilde", "kappa"):
        if name.startswith(family):
            return family
    return name


def eigen_suite(ns: Sequence[int] = (3, 4)) -> list[CheckReport]:
    reports = []
    for n in ns:
        art = artifacts(n)
        for family in ("v", "iota", "v_tilde", "iota_tilde", "w", "kappa", "w_tilde", "kappa_tilde"):

            def law_check(art=art, family=family):
                group = [law for law in art.laws if _law_family(law.name) == family]
                if not group:
                    return False, f"no laws found for family {family}", None
                bad = [law.name for law in group if not law.holds]
                if bad:
                    return False, "law fails for: " + ", ".join(bad), None
                return True, f"{len(group)} law(s) hold with symbolic t", None

            reports.append(_run(f"eigen.law.{family}.n{n}", SYMBOLIC, law_check))
    return reports


# -- deformation family ----------------------------------------------------------------


def _expected_coefficients(chart: Chart):
    """(i', l, j', k) -> Sum_i c_i phi'[i'][j'] phi_i[k][l] / q, assembled
    from the displays, which are built once per call."""
    q = artifacts(chart.n).q
    mprime = phi_prime_matrix(chart)
    terms = [(chart.param(f"c{i}"), phi_i_matrix(chart, i)) for i in range(2, chart.n + 1)]

    def expected(i_prime: int, ell: int, j_prime: int, k: int):
        total = chart.const(0)
        for ci, phi_i in terms:
            total = total + ci * mprime[i_prime - 1, j_prime - 1] * phi_i[k - 1, ell - 1]
        return total / q

    return expected


def phi_suite(ns: Sequence[int] = (3, 4)) -> list[CheckReport]:
    reports = []
    for n in ns:
        art = artifacts(n)
        chart = art.chart

        def coefficients(art=art, chart=chart, n=n):
            phi = art.phi
            expected = _expected_coefficients(chart)
            for ip in (1, 2):
                for jp in (1, 2):
                    for l in range(1, n + 1):
                        for k in range(1, n + 1):
                            got = phi.coefficient(ip, l, jp, k)
                            want = expected(ip, l, jp, k)
                            if got != want:
                                return (
                                    False,
                                    f"coefficient ({ip}'{l}, {jp}'{k}) differs from the displayed expansion",
                                    None,
                                )
            return (
                True,
                "all 4n^2 coefficients match (1/q) phi' (x) sum_i c_i phi_i, symbolic c",
                None,
            )

        def nilpotent(art=art):
            phi = art.phi
            return (
                (phi * phi).is_zero(),
                "Phi o Phi = 0 with symbolic c",
                None,
            )

        def traces(art=art, n=n):
            phi = art.phi
            for l in range(1, n + 1):
                for k in range(1, n + 1):
                    if not phi.partial_trace_primed(l, k).num.is_zero():
                        return False, f"primed partial trace ({l},{k}) nonzero", None
            for ip in (1, 2):
                for jp in (1, 2):
                    if not phi.partial_trace_unprimed(ip, jp).num.is_zero():
                        return False, f"unprimed partial trace ({ip},{jp}) nonzero", None
            return True, "both partial traces vanish identically, symbolic c", None

        def inverse(art=art):
            phi = art.phi
            # (Id + Phi)(Id - Phi) = Id - Phi o Phi, so this fails unless Phi
            # is nilpotent of order two, the claim of deform.nilpotent.
            ident = EndomorphismField.identity(phi.table, phi.nrows)
            forward, backward = ident + phi, ident - phi
            return (
                forward * backward == ident and backward * forward == ident,
                "(Id + Phi)(Id - Phi) = Id in both orders, symbolic c",
                None,
            )

        def invariance(art=art):
            return (
                invariance_check(art.phi),
                "conjugation by the bundle actions returns Phi at the moved point, symbolic t and c",
                None,
            )

        def unscaled(chart=chart, n=n):
            for i in range(2, n + 1):
                if not unscaled_flow_factor_check(chart, i):
                    return False, f"unscaled generator {i} fails the (1+t x11)^2 law", None
            return (
                True,
                "unscaled generators transform with factor (1 + t x11)^2, symbolic t",
                None,
            )

        def degree_ledger(art=art, n=n):
            phi = art.phi
            q_poly = art.q.num
            table = art.chart.table
            checked = 0
            zero_derivatives = 0
            for ip in (1, 2):
                for jp in (1, 2):
                    for l in range(1, n + 1):
                        for k in range(1, n + 1):
                            row, col = flat_index(k, ip), flat_index(l, jp)
                            f = phi.rows[row][col]
                            if not (
                                f.num.chart_degree_range() == (4, 4)
                                and len(f.den) == 1
                                and f.den[0][1] == 1
                                and f.den[0][0] == q_poly
                            ):
                                return (
                                    False,
                                    f"coefficient ({ip}'{l}, {jp}'{k}) is not homogeneous degree 4 over q",
                                    None,
                                )
                            for i in range(1, n + 1):
                                for j in (1, 2):
                                    d = phi.derivative(row, col, table.x_index(i, j))
                                    if d.num.is_zero():
                                        zero_derivatives += 1
                                        continue
                                    if not (
                                        d.num.chart_degree_range() == (5, 5)
                                        and len(d.den) == 1
                                        and d.den[0][1] == 2
                                        and d.den[0][0] == q_poly
                                    ):
                                        return (
                                            False,
                                            f"derivative of ({ip}'{l}, {jp}'{k}) by x{i}{j} not degree 5 over q^2",
                                            None,
                                        )
                                    checked += 1
            return (
                True,
                f"{checked} nonzero first derivatives are homogeneous degree 5 over q^2 "
                f"({zero_derivatives} vanish); all coefficients degree 4 over q",
                None,
            )

        reports.append(_run(f"deform.coefficients.n{n}", SYMBOLIC, coefficients))
        reports.append(_run(f"deform.nilpotent.n{n}", SYMBOLIC, nilpotent))
        reports.append(_run(f"deform.partial_traces.n{n}", SYMBOLIC, traces))
        reports.append(_run(f"deform.inverse.n{n}", SYMBOLIC, inverse))
        reports.append(_run(f"deform.invariance.n{n}", SYMBOLIC, invariance))
        reports.append(_run(f"deform.unscaled_factor.n{n}", SYMBOLIC, unscaled))
        reports.append(_run(f"deform.degree_ledger.n{n}", SYMBOLIC, degree_ledger))
    return reports


# -- torsion bracket and the operator D ------------------------------------------------


def torsion_suite(ns: Sequence[int] = (3, 4)) -> list[CheckReport]:
    reports = []
    for n in ns:
        art = artifacts(n)
        chart = art.chart
        x11 = chart.x(1, 1)
        x12 = chart.x(1, 2)
        for s in range(2, n + 1):
            # T(E~^2'_s, E~^2'_1) and its bracket, built inside the first
            # check that reads them and shared with the second.
            f, g = flat_index(s, 2), flat_index(1, 2)
            cs = chart.param(f"c{s}")

            def bracket_matches(art=art, f=f, g=g, cs=cs, n=n, chart=chart, x11=x11, x12=x12):
                got, _ = art.torsion.pair(f, g)
                q = art.q
                factor = cs * x11 * x11 / q
                expected = [chart.const(0)] * (2 * n)
                for k in range(1, n + 1):
                    xk1 = chart.x(k, 1)
                    inner = chart.const(2) * xk1 * x12 / q
                    expected[flat_index(k, 2)] = factor * (xk1 - inner * x12)
                    expected[flat_index(k, 1)] = factor * (-(inner * x11))
                if tuple(expected) != tuple(got):
                    return False, "bracket differs from the closed form", None
                return (
                    True,
                    "[E~^2'_s, E~^2'_1] = (c_s x11^2/q) sum_k (x_k1 d^2'_k"
                    " - (2 x_k1 x12/q)(x11 d^1'_k + x12 d^2'_k))",
                    None,
                )

            def d_expansion(art=art, f=f, g=g, cs=cs, n=n, chart=chart, x11=x11, x12=x12):
                _, d = art.torsion.pair(f, g)
                two = chart.const(2)
                qi = art.q.inverse()
                qi2 = qi * qi
                for k in range(1, n + 1):
                    xk1 = chart.x(k, 1)
                    lead = two * cs * x11 * x11 * x11 * x12 * xk1 * qi2
                    d1 = d[flat_index(k, 1)]
                    d2 = d[flat_index(k, 2)]
                    want2 = -(cs * x11 * x11 * xk1) * qi + two * cs * x11 * x11 * x12 * x12 * xk1 * qi2
                    if d1 != lead or d2 != want2:
                        return False, f"D component k={k} differs", None
                return (
                    True,
                    "D(E_1')_k = 2 c_s x11^3 x12 x_k1 / q^2 exactly (remainder vanishes, so"
                    " every higher term trivially has net degree >= 3);"
                    " D(E_2')_k = -c_s x11^2 x_k1/q + 2 c_s x11^2 x12^2 x_k1/q^2",
                    None,
                )

            reports.append(_run(f"torsion.bracket.n{n}.s{s}", SYMBOLIC, bracket_matches))
            reports.append(_run(f"torsion.d_expansion.n{n}.s{s}", SYMBOLIC, d_expansion))
    return reports


def torsion_zero_suite(ns: Sequence[int] = (3,)) -> list[CheckReport]:
    reports = []
    for n in ns:
        chart = artifacts(n).chart

        def zero_deformation(chart=chart, n=n):
            phi = build_Phi(chart, [0] * (n - 1))
            assembler = TorsionAssembler(phi)
            for component in assembler.symbolic:
                if not component.num.is_zero():
                    return False, "a torsion entry is nonzero at c = 0", None
            return True, "c = 0 gives identically zero torsion in the pulled frame", None

        reports.append(_run(f"torsion.zero_deformation.n{n}", SYMBOLIC, zero_deformation))
    return reports


def _c_tag(c: Sequence[Fraction]) -> str:
    return "_".join(str(v).replace("/", "over").replace("-", "m") for v in c)


def validate_sweep(n: int, c: Sequence[Fraction], s: int, ball_count: int) -> None:
    """Raise UsageError unless the sweep can sample a meaningful point:
    2 <= s <= n, c_s != 0, and at least one radius."""
    if not (2 <= s <= n):
        raise UsageError(f"s must be in 2..{n}")
    if c[s - 2] == 0:
        raise UsageError("the sweep needs c_s != 0")
    if ball_count < 1:
        raise UsageError("the sweep needs at least one radius")


def density_check(
    n: int, c: Sequence[Fraction], s: int, seed: int = 0, ball_count: int = 8
) -> tuple[CheckReport, list[dict]]:
    """Sampled nonvanishing sweep; also returns the per-point verdict table.

    A request that cannot sample a meaningful point raises UsageError before
    any check runs, so it is never reported as a FAIL or a vacuous PASS.
    Both verdicts are unchanged by a positive scale of the torsion vector, so
    they run on the integer vector of TorsionAssembler.evaluate_scaled.  Phi
    at c, its torsion pairs (which read Phi's one table of first
    derivatives), the integer tables and the column index of the residual
    functionals of Im(partial1) are all built inside the check.
    """
    validate_sweep(n, c, s, ball_count)
    records: list[dict] = []

    def sweep():
        art = artifacts(n)
        assembler = TorsionAssembler(build_Phi(art.chart, c))
        image = art.partial1.image
        failures = 0
        first_bad = None
        total = 0
        for radius_exp, point in ball_sweep(
            art.chart, s, PER_RADIUS, range(1, ball_count + 1), seed
        ):
            vector = assembler.evaluate_scaled(point)
            lemma = lemma_criterion(vector, s, n)
            member = membership(image, vector)
            records.append(
                {
                    "point": point.format(),
                    "lemmaVerdict": lemma,
                    "membershipVerdict": member,
                }
            )
            if not lemma or member:
                failures += 1
                if first_bad is None:
                    first_bad = point.format()
            total += 1
        ok = failures == 0
        detail = (
            f"{total} points ({PER_RADIUS} per radius 2^-1..2^-{ball_count}):"
            " lemma criterion holds and the torsion class avoids Im(partial1)"
            if ok
            else f"{failures} of {total} sampled points fail the nonvanishing criterion"
        )
        return ok, detail, first_bad

    report = _run(f"torsion.density.n{n}.s{s}.c{_c_tag(c)}", NUMERIC, sweep)
    return report, records


# -- representation theory -------------------------------------------------------------


def reptheory_suite(ns: Sequence[int] = (2, 3, 4, 5), seed: int = 0) -> list[CheckReport]:
    reports = []
    for n in ns:
        # spec and partial1 are built inside the first check that reads them.
        art = artifacts(n)
        dims = rep_mod.decomposition_dims(n)

        def grading(art=art):
            return (
                art.spec.verify_grading(),
                "[g_i, g_j] lands in g_(i+j) for all basis pairs",
                None,
            )

        def rank_value(art=art, n=n):
            p1 = art.partial1
            expected = 2 * n * (n * n + 3) - 2 * n
            return (
                p1.rank == expected,
                f"rank(partial1) = {p1.rank} = dim domain - 2n",
                None,
            )

        def kernel(art=art, n=n):
            p1 = art.partial1
            return (
                p1.kernel_dim == 2 * n,
                f"ker(partial1) has dimension {p1.kernel_dim} = 2n (the first prolongation)",
                None,
            )

        def complement(art=art, dims=dims):
            p1 = art.partial1
            got = p1.target_dim - p1.rank
            return (
                got == dims.torsion_module_dim,
                f"coker(partial1) has dimension {got} = 2n(n-2)(n+1)",
                None,
            )

        def split_sum(dims=dims, n=n):
            a, b = dims.lambda_split
            return (
                a + b == n * (2 * n - 1)
                and a == n * (n + 1) // 2
                and b == 3 * n * (n - 1) // 2,
                f"Lambda^2 splits as {a} + {b} = {n * (2 * n - 1)}",
                None,
            )

        def trace_members(art=art):
            image = art.partial1.image
            vectors = art.trace_vectors
            for idx, vec in enumerate(vectors):
                if not membership(image, vec):
                    return False, f"trace embedding vector {idx} escapes Im(partial1)", None
            return (
                True,
                f"all {len(vectors)} trace-embedding vectors lie in Im(partial1)",
                None,
            )

        def trace_span(art=art, dims=dims):
            span = span_subspace(art.trace_vectors, art.partial1.target_dim)
            return (
                span.dim == dims.trace_span_dim,
                f"trace embeddings span dimension {span.dim} = n(n^2 - n + 4)",
                None,
            )

        def lemma_image(art=art, n=n):
            image = art.partial1.image
            for row in image.basis.values():
                hits = lemma_components(row, n)
                if hits:
                    return False, f"an Im(partial1) basis vector violates the span property (s={hits[0]})", None
            return (
                True,
                f"all {image.dim} image basis vectors keep T(xi,eta)E_1' in span(E_1, E_s)",
                None,
            )

        def equivariance(art=art, n=n, seed=seed):
            spec, p1 = art.spec, art.partial1
            rng = random.Random(seed + n)
            dim0 = spec.dim_gzero
            domain_dim = p1.domain_dim
            for trial in range(20):
                a_idx = rng.randrange(dim0)
                f_vec = [Fraction(rng.randint(-3, 3)) for _ in range(domain_dim)]
                lhs = p1.apply(rep_mod.act_on_domain(spec, a_idx, f_vec))
                rhs = rep_mod.act_on_target(spec, a_idx, p1.apply(f_vec))
                if tuple(lhs) != tuple(rhs):
                    return False, f"equivariance fails for basis element {a_idx}", None
            return True, "partial1(a.f) = a.partial1(f) on 20 sampled pairs", None

        reports.append(_run(f"reptheory.grading.n{n}", SYMBOLIC, grading))
        reports.append(_run(f"reptheory.rank.n{n}", DIMENSION, rank_value))
        reports.append(_run(f"reptheory.kernel.n{n}", DIMENSION, kernel))
        reports.append(_run(f"reptheory.complement.n{n}", DIMENSION, complement))
        reports.append(_run(f"reptheory.lambda_split.n{n}", DIMENSION, split_sum))
        reports.append(_run(f"reptheory.trace_membership.n{n}", DIMENSION, trace_members))
        reports.append(_run(f"reptheory.trace_span.n{n}", DIMENSION, trace_span))
        reports.append(_run(f"reptheory.lemma_image.n{n}", ORACLE, lemma_image))
        if n in EQUIVARIANCE_NS:
            reports.append(_run(f"reptheory.equivariance.n{n}", ORACLE, equivariance))
        if n == 2:
            reports.append(surjective_check(n))
    return reports


def surjective_check(n: int) -> CheckReport:
    """Whether partial1 is onto at n (it is exactly at n = 2)."""

    def surjective():
        p1 = artifacts(n).partial1
        if p1.rank == p1.target_dim:
            return True, f"partial1 is onto: rank {p1.rank} = dim target {p1.target_dim}", None
        return False, f"partial1 is not onto: rank {p1.rank} < dim target {p1.target_dim}", None

    return _run(f"reptheory.surjective.n{n}", DIMENSION, surjective)


def rank_certificate(n: int) -> dict:
    p1 = artifacts(n).partial1
    return {
        "n": n,
        "domainDim": p1.domain_dim,
        "targetDim": p1.target_dim,
        "rank": p1.rank,
        "kernelDim": p1.kernel_dim,
        "complementDim": p1.target_dim - p1.rank,
        "surjective": p1.rank == p1.target_dim,
    }


def dimension_table(n: int) -> dict:
    spec = artifacts(n).spec
    dims = rep_mod.decomposition_dims(n)
    return {
        "n": n,
        "dimGminus": spec.dim_gminus,
        "dimGzero": spec.dim_gzero,
        "dimGplus": spec.dim_gplus,
        "lambdaSplit": list(dims.lambda_split),
        "torsionModuleDim": dims.torsion_module_dim,
        "traceFamilyDims": list(dims.trace_family_dims),
        "traceOverlapDim": dims.trace_overlap_dim,
        "traceSpanDim": dims.trace_span_dim,
    }


# -- curvature -------------------------------------------------------------------------


def _display_second_derivatives(chart: Chart, r: int):
    """The three printed second-derivative formulas, built independently."""
    n = chart.n
    qi = artifacts(n).q.inverse()
    qi2 = qi * qi
    qi3 = qi2 * qi
    x11 = chart.x(1, 1)
    x12 = chart.x(1, 2)
    xr1 = chart.x(r, 1)
    e = x11 * x11 + x12 * x12
    zero = chart.const(0)
    a = zero
    b = zero
    cc = zero
    for i in range(2, n + 1):
        ci = chart.param(f"c{i}")
        base = ci * chart.x(i, 1) * xr1
        a = a + base * (
            qi - chart.const(2) * e * qi2 + chart.const(8) * x12 * x12 * x11 * x11 * qi3
        )
        b = b + base * (
            chart.const(2) * qi
            - chart.const(10) * x12 * x12 * qi2
            + chart.const(8) * x12 * x12 * x12 * x12 * qi3
        )
        cc = cc - base * (
            chart.const(2) * qi
            - chart.const(10) * x11 * x11 * qi2
            + chart.const(8) * x11 * x11 * x11 * x11 * qi3
        )
    return a, b, cc


def curvature_suite(ns: Sequence[int] = (3, 4)) -> list[CheckReport]:
    reports = []
    for n in ns:
        art = artifacts(n)

        def displays(art=art, n=n):
            d2 = art.second_derivatives
            for r in range(2, n + 1):
                a_want, b_want, c_want = _display_second_derivatives(art.chart, r)
                a_got = d2.entry(2, 1, 1, 1, 1, 1, 1, r)
                b_got = d2.entry(2, 1, 2, 1, 2, 1, 1, r)
                c_got = d2.entry(1, 1, 1, 1, 1, 1, 2, r)
                if a_got != a_want:
                    return False, f"grad^1_2' grad^1_1' Phi^1'1_1'r differs at r={r}", None
                if b_got != b_want:
                    return False, f"(grad^1_2')^2 Phi^2'1_1'r differs at r={r}", None
                if c_got != c_want:
                    return False, f"(grad^1_1')^2 Phi^1'1_2'r differs at r={r}", None
            return (
                True,
                "the three displayed second-derivative formulas hold for r = 2..n, symbolic c",
                None,
            )

        def trace_free(art=art, n=n):
            d2 = art.second_derivatives
            for r in range(1, n + 1):
                lhs = d2.entry(2, 1, 1, 1, 1, 1, 1, r)
                rhs = -d2.entry(1, 1, 2, 1, 2, 1, 2, r)
                if lhs != rhs:
                    return False, f"trace-freeness identity fails at r={r}", None
            return (
                True,
                "grad^1_2' grad^1_1' Phi^1'1_1'r = -grad^1_1' grad^1_2' Phi^2'1_2'r for all r",
                None,
            )

        def reduction(art=art, n=n):
            d2, kappa = art.second_derivatives, art.kappa
            half = Fraction(1, 2)
            for r in range(1, n + 1):
                a = d2.entry(2, 1, 1, 1, 1, 1, 1, r)
                b = d2.entry(2, 1, 2, 1, 2, 1, 1, r)
                cc = d2.entry(1, 1, 1, 1, 1, 1, 2, r)
                want = (a + a + b - cc).scale(half)
                if kappa.value((1, 1, 1), r) != want:
                    detail = f"projected component differs from (1/2)(2A + B - C) at r={r}"
                    return False, detail, None
            return (
                True,
                "kappa^111_2'1'r = (1/2)(2A + B - C) for all r after steps 1-3",
                None,
            )

        def kappa_match(art=art, n=n):
            kappa = art.kappa
            for r in range(2, n + 1):
                want = curvature_mod.kappa_closed_form(art.chart, r)
                if kappa.value((1, 1, 1), r) != want:
                    return False, f"kappa closed form fails at r={r}", None
            return (
                True,
                "kappa^111_2'1'r = sum_i c_i x_i1 x_r1 (3/q - 7e/q^2 + 4e^2/q^3),"
                " e = x11^2 + x12^2, for r = 2..n",
                None,
            )

        reports.append(_run(f"curvature.displays.n{n}", SYMBOLIC, displays))
        reports.append(_run(f"curvature.trace_free.n{n}", SYMBOLIC, trace_free))
        reports.append(_run(f"curvature.reduction.n{n}", SYMBOLIC, reduction))
        reports.append(_run(f"curvature.kappa.n{n}", SYMBOLIC, kappa_match))
    return reports


def curvature_numeric_suite(n: int, seed: int = 0) -> list[CheckReport]:
    """The sampled not-pure-trace check and the mixed-partial symmetry at n,
    on the second derivatives and kappa that curvature_suite reads."""
    art = artifacts(n)
    c_unit = [Fraction(1)] + [Fraction(0)] * (n - 2)

    def accept(entries):
        return generic_off_singular(entries, 2) and entries[1][0] != 0

    def not_pure_trace_samples():
        kappa = art.kappa
        subspace = curvature_mod.trace_subspace(n)
        rng = random.Random(seed)
        checked = 0
        for radius_exp in range(1, 6):
            for point in sample_points(art.chart, radius_exp, KAPPA_SAMPLES // 5, rng, accept):
                values = kappa.evaluate_slice(point, c=c_unit)
                if not curvature_mod.not_pure_trace(values, subspace):
                    return (
                        False,
                        "evaluated kappa slice sits inside the trace subspace",
                        point.format(),
                    )
                checked += 1
        return (
            True,
            f"kappa slice avoids the trace subspace at {checked} sampled points, c = (1, 0, ...)",
            None,
        )

    def mixed_partials():
        return (
            art.second_derivatives.swap_symmetric(),
            "second derivatives are symmetric in the two derivative slots (flat connection)",
            None,
        )

    return [
        _run(f"curvature.not_pure_trace.n{n}", NUMERIC, not_pure_trace_samples),
        _run(f"curvature.mixed_partials.n{n}", SYMBOLIC, mixed_partials),
    ]


# -- finite-difference oracle ----------------------------------------------------------


def fd_oracle_suite(n: int = 3, seed: int = 0) -> list[CheckReport]:
    """Central-difference agreement on sampled (coefficient, variable, point) triples.

    Points have dyadic coordinates with magnitude in [1/4, 1], and triples
    where the exact derivative is smaller than 1/4 are redrawn: the relative
    metric is only meaningful away from zero crossings of the derivative,
    and a wrong symbolic derivative would still differ by order one there.
    """
    chart = artifacts(n).chart
    c_values = [Fraction(1), Fraction(2)] + [Fraction(1)] * (n - 3)
    step = Fraction(1, 10_000)
    floor = Fraction(1, 4)

    def draw_coord(rng):
        mag = Fraction(rng.randint(8, 32), 32)
        return mag if rng.random() < 0.5 else -mag

    def oracle():
        phi = build_Phi(chart, c_values)
        rng = random.Random(seed)
        worst = 0.0
        worst_where = None
        count = 0
        attempts = 0
        while count < FD_TRIPLES:
            attempts += 1
            if attempts > 100 * FD_TRIPLES:
                return False, "conditioning filter rejects too many triples", None
            point = ChartPoint(
                chart, [[draw_coord(rng) for _ in range(2)] for _ in range(n)]
            )
            vec = point.evaluation_vector(c=c_values)
            ip = rng.randint(1, 2)
            jp = rng.randint(1, 2)
            l = rng.randint(1, n)
            k = rng.randint(1, n)
            var = chart.table.x_index(rng.randint(1, n), rng.randint(1, 2))
            f = phi.coefficient(ip, l, jp, k)
            if abs(f.differentiate(var).evaluate(vec)) < floor:
                continue
            rel_error = fd_check(f, var, vec, step)
            if rel_error > worst:
                worst = rel_error
                worst_where = point.format()
            if rel_error >= FD_TOLERANCE:
                return (
                    False,
                    f"relative error {rel_error:.3e} exceeds {FD_TOLERANCE:.0e}",
                    point.format(),
                )
            count += 1
        return (
            True,
            f"central differences match exact derivatives on {FD_TRIPLES} triples;"
            f" worst relative error {worst:.3e}",
            worst_where,
        )

    return [_run(f"exactalg.fd_oracle.n{n}", NUMERIC, oracle)]


# -- assembled suites ------------------------------------------------------------------


def acceptance_suite(seed: int = 0, ball_count: int = 8) -> list[CheckReport]:
    """Every check backing the acceptance gate, in deterministic order."""
    reports: list[CheckReport] = []
    reports += flow_suite((3, 4))
    reports += eigen_suite((3, 4))
    reports += phi_suite((3, 4))
    reports += torsion_suite((3, 4))
    reports += torsion_zero_suite((3,))
    for c in ([Fraction(1), Fraction(0)], [Fraction(2), Fraction(-3)]):
        report, _ = density_check(3, c, 2, seed, ball_count)
        reports.append(report)
    reports += reptheory_suite((2, 3, 4, 5), seed)
    reports += curvature_suite((3, 4))
    reports += curvature_numeric_suite(3, seed)
    reports += fd_oracle_suite(3, seed)
    return sort_reports(reports)


def quick_suite(n: int, seed: int = 0) -> list[CheckReport]:
    """Symbolic checks plus small samples for a single n (verify without --all)."""
    reports: list[CheckReport] = []
    reports += flow_suite((n,))
    reports += eigen_suite((n,))
    if n >= 3:
        reports += phi_suite((n,))
        reports += torsion_suite((n,))
        reports += torsion_zero_suite((n,))
        reports += curvature_suite((n,))
    reports += reptheory_suite((n,), seed)
    return sort_reports(reports)
