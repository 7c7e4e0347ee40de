"""Named verification checks shared by the CLI and the test suite.

Every check runs one mathematical claim to ground and returns a CheckReport.
Symbolic checks compare rational functions with tolerance zero; numeric
checks evaluate at deterministic sampled points.  Check ids are stable
strings, so report streams sort reproducibly.  The per-n objects the checks
share (the chart, q, the generic flow frame, the symbolic Phi_c, its torsion
and second derivatives, the eigen laws and partial1) come from one
process-wide cache, artifacts(n), so each is built once per process, inside
the first check that reads it.

Every suite takes one n; _suite_table gives each its n values under
verify --all and under verify --n.  eigen_suite reports each family of
deform.EIGEN_FAMILIES apart.  The sampled kappa check tests the slice
against the trace subspace with linalg.membership.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from typing import Callable, Sequence

from . import curvature as curvature_mod
from . import reptheory as rep_mod
from .deform import (
    EIGEN_FAMILIES,
    EndomorphismField,
    build_Phi,
    build_q,
    invariance_check,
    phi_i_matrix,
    phi_prime_matrix,
    transformation_check,
    unscaled_flow_factor_check,
)
from .exactalg import (
    Dual,
    ScaledValues,
    UsageError,
    coerce_rational,
    dot,
    eps_part,
    flat_index,
    substitute_all,
)
from .linalg import membership, span_subspace
from .model import Chart, GenericFlow, flow_point, flow_point_split_form, holonomy
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
#: Points at which the check curvature.not_pure_trace.n{n} evaluates the kappa slice.
KAPPA_SAMPLES = 25


class CheckReport:
    __slots__ = ("check_id", "status", "kind", "detail", "point", "elapsed_ms")

    def __init__(
        self,
        check_id: str,
        status: str,
        kind: str,
        detail: str,
        point: str | None = None,
        elapsed_ms: int = 0,
    ):
        self.check_id = check_id
        self.status = status
        self.kind = kind
        self.detail = detail
        self.point = point
        self.elapsed_ms = elapsed_ms

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
    """Time fn and convert its (ok, detail, point) result into a report.

    fn runs before _run returns, so a check closure defined in a loop reads
    the loop's variables as they are in that iteration."""
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
    chart, q, flow, phi, laws, torsion, second_derivatives, kappa, spec,
    partial1 and trace_vectors.  flow, torsion, second_derivatives and kappa
    are lazy in turn, so each of their members is built inside the first
    check that reads it.
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
    def flow(self) -> GenericFlow:
        """z^t at the generic point, t symbolic: the one frame that the
        flow checks, the eigen laws and the invariance checks read."""
        return GenericFlow(self.chart)

    @functools.cached_property
    def phi(self) -> EndomorphismField:
        """Phi_c with the parameters c kept symbolic."""
        return build_Phi(self.chart)

    @functools.cached_property
    def laws(self) -> dict[str, dict[str, bool]]:
        """The eigen-section transformation laws, symbolic t, as
        {family: {law name: holds}}."""
        return transformation_check(self.flow)

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


def flow_suite(n: int) -> list[CheckReport]:
    art = artifacts(n)
    s = art.chart.param("s")

    def group_law():
        flow = art.flow
        lhs = flow_point(flow.moved, s)
        rhs = flow_point(flow.point, s + flow.t)
        return lhs == rhs, "z^s(z^t X) = z^(s+t) X with symbolic s, t", None

    def cocycle():
        flow = art.flow
        X, t = flow.point, flow.t
        lhs = holonomy(X, s + t)
        rhs = holonomy(flow.moved, s) * holonomy(X, t)
        return lhs == rhs, "p_(s+t)(X) = p_s(z^t X) p_t(X) with symbolic s, t", None

    def split_agreement():
        flow = art.flow
        lhs = flow.moved
        rhs = flow_point_split_form(flow.point, flow.t)
        return (
            lhs == rhs,
            "matrix flow formula agrees with the fixed-plus-rank-one form off x11 = 0",
            None,
        )

    def q_transformation():
        chart, q, flow = art.chart, art.q, art.flow
        u = chart.const(1) + flow.t * chart.x(1, 1)
        moved = q.substitute(flow.substitution)
        return (
            moved * u * u == q,
            "q(z^t X) (1 + t x11)^2 = q(X) with symbolic t",
            None,
        )

    return [
        _run(f"flow.group_law.n{n}", SYMBOLIC, group_law),
        _run(f"flow.holonomy_cocycle.n{n}", SYMBOLIC, cocycle),
        _run(f"flow.split_form_agreement.n{n}", SYMBOLIC, split_agreement),
        _run(f"flow.q_transformation.n{n}", SYMBOLIC, q_transformation),
    ]


# -- eigen-section transformation laws -------------------------------------------------


def eigen_suite(n: int) -> list[CheckReport]:
    art = artifacts(n)
    reports = []
    for family in EIGEN_FAMILIES:

        def law_check():
            group = art.laws.get(family)
            if not group:
                return False, f"no laws found for family {family}", None
            bad = [name for name, holds in group.items() if not holds]
            if bad:
                return False, "law fails for: " + ", ".join(bad), None
            return True, f"{len(group)} law(s) hold with symbolic t", None

        reports.append(_run(f"eigen.law.{family}.n{n}", SYMBOLIC, law_check))
    return reports


# -- deformation family ----------------------------------------------------------------


def _expected_coefficients(chart: Chart):
    """(i', l, j', k) -> Sum_i c_i phi'[i'][j'] phi_i[k][l] / q, assembled
    from the displays, which are built once per call, over the q of
    Chart.sf_sum."""
    q = chart.sf_sum()
    mprime = phi_prime_matrix(chart)
    terms = [(chart.param(f"c{i}"), phi_i_matrix(chart, i)) for i in range(2, chart.n + 1)]

    def expected(i_prime: int, ell: int, j_prime: int, k: int):
        total = chart.const(0)
        for ci, phi_i in terms:
            total = total + ci * mprime[i_prime - 1, j_prime - 1] * phi_i[k - 1, ell - 1]
        return total / q

    return expected


def phi_suite(n: int) -> list[CheckReport]:
    art = artifacts(n)
    chart = art.chart

    def coefficients():
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

    def nilpotent():
        phi = art.phi
        return (
            (phi * phi).is_zero(),
            "Phi o Phi = 0 with symbolic c",
            None,
        )

    def traces():
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

    def inverse():
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

    def invariance():
        return (
            invariance_check(art.phi, art.flow),
            "conjugation by the bundle actions returns Phi at the moved point, symbolic t and c",
            None,
        )

    def unscaled():
        for i in range(2, n + 1):
            if not unscaled_flow_factor_check(art.flow, i):
                return False, f"unscaled generator {i} fails the (1+t x11)^2 law", None
        return (
            True,
            "unscaled generators transform with factor (1 + t x11)^2, symbolic t",
            None,
        )

    def degree_ledger():
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

    return [
        _run(f"deform.coefficients.n{n}", SYMBOLIC, coefficients),
        _run(f"deform.nilpotent.n{n}", SYMBOLIC, nilpotent),
        _run(f"deform.partial_traces.n{n}", SYMBOLIC, traces),
        _run(f"deform.inverse.n{n}", SYMBOLIC, inverse),
        _run(f"deform.invariance.n{n}", SYMBOLIC, invariance),
        _run(f"deform.unscaled_factor.n{n}", SYMBOLIC, unscaled),
        _run(f"deform.degree_ledger.n{n}", SYMBOLIC, degree_ledger),
    ]


# -- torsion bracket and the operator D ------------------------------------------------


def torsion_suite(n: int) -> list[CheckReport]:
    art = artifacts(n)
    chart = art.chart
    x11 = chart.x(1, 1)
    x12 = chart.x(1, 2)
    reports = []
    for s in range(2, n + 1):
        # [E~^2'_s, E~^2'_1], built inside the first check that reads it
        # and shared with the second; the torsion is its negation.
        f, g = flat_index(s, 2), flat_index(1, 2)
        cs = chart.param(f"c{s}")

        def bracket_matches():
            got = art.torsion.pair(f, g)
            q = chart.sf_sum()
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

        def d_expansion():
            d = [-v for v in art.torsion.pair(f, g)]
            two = chart.const(2)
            qi = chart.sf_sum().inverse()
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


def phi_kills_brackets_suite(n: int) -> list[CheckReport]:
    """Phi theta[E~_a, E~_b] = 0 for every pair a < b of pulled-frame fields,
    symbolic c: the identity by which TorsionAssembler reads the torsion
    (Id + Phi) theta(-bracket) as the negated bracket.  It builds all
    n(2n - 1) pairs."""
    art = artifacts(n)

    def kills():
        phi, size = art.phi, 2 * n
        pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
        for a, b in pairs:
            if not all(v.is_zero() for v in phi.apply(art.torsion.pair(a, b))):
                return False, f"Phi theta[E~_{a}, E~_{b}] is nonzero (flat indices)", None
        return (
            True,
            f"Phi theta[E~_a, E~_b] = 0 for all {len(pairs)} pairs a < b of"
            " pulled-frame fields, symbolic c",
            None,
        )

    return [_run(f"torsion.phi_kills_brackets.n{n}", SYMBOLIC, kills)]


def frame_quadratic_cancels_suite(n: int) -> list[CheckReport]:
    """sum_a (Phi[a, f] d_a Phi[b, g] - Phi[a, g] d_a Phi[b, f]) = 0 for every
    b and every pair f < g, symbolic c: the Phi dPhi part of the pulled-frame
    bracket cancels, so with phi_kills_brackets the torsion is minus the
    antisymmetrised derivative of Phi that TorsionAssembler.pair reads.  It
    sums over all n(2n - 1) pairs."""
    art = artifacts(n)

    def cancels():
        phi, size = art.phi, 2 * n
        support = [[(a, v) for a, v in enumerate(c) if not v.is_zero()] for c in zip(*phi.rows)]
        pairs = [(f, g) for f in range(size) for g in range(f + 1, size)]
        for f, g in pairs:
            for b in range(size):
                terms = [(v, phi.derivative(b, g, a)) for a, v in support[f]]
                terms += [(-v, phi.derivative(b, f, a)) for a, v in support[g]]
                if not dot(phi.table, terms).is_zero():
                    detail = f"the Phi dPhi term of [E~_{f}, E~_{g}] is nonzero (flat indices)"
                    return False, detail, None
        detail = "sum_a (Phi[a,f] d_a Phi[b,g] - Phi[a,g] d_a Phi[b,f]) = 0 for all"
        return True, f"{detail} {len(pairs)} pairs f < g, symbolic c", None

    return [_run(f"torsion.frame_quadratic_cancels.n{n}", SYMBOLIC, cancels)]


def torsion_zero_suite(n: int) -> list[CheckReport]:
    """The torsion of the symbolic Phi with every c_i set to 0 vanishes: the
    sweep's own path at c = 0, TorsionAssembler over the substituted Phi,
    so the symbolic-c torsion is never built."""
    art = artifacts(n)

    def zero_deformation():
        flat = TorsionAssembler(art.phi.substitute(art.chart.c_substitution([0] * (n - 1))))
        if not all(v.is_zero() for v in flat.symbolic):
            return False, "a torsion entry is nonzero at c = 0", None
        return True, "c = 0 gives identically zero torsion in the pulled frame", None

    return [_run(f"torsion.zero_deformation.n{n}", SYMBOLIC, zero_deformation)]


def _c_tag(c: Sequence[Fraction]) -> str:
    return "_".join(str(v).replace("/", "over").replace("-", "m") for v in c)


def density_check(
    n: int, c: Sequence[Fraction], s: int, seed: int, ball_count: int
) -> tuple[CheckReport, list[dict]]:
    """Sampled nonvanishing sweep; also returns the per-point verdict table.

    c is coerced to exact rationals.  Unless c holds n - 1 exact rationals
    (Chart.c_substitution counts them), 2 <= s <= n, c_s != 0 and there is
    at least one radius, UsageError is raised before any check runs, so a
    request that cannot sample a meaningful point is never reported as a
    FAIL or a vacuous PASS.  Both verdicts are unchanged by a positive scale
    of the torsion vector, so they run on the integer vector of
    TorsionAssembler.evaluate.  Phi at c (the shared symbolic Phi with
    Chart.c_substitution(c) substituted), its torsion pairs (which read that
    Phi's one table of first derivatives), the integer evaluator and the
    column index of the residual functionals of Im(partial1) are all built
    inside the check.
    """
    c = tuple(coerce_rational(v) for v in c)
    Chart(n).c_substitution(c)
    if not (2 <= s <= n):
        raise UsageError(f"s must be in 2..{n}")
    if c[s - 2] == 0:
        raise UsageError("the sweep needs c_s != 0")
    if ball_count < 1:
        raise UsageError("the sweep needs at least one radius")
    records: list[dict] = []

    def sweep():
        art = artifacts(n)
        assembler = TorsionAssembler(art.phi.substitute(art.chart.c_substitution(c)))
        image = art.partial1.image
        failures = 0
        first_bad = None
        total = 0
        for point in ball_sweep(art.chart, s, PER_RADIUS, range(1, ball_count + 1), seed):
            vector = assembler.evaluate(point)
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


def reptheory_suite(n: int, seed: int) -> list[CheckReport]:
    # spec and partial1 are built inside the first check that reads them.
    art = artifacts(n)
    dims = rep_mod.decomposition_dims(n)

    def grading():
        return (
            art.spec.verify_grading(),
            "[g_i, g_j] lands in g_(i+j) for all basis pairs",
            None,
        )

    def rank_value():
        p1 = art.partial1
        expected = 2 * n * (n * n + 3) - 2 * n
        return (
            p1.rank == expected,
            f"rank(partial1) = {p1.rank} = dim domain - 2n",
            None,
        )

    def kernel():
        p1 = art.partial1
        return (
            p1.kernel_dim == 2 * n,
            f"ker(partial1) has dimension {p1.kernel_dim} = 2n (the first prolongation)",
            None,
        )

    def complement():
        p1 = art.partial1
        got = p1.target_dim - p1.rank
        return (
            got == dims.torsion_module_dim,
            f"coker(partial1) has dimension {got} = 2n(n-2)(n+1)",
            None,
        )

    def split_sum():
        a, b = dims.lambda_split
        return (
            a + b == n * (2 * n - 1)
            and a == n * (n + 1) // 2
            and b == 3 * n * (n - 1) // 2,
            f"Lambda^2 splits as {a} + {b} = {n * (2 * n - 1)}",
            None,
        )

    def trace_members():
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

    def trace_span():
        span = span_subspace(art.trace_vectors, art.partial1.target_dim)
        return (
            span.dim == dims.trace_span_dim,
            f"trace embeddings span dimension {span.dim} = n(n^2 - n + 4)",
            None,
        )

    def lemma_image():
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

    def equivariance():
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

    reports = [
        _run(f"reptheory.grading.n{n}", SYMBOLIC, grading),
        _run(f"reptheory.rank.n{n}", DIMENSION, rank_value),
        _run(f"reptheory.kernel.n{n}", DIMENSION, kernel),
        _run(f"reptheory.complement.n{n}", DIMENSION, complement),
        _run(f"reptheory.lambda_split.n{n}", DIMENSION, split_sum),
        _run(f"reptheory.trace_membership.n{n}", DIMENSION, trace_members),
        _run(f"reptheory.trace_span.n{n}", DIMENSION, trace_span),
        _run(f"reptheory.lemma_image.n{n}", ORACLE, lemma_image),
    ]
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
    """The three printed second-derivative formulas, built independently,
    over the q of Chart.sf_sum.  Each is sum_i c_i x_i1 x_r1 times a shape
    free of i, summed by one dot."""
    n = chart.n
    qi = chart.sf_sum().inverse()
    qi2 = qi * qi
    qi3 = qi2 * qi
    x11 = chart.x(1, 1)
    x12 = chart.x(1, 2)
    xr1 = chart.x(r, 1)
    e = x11 * x11 + x12 * x12
    shapes = (
        qi - chart.const(2) * e * qi2 + chart.const(8) * x12 * x12 * x11 * x11 * qi3,
        chart.const(2) * qi
        - chart.const(10) * x12 * x12 * qi2
        + chart.const(8) * x12 * x12 * x12 * x12 * qi3,
        -(
            chart.const(2) * qi
            - chart.const(10) * x11 * x11 * qi2
            + chart.const(8) * x11 * x11 * x11 * x11 * qi3
        ),
    )
    bases = [chart.param(f"c{i}") * chart.x(i, 1) * xr1 for i in range(2, n + 1)]
    return tuple(dot(chart.table, [(base, shape) for base in bases]) for shape in shapes)


def curvature_suite(n: int) -> list[CheckReport]:
    art = artifacts(n)

    def displays():
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

    def trace_free():
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

    def reduction():
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

    def kappa_match():
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

    return [
        _run(f"curvature.displays.n{n}", SYMBOLIC, displays),
        _run(f"curvature.trace_free.n{n}", SYMBOLIC, trace_free),
        _run(f"curvature.reduction.n{n}", SYMBOLIC, reduction),
        _run(f"curvature.kappa.n{n}", SYMBOLIC, kappa_match),
    ]


def curvature_numeric_suite(n: int, seed: int) -> list[CheckReport]:
    """The sampled not-pure-trace check and the mixed-partial symmetry at n,
    on the second derivatives and kappa that curvature_suite reads."""
    art = artifacts(n)

    def accept(entries):
        return generic_off_singular(entries, 2) and entries[1][0] != 0

    def not_pure_trace_samples():
        c_unit = art.chart.c_substitution([1] + [0] * (n - 2))
        slice_values = ScaledValues(substitute_all(art.kappa.flat_slice(), c_unit))
        subspace = curvature_mod.trace_subspace(n)
        rng = random.Random(seed)
        checked = 0
        for radius_exp in range(1, 6):
            for point in sample_points(art.chart, radius_exp, KAPPA_SAMPLES // 5, rng, accept):
                values = slice_values.at(point.evaluation_vector())
                if membership(subspace, values):
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


# -- derivative oracle -----------------------------------------------------------------


def derivative_oracle_suite(n: int, seed: int) -> list[CheckReport]:
    """Phi's derivatives against exact forward-mode evaluation, by equality.

    Each chart-variable key (row, col, idx) of art.phi's shared table of
    first derivatives, and each of the three displayed second derivatives of
    art.second_derivatives for r = 2..n, is evaluated at its own sampled
    point, with no zero coordinate, and compared with the dual or hyper-dual
    value of its entry of Phi there (see exactalg.Dual).  That value never
    calls differentiate, so a wrong table entry or quotient rule shows.  c =
    (1, 2, 1, ...) is bound by Chart.c_substitution, substituted into Phi
    and into the compared table entries, one batch each.
    """
    # (ip, j, lp, m, pp, o, qp) of the three displays, as in curvature.displays
    displays = ((2, 1, 1, 1, 1, 1, 1), (2, 1, 2, 1, 2, 1, 1), (1, 1, 1, 1, 1, 1, 2))

    def oracle():
        art = artifacts(n)
        d2, table = art.second_derivatives, art.chart.table
        c_values = art.chart.c_substitution([1, 2] + [1] * (n - 3))
        phi = art.phi.substitute(c_values)
        xs = [table.x_index(i, j) for i in range(1, n + 1) for j in (1, 2)]
        keys = [(row, col, idx) for row in range(2 * n) for col in range(2 * n) for idx in xs]
        first = len(keys)
        keys += [(*display, r) for r in range(2, n + 1) for display in displays]
        wants = substitute_all(
            [art.phi.derivative(*key) if len(key) == 3 else d2.entry(*key) for key in keys], c_values
        )
        points = sample_points(art.chart, 1, len(keys), random.Random(seed), lambda e: all(map(all, e)))
        for key, want, point in zip(keys, wants, points):
            vec = point.evaluation_vector()
            seeded = list(vec)
            if len(key) == 3:
                row, col, idx = key
                seeded[idx] = Dual(vec[idx], 1)
                got = eps_part(phi.rows[row][col].evaluate(seeded))
            else:
                ip, j, lp, m, pp, o, qp, r = key
                a, b = table.x_index(j, ip), table.x_index(m, lp)
                seeded[a] = Dual(Dual(vec[a], 1), 0)
                seeded[b] = seeded[b] + Dual(0, 1)
                entry = phi.rows[flat_index(r, pp)][flat_index(o, qp)]
                got = eps_part(eps_part(entry.evaluate(seeded)))
            if want.evaluate(vec) != got:
                return False, f"derivative {key} of Phi differs from its dual value", point.format()
        return (
            True,
            f"{first} first and {len(keys) - first} displayed second derivatives of"
            " Phi equal their dual and hyper-dual values, one sampled point each, c = (1, 2, ...)",
            None,
        )

    return [_run(f"exactalg.derivative_oracle.n{n}", ORACLE, oracle)]


# -- assembled suites ------------------------------------------------------------------


def _suite_table(seed: int, ball_count: int | None = None):
    """Rows (suite of n, n values under verify --all, least n under verify
    --n or None for never) with the seed, the sweep's c values and radii
    bound; quick_suite never runs the sweep, so it gives no ball_count.
    Built per call, so a suite patched by name in this module is run."""
    return (
        (flow_suite, (3, 4), 2),
        (eigen_suite, (3, 4), 2),
        (phi_suite, (3, 4), 3),
        (torsion_suite, (3, 4), 3),
        (phi_kills_brackets_suite, (3, 4), None),
        (frame_quadratic_cancels_suite, (3, 4), None),
        (torsion_zero_suite, (3, 4), 3),
        (lambda n: [density_check(n, c, 2, seed, ball_count)[0] for c in ((1, 0), (2, -3))], (3,), None),
        (lambda n: reptheory_suite(n, seed), (2, 3, 4, 5), 2),
        (curvature_suite, (3, 4), 3),
        (lambda n: curvature_numeric_suite(n, seed), (3,), None),
        (lambda n: derivative_oracle_suite(n, seed), (3,), None),
    )


def acceptance_suite(seed: int, ball_count: int) -> list[CheckReport]:
    """Every check backing the acceptance gate: each suite of _suite_table
    over its verify --all n values before the next."""
    rows = _suite_table(seed, ball_count)
    return sort_reports([r for suite, ns, _ in rows for n in ns for r in suite(n)])


def quick_suite(n: int, seed: int) -> list[CheckReport]:
    """verify without --all: each suite of _suite_table from its least n on."""
    rows = [(suite, least) for suite, _, least in _suite_table(seed) if least is not None]
    return sort_reports([r for suite, least in rows if least <= n for r in suite(n)])
