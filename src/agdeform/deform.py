"""Eigen-sections, the endomorphism fields phi', phi_i, and the deformation Phi_c.

Phi_c = sum_i c_i Phi_i with Phi_i = (1/q) phi' (x) phi_i is a section of
End_0(E*) (x) End_0(F); it is nilpotent of order two and invariant under the
flow.  Coefficients Phi^{i'l}_{j'k} are taken in the frame
E^{i'l}_{j'k} = E^{i'}_{j'} (x) E_k^l, where E^{i'}_{j'} sends E^{j'} to E^{i'}
and E_k^l sends E_l to E_k, so the action on a section psi of E* (x) F reads
(Phi psi)^{i'}_k = sum_{j',l} Phi^{i'l}_{j'k} psi^{j'}_l.

A field is its operator matrix on E* (x) F = g_{-1}, a SymbolicMatrix in
the flat basis of exactalg.flat_index, the chart variable order x11, x12,
x21, ...; EndomorphismField.coefficient maps Phi^{i'l}_{j'k} to its matrix
entry.  Nilpotency makes Id - Phi the inverse of the deformed frame map
Id + Phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import Polynomial, RationalFunction, UsageError, flat_index
from .model import Chart, ChartPoint, SymbolicMatrix, bundle_actions, flow_point


# -- eigen-sections ------------------------------------------------------------------


@dataclass(frozen=True)
class EigenSections:
    """Component vectors of the flow eigen-sections at the generic point.

    E-frame {E_1', E_2'} for v, iota; E*-frame {E^1', E^2'} for v_tilde,
    iota_tilde; F-frame {E_1..E_n} for w and kappa[i]; F*-frame for w_tilde
    and kappa_tilde[i].  kappa and kappa_tilde are indexed by i = 2..n
    (position i-2).
    """

    v: tuple[RationalFunction, ...]
    iota: tuple[RationalFunction, ...]
    v_tilde: tuple[RationalFunction, ...]
    iota_tilde: tuple[RationalFunction, ...]
    w: tuple[RationalFunction, ...]
    kappa: tuple[tuple[RationalFunction, ...], ...]
    w_tilde: tuple[RationalFunction, ...]
    kappa_tilde: tuple[tuple[RationalFunction, ...], ...]


def eigen_sections(chart: Chart) -> EigenSections:
    n = chart.n
    zero = chart.const(0)
    one = chart.const(1)

    def unit(size: int, idx: int) -> tuple[RationalFunction, ...]:
        return tuple(one if k == idx else zero for k in range(size))

    w = tuple(chart.x(k, 1) for k in range(1, n + 1))
    kappa = tuple(unit(n, i - 1) for i in range(2, n + 1))
    kappa_tilde = []
    for i in range(2, n + 1):
        comp = [zero] * n
        comp[0] = -chart.x(i, 1)
        comp[i - 1] = chart.x(1, 1)
        kappa_tilde.append(tuple(comp))
    return EigenSections(
        v=(-chart.x(1, 2), chart.x(1, 1)),
        iota=unit(2, 0),
        v_tilde=unit(2, 1),
        iota_tilde=(chart.x(1, 1), chart.x(1, 2)),
        w=w,
        kappa=kappa,
        w_tilde=unit(n, 0),
        kappa_tilde=tuple(kappa_tilde),
    )


@dataclass(frozen=True)
class TransformationLaw:
    """Whether one eigen-section law action . sec(X) = factor . sec(z^t X) holds."""

    name: str
    holds: bool


def transformation_check(chart: Chart) -> tuple[TransformationLaw, ...]:
    """Verify all eight transformation laws as exact identities in x and a
    symbolic flow time t.

    E-sections transform by the E action, dual sections by the stored
    column-convention dual matrices.  The scale factors are (1 + t x11) for
    v, iota, w_tilde, kappa_tilde^i and 1 for v_tilde, iota_tilde, w,
    kappa_i.
    """
    t = chart.param("t")
    sections = eigen_sections(chart)
    generic = ChartPoint.generic(chart)
    actions = bundle_actions(generic, t)
    flowed = flow_point(generic, t).substitution()
    one = chart.const(1)
    u = one + t * chart.x(1, 1)

    cases: list[tuple[str, SymbolicMatrix, tuple[RationalFunction, ...], RationalFunction]] = [
        ("v", actions.on_e, sections.v, u),
        ("iota", actions.on_e, sections.iota, u),
        ("v_tilde", actions.on_estar, sections.v_tilde, one),
        ("iota_tilde", actions.on_estar, sections.iota_tilde, one),
        ("w", actions.on_f, sections.w, one),
        ("w_tilde", actions.on_fstar, sections.w_tilde, u),
    ]
    for i in range(2, chart.n + 1):
        cases.append((f"kappa_{i}", actions.on_f, sections.kappa[i - 2], one))
        cases.append(
            (f"kappa_tilde^{i}", actions.on_fstar, sections.kappa_tilde[i - 2], u)
        )

    laws = []
    for name, matrix, components, factor in cases:
        moved = matrix.apply(components)
        target = tuple(factor * comp.substitute(flowed) for comp in components)
        laws.append(
            TransformationLaw(
                name=name,
                holds=all(a == b for a, b in zip(moved, target)),
            )
        )
    return tuple(laws)


# -- q and the endomorphism fields ----------------------------------------------------


def q_polynomial(chart: Chart) -> Polynomial:
    table = chart.table
    x12 = Polynomial.variable(table, table.x_index(1, 2))
    out = x12 * x12
    for i in range(1, chart.n + 1):
        xi1 = Polynomial.variable(table, table.x_index(i, 1))
        out = out + xi1 * xi1
    return out


def build_q(chart: Chart) -> RationalFunction:
    """q(X) = x12^2 + x11^2 + ... + xn1^2; its zero set is exactly SF."""
    return RationalFunction.from_polynomial(q_polynomial(chart))


def phi_prime_matrix(chart: Chart) -> SymbolicMatrix:
    """phi' = v (x) iota_tilde as an endomorphism of E*: xi |-> xi(v) iota_tilde.

    Column j' holds the components of phi'(E^{j'}).
    """
    x11 = chart.x(1, 1)
    x12 = chart.x(1, 2)
    return SymbolicMatrix(
        chart.table,
        [[-x11 * x12, x11 * x11], [-x12 * x12, x11 * x12]],
    )


def phi_i_matrix(chart: Chart, i: int) -> SymbolicMatrix:
    """phi_i = kappa_tilde^i (x) w as an endomorphism of F: u |-> kappa_tilde^i(u) w.

    Column 1 is -x_{i1} w, column i is x11 w, all others vanish.
    """
    n = chart.n
    if not (2 <= i <= n):
        raise UsageError(f"phi_i index must be in 2..{n}")
    zero = chart.const(0)
    x11 = chart.x(1, 1)
    xi1 = chart.x(i, 1)
    rows = []
    for k in range(1, n + 1):
        xk1 = chart.x(k, 1)
        row = [zero] * n
        row[0] = -xi1 * xk1
        row[i - 1] = x11 * xk1
        rows.append(row)
    return SymbolicMatrix(chart.table, rows)


class EndomorphismField(SymbolicMatrix):
    """Section of End(E*) (x) End(F) as its operator matrix on E* (x) F.

    The 2n x 2n matrix acts in the flat basis of E* (x) F = g_{-1}, where
    the slot (k, i') sits at flat_index(k, i').  Entry
    [flat_index(k, i'), flat_index(l, j')] is Phi^{i'l}_{j'k}, so composition
    (self o other)^{i'l}_{j'k} = sum_{a',b} self^{i'b}_{a'k} other^{a'l}_{j'b}
    is the matrix product, and the action on a section with flat components
    psi, (Phi psi)^{i'}_k = sum_{j',l} Phi^{i'l}_{j'k} psi^{j'}_l, is apply.
    """

    __slots__ = ()

    @property
    def chart(self) -> Chart:
        return Chart(self.table.n)

    def coefficient(self, i_prime: int, ell: int, j_prime: int, k: int) -> RationalFunction:
        """Coefficient of E^{i'l}_{j'k}; all arguments 1-based."""
        return self.rows[flat_index(k, i_prime)][flat_index(ell, j_prime)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.rows for v in row)

    def partial_trace_primed(self, ell: int, k: int) -> RationalFunction:
        """sum_{i'} Phi^{i'l}_{i'k} (1-based l, k); vanishes for Phi_c."""
        return self.coefficient(1, ell, 1, k) + self.coefficient(2, ell, 2, k)

    def partial_trace_unprimed(self, i_prime: int, j_prime: int) -> RationalFunction:
        """sum_l Phi^{i'l}_{j'l}; vanishes for Phi_c."""
        acc = RationalFunction.zero(self.table)
        for l in range(1, self.table.n + 1):
            acc = acc + self.coefficient(i_prime, l, j_prime, l)
        return acc


def build_Phi(chart: Chart, c: Sequence | None = None) -> EndomorphismField:
    """Phi_c = sum_{i=2..n} c_i (1/q) phi' (x) phi_i.

    c is the vector (c_2, ..., c_n): length n-1, entries rational scalars
    (or strings); None keeps the parameters symbolic.  Requires n >= 3.
    """
    n = chart.n
    if n < 3:
        raise UsageError("the deformation family needs n >= 3")
    table = chart.table
    if c is None:
        c_polys = [
            Polynomial.variable(table, table.c_index(i)) for i in range(2, n + 1)
        ]
    else:
        if len(c) != n - 1:
            raise UsageError(f"expected {n - 1} deformation parameters, got {len(c)}")
        c_polys = [Polynomial.constant(table, value) for value in c]

    x = lambda i, j: Polynomial.variable(table, table.x_index(i, j))
    x11 = x(1, 1)
    x12 = x(1, 2)
    # phi' on E* (columns indexed by j'), phi_i on F, both as polynomials.
    m = ((-x11 * x12, x11 * x11), (-x12 * x12, x11 * x12))
    q = q_polynomial(chart)

    nums = [[Polynomial.zero(table)] * (2 * n) for _ in range(2 * n)]
    for i, ci in enumerate(c_polys, start=2):
        if ci.is_zero():
            continue
        xi1 = x(i, 1)
        for k in range(1, n + 1):
            xk1 = x(k, 1)
            # phi_i columns: l = 1 carries -x_{i1} x_{k1}, l = i carries x11 x_{k1}
            for l, n_entry in ((1, -(xi1 * xk1)), (i, x11 * xk1)):
                scaled = ci * n_entry
                for ip in (1, 2):
                    row = nums[flat_index(k, ip)]
                    for jp in (1, 2):
                        col = flat_index(l, jp)
                        row[col] = row[col] + m[ip - 1][jp - 1] * scaled

    rows = [[RationalFunction(num, ((q, 1),)) for num in row] for row in nums]
    return EndomorphismField(table, rows)


# -- flow invariance ---------------------------------------------------------------


def _kron(e_part: SymbolicMatrix, f_part: SymbolicMatrix) -> SymbolicMatrix:
    """A (x) B on E* (x) F in the flat basis: entry [(k, i'), (l, j')] = A[i', j'] B[k, l]."""
    n = f_part.nrows
    return SymbolicMatrix(
        e_part.table,
        [
            [e_part[ip, jp] * f_part[k, l] for l in range(n) for jp in range(2)]
            for k in range(n)
            for ip in range(2)
        ],
    )


def _generic_flow(
    chart: Chart, field: SymbolicMatrix, t: RationalFunction
) -> tuple[SymbolicMatrix, SymbolicMatrix]:
    """(A (x) B) M (A (x) B)^{-1} and M(z^t X) at the generic point X, for
    the bundle actions A = on_estar and B = on_f of z^t.

    The inverses come from the stored duals: on_estar^{-1} = on_e^T and
    on_f^{-1} = on_fstar^T, so no symbolic matrix inversion is needed.
    """
    generic = ChartPoint.generic(chart)
    actions = bundle_actions(generic, t)
    t_mat = _kron(actions.on_estar, actions.on_f)
    t_inv = _kron(actions.on_e.transpose(), actions.on_fstar.transpose())
    flowed = flow_point(generic, t).substitution()
    return t_mat * field * t_inv, field.substitute(flowed)


def invariance_check(phi: EndomorphismField) -> bool:
    """Exact identity (A (x) B) Phi(X) (A (x) B)^{-1} = Phi(z^t X) in x, t, c."""
    chart = phi.chart
    conjugated, moved = _generic_flow(chart, phi, chart.param("t"))
    return conjugated == moved


def unscaled_flow_factor_check(chart: Chart, i: int) -> bool:
    """(z^t)_* (phi' (x) phi_i)(X) = (1 + t x11)^2 (phi' (x) phi_i)(z^t X).

    This is the intermediate law behind invariance: the (1+t x11)^2 factor
    cancels against q(z^t X) = (1 + t x11)^{-2} q(X); t is symbolic.
    """
    t = chart.param("t")
    unscaled = _kron(phi_prime_matrix(chart), phi_i_matrix(chart, i))
    conjugated, moved = _generic_flow(chart, unscaled, t)
    u = chart.const(1) + t * chart.x(1, 1)
    factor = u * u
    scaled = SymbolicMatrix(
        chart.table, [[factor * v for v in row] for row in moved.rows]
    )
    return conjugated == scaled


def parse_c(chart: Chart, text: str) -> tuple[Fraction, ...]:
    """Parse the CLI form of c: comma-separated rationals, e.g. "1,0,0"."""
    parts = [p for p in text.split(",")]
    if len(parts) != chart.n - 1:
        raise UsageError(
            f"expected {chart.n - 1} comma-separated values for c, got {len(parts)}"
        )
    from .exactalg import parse_rational

    return tuple(parse_rational(p) for p in parts)
