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

from fractions import Fraction
from typing import Sequence

from .exactalg import (
    Polynomial,
    RationalFunction,
    UsageError,
    VariableTable,
    flat_index,
    parse_rational,
)
from .model import Chart, GenericFlow, SymbolicMatrix


# -- eigen-sections ------------------------------------------------------------------


#: Each family of eigen_sections: the model.BundleActionMatrices field that
#: moves it, and whether its law carries the factor (1 + t x11) (else 1).
EIGEN_FAMILIES: dict[str, tuple[str, bool]] = {
    "v": ("on_e", True),
    "iota": ("on_e", True),
    "v_tilde": ("on_estar", False),
    "iota_tilde": ("on_estar", False),
    "w": ("on_f", False),
    "kappa": ("on_f", False),
    "w_tilde": ("on_fstar", True),
    "kappa_tilde": ("on_fstar", True),
}


def eigen_sections(chart: Chart) -> dict[str, dict[str, tuple[RationalFunction, ...]]]:
    """Component vectors of the flow eigen-sections at the generic point,
    as {family: {law name: components}}.

    E-frame {E_1', E_2'} for v, iota; E*-frame {E^1', E^2'} for v_tilde,
    iota_tilde; F-frame {E_1..E_n} for w and the kappa_i; F*-frame for
    w_tilde and the kappa_tilde^i, i = 2..n.
    """
    n = chart.n
    zero = chart.const(0)
    one = chart.const(1)

    def unit(size: int, idx: int) -> tuple[RationalFunction, ...]:
        return tuple(one if k == idx else zero for k in range(size))

    def kappa_tilde(i: int) -> tuple[RationalFunction, ...]:
        comp = [zero] * n
        comp[0] = -chart.x(i, 1)
        comp[i - 1] = chart.x(1, 1)
        return tuple(comp)

    return {
        "v": {"v": (-chart.x(1, 2), chart.x(1, 1))},
        "iota": {"iota": unit(2, 0)},
        "v_tilde": {"v_tilde": unit(2, 1)},
        "iota_tilde": {"iota_tilde": (chart.x(1, 1), chart.x(1, 2))},
        "w": {"w": tuple(chart.x(k, 1) for k in range(1, n + 1))},
        "kappa": {f"kappa_{i}": unit(n, i - 1) for i in range(2, n + 1)},
        "w_tilde": {"w_tilde": unit(n, 0)},
        "kappa_tilde": {f"kappa_tilde^{i}": kappa_tilde(i) for i in range(2, n + 1)},
    }


def transformation_check(flow: GenericFlow) -> dict[str, dict[str, bool]]:
    """Whether each eigen-section law action . sec(X) = factor . sec(z^t X)
    holds, as {family: {law name: holds}}: exact identities in x and the
    symbolic flow time t of the frame flow.

    E-sections transform by the E action, dual sections by the stored
    column-convention dual matrices; EIGEN_FAMILIES gives each family's
    action and factor, and a family it lacks raises KeyError.
    """
    chart, actions = flow.chart, flow.actions
    one = chart.const(1)
    u = one + flow.t * chart.x(1, 1)
    laws: dict[str, dict[str, bool]] = {}
    for family, sections in eigen_sections(chart).items():
        field, scaled = EIGEN_FAMILIES[family]
        matrix, factor = getattr(actions, field), u if scaled else one
        laws[family] = {}
        for name, components in sections.items():
            moved = matrix.apply(components)
            target = tuple(factor * comp.substitute(flow.substitution) for comp in components)
            laws[family][name] = all(a == b for a, b in zip(moved, target))
    return laws


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

    derivatives is the one table of first derivatives of the entries, keyed
    (row, col, idx) and filled by derivative on first read; the degree
    ledger, the curvature tensor and the torsion brackets all read it.
    """

    __slots__ = ("derivatives",)

    def __init__(self, table: VariableTable, rows: Sequence[Sequence[RationalFunction]]):
        super().__init__(table, rows)
        self.derivatives: dict[tuple[int, int, int], RationalFunction] = {}

    def derivative(self, row: int, col: int, idx: int) -> RationalFunction:
        """The derivative of entry [row, col] by variable idx, built once."""
        key = (row, col, idx)
        value = self.derivatives.get(key)
        if value is None:
            value = self.derivatives[key] = self.rows[row][col].differentiate(idx)
        return value

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


def build_Phi(chart: Chart) -> EndomorphismField:
    """Phi_c = sum_{i=2..n} c_i (1/q) phi' (x) phi_i with the parameters
    c_2, ..., c_n symbolic; phi.substitute(chart.c_substitution(c)) binds
    them to numbers.  Requires n >= 3.
    """
    n = chart.n
    if n < 3:
        raise UsageError("the deformation family needs n >= 3")
    table = chart.table
    x = lambda i, j: Polynomial.variable(table, table.x_index(i, j))
    x11 = x(1, 1)
    x12 = x(1, 2)
    # phi' on E* (columns indexed by j'), phi_i on F, both as polynomials.
    m = ((-x11 * x12, x11 * x11), (-x12 * x12, x11 * x12))
    q = q_polynomial(chart)

    nums = [[Polynomial.zero(table)] * (2 * n) for _ in range(2 * n)]
    for i in range(2, n + 1):
        ci = Polynomial.variable(table, table.c_index(i))
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


def invariance_check(phi: EndomorphismField, flow: GenericFlow) -> bool:
    """Exact identity (A (x) B) Phi(X) (A (x) B)^{-1} = Phi(z^t X) in x, t, c.

    Phi is the object under test, so it is conjugated as a full 2n x 2n
    matrix: its Kronecker form is not assumed.
    """
    conjugated = flow.conjugator * phi * flow.conjugator_inverse
    return conjugated == phi.substitute(flow.substitution)


#: The power of (1 + t x11) in the law of the unscaled generators.
UNSCALED_LAW_POWER = 2


def unscaled_flow_factor_check(flow: GenericFlow, i: int) -> bool:
    """(z^t)_* (phi' (x) phi_i)(X) = (1 + t x11)^2 (phi' (x) phi_i)(z^t X).

    This is the intermediate law behind invariance: the (1+t x11)^2 factor
    cancels against q(z^t X) = (1 + t x11)^{-2} q(X); t is symbolic.  Each
    factor is conjugated on its own (GenericFlow.conjugate_factors), and
    the two sides are compared entry by entry over all 4n^2 entries.
    """
    chart = flow.chart
    e_part, f_part = phi_prime_matrix(chart), phi_i_matrix(chart, i)
    e_conj, f_conj = flow.conjugate_factors(e_part, f_part)
    factor = (chart.const(1) + flow.t * chart.x(1, 1)) ** UNSCALED_LAW_POWER
    e_moved = [[factor * v for v in row] for row in e_part.substitute(flow.substitution).rows]
    f_moved = f_part.substitute(flow.substitution).rows
    return all(
        e_conj[ip, jp] * f_conj[k, l] == e_moved[ip][jp] * f_moved[k][l]
        for ip in range(2)
        for jp in range(2)
        for k in range(chart.n)
        for l in range(chart.n)
    )


def parse_c(text: str) -> tuple[Fraction, ...]:
    """Parse the CLI form of c: comma-separated rationals, e.g. "1,0,0".
    Chart.c_substitution checks the count."""
    return tuple(parse_rational(p) for p in text.split(","))
