"""Affine chart of Gr(2,n), the strongly essential flow, and bundle actions.

The chart U is Hom(R^2, R^n) with coordinates x_{ij'} (row index i = 1..n
into F, column index j' = 1',2' into E).  The flow z^t = Id + t Z with
Z = e^1 (x) e_{1'} acts by X |-> X (Id_2 + t Z X)^{-1}; this closed form is
used everywhere, including on the hyperplane x11 = 0 where the split form
is undefined.  Each point has one form: a numeric point is a ChartPoint
of exact rationals, which flow_point moves at a rational time, and a
symbolic point is an n x 2 SymbolicMatrix of rational functions, which
flow_matrix moves at a symbolic time.  GenericFlow is the flow at the
generic point with t symbolic, the one frame per chart that every flow,
eigen-law and invariance check reads.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .exactalg import (
    PoleAtPoint,
    RationalFunction,
    UsageError,
    VariableTable,
    coerce_rational,
    dot,
    parse_rational,
    render_rational_function,
    substitute_all,
)


class NotDecomposable(ValueError):
    """The fixed-plus-rank-one split is undefined (x11 = 0)."""


class Chart:
    """Chart size n with its variable table and symbol helpers.

    n >= 2 is enough for the flow and representation theory; the deformed
    structures need n >= 3 (callers enforce that where it applies).
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int):
        if n < 2:
            raise UsageError(f"chart requires n >= 2, got {n}")
        self.n = n
        self.table = VariableTable(n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chart) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Chart", self.n))

    def __repr__(self) -> str:
        return f"Chart(n={self.n})"

    # -- symbol helpers -----------------------------------------------------

    def x(self, i: int, j: int) -> RationalFunction:
        """The coordinate x_{ij'} as a rational function (1-based indices)."""
        return RationalFunction.variable(self.table, self.table.x_index(i, j))

    def param(self, name: str) -> RationalFunction:
        """A weight-0 parameter (t, s, or c_i) as a rational function."""
        return RationalFunction.variable(self.table, self.table.index(name))

    def const(self, value) -> RationalFunction:
        return RationalFunction.constant(self.table, value)

    def c_substitution(self, c: Sequence[Fraction | int | str]) -> dict[int, RationalFunction]:
        """{c_index(i): c_i} for i = 2..n, the one map that binds the
        deformation parameters to numbers.  c holds n - 1 exact rationals:
        a wrong count raises UsageError, and so does an entry that const
        refuses (coerce_rational: a bool or a float)."""
        if len(c) != self.n - 1:
            raise UsageError(f"expected {self.n - 1} deformation parameters, got {len(c)}")
        return {self.table.c_index(i): self.const(v) for i, v in enumerate(c, start=2)}

    def sf_sum(self) -> RationalFunction:
        """x12^2 + x11^2 + ... + xn1^2, the sum of the squares of the
        coordinates whose common zero set is the singular set SF.

        The closed forms that the checks compare with are built over this
        q, apart from deform.q_polynomial, the q that Phi is built from, so
        a wrong q in the construction fails them.
        """
        coords = [self.x(1, 2)] + [self.x(i, 1) for i in range(1, self.n + 1)]
        return sum((v * v for v in coords[1:]), coords[0] * coords[0])


def _exact(value) -> Fraction:
    """value as a Fraction: an int or a Fraction only, so a str, a float or
    a RationalFunction raises UsageError, and so does a bool
    (coerce_rational refuses it)."""
    if not isinstance(value, (int, Fraction)):
        raise UsageError(f"expected an int or a Fraction, got {type(value).__name__}")
    return coerce_rational(value)


class ChartPoint:
    """A numeric element X of the chart: n x 2 exact rationals.

    Entries are ints or Fractions, stored as Fractions.  The text form is
    semicolon-separated rows of comma-separated rationals, e.g.
    "1,3;2,0;0,0".  A symbolic point is an n x 2 SymbolicMatrix.
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[Fraction | int]]):
        if len(entries) != chart.n or any(len(row) != 2 for row in entries):
            raise UsageError(f"chart point must be {chart.n} x 2")
        self.chart = chart
        self.entries = tuple(tuple(_exact(v) for v in row) for row in entries)

    @staticmethod
    def parse(chart: Chart, text: str) -> "ChartPoint":
        rows = text.strip().split(";")
        if len(rows) != chart.n:
            raise UsageError(
                f"expected {chart.n} semicolon-separated rows, got {len(rows)}"
            )
        entries = []
        for row in rows:
            parts = row.split(",")
            if len(parts) != 2:
                raise UsageError(f"row {row!r} must have 2 comma-separated entries")
            entries.append([parse_rational(p) for p in parts])
        return ChartPoint(chart, entries)

    def format(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChartPoint)
            and other.chart == self.chart
            and other.entries == self.entries
        )

    def __repr__(self) -> str:
        return f"ChartPoint({self.format()!r})"

    def evaluation_vector(self) -> tuple[Fraction, ...]:
        """The full evaluation point for exactalg: the entries in the chart
        variable order, then 0 for t, s and every c_i.  A point binds x
        only; c is bound by substituting Chart.c_substitution(c) first."""
        zeros = (Fraction(0),) * (self.chart.table.size - 2 * self.chart.n)
        return tuple(v for row in self.entries for v in row) + zeros


class SymbolicMatrix:
    """Dense matrix of RationalFunction entries over one chart table.

    Products, sums, the transpose and substitution keep the type of the
    left operand, so a subclass stays closed under them.
    """

    __slots__ = ("table", "rows", "nrows", "ncols")

    def __init__(self, table: VariableTable, rows: Sequence[Sequence[RationalFunction]]):
        self.table = table
        self.rows = tuple(tuple(row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise UsageError("ragged rows")

    @classmethod
    def identity(cls, table: VariableTable, size: int) -> "SymbolicMatrix":
        one = RationalFunction.constant(table, 1)
        zero = RationalFunction.zero(table)
        return cls(
            table,
            [[one if i == j else zero for j in range(size)] for i in range(size)],
        )

    def __getitem__(self, key: tuple[int, int]) -> RationalFunction:
        return self.rows[key[0]][key[1]]

    def __mul__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if self.ncols != other.nrows:
            raise UsageError("shape mismatch")
        rows = []
        for row in self.rows:
            support = [(a, other.rows[k]) for k, a in enumerate(row) if not a.is_zero()]
            rows.append([dot(self.table, [(a, b[j]) for a, b in support]) for j in range(other.ncols)])
        return type(self)(self.table, rows)

    def __add__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise UsageError("shape mismatch")
        return type(self)(
            self.table,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise UsageError("shape mismatch")
        return type(self)(
            self.table,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def transpose(self) -> "SymbolicMatrix":
        return type(self)(self.table, list(zip(*self.rows)))

    def apply(self, vector: Sequence[RationalFunction]) -> tuple[RationalFunction, ...]:
        if len(vector) != self.ncols:
            raise UsageError("shape mismatch")
        return tuple(dot(self.table, zip(row, vector)) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def substitute(self, mapping) -> "SymbolicMatrix":
        """Every entry with mapping substituted, as one exactalg.substitute_all
        batch: each distinct denominator factor is substituted and inverted
        once per matrix, not once per entry."""
        values = iter(substitute_all([v for row in self.rows for v in row], mapping))
        return type(self)(
            self.table, [[next(values) for _ in row] for row in self.rows]
        )

    def render(self, latex: bool = False) -> str:
        return "[" + "; ".join(
            ", ".join(render_rational_function(v, latex) for v in row)
            for row in self.rows
        ) + "]"


class BundleActionMatrices:
    """The flow's actions on E, E*, F, F* in the standard frames at X.

    All four are in the column convention (they multiply component column
    vectors of sections).  The duals satisfy on_estar = (on_e^{-1})^T and
    on_fstar = (on_f^{-1})^T, so their transposes act on row covectors.
    """

    __slots__ = ("on_e", "on_estar", "on_f", "on_fstar")

    def __init__(
        self,
        on_e: SymbolicMatrix,
        on_estar: SymbolicMatrix,
        on_f: SymbolicMatrix,
        on_fstar: SymbolicMatrix,
    ):
        self.on_e = on_e
        self.on_estar = on_estar
        self.on_f = on_f
        self.on_fstar = on_fstar


# -- the flow -------------------------------------------------------------------


def flow_point(X: ChartPoint, t: Fraction | int) -> ChartPoint:
    """z^t . X = X (Id_2 + t Z X)^{-1} at a numeric point and time.

    Column 1 maps to x_{i1}/(1+t x11), column 2 to
    x_{i2} - t x12 x_{i1}/(1+t x11); the closed form is valid on all of U,
    including x11 = 0.  t is an int or a Fraction, and 1 + t x11 = 0
    raises PoleAtPoint.  flow_matrix is the same map on a SymbolicMatrix.
    """
    t = _exact(t)
    u = 1 + t * X.entries[0][0]
    if not u:
        raise PoleAtPoint("x11*t + 1")
    x12 = X.entries[0][1]
    return ChartPoint(X.chart, [[xi1 / u, xi2 - t * x12 * xi1 / u] for xi1, xi2 in X.entries])


def flow_matrix(X: SymbolicMatrix, t: RationalFunction) -> SymbolicMatrix:
    """z^t . X for an n x 2 SymbolicMatrix X and a rational function t, by
    the closed form of flow_point."""
    u_inv = (RationalFunction.constant(X.table, 1) + t * X[0, 0]).inverse()
    x12 = X[0, 1]
    return SymbolicMatrix(
        X.table, [[xi1 * u_inv, xi2 - t * x12 * xi1 * u_inv] for xi1, xi2 in X.rows]
    )


def split_fixed_plus_rank1(X: SymbolicMatrix) -> tuple[SymbolicMatrix, SymbolicMatrix]:
    """X = X_f + X_d with X_f strongly fixed and X_d of rank one.

    X_f has zero first column and second column x_{i2} - (x12/x11) x_{i1};
    X_d has columns (x_{i1}) and ((x12/x11) x_{i1}).  Undefined on x11 = 0.
    """
    x11 = X[0, 0]
    if x11.is_zero():
        raise NotDecomposable("split undefined on x11 = 0")
    ratio = X[0, 1] * x11.inverse()
    zero = RationalFunction.zero(X.table)
    fixed = [[zero, xi2 - ratio * xi1] for xi1, xi2 in X.rows]
    direction = [[xi1, ratio * xi1] for xi1, xi2 in X.rows]
    return SymbolicMatrix(X.table, fixed), SymbolicMatrix(X.table, direction)


def flow_point_split_form(X: SymbolicMatrix, t: RationalFunction) -> SymbolicMatrix:
    """Redundant flow formula X_f + z^t.X_d; defined only off x11 = 0.

    Cross-checks flow_matrix: the split form has x11 in denominators that
    cancel in the closed form.
    """
    X_f, X_d = split_fixed_plus_rank1(X)
    return X_f + flow_matrix(X_d, t)


# -- holonomy and bundle actions ---------------------------------------------------


def bundle_actions(X: SymbolicMatrix, t: RationalFunction) -> BundleActionMatrices:
    """Action matrices of z^t on E, E*, F, F* at the n x 2 basepoint X.

    on_e and on_f are exactly the E- and F-blocks of the holonomy factor;
    the stored duals are transpose-inverses (column convention), so the
    row-covector matrices are their transposes.
    """
    table = X.table
    n = X.nrows
    one = RationalFunction.constant(table, 1)
    zero = RationalFunction.zero(table)
    x11 = X[0, 0]
    x12 = X[0, 1]
    u = one + t * x11
    u_inv = u.inverse()

    on_e = SymbolicMatrix(table, [[u, t * x12], [zero, one]])
    on_estar = SymbolicMatrix(table, [[u_inv, zero], [-t * x12 * u_inv, one]])

    f_rows = []
    for i in range(n):
        row = [zero] * n
        row[0] = u_inv if i == 0 else -t * X[i, 0] * u_inv
        if i > 0:
            row[i] = one
        f_rows.append(row)
    on_f = SymbolicMatrix(table, f_rows)

    fstar_rows = []
    for i in range(n):
        row = [zero] * n
        if i == 0:
            row[0] = u
            for k in range(1, n):
                row[k] = t * X[k, 0]
        else:
            row[i] = one
        fstar_rows.append(row)
    on_fstar = SymbolicMatrix(table, fstar_rows)

    return BundleActionMatrices(
        on_e=on_e, on_estar=on_estar, on_f=on_f, on_fstar=on_fstar
    )


def holonomy(X: SymbolicMatrix, t: RationalFunction) -> SymbolicMatrix:
    """The (n+2)x(n+2) holonomy factor p_t(X) = [[Id+tZX, tZ], [0, F-block]]."""
    n = X.nrows
    zero = RationalFunction.zero(X.table)
    actions = bundle_actions(X, t)
    rows = []
    for i in range(2):
        row = list(actions.on_e.rows[i]) + [zero] * n
        if i == 0:
            row[2] = t
        rows.append(row)
    for i in range(n):
        rows.append([zero, zero] + list(actions.on_f.rows[i]))
    return SymbolicMatrix(X.table, rows)


def kron(e_part: SymbolicMatrix, f_part: SymbolicMatrix) -> SymbolicMatrix:
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


class GenericFlow:
    """z^t at the generic point X of one chart, with t symbolic.

    Each member is built on first read and then kept: t, the point X, the
    moved point z^t X, its substitution map (M.substitute(substitution) is
    M(z^t X)), the bundle actions of z^t at X and the two Kronecker
    conjugators on E* (x) F.  A reader of z^t X alone builds no bundle
    actions.
    """

    def __init__(self, chart: Chart):
        self.chart = chart

    @functools.cached_property
    def t(self) -> RationalFunction:
        return self.chart.param("t")

    @functools.cached_property
    def point(self) -> SymbolicMatrix:
        """The n x 2 matrix of the coordinates x_{ij'}."""
        chart = self.chart
        return SymbolicMatrix(chart.table, [[chart.x(i, 1), chart.x(i, 2)] for i in range(1, chart.n + 1)])

    @functools.cached_property
    def moved(self) -> SymbolicMatrix:
        return flow_matrix(self.point, self.t)

    @functools.cached_property
    def substitution(self) -> dict[int, RationalFunction]:
        """x_{ij'} |-> the entry (i, j') of z^t X."""
        x_index = self.chart.table.x_index
        return {x_index(i, j): v for i, row in enumerate(self.moved.rows, 1) for j, v in enumerate(row, 1)}

    @functools.cached_property
    def actions(self) -> BundleActionMatrices:
        return bundle_actions(self.point, self.t)

    @functools.cached_property
    def conjugator(self) -> SymbolicMatrix:
        """A (x) B for A = on_estar and B = on_f."""
        return kron(self.actions.on_estar, self.actions.on_f)

    @functools.cached_property
    def conjugator_inverse(self) -> SymbolicMatrix:
        """(A (x) B)^{-1} = on_e^T (x) on_fstar^T, read off the stored duals,
        so no symbolic matrix inversion is needed."""
        return kron(self.actions.on_e.transpose(), self.actions.on_fstar.transpose())

    def conjugate_factors(
        self, e_part: SymbolicMatrix, f_part: SymbolicMatrix
    ) -> tuple[SymbolicMatrix, SymbolicMatrix]:
        """(A P A^{-1}, B Q B^{-1}) for P = e_part on E* and Q = f_part on F.

        By the mixed-product rule their Kronecker product is the conjugate
        (A (x) B)(P (x) Q)(A (x) B)^{-1}, built here without any 2n x 2n
        product.
        """
        actions = self.actions
        return (
            actions.on_estar * e_part * actions.on_e.transpose(),
            actions.on_f * f_part * actions.on_fstar.transpose(),
        )
