"""Exact linear algebra over Q: spanned subspaces, ranks, membership.

Everything here is exact: entries are fractions.Fraction or int, and there
are no tolerances anywhere.  There is one eliminator, `sparse_rref`: sparse
Gauss-Jordan on {column: value} rows, giving the canonical reduced basis.
`span_subspace` (dense or sparse rows) and `sparse_rank` are thin entry
points to it.  Membership is fraction-free: `membership` evaluates integer
residual functionals (the annihilator of a Subspace) on the vector cleared
of denominators, and `Subspace.contains` and `Subspace.residual` stay as
its Fraction oracles.  The dense Gauss-Jordan `rref` (with its
`RrefResult`) has no caller at runtime: it is the tests' oracle for the
eliminator, kept here because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exactalg import _coerce

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MatrixQ:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = tuple(tuple(row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        return MatrixQ([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "MatrixQ":
        return MatrixQ([[_ZERO] * ncols for _ in range(nrows)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatrixQ) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"MatrixQ({self.nrows}x{self.ncols})"

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.rows[key[0]][key[1]]

    def transpose(self) -> "MatrixQ":
        return MatrixQ(list(zip(*self.rows))) if self.rows else MatrixQ([])

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return MatrixQ(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return MatrixQ(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return MatrixQ(
            [
                [sum((a * b for a, b in zip(row, col)), _ZERO) for col in cols]
                for row in self.rows
            ]
        )


@dataclass(frozen=True)
class RrefResult:
    reduced: MatrixQ
    rank: int
    pivot_columns: tuple[int, ...]


def rref(matrix: MatrixQ) -> RrefResult:
    """Reduced row echelon form: pivots 1, zeros above and below pivots.

    Dense Gauss-Jordan, the test oracle for `sparse_rref`."""
    rows = [list(row) for row in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return RrefResult(MatrixQ(rows), r, tuple(pivots))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient_dim with a canonical RREF basis.

    Basis rows are in reduced echelon form, so two Subspace objects
    describe the same space iff their bases are equal entrywise.
    """

    ambient_dim: int
    basis: MatrixQ
    pivot_columns: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivot_columns)

    @property
    def free_columns(self) -> tuple[int, ...]:
        pivot_set = set(self.pivot_columns)
        return tuple(j for j in range(self.ambient_dim) if j not in pivot_set)

    @functools.cached_property
    def annihilator(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Integer residual functionals, one per free column, as sparse rows.

        The functional of free column j is e_j - sum_k B[k][j] e_{p_k},
        read off the reduced basis B with pivot columns p_k and multiplied
        by the lcm of its denominators.  Each row is a tuple of
        (index, coefficient) pairs; a vector lies in the subspace iff every
        row pairs with it to zero, since the pairing is the residual at j.
        """
        rows = self.basis.rows
        out = []
        for j in self.free_columns:
            terms = [(p, -rows[k][j]) for k, p in enumerate(self.pivot_columns) if rows[k][j]]
            scale = lcm(*(v.denominator for _, v in terms))
            out.append(
                ((j, scale),)
                + tuple((p, v.numerator * (scale // v.denominator)) for p, v in terms)
            )
        return tuple(out)

    def residual(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of vector - (its projection onto the basis rows).

        Computed by subtracting vector[p_k] times basis row k for every
        pivot column p_k.  The result is supported on the free columns;
        the vector lies in the subspace iff the residual vanishes there.
        """
        if len(vector) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        rows = self.basis.rows
        return tuple(
            vector[j]
            - sum(
                (vector[p] * rows[k][j] for k, p in enumerate(self.pivot_columns)),
                _ZERO,
            )
            for j in self.free_columns
        )

    def contains(self, vector: Sequence[Fraction]) -> bool:
        """Exact membership; cheap when few pivot coordinates are nonzero."""
        if len(vector) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        work = list(vector)
        for k, p in enumerate(self.pivot_columns):
            coeff = work[p]
            if coeff:
                row = self.basis.rows[k]
                work = [w - coeff * r for w, r in zip(work, row)]
        return not any(work)


def _row_dict(
    vector: Sequence[Fraction | int] | Mapping[int, Fraction | int], ambient_dim: int
) -> dict[int, Fraction]:
    """The nonzero entries of a dense row or of a sparse {column: value} row."""
    if isinstance(vector, Mapping):
        if not all(isinstance(j, int) and 0 <= j < ambient_dim for j in vector):
            raise ValueError(f"sparse row has a column outside 0..{ambient_dim - 1}")
        return {j: _coerce(v) for j, v in vector.items() if v}
    if len(vector) != ambient_dim:
        raise ValueError("vector dimension mismatch")
    return {j: _coerce(v) for j, v in enumerate(vector) if v}


def _axpy(target: dict[int, Fraction], factor: Fraction, source: Mapping[int, Fraction]) -> None:
    """target += factor * source in place, dropping the zeros."""
    for j, v in source.items():
        acc = target.get(j, 0) + factor * v
        if acc:
            target[j] = acc
        else:
            del target[j]


def sparse_rref(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Sparse Gauss-Jordan over Q: the reduced row echelon form of the rows,
    as {pivot column: reduced row}.

    Each incoming {column: value} row is reduced by the pivot rows so far.
    What is left, if anything, pivots on its least column: it is scaled so
    that entry is 1, and that column is cleared from the earlier pivot rows.
    Every pivot row then holds 1 at its pivot and 0 at every other pivot
    column, so the rows sorted by pivot are the canonical RREF basis of the
    row space, the same one the dense rref gives.  The input is not changed.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for incoming in rows:
        row = {j: v for j, v in incoming.items() if v}
        # a pivot row is zero at every other pivot column, so the factors
        # are the entries of the incoming row itself
        for p in [j for j in row if j in pivots]:
            _axpy(row, -row[p], pivots[p])
        if not row:
            continue
        lead = min(row)
        inv = _ONE / row[lead]
        row = {j: v * inv for j, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _axpy(other, -other[lead], row)
        pivots[lead] = row
    return pivots


def span_subspace(
    vectors: Sequence[Sequence[Fraction] | Mapping[int, Fraction]], ambient_dim: int
) -> Subspace:
    """Span of row vectors as a canonical Subspace.  Rows may be dense, of
    length ambient_dim, or sparse {column: value} dicts with columns in
    0..ambient_dim-1; any other row raises ValueError."""
    pivots = sparse_rref([_row_dict(v, ambient_dim) for v in vectors])
    order = sorted(pivots)
    basis = [[_ZERO] * ambient_dim for _ in order]
    for dense, p in zip(basis, order):
        for j, v in pivots[p].items():
            dense[j] = v
    return Subspace(ambient_dim, MatrixQ(basis), tuple(order))


def membership(subspace: Subspace, vector: Sequence[Fraction | int]) -> bool:
    """Exact membership on integers: the annihilator of the subspace paired
    with the vector scaled by the lcm of its denominators.

    Membership is unchanged by a nonzero scale, so the answer equals
    subspace.contains(vector) (the Fraction oracle).
    """
    if len(vector) != subspace.ambient_dim:
        raise ValueError("vector dimension mismatch")
    scale = lcm(*(v.denominator for v in vector))
    ints = [v.numerator * (scale // v.denominator) for v in vector]
    return not any(
        sum(coeff * ints[i] for i, coeff in row) for row in subspace.annihilator
    )


def sparse_rank(
    entries: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]],
    nrows: int,
    ncols: int,
) -> int:
    """Rank of a sparse matrix given as {(row, col): value} or as
    (row, col, value) triples: the pivot count of `sparse_rref` on its rows."""
    if not isinstance(entries, Mapping):
        entries = {(i, j): v for i, j, v in entries}
    rows: dict[int, dict[int, int]] = {}
    for (i, j), value in entries.items():
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
        rows.setdefault(i, {})[j] = value
    return len(sparse_rref(rows.values()))
