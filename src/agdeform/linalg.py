"""Exact linear algebra over Q: spanned subspaces, ranks, membership.

Everything here is exact: entries are fractions.Fraction or int, and there
are no tolerances anywhere.  A vector comes in one of two forms, dense (a
sequence) or sparse ({index: value}), and every entry point that takes a
vector takes both; `sparse_rank` takes a matrix as {(row, col): value}.
There is one eliminator, `sparse_rref`: sparse Gauss-Jordan on
{column: value} rows, giving the canonical reduced basis.  A Subspace holds
that basis as it comes, {pivot column: sparse row}; `span_subspace` and
`sparse_rank` are thin entry points to the eliminator.  Membership is
fraction-free: `membership` evaluates integer residual functionals (the
annihilator of a Subspace) on the vector cleared of denominators, and
`Subspace.contains` and `Subspace.residual` stay as its Fraction oracles.
The dense `MatrixQ` and its Gauss-Jordan `rref` (with `RrefResult`) have no
caller at runtime: they are the tests' oracle for the eliminator, kept here
because the benchmark's tracer wraps `rref` and `MatrixQ.__mul__` by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .exactalg import UsageError, _coerce

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
    """Subspace of Q^ambient_dim with its canonical RREF basis.

    basis is what `sparse_rref` returns: {pivot column: reduced row}, each
    row a sparse {column: Fraction} dict that holds 1 at its own pivot and
    nothing at any other pivot column.  The reduced basis of a space is
    unique, so two Subspace objects describe the same space iff they are ==.
    """

    ambient_dim: int
    basis: dict[int, dict[int, Fraction]]

    # The basis is a dict, so there is no hash to agree with __eq__.
    __hash__ = None

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def free_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.ambient_dim) if j not in self.basis)

    @functools.cached_property
    def annihilator(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Integer residual functionals, one per free column, as sparse rows.

        The functional of free column j is e_j - sum_p B[p][j] e_p over the
        basis rows B[p], multiplied by the lcm of its denominators; it is
        read off in one pass over the nonzeros of the basis.  Each row is a
        tuple of (index, coefficient) pairs; a vector lies in the subspace
        iff every row pairs with it to zero, since the pairing is the
        residual at j.
        """
        terms: dict[int, list[tuple[int, Fraction]]] = {j: [] for j in self.free_columns}
        for p in self.pivot_columns:
            for j, v in self.basis[p].items():
                if j != p:
                    terms[j].append((p, -v))
        out = []
        for j, row in terms.items():
            scale = lcm(*(v.denominator for _, v in row))
            out.append(
                ((j, scale),)
                + tuple((p, v.numerator * (scale // v.denominator)) for p, v in row)
            )
        return tuple(out)

    def _reduce(self, vector: Vector) -> dict[int, Fraction]:
        """The vector, dense or sparse, minus vector[p] times basis row p for
        every pivot p: what is left is supported on the free columns."""
        work = _row_dict(vector, self.ambient_dim)
        for p, row in self.basis.items():
            coeff = work.get(p)
            if coeff:
                _axpy(work, -coeff, row)
        return work

    def residual(self, vector: Vector) -> tuple[Fraction, ...]:
        """Coordinates, on the free columns, of vector - (its projection
        onto the basis rows); the vector lies in the subspace iff they all
        vanish."""
        left = self._reduce(vector)
        return tuple(left.get(j, _ZERO) for j in self.free_columns)

    def contains(self, vector: Vector) -> bool:
        """Exact membership in Fractions, the oracle for `membership`."""
        return not self._reduce(vector)


#: A vector in either of its two forms: dense, or sparse {index: value}.
Vector = Sequence[Fraction | int] | Mapping[int, Fraction | int]


def nonzero_entries(vector: Vector, dim: int) -> dict[int, Fraction | int]:
    """The nonzero entries {index: value} of a dense vector of length dim
    or of a sparse {index: value} mapping with int indices in 0..dim-1;
    any other vector raises UsageError (a ValueError).  The values are
    returned as given."""
    if isinstance(vector, Mapping):
        if not all(isinstance(j, int) and 0 <= j < dim for j in vector):
            raise UsageError(f"sparse vector has an index outside 0..{dim - 1}")
        return {j: v for j, v in vector.items() if v}
    if len(vector) != dim:
        raise UsageError(f"vector has {len(vector)} entries, not {dim}")
    return {j: v for j, v in enumerate(vector) if v}


def _row_dict(vector: Vector, ambient_dim: int) -> dict[int, Fraction]:
    """The nonzero entries of a dense or sparse row, as Fractions."""
    return {j: _coerce(v) for j, v in nonzero_entries(vector, ambient_dim).items()}


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


def span_subspace(vectors: Sequence[Vector], ambient_dim: int) -> Subspace:
    """Span of row vectors as a canonical Subspace.  Rows may be dense, of
    length ambient_dim, or sparse {column: value} dicts with columns in
    0..ambient_dim-1; any other row raises ValueError."""
    return Subspace(ambient_dim, sparse_rref([_row_dict(v, ambient_dim) for v in vectors]))


def membership(subspace: Subspace, vector: Vector) -> bool:
    """Exact membership on integers: the annihilator of the subspace paired
    with the vector scaled by the lcm of its denominators.

    The vector is dense or sparse, as in span_subspace; int entries stay
    ints.  Membership is unchanged by a nonzero scale, so the answer equals
    subspace.contains(vector) (the Fraction oracle).
    """
    entries = nonzero_entries(vector, subspace.ambient_dim)
    scale = lcm(*(v.denominator for v in entries.values()))
    ints = {i: v.numerator * (scale // v.denominator) for i, v in entries.items()}
    return not any(
        sum(coeff * ints.get(i, 0) for i, coeff in row) for row in subspace.annihilator
    )


def sparse_rank(
    entries: Mapping[tuple[int, int], int],
    nrows: int,
    ncols: int,
) -> int:
    """Rank of a sparse matrix given as {(row, col): value}: the pivot count
    of `sparse_rref` on its rows."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), value in entries.items():
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
        rows.setdefault(i, {})[j] = value
    return len(sparse_rref(rows.values()))
