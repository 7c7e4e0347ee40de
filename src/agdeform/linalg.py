"""Exact linear algebra over Q: RREF, ranks, spanned subspaces, membership.

Everything here is exact: entries are fractions.Fraction or int, and there
are no tolerances anywhere.  Two independent elimination routines are
provided: dense Gauss-Jordan (`rref`) producing canonical reduced bases,
and a sparse integer fraction-free elimination (`sparse_rank`) used both as
a fast path for large combinatorial matrices and as a cross-check oracle
for ranks.  Membership follows the same fraction-free idiom: `membership`
evaluates integer residual functionals (the annihilator of a Subspace) on
the vector cleared of denominators, and `Subspace.contains` and
`Subspace.residual` stay as its Fraction oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
    def from_rows(rows: Sequence[Sequence]) -> "MatrixQ":
        return MatrixQ([[_coerce(v) for v in row] for row in rows])

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
    """Reduced row echelon form: pivots 1, zeros above and below pivots."""
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


def rank(matrix: MatrixQ) -> int:
    return rref(matrix).rank


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


def span_subspace(vectors: Sequence[Sequence[Fraction]], ambient_dim: int) -> Subspace:
    """Span of row vectors as a canonical Subspace."""
    if not vectors:
        return Subspace(ambient_dim, MatrixQ([]), ())
    matrix = MatrixQ.from_rows(vectors)
    if matrix.ncols != ambient_dim:
        raise ValueError("vector dimension mismatch")
    result = rref(matrix)
    return Subspace(
        ambient_dim=ambient_dim,
        basis=MatrixQ(result.reduced.rows[: result.rank]),
        pivot_columns=result.pivot_columns,
    )


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
    """Rank of an integer matrix by sparse fraction-free elimination.

    Rows are stored as column->value dicts.  Pivots are chosen to keep
    fill-in small (shortest row, then least-used column), updates use the
    two-row integer combination  new = a*other - b*pivot_row, and every
    updated row is divided by the gcd of its entries so growth stays tame.
    Row operations preserve row space, so the count of nonempty rows
    consumed as pivots is the rank.
    """
    if isinstance(entries, Mapping):
        items = entries.items()
    else:
        items = ((key[:2], key[2]) for key in entries)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), value in items:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
        if value:
            rows.setdefault(i, {})[j] = value

    col_use: dict[int, int] = {}
    for row in rows.values():
        for j in row:
            col_use[j] = col_use.get(j, 0) + 1

    rank_count = 0
    active = set(rows)
    while active:
        pivot_i = min(active, key=lambda i: (len(rows[i]), i))
        pivot_row = rows[pivot_i]
        pivot_j = min(pivot_row, key=lambda j: (col_use[j], j))
        pivot_val = pivot_row[pivot_j]
        active.discard(pivot_i)
        rank_count += 1
        for i in list(active):
            row = rows[i]
            other_val = row.get(pivot_j)
            if not other_val:
                continue
            for j in row:
                col_use[j] -= 1
            new_row: dict[int, int] = {}
            for j, v in row.items():
                new_row[j] = v * pivot_val
            for j, v in pivot_row.items():
                acc = new_row.get(j, 0) - v * other_val
                if acc:
                    new_row[j] = acc
                else:
                    new_row.pop(j, None)
            if new_row:
                content = 0
                for v in new_row.values():
                    content = gcd(content, v)
                    if content == 1:
                        break
                if content > 1:
                    new_row = {j: v // content for j, v in new_row.items()}
                rows[i] = new_row
                for j in new_row:
                    col_use[j] = col_use.get(j, 0) + 1
            else:
                rows[i] = {}
                active.discard(i)
        for j in pivot_row:
            col_use[j] -= 1
    return rank_count
