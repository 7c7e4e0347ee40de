"""Exact linear algebra over Q: spanned subspaces, ranks, membership.

Everything here is exact: entries are fractions.Fraction or int, and there
are no tolerances anywhere.  A vector comes in one of two forms, dense (a
sequence) or sparse ({index: value}), and every entry point that takes a
vector takes both, through the one validation `nonzero_entries`, which
refuses a bool or a float as a value or as an index; `sparse_rank` takes a
matrix as {(row, col): value}.

The work is on integers from input to verdict.  There is one eliminator,
`sparse_rref`: fraction-free sparse Gauss-Jordan (Bareiss, Math. Comp. 22,
1968, with division by the content of a row in place of his exact division
by the previous pivot) on {column: value} rows, each cleared of
denominators once and kept primitive with a positive pivot.  A column ->
pivot-rows index finds the rows that a new pivot must be cleared from.  The
pivot rows it returns are the canonical integer basis: each is the one
primitive multiple, positive at its pivot, of a row of the reduced row
echelon form.  A Subspace holds that basis as it comes, {pivot column:
sparse int row}; `span_subspace` and `sparse_rank` are thin entry points to
the eliminator.  The integer residual functionals of a Subspace, one per
free column, are built once from those rows and indexed by the columns they
read (`Subspace.functionals`); `membership` clears the vector of
denominators and pairs it only with the functionals that read one of its
nonzero columns.  The dense `MatrixQ` and its Gauss-Jordan `rref` (with
`RrefResult`) have no caller at runtime: they are the tests' oracle for the
eliminator, kept here because the benchmark's tracer wraps `rref` and
`MatrixQ.__mul__` by name.  The Fraction membership oracle, elimination of
the vector by the reduced basis, lives in the tests.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .exactalg import UsageError

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


class RrefResult:
    __slots__ = ("reduced", "rank", "pivot_columns")

    def __init__(self, reduced: MatrixQ, rank: int, pivot_columns: tuple[int, ...]):
        self.reduced = reduced
        self.rank = rank
        self.pivot_columns = pivot_columns


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


class Subspace:
    """Subspace of Q^ambient_dim with its canonical integer basis.

    basis is what `sparse_rref` returns: {pivot column: row}, each row a
    sparse {column: int} dict that is primitive, positive at its own pivot
    and zero at every other pivot column.  Each row is the unique positive
    multiple of a row of the reduced row echelon form with coprime int
    entries, so two Subspace objects describe the same space iff they are ==.
    """

    # No __slots__: the cached functionals live in the instance __dict__.
    def __init__(self, ambient_dim: int, basis: dict[int, dict[int, int]]):
        self.ambient_dim = ambient_dim
        self.basis = basis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

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
    def functionals(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The integer residual functionals, one per free column, indexed by
        the basis columns they read.

        With B[p] the basis row of pivot p, the functional of free column j
        is e_j - sum_p (B[p][j] / B[p][p]) e_p, multiplied by the lcm of the
        denominators of those ratios in lowest terms; it pairs with a vector
        to a positive multiple of the vector's residual at j, so a vector
        lies in the subspace iff every functional pairs with it to zero.
        Entry i of the index holds a (j, coefficient) pair for each
        functional j with a nonzero coefficient at column i: at a free
        column i only its own functional, at a pivot column p one for each
        free column in B[p].  Columns that no functional reads have no
        entry.  The index is read off in one pass over the nonzeros of the
        basis.
        """
        terms: dict[int, list[tuple[int, int, int]]] = {j: [] for j in self.free_columns}
        for p in self.pivot_columns:
            row = self.basis[p]
            lead = row[p]
            for j, v in row.items():
                if j != p:
                    common = gcd(v, lead)
                    terms[j].append((p, -v // common, lead // common))
        index: dict[int, list[tuple[int, int]]] = {}
        for j, row in terms.items():
            scale = lcm(*(den for _, _, den in row))
            index.setdefault(j, []).append((j, scale))
            for p, num, den in row:
                index.setdefault(p, []).append((j, num * (scale // den)))
        return {i: tuple(pairs) for i, pairs in index.items()}


#: A vector in either of its two forms: dense, or sparse {index: value}.
Vector = Sequence[Fraction | int] | Mapping[int, Fraction | int]

#: The value types of a vector entry: exactly int and Fraction, so a bool
#: (an int subclass) is refused, as is a float.
_EXACT = frozenset((int, Fraction))
_INT = frozenset((int,))


def nonzero_entries(vector: Vector, dim: int) -> dict[int, Fraction | int]:
    """The nonzero entries {index: value} of a dense vector of length dim
    or of a sparse {index: value} mapping with int indices in 0..dim-1.

    This is the one validation of a vector: every value, zero or not, must
    be an int or a Fraction, and every sparse index an int; a bool or a
    float, as value or as index, and any other vector raise UsageError (a
    ValueError).  The values are returned as given."""
    if isinstance(vector, Mapping):
        if not all(type(j) is int and 0 <= j < dim for j in vector):
            raise UsageError(f"sparse vector has an index that is not an int in 0..{dim - 1}")
        values = vector.values()
        items = vector.items()
    else:
        if len(vector) != dim:
            raise UsageError(f"vector has {len(vector)} entries, not {dim}")
        values = vector
        items = enumerate(vector)
    if not _EXACT.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT)
        raise UsageError(f"vector entry {bad!r} is not an int or a Fraction")
    return {j: v for j, v in items if v}


def _cleared(entries: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The entries times the lcm of their denominators: a row of ints with
    the same zeros, spanning the same line; the entries themselves when
    they are all ints already."""
    if _INT.issuperset(map(type, entries.values())):
        return entries
    scale = lcm(*(v.denominator for v in entries.values()))
    return {j: v.numerator * (scale // v.denominator) for j, v in entries.items()}


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """The row divided by the gcd of its entries (its content), and signed
    so that its entry at lead is positive."""
    content = gcd(*row.values())
    if row[lead] < 0:
        content = -content
    return row if content == 1 else {j: v // content for j, v in row.items()}


def _eliminate(target: dict[int, int], col: int, source: Mapping[int, int]) -> None:
    """target := a * target - b * source in place, with the least a > 0 for
    which target[col] becomes 0 (source[col] > 0); zeros are dropped."""
    pivot, entry = source[col], target[col]
    common = gcd(pivot, entry)
    scale, factor = pivot // common, entry // common
    if scale != 1:
        for j in target:
            target[j] *= scale
    for j, v in source.items():
        acc = target.get(j, 0) - factor * v
        if acc:
            target[j] = acc
        else:
            del target[j]


def sparse_rref(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, dict[int, int]]:
    """Fraction-free sparse Gauss-Jordan over Q: the canonical integer
    basis of the row space, as {pivot column: row}.

    Each incoming {column: value} row is cleared of denominators once and
    reduced, on integers, by the pivot rows so far.  What is left, if
    anything, is divided by its content and signed so that its least
    column, its pivot, holds a positive entry; that column is then cleared
    from the earlier pivot rows that hold it, which a column -> pivot-rows
    index finds without a scan.  Every pivot row is primitive, positive at
    its pivot and 0 at every other pivot column, so it is the one such
    multiple of a row of the reduced row echelon form: divided by its pivot
    entry, each row gives the canonical RREF basis that the dense rref
    gives.  The input is not changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    # column -> the pivots whose rows have held a nonzero there; a row that
    # has since cancelled it is skipped on use, and the entry is dropped
    # when the column leads, since no row is nonzero there after that
    holders: dict[int, set[int]] = {}
    for incoming in rows:
        row = _cleared({j: v for j, v in incoming.items() if v})
        # a pivot row is zero at every other pivot column, so the pivot
        # columns to clear are those of the incoming row itself
        for p in [j for j in row if j in pivots]:
            _eliminate(row, p, pivots[p])
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, lead)
        for q in holders.pop(lead, ()):
            other = pivots[q]
            if lead in other:
                _eliminate(other, lead, row)
                other = pivots[q] = _primitive(other, q)
                for j in row:
                    if j in other:
                        holders.setdefault(j, set()).add(q)
        pivots[lead] = row
        for j in row:
            if j != lead:
                holders.setdefault(j, set()).add(lead)
    return pivots


def span_subspace(vectors: Sequence[Vector], ambient_dim: int) -> Subspace:
    """Span of row vectors as a canonical Subspace.  Rows may be dense, of
    length ambient_dim, or sparse {column: value} dicts with columns in
    0..ambient_dim-1, each checked by nonzero_entries."""
    return Subspace(ambient_dim, sparse_rref([nonzero_entries(v, ambient_dim) for v in vectors]))


def membership(subspace: Subspace, vector: Vector) -> bool:
    """Exact membership on integers: the vector, dense or sparse as in
    span_subspace, is cleared of denominators and paired with the
    functionals of the subspace that read one of its nonzero columns.

    A functional that reads none of them pairs with the vector to 0, so
    the answer is that of all the functionals.
    """
    index = subspace.functionals
    sums: dict[int, int] = {}
    for i, v in _cleared(nonzero_entries(vector, subspace.ambient_dim)).items():
        for j, coeff in index.get(i, ()):
            sums[j] = sums.get(j, 0) + coeff * v
    return not any(sums.values())


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
