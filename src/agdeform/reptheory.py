"""Matrix realizations of the graded matrix algebra and its differential.

g = g_{-1} + g_0 + g_1 sits inside sl(2+n) by block structure: g_{-1} the
lower-left n x 2 block, g_1 the upper-right, g_0 the pairs (A, B) of diagonal
blocks with tr A + tr B = 0 acting on g_{-1} by X -> BX - XA.  The
differential partial1 : g_{-1}* (x) g_0 -> Lambda^2 g_{-1}* (x) g_{-1},
(partial1 f)(w, v) = f(w).v - f(v).w, is realized as one sparse integer
matrix per n; its image is the obstruction space behind the rank-one torsion
criterion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import UsageError, pair_index
from .linalg import MatrixQ, Subspace, span_subspace


class GradedAlgebraSpec:
    """Fixed ordered bases for the three graded pieces at a given n.

    The g_0 basis order: the two strictly triangular 2x2 units; the n(n-1)
    off-diagonal n x n units in lexicographic order; diag(1,-1) in the 2x2
    slot; the n-1 consecutive diagonal differences in the n x n slot; and one
    mixed trace-balanced element (diag(1,0), -E_11).  Total n^2 + 3.
    """

    def __init__(self, n: int):
        if n < 2:
            raise UsageError("graded algebra needs n >= 2")
        self.n = n
        self.dim_gminus = 2 * n
        self.dim_gzero = n * n + 3
        self.dim_gplus = 2 * n
        self.gzero_basis = self._build_gzero_basis()

    def _build_gzero_basis(self) -> tuple[tuple[MatrixQ, MatrixQ], ...]:
        n = self.n

        def unit2(r, c):
            return MatrixQ(
                [[1 if (i, j) == (r, c) else 0 for j in range(2)] for i in range(2)]
            )

        def unitn(r, c):
            return MatrixQ(
                [[1 if (i, j) == (r, c) else 0 for j in range(n)] for i in range(n)]
            )

        zero2 = MatrixQ.zero(2, 2)
        zeron = MatrixQ.zero(n, n)
        basis = [(unit2(0, 1), zeron), (unit2(1, 0), zeron)]
        for j in range(n):
            for k in range(n):
                if j != k:
                    basis.append((zero2, unitn(j, k)))
        basis.append((MatrixQ([[1, 0], [0, -1]]), zeron))
        for j in range(n - 1):
            diff = MatrixQ(
                [
                    [
                        (1 if i == j else -1 if i == j + 1 else 0) if i == c else 0
                        for c in range(n)
                    ]
                    for i in range(n)
                ]
            )
            basis.append((zero2, diff))
        basis.append((MatrixQ([[1, 0], [0, 0]]), MatrixQ(
            [[-1 if (i, j) == (0, 0) else 0 for j in range(n)] for i in range(n)]
        )))
        assert len(basis) == self.dim_gzero
        return tuple(basis)

    def gminus_basis_matrix(self, a: int) -> MatrixQ:
        """The n x 2 matrix unit for flat index a."""
        n = self.n
        i, jp = a // 2, a % 2
        return MatrixQ(
            [[1 if (r, c) == (i, jp) else 0 for c in range(2)] for r in range(n)]
        )

    def gplus_basis_matrix(self, a: int) -> MatrixQ:
        """The 2 x n matrix unit for flat index a = n*(row) + col."""
        n = self.n
        jp, i = a // n, a % n
        return MatrixQ(
            [[1 if (r, c) == (jp, i) else 0 for c in range(n)] for r in range(2)]
        )

    def action_matrix(self, m: int) -> MatrixQ:
        """rho(g_m) on g_{-1} in the flat basis: column b holds B m_b - m_b A."""
        n = self.n
        a_mat, b_mat = self.gzero_basis[m]
        size = 2 * n
        cols = []
        for b in range(size):
            i, jp = b // 2, b % 2
            col = [Fraction(0)] * size
            for r in range(n):
                if b_mat[(r, i)]:
                    col[2 * r + jp] += b_mat[(r, i)]
            for c in range(2):
                if a_mat[(jp, c)]:
                    col[2 * i + c] -= a_mat[(jp, c)]
            cols.append(col)
        return MatrixQ([[cols[b][d] for b in range(size)] for d in range(size)])

    def embed(self, a2: MatrixQ | None, bn: MatrixQ | None,
              x: MatrixQ | None, z: MatrixQ | None) -> MatrixQ:
        """Block matrix [[A, Z], [X, B]] in sl(2+n)."""
        n = self.n
        size = 2 + n
        rows = [[Fraction(0)] * size for _ in range(size)]
        if a2 is not None:
            for i in range(2):
                for j in range(2):
                    rows[i][j] = a2[(i, j)]
        if z is not None:
            for i in range(2):
                for j in range(n):
                    rows[i][2 + j] = z[(i, j)]
        if x is not None:
            for i in range(n):
                for j in range(2):
                    rows[2 + i][j] = x[(i, j)]
        if bn is not None:
            for i in range(n):
                for j in range(n):
                    rows[2 + i][2 + j] = bn[(i, j)]
        return MatrixQ(rows)

    def sparse_pieces(self) -> dict[int, list[dict[tuple[int, int], int]]]:
        """The bases of g_{-1}, g_0, g_1 as sparse integer block matrices.

        Each element is {(row, col): value} over the nonzero entries of its
        (2+n) x (2+n) block matrix, laid out as embed lays it out.
        """
        n = self.n

        def entries(mat: MatrixQ, offset: int) -> dict[tuple[int, int], int]:
            out = {}
            for i, row in enumerate(mat.rows):
                for j, value in enumerate(row):
                    if value:
                        if value.denominator != 1:
                            raise ValueError("g_0 basis entries must be integers")
                        out[(offset + i, offset + j)] = value.numerator
            return out

        return {
            -1: [{(2 + a // 2, a % 2): 1} for a in range(self.dim_gminus)],
            0: [entries(a2, 0) | entries(bn, 2) for a2, bn in self.gzero_basis],
            1: [{(a // n, 2 + a % n): 1} for a in range(self.dim_gplus)],
        }

    def verify_grading(self) -> bool:
        """[g_i, g_j] lands in g_{i+j} (zero when |i+j| > 1) on all basis pairs.

        The brackets are taken on the sparse integer units of sparse_pieces,
        built here so that their cost is part of the check.
        """
        pieces = self.sparse_pieces()
        for gi, lefts in pieces.items():
            for gj, rights in pieces.items():
                target = gi + gj
                allowed = {target} if target in (-1, 0, 1) else set()
                for lm in lefts:
                    for rm in rights:
                        if not _block_grades(_commutator(lm, rm)) <= allowed:
                            return False
        return True

    def gzero_coordinates(self, a2: MatrixQ, bn: MatrixQ) -> tuple[Fraction, ...]:
        """Coefficients of (A, B) with tr A + tr B = 0 in the fixed basis."""
        n = self.n
        trace = sum(a2[(i, i)] for i in range(2)) + sum(bn[(i, i)] for i in range(n))
        if trace != 0:
            raise UsageError("element is not trace-balanced")
        coeffs = [a2[(0, 1)], a2[(1, 0)]]
        for j in range(n):
            for k in range(n):
                if j != k:
                    coeffs.append(bn[(j, k)])
        u = -a2[(1, 1)]
        v = a2[(0, 0)] + a2[(1, 1)]
        coeffs.append(u)
        partial = Fraction(0)
        tail = [Fraction(0)] * (n - 1)
        for j in range(n - 1, 0, -1):
            partial -= bn[(j, j)]
            tail[j - 1] = partial
        coeffs.extend(tail)
        coeffs.append(v)
        return tuple(coeffs)

    def gzero_from_coordinates(self, coeffs: Sequence[Fraction]) -> tuple[MatrixQ, MatrixQ]:
        if len(coeffs) != self.dim_gzero:
            raise UsageError("wrong coefficient count")
        n = self.n
        a_rows = [[Fraction(0)] * 2 for _ in range(2)]
        b_rows = [[Fraction(0)] * n for _ in range(n)]
        a_rows[0][1] = Fraction(coeffs[0])
        a_rows[1][0] = Fraction(coeffs[1])
        pos = 2
        for j in range(n):
            for k in range(n):
                if j != k:
                    b_rows[j][k] = Fraction(coeffs[pos])
                    pos += 1
        u = Fraction(coeffs[pos])
        pos += 1
        for j in range(n - 1):
            w = Fraction(coeffs[pos])
            b_rows[j][j] += w
            b_rows[j + 1][j + 1] -= w
            pos += 1
        v = Fraction(coeffs[pos])
        a_rows[0][0] += u + v
        a_rows[1][1] -= u
        b_rows[0][0] -= v
        return MatrixQ(a_rows), MatrixQ(b_rows)

    def gzero_bracket(self, m1: int, m2: int) -> tuple[Fraction, ...]:
        """Structure constants: [g_{m1}, g_{m2}] in basis coordinates."""
        a1, b1 = self.gzero_basis[m1]
        a2, b2 = self.gzero_basis[m2]
        return self.gzero_coordinates(a1 * a2 - a2 * a1, b1 * b2 - b2 * b1)


def _commutator(
    left: dict[tuple[int, int], int], right: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """left*right - right*left for sparse integer matrices, zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for first, second, sign in ((left, right, 1), (right, left, -1)):
        for (i, k), a in first.items():
            for (k2, j), b in second.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + sign * a * b
    return {key: value for key, value in out.items() if value}


def _block_grades(mat: dict[tuple[int, int], int]) -> set[int]:
    """Which graded pieces the nonzero entries of a block matrix touch:
    -1 for the lower-left n x 2 block, 1 for the upper-right, 0 for the
    diagonal blocks."""
    return {(c >= 2) - (r >= 2) for r, c in mat}


@dataclass(frozen=True)
class Partial1Map:
    """The differential as sparse integer entries {(row, col): value}; its
    image is reduced once, on first use, and the rank read off it."""

    n: int
    entries: dict[tuple[int, int], int]
    domain_dim: int
    target_dim: int

    @functools.cached_property
    def image(self) -> Subspace:
        """Column space as a Subspace: the columns, as sparse rows, through
        the sparse exact eliminator."""
        columns: list[dict[int, int]] = [{} for _ in range(self.domain_dim)]
        for (r, col), value in self.entries.items():
            columns[col][r] = value
        return span_subspace(columns, self.target_dim)

    @property
    def rank(self) -> int:
        return self.image.dim

    @property
    def kernel_dim(self) -> int:
        return self.domain_dim - self.rank

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """partial1 applied to a domain vector, as a target vector."""
        if len(vector) != self.domain_dim:
            raise UsageError("vector dimension mismatch")
        out = [Fraction(0)] * self.target_dim
        for (r, col), value in self.entries.items():
            if vector[col]:
                out[r] += value * vector[col]
        return tuple(out)


def build_partial1(n: int, spec: GradedAlgebraSpec | None = None) -> Partial1Map:
    """Exact matrix of (partial1 f)(w_b, w_c) = f(w_b).w_c - f(w_c).w_b.

    Columns indexed by (a, m) -> a*dim_gzero + m for f = xi^a (x) g_m; rows
    by pair_index(b, c)*2n + d over pairs b < c and outputs d.  The entries
    are integers.  Nothing is eliminated here: the image and the rank come
    from one sparse reduction, on first use of Partial1Map.image.
    """
    spec = spec or GradedAlgebraSpec(n)
    size = 2 * n
    dim0 = spec.dim_gzero
    domain = size * dim0
    npairs = size * (size - 1) // 2
    target = npairs * size
    actions = [spec.action_matrix(m) for m in range(dim0)]

    entries: dict[tuple[int, int], int] = {}
    for a in range(size):
        for m in range(dim0):
            col = a * dim0 + m
            action = actions[m]
            for other in range(size):
                if other == a:
                    continue
                # pair containing a: (a, other) ordered; sign - when a sits second
                b, c, sign = (a, other, 1) if a < other else (other, a, -1)
                base = pair_index(b, c, size) * size
                for d in range(size):
                    value = action[(d, other)]
                    if value:
                        assert value.denominator == 1, "partial1 entries are integers"
                        entries[(base + d, col)] = sign * value.numerator
    return Partial1Map(n=n, entries=entries, domain_dim=domain, target_dim=target)


@dataclass(frozen=True)
class DecompositionDims:
    """Dimension bookkeeping of the two-form decomposition at a given n."""

    n: int
    lambda_split: tuple[int, int]
    torsion_module_dim: int
    trace_family_dims: tuple[int, int]
    trace_overlap_dim: int
    trace_span_dim: int


def decomposition_dims(n: int) -> DecompositionDims:
    if n < 2:
        raise UsageError("needs n >= 2")
    return DecompositionDims(
        n=n,
        lambda_split=(n * (n + 1) // 2, 3 * n * (n - 1) // 2),
        torsion_module_dim=2 * n * (n - 2) * (n + 1) if n >= 3 else 0,
        trace_family_dims=(n * n * (n - 1), 6 * n),
        trace_overlap_dim=2 * n,
        trace_span_dim=n * (n * n - n + 4),
    )


@dataclass(frozen=True)
class TraceEmbeddings:
    """Embedded basis vectors of the two trace families, flattened to the
    pair-major coordinate order of Partial1Map."""

    n: int
    family_one: tuple[tuple[Fraction, ...], ...]
    family_two: tuple[tuple[Fraction, ...], ...]

    def all_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.family_one + self.family_two


def _target_vector_from_values(values, n: int) -> tuple[Fraction, ...]:
    """values[(b, c)] for b < c is a 2n output vector; flatten pair-major."""
    size = 2 * n
    out = []
    for b in range(size):
        for c in range(b + 1, size):
            out.extend(values[(b, c)])
    return tuple(out)


def trace_embedding_vectors(n: int) -> TraceEmbeddings:
    """The two families of identity-contracted trace vectors in the target space.

    Family one, indexed by (p', i < j, k): the R^2 vector e_{p'} tensored
    with identity and symmetrized in the primed slots, against the wedge
    basis (e^i ^ e^j) (x) e_k; the value on (alpha (x) a, beta (x) b) is
    (1/2)(alpha(e_{p'}) beta + beta(e_{p'}) alpha) (x) (a_i b_j - a_j b_i) e_k.

    Family two, indexed by (j' <= k', l', m): the covector e^m tensored with
    identity and alternated, against the symmetric basis of primed forms; the
    value is (e_{j'} . e_{k'})(alpha, beta) e^{l'} (x) (1/2)(a_m b - b_m a).

    The normalizations are the naive symmetrization and alternation constants;
    only the spanned subspace is meaningful downstream.
    """
    if n < 2:
        raise UsageError("needs n >= 2")
    size = 2 * n
    half = Fraction(1, 2)

    def basis_data(a: int) -> tuple[int, int]:
        # returns (row index i, primed index j'), both 0-based
        return a // 2, a % 2

    family_one = []
    for p_prime in range(2):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    values = {}
                    for b in range(size):
                        ib, jb = basis_data(b)
                        for c in range(b + 1, size):
                            ic, jc = basis_data(c)
                            wedge = (
                                (1 if (ib, ic) == (i, j) else 0)
                                - (1 if (ib, ic) == (j, i) else 0)
                            )
                            vec = [Fraction(0)] * size
                            if wedge:
                                if jb == p_prime:
                                    vec[2 * k + jc] += half * wedge
                                if jc == p_prime:
                                    vec[2 * k + jb] += half * wedge
                            values[(b, c)] = vec
                    family_one.append(_target_vector_from_values(values, n))

    family_two = []
    for j_prime in range(2):
        for k_prime in range(j_prime, 2):
            for l_prime in range(2):
                for m in range(n):
                    values = {}
                    for b in range(size):
                        ib, jb = basis_data(b)
                        for c in range(b + 1, size):
                            ic, jc = basis_data(c)
                            sym = half * (
                                (1 if (jb, jc) == (j_prime, k_prime) else 0)
                                + (1 if (jb, jc) == (k_prime, j_prime) else 0)
                            )
                            vec = [Fraction(0)] * size
                            if sym:
                                if ib == m:
                                    vec[2 * ic + l_prime] += sym * half
                                if ic == m:
                                    vec[2 * ib + l_prime] -= sym * half
                            values[(b, c)] = vec
                    family_two.append(_target_vector_from_values(values, n))

    return TraceEmbeddings(n=n, family_one=tuple(family_one), family_two=tuple(family_two))


def act_on_domain(
    spec: GradedAlgebraSpec, a_idx: int, f_vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """g_0 action on f in g_{-1}* (x) g_0: (a.f)(w) = [a, f(w)] - f(rho(a) w)."""
    n = spec.n
    size = 2 * n
    dim0 = spec.dim_gzero
    rho_a = spec.action_matrix(a_idx)
    out = [Fraction(0)] * (size * dim0)
    for c in range(size):
        for m in range(dim0):
            coeff = f_vec[c * dim0 + m]
            if coeff:
                for m2, value in enumerate(spec.gzero_bracket(a_idx, m)):
                    if value:
                        out[c * dim0 + m2] += coeff * value
        for d in range(size):
            weight = rho_a[(d, c)]
            if weight:
                for m in range(dim0):
                    if f_vec[d * dim0 + m]:
                        out[c * dim0 + m] -= weight * f_vec[d * dim0 + m]
    return tuple(out)


def act_on_target(
    spec: GradedAlgebraSpec, a_idx: int, t_vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """g_0 action on T in Lambda^2 g_{-1}* (x) g_{-1}:
    (a.T)(w, v) = rho(a) T(w, v) - T(rho(a) w, v) - T(w, rho(a) v)."""
    n = spec.n
    size = 2 * n
    rho_a = spec.action_matrix(a_idx)

    def lookup(b: int, c: int) -> list[Fraction]:
        if b == c:
            return [Fraction(0)] * size
        sign = 1 if b < c else -1
        lo, hi = (b, c) if b < c else (c, b)
        base = pair_index(lo, hi, size) * size
        return [sign * t_vec[base + d] for d in range(size)]

    values = {}
    for b in range(size):
        for c in range(b + 1, size):
            vec = [Fraction(0)] * size
            tv = lookup(b, c)
            for d in range(size):
                if tv[d]:
                    for e in range(size):
                        if rho_a[(e, d)]:
                            vec[e] += rho_a[(e, d)] * tv[d]
            for e in range(size):
                wb = rho_a[(e, b)]
                if wb:
                    tv2 = lookup(e, c)
                    for d in range(size):
                        if tv2[d]:
                            vec[d] -= wb * tv2[d]
                wc = rho_a[(e, c)]
                if wc:
                    tv3 = lookup(b, e)
                    for d in range(size):
                        if tv3[d]:
                            vec[d] -= wc * tv3[d]
            values[(b, c)] = vec
    return _target_vector_from_values(values, n)
