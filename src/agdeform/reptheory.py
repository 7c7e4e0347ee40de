"""The graded matrix algebra as sparse integer block matrices, and its differential.

g = g_{-1} + g_0 + g_1 sits inside sl(2+n) by block structure: g_{-1} the
lower-left n x 2 block, g_1 the upper-right, g_0 the pairs (A, B) of diagonal
blocks with tr A + tr B = 0.  Every element is held in one form only, a sparse
integer (2+n) x (2+n) block matrix {(row, col): value}.  The action rho of g_0
on g_{-1}, the g_0 structure constants and the differential
partial1 : g_{-1}* (x) g_0 -> Lambda^2 g_{-1}* (x) g_{-1},
(partial1 f)(w, v) = f(w).v - f(v).w, are all read off commutators of these
block units, so their entries are integers by construction.  partial1 is one
sparse integer matrix per n; its image is the obstruction space behind the
rank-one torsion criterion.  The trace embeddings, which lie in that image,
are sparse {index: value} rows of the same target space, addressed through
exactalg.flat_index and exactalg.two_form_block only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import UsageError, flat_index, two_form_block
from .linalg import Subspace, span_subspace

#: A sparse block matrix in sl(2+n): {(row, col): value} over its nonzero entries.
Block = dict[tuple[int, int], int]


class GradedAlgebraSpec:
    """Fixed ordered bases of the three graded pieces at a given n.

    g_{-1}: the unit at block position (2 + i, j'), at flat index 2i + j'
    (the order of exactalg.flat_index).  g_1: the unit at (j', 2 + i), at
    flat index n j' + i.  g_0, in order: the two strictly triangular 2x2
    units; the n(n-1) off-diagonal n x n units in lexicographic order;
    diag(1,-1) in the 2x2 slot; the n-1 consecutive diagonal differences in
    the n x n slot; and one mixed trace-balanced element (diag(1,0), -E_11).
    Total n^2 + 3.
    """

    def __init__(self, n: int):
        if n < 2:
            raise UsageError("graded algebra needs n >= 2")
        self.n = n
        self.gminus_basis: list[Block] = [
            {(2 + i, jp): 1} for i in range(n) for jp in range(2)
        ]
        self.gzero_basis: list[Block] = (
            [{(0, 1): 1}, {(1, 0): 1}]
            + [{(2 + j, 2 + k): 1} for j in range(n) for k in range(n) if j != k]
            + [{(0, 0): 1, (1, 1): -1}]
            + [{(2 + j, 2 + j): 1, (3 + j, 3 + j): -1} for j in range(n - 1)]
            + [{(0, 0): 1, (2, 2): -1}]
        )
        self.gplus_basis: list[Block] = [
            {(jp, 2 + i): 1} for jp in range(2) for i in range(n)
        ]
        self.dim_gminus = len(self.gminus_basis)
        self.dim_gzero = len(self.gzero_basis)
        self.dim_gplus = len(self.gplus_basis)

    def domain_index(self, a: int, m: int) -> int:
        """Flat index of xi^a (x) g_m in the domain g_{-1}* (x) g_0, a outermost."""
        return a * self.dim_gzero + m

    @functools.cached_property
    def rho(self) -> tuple[dict[tuple[int, int], int], ...]:
        """rho(g_m) on g_{-1} for each m, as {(d, b): value}: the g_{-1} block
        of [g_m, unit_b] in flat coordinates, column b outermost.  A
        commutator entry outside g_{-1} has no flat index and raises."""
        slot = {pos: a for a, unit in enumerate(self.gminus_basis) for pos in unit}
        return tuple(
            {
                (slot[pos], b): value
                for b, unit in enumerate(self.gminus_basis)
                for pos, value in sorted(_commutator(g_m, unit).items())
            }
            for g_m in self.gzero_basis
        )

    @functools.cached_property
    def structure_constants(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """structure_constants[m1][m2] = {m: value}, the nonzero coordinates
        of [g_{m1}, g_{m2}] in the g_0 basis."""
        return tuple(
            tuple(
                {m: value for m, value in enumerate(self.gzero_coordinates(_commutator(g1, g2)))
                 if value}
                for g2 in self.gzero_basis
            )
            for g1 in self.gzero_basis
        )

    def verify_grading(self) -> bool:
        """[g_i, g_j] lands in g_{i+j} (zero when |i+j| > 1) on all basis pairs."""
        pieces = {-1: self.gminus_basis, 0: self.gzero_basis, 1: self.gplus_basis}
        for gi, lefts in pieces.items():
            for gj, rights in pieces.items():
                target = gi + gj
                allowed = {target} if target in (-1, 0, 1) else set()
                for lm in lefts:
                    for rm in rights:
                        if not _block_grades(_commutator(lm, rm)) <= allowed:
                            return False
        return True

    def gzero_coordinates(self, mat: dict[tuple[int, int], int | Fraction]) -> tuple:
        """Coefficients in the g_0 basis of a trace-balanced block-diagonal
        matrix {(row, col): value}; the values may be int or Fraction."""
        if not _block_grades(mat) <= {0}:
            raise UsageError("element is not in g_0")
        n = self.n

        def entry(r: int, c: int):
            return mat.get((r, c), 0)

        if sum(entry(i, i) for i in range(2 + n)) != 0:
            raise UsageError("element is not trace-balanced")
        # the coefficient of the j-th diagonal difference is -(B_{j+1} + ... + B_{n-1})
        diffs = []
        partial = 0
        for j in range(n - 1, 0, -1):
            partial -= entry(2 + j, 2 + j)
            diffs.append(partial)
        return (
            (entry(0, 1), entry(1, 0))
            + tuple(entry(2 + j, 2 + k) for j in range(n) for k in range(n) if j != k)
            + (-entry(1, 1),)
            + tuple(reversed(diffs))
            + (entry(0, 0) + entry(1, 1),)
        )


def _commutator(left: Block, right: Block) -> Block:
    """left*right - right*left for sparse integer matrices, zeros dropped."""
    out: Block = {}
    for first, second, sign in ((left, right, 1), (right, left, -1)):
        for (i, k), a in first.items():
            for (k2, j), b in second.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + sign * a * b
    return {key: value for key, value in out.items() if value}


def _block_grades(mat: Block) -> set[int]:
    """Which graded pieces the nonzero entries of a block matrix touch:
    -1 for the lower-left n x 2 block, 1 for the upper-right, 0 for the
    diagonal blocks."""
    return {(c >= 2) - (r >= 2) for r, c in mat}


@dataclass(frozen=True)
class Partial1Map:
    """The differential as sparse integer entries {(row, col): value}; its
    image is reduced once, on first use, and the rank read off it."""

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


def build_partial1(spec: GradedAlgebraSpec) -> Partial1Map:
    """Exact matrix of (partial1 f)(w_b, w_c) = f(w_b).w_c - f(w_c).w_b.

    Columns indexed by spec.domain_index(a, m) for f = xi^a (x) g_m; rows
    in the pair-major order of two_form_block.  The entries are the
    integers of spec.rho.  Nothing is eliminated here: the image and the
    rank come from one sparse reduction, on first use of Partial1Map.image.
    """
    size = spec.dim_gminus
    entries: dict[tuple[int, int], int] = {}
    for a in range(size):
        for m, rho_m in enumerate(spec.rho):
            for (d, other), value in rho_m.items():
                if other == a:
                    continue
                start, sign = two_form_block(a, other, size)
                entries[(start + d, spec.domain_index(a, m))] = sign * value
    return Partial1Map(
        entries=entries,
        domain_dim=size * spec.dim_gzero,
        target_dim=size * (size - 1) // 2 * size,
    )


@dataclass(frozen=True)
class DecompositionDims:
    """Dimension bookkeeping of the two-form decomposition at a given n."""

    lambda_split: tuple[int, int]
    torsion_module_dim: int
    trace_family_dims: tuple[int, int]
    trace_overlap_dim: int
    trace_span_dim: int


def decomposition_dims(n: int) -> DecompositionDims:
    if n < 2:
        raise UsageError("needs n >= 2")
    return DecompositionDims(
        lambda_split=(n * (n + 1) // 2, 3 * n * (n - 1) // 2),
        torsion_module_dim=2 * n * (n - 2) * (n + 1) if n >= 3 else 0,
        trace_family_dims=(n * n * (n - 1), 6 * n),
        trace_overlap_dim=2 * n,
        trace_span_dim=n * (n * n - n + 4),
    )


def trace_embedding_vectors(n: int) -> tuple[dict[int, Fraction], ...]:
    """The two families of identity-contracted trace vectors in the target space.

    Family one, indexed by (p', i < j, k): the R^2 vector e_{p'} tensored
    with identity and symmetrized in the primed slots, against the wedge
    basis (e^i ^ e^j) (x) e_k; the value on (alpha (x) a, beta (x) b) is
    (1/2)(alpha(e_{p'}) beta + beta(e_{p'}) alpha) (x) (a_i b_j - a_j b_i) e_k.

    Family two, indexed by (j' <= k', l', m): the covector e^m tensored with
    identity and alternated, against the symmetric basis of primed forms; the
    value is (e_{j'} . e_{k'})(alpha, beta) e^{l'} (x) (1/2)(a_m b - b_m a).

    The normalizations are the naive symmetrization and alternation constants;
    only the spanned subspace is meaningful downstream.  Returns the
    n^2(n-1) vectors of family one, then the 6n of family two, each a sparse
    {index: value} row in the pair-major order of Partial1Map, filled in
    over its nonzero slot pairs only.
    """
    if n < 2:
        raise UsageError("needs n >= 2")
    size = 2 * n
    half = Fraction(1, 2)

    def add(vec: dict[int, Fraction], b: int, c: int, d: int, value: Fraction) -> None:
        """vec += value at output d of T(w_b, w_c), with T(w_c, w_b) = -T(w_b, w_c)."""
        start, sign = two_form_block(b, c, size)
        key = start + d
        vec[key] = vec.get(key, 0) + sign * value

    vectors = []
    for p_prime in (1, 2):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    # the wedge is nonzero only on the slots (i, b') < (j, c')
                    vec: dict[int, Fraction] = {}
                    for b_prime in (1, 2):
                        for c_prime in (1, 2):
                            b, c = flat_index(i, b_prime), flat_index(j, c_prime)
                            if b_prime == p_prime:
                                add(vec, b, c, flat_index(k, c_prime), half)
                            if c_prime == p_prime:
                                add(vec, b, c, flat_index(k, b_prime), half)
                    vectors.append(vec)

    for j_prime in (1, 2):
        for k_prime in range(j_prime, 3):
            primed = sorted({(j_prime, k_prime), (k_prime, j_prime)})
            # half the symmetrized pairing: 1 on (j', j'), 1/2 on each order of j' != k'
            weight = half if j_prime == k_prime else half * half
            for l_prime in (1, 2):
                for m in range(1, n + 1):
                    # nonzero only where one slot lies in row m and the other
                    # in a row i != m; two slots in row m cancel
                    vec = {}
                    for b_prime, c_prime in primed:
                        for i in range(1, n + 1):
                            if i != m:
                                add(vec, flat_index(m, b_prime), flat_index(i, c_prime),
                                    flat_index(i, l_prime), weight)
                    vectors.append(vec)
    return tuple(vectors)


def act_on_domain(
    spec: GradedAlgebraSpec, a_idx: int, f_vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """g_0 action on f in g_{-1}* (x) g_0: (a.f)(w) = [a, f(w)] - f(rho(a) w)."""
    index = spec.domain_index
    brackets = spec.structure_constants[a_idx]
    out = [Fraction(0)] * len(f_vec)
    for c in range(spec.dim_gminus):
        for m in range(spec.dim_gzero):
            coeff = f_vec[index(c, m)]
            if coeff:
                for m2, value in brackets[m].items():
                    out[index(c, m2)] += coeff * value
    for (d, c), weight in spec.rho[a_idx].items():
        for m in range(spec.dim_gzero):
            coeff = f_vec[index(d, m)]
            if coeff:
                out[index(c, m)] -= weight * coeff
    return tuple(out)


def act_on_target(
    spec: GradedAlgebraSpec, a_idx: int, t_vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """g_0 action on T in Lambda^2 g_{-1}* (x) g_{-1}:
    (a.T)(w, v) = rho(a) T(w, v) - T(rho(a) w, v) - T(w, rho(a) v)."""
    size = spec.dim_gminus
    rho_a = spec.rho[a_idx]
    columns: dict[int, list[tuple[int, int]]] = {}
    for (e, b), weight in rho_a.items():
        columns.setdefault(b, []).append((e, weight))
    out = [Fraction(0)] * len(t_vec)

    def subtract(base: int, weight: int, b: int, c: int) -> None:
        """out[base:base + 2n] -= weight * T(w_b, w_c)."""
        if b == c:
            return
        source, sign = two_form_block(b, c, size)
        weight *= sign
        for d in range(size):
            if t_vec[source + d]:
                out[base + d] -= weight * t_vec[source + d]

    for b in range(size):
        for c in range(b + 1, size):
            base, _ = two_form_block(b, c, size)
            for (e, d), weight in rho_a.items():
                if t_vec[base + d]:
                    out[base + e] += weight * t_vec[base + d]
            for e, weight in columns.get(b, ()):
                subtract(base, weight, e, c)
            for e, weight in columns.get(c, ()):
                subtract(base, weight, b, e)
    return tuple(out)
