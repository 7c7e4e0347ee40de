"""Exact linear algebra over the rationals: the sparse eliminator against
the dense rref oracle, spans, membership, sparse rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdeform.linalg import (
    MatrixQ,
    Subspace,
    membership,
    rank,
    rref,
    span_subspace,
    sparse_rank,
    sparse_rref,
)


def _matrix(rows):
    return MatrixQ([[Fraction(v) for v in row] for row in rows])


def random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return _matrix([[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)])


def test_matrix_basics():
    m = _matrix([[1, 2], [3, 4]])
    assert m[0, 1] == Fraction(2)
    assert m.transpose()[1, 0] == Fraction(2)
    ident = MatrixQ.identity(2)
    assert m * ident == m
    assert m + MatrixQ.zero(2, 2) == m
    assert (m - m) == MatrixQ.zero(2, 2)


def test_shape_mismatch():
    m = _matrix([[1, 2]])
    with pytest.raises(ValueError):
        m * m


def test_rref_idempotent_and_rank():
    rng = random.Random(2)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        result = rref(m)
        again = rref(result.reduced)
        assert again.reduced == result.reduced
        assert again.rank == result.rank
        assert rank(m) == rank(m.transpose())


def test_rank_of_product_bounded():
    rng = random.Random(9)
    for _ in range(20):
        a = random_matrix(rng, 4, 3)
        b = random_matrix(rng, 3, 5)
        assert rank(a * b) <= min(rank(a), rank(b))


def test_rank_nullity():
    """Each free column of the rref gives a kernel vector: ncols - rank of them."""
    rng = random.Random(4)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        result = rref(m)
        free = [j for j in range(m.ncols) if j not in result.pivot_columns]
        assert result.rank + len(free) == m.ncols
        for f in free:
            v = [Fraction(0)] * m.ncols
            v[f] = Fraction(1)
            for k, p in enumerate(result.pivot_columns):
                v[p] = -result.reduced[k, f]
            product = m * MatrixQ([[x] for x in v])
            assert all(entry == 0 for (entry,) in product.rows)


def test_membership_and_residual():
    basis = [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    space = span_subspace([tuple(v) for v in basis], 3)
    assert space.dim == 2
    assert membership(space, (Fraction(2), Fraction(3), Fraction(5)))
    assert not membership(space, (Fraction(0), Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        space.contains((Fraction(1), Fraction(0)))


def test_contains_matches_residual_on_random_vectors():
    """The integer functionals agree with contains and residual, also on
    vectors with denominators and on a basis with denominators."""
    rng = random.Random(31)
    vectors = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8))
        for _ in range(4)
    ]
    space = span_subspace(vectors, 8)
    assert any(v.denominator > 1 for row in space.basis.rows for v in row)
    members = 0
    for _ in range(60):
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in vectors]
            candidate = tuple(
                sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(8)
            )
        else:
            candidate = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
        verdict = membership(space, candidate)
        assert verdict is space.contains(candidate)
        assert verdict == (not any(space.residual(candidate)))
        members += verdict
    assert 0 < members < 60


def test_annihilator_rows_are_integer_residuals():
    """Row j pairs with any vector to a positive multiple of its residual at j."""
    rng = random.Random(5)
    vectors = [tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(6)) for _ in range(3)]
    space = span_subspace(vectors, 6)
    assert len(space.annihilator) == 6 - space.dim
    for _ in range(10):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        for row, j, res in zip(space.annihilator, space.free_columns, space.residual(v)):
            assert row[0] == (j, row[0][1]) and row[0][1] > 0
            assert all(isinstance(c, int) for _, c in row)
            assert sum(c * v[i] for i, c in row) == row[0][1] * res


def test_image_subspace():
    """The column space of m is the span of the rows of its transpose."""
    m = _matrix([[1, 0], [0, 1], [1, 1]])
    space = span_subspace(m.transpose().rows, m.nrows)
    assert space.dim == 2
    assert space.ambient_dim == 3
    assert membership(space, (Fraction(2), Fraction(3), Fraction(5)))
    assert not membership(space, (Fraction(1), Fraction(0), Fraction(0)))


def test_sparse_rank_agrees_with_dense():
    rng = random.Random(17)
    for _ in range(15):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        entries = {}
        for _ in range(rng.randint(0, nrows * ncols // 2)):
            entries[(rng.randrange(nrows), rng.randrange(ncols))] = rng.randint(-5, 5)
        entries = {k: v for k, v in entries.items() if v}
        dense = [[Fraction(0)] * ncols for _ in range(nrows)]
        for (r, c), v in entries.items():
            dense[r][c] = Fraction(v)
        expected = rank(_matrix(dense))
        assert sparse_rank(entries, nrows, ncols) == expected
        triples = [(r, c, v) for (r, c), v in entries.items()]
        assert sparse_rank(triples, nrows, ncols) == expected
    with pytest.raises(ValueError):
        sparse_rank({(2, 0): 1}, 2, 2)
    with pytest.raises(ValueError):
        sparse_rank([(0, -1, 1)], 2, 2)


def _oracle_subspace(rows, ncols):
    """The Subspace read off the dense rref of the rows."""
    result = rref(_matrix(rows))
    return Subspace(ncols, MatrixQ(result.reduced.rows[: result.rank]), result.pivot_columns)


_RATIONALS = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3])
)


@st.composite
def _row_sets(draw):
    """Random rational rows with zero rows and repeats, each given dense or
    sparse; returns (dense rows, the mixed input, ncols)."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(_RATIONALS, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(draw(st.sampled_from(rows))))
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    mixed = []
    for r in rows:
        if draw(st.booleans()):
            mixed.append({j: v for j, v in enumerate(r) if v})
        else:
            mixed.append(tuple(r))
    return rows, mixed, ncols


@settings(max_examples=150, deadline=None)
@given(_row_sets())
def test_sparse_rref_matches_dense_oracle(case):
    """Basis, pivot columns and annihilator of the sparse eliminator equal
    those read off the dense rref, for dense, sparse and mixed input."""
    rows, mixed, ncols = case
    oracle = _oracle_subspace(rows, ncols)
    space = span_subspace(mixed, ncols)
    assert space == oracle
    assert space.basis.rows == oracle.basis.rows
    assert space.pivot_columns == oracle.pivot_columns
    assert space.annihilator == oracle.annihilator
    assert all(isinstance(v, Fraction) for row in space.basis.rows for v in row)
    sparse_in = [{j: v for j, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in sparse_in]
    reduced = sparse_rref(sparse_in)
    assert sparse_in == before
    assert tuple(sorted(reduced)) == oracle.pivot_columns
    for p, row in zip(oracle.pivot_columns, oracle.basis.rows):
        assert reduced[p] == {j: v for j, v in enumerate(row) if v}


def test_span_guards_dimension_on_dense_and_sparse_rows():
    """A dense row of the wrong length and a sparse row with a column outside
    0..ambient_dim-1 both raise; neither widens the space."""
    with pytest.raises(ValueError):
        span_subspace([(Fraction(1), Fraction(2))], 3)
    with pytest.raises(ValueError):
        span_subspace([(1, 0, 0, 0)], 3)
    for bad in ({3: Fraction(1)}, {-1: 1}, {0: 1, 7: 2}, {1.0: 1}):
        with pytest.raises(ValueError):
            span_subspace([{0: 1}, bad], 3)
    space = span_subspace([{2: 5}, (0, 1, 0)], 3)
    assert space.ambient_dim == 3
    assert space.basis.ncols == 3
    assert space.pivot_columns == (1, 2)


def test_subspace_pivot_structure():
    vectors = [
        (Fraction(0), Fraction(2), Fraction(0), Fraction(4)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(3)),
    ]
    space = span_subspace(vectors, 4)
    assert space.pivot_columns == (1, 3)
    assert space.free_columns == (0, 2)
    # rows are reduced: each pivot column holds 1 in its own row, 0 elsewhere
    for k, p in enumerate(space.pivot_columns):
        for row_idx, row in enumerate(space.basis.rows):
            assert row[p] == (Fraction(1) if row_idx == k else Fraction(0))
