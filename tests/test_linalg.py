"""Exact linear algebra over the rationals: the sparse eliminator against
the dense rref oracle, spans, membership, sparse rank."""

import random
from collections.abc import Hashable, Mapping
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdeform.linalg import (
    MatrixQ,
    Subspace,
    membership,
    rref,
    span_subspace,
    sparse_rank,
    sparse_rref,
)
from agdeform.exactalg import UsageError, flat_index, two_form_block
from agdeform.reptheory import GradedAlgebraSpec, build_partial1
from agdeform.torsion import lemma_criterion
from oracles import contains, reduced_dense_rows, residual


def _matrix(rows):
    return MatrixQ([[Fraction(v) for v in row] for row in rows])


def _functional_rows(space):
    """The residual functionals of a Subspace as {free column: {column:
    coefficient}}, read back from its column index."""
    rows = {}
    for i, pairs in space.functionals.items():
        for j, coeff in pairs:
            rows.setdefault(j, {})[i] = coeff
    return rows


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
        assert rref(m).rank == rref(m.transpose()).rank


def test_rank_of_product_bounded():
    rng = random.Random(9)
    for _ in range(20):
        a = random_matrix(rng, 4, 3)
        b = random_matrix(rng, 3, 5)
        assert rref(a * b).rank <= min(rref(a).rank, rref(b).rank)


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
        contains(space, (Fraction(1), Fraction(0)))


def test_contains_matches_residual_on_random_vectors():
    """The integer functionals agree with contains and residual, also on
    vectors with denominators and on a basis whose RREF has denominators
    (integer rows with a pivot entry above 1)."""
    rng = random.Random(31)
    vectors = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8))
        for _ in range(4)
    ]
    space = span_subspace(vectors, 8)
    assert any(row[p] > 1 for p, row in space.basis.items())
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
        assert verdict is contains(space, candidate)
        assert verdict == (not any(residual(space, candidate)))
        members += verdict
    assert 0 < members < 60


def test_annihilator_rows_are_integer_residuals():
    """The functional of free column j, read back from the column index,
    has int coefficients, a positive one at j and none at another free
    column, and pairs with any vector to that coefficient times the
    residual at j."""
    rng = random.Random(5)
    vectors = [tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(6)) for _ in range(3)]
    space = span_subspace(vectors, 6)
    rows = _functional_rows(space)
    assert sorted(rows) == list(space.free_columns)
    assert len(rows) == 6 - space.dim
    for j, row in rows.items():
        assert row[j] > 0
        assert all(type(c) is int and c for c in row.values())
        assert all(i == j or i in space.basis for i in row)
    for _ in range(10):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        for j, res in zip(space.free_columns, residual(space, v)):
            assert sum(c * v[i] for i, c in rows[j].items()) == rows[j][j] * res


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
        expected = rref(_matrix(dense)).rank
        assert sparse_rank(entries, nrows, ncols) == expected
    with pytest.raises(ValueError):
        sparse_rank({(2, 0): 1}, 2, 2)
    with pytest.raises(ValueError):
        sparse_rank({(0, -1): 1}, 2, 2)


def _primitive_row(row):
    """A Fraction RREF row as the primitive int row with its positive pivot
    entry: times the lcm of its denominators, over the gcd of the result."""
    scale = lcm(*(v.denominator for v in row.values()))
    ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
    content = gcd(*ints.values())
    return {j: v // content for j, v in ints.items()}


def _oracle_subspace(rows, ncols):
    """The Subspace read off the dense rref of the rows, each row made
    primitive, and the dense rref rows."""
    result = rref(_matrix(rows))
    dense = result.reduced.rows[: result.rank]
    basis = {
        p: _primitive_row({j: v for j, v in enumerate(row) if v})
        for p, row in zip(result.pivot_columns, dense)
    }
    return Subspace(ncols, basis), dense


_RATIONALS = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3])
)

#: Entries of the three other kinds of row set: plain ints, and Fractions
#: over large pairwise coprime denominators.
_INTEGERS = st.integers(-9, 9)
_COPRIME = st.builds(
    Fraction,
    st.integers(-10**6, 10**6),
    st.sampled_from([1, 999_983, 1_000_003, 2**31 - 1, 10**9 + 7]),
)


def _echelon_rows(draw, ncols):
    """Rows whose leads ascend, each nonzero at its lead and random to its
    right: every new pivot column is held by the pivot rows before it, so
    the eliminator clears it from them (back-elimination) at every step."""
    leads = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    nonzero = _RATIONALS.filter(bool)
    return [
        [Fraction(0)] * lead
        + [draw(nonzero)]
        + draw(st.lists(_RATIONALS, min_size=ncols - lead - 1, max_size=ncols - lead - 1))
        for lead in leads
    ]


@st.composite
def _row_sets(draw):
    """Random rows with zero rows and repeats, each given dense or sparse;
    returns (dense rows, the mixed input, ncols).  The entries are small
    rationals, ints or Fractions over large coprime denominators, or the
    rows are in echelon form with ascending leads."""
    ncols = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rational", "integer", "coprime", "echelon"]))
    if kind == "echelon":
        rows = _echelon_rows(draw, ncols)
    else:
        entry = {"rational": _RATIONALS, "integer": _INTEGERS, "coprime": _COPRIME}[kind]
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        rows = draw(st.lists(row, min_size=1, max_size=7))
    if draw(st.booleans()):
        rows.append([Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(draw(st.sampled_from(rows))))
    if kind != "echelon":
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[i] for i in order]
    mixed = []
    for r in rows:
        if draw(st.booleans()):
            mixed.append({j: v for j, v in enumerate(r) if v})
        else:
            mixed.append(tuple(r))
    return rows, mixed, ncols


@settings(max_examples=300, deadline=None)
@given(_row_sets())
def test_sparse_rref_matches_dense_oracle(case):
    """Basis, pivot columns and functionals of the integer sparse eliminator
    equal those read off the dense Fraction rref, for dense, sparse and
    mixed input; int-only rows, rows over large coprime denominators and
    echelon rows that force back-elimination included.  Each basis row is
    the primitive int multiple of its rref row, positive at its pivot and
    zero at every other pivot column."""
    rows, mixed, ncols = case
    oracle, dense = _oracle_subspace(rows, ncols)
    space = span_subspace(mixed, ncols)
    assert space == oracle
    assert reduced_dense_rows(space) == dense
    assert space.pivot_columns == oracle.pivot_columns
    assert space.functionals == oracle.functionals
    for p, row in space.basis.items():
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1 and row[p] > 0
        assert not set(row) & set(space.basis) - {p}
    sparse_in = [{j: v for j, v in enumerate(r) if v} for r in rows]
    before = [dict(r) for r in sparse_in]
    reduced = sparse_rref(sparse_in)
    assert sparse_in == before
    assert tuple(sorted(reduced)) == oracle.pivot_columns
    assert reduced == oracle.basis


def test_two_spanning_sets_give_identical_integer_rows():
    """The integer basis is canonical: rows with denominators, and as many
    random rational combinations of them of the same rank, span equal
    Subspaces with the same int rows, each primitive, positive at its pivot
    and zero at every other pivot column, and each over its pivot entry the
    dense rref row."""
    rng = random.Random(12)
    for _ in range(20):
        ncols = rng.randint(2, 8)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 5))
        ]
        rank = rref(_matrix(rows)).rank
        while True:
            weights = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows] for _ in rows]
            combos = [
                [sum(w * r[j] for w, r in zip(ws, rows)) for j in range(ncols)] for ws in weights
            ]
            if rref(_matrix(combos)).rank == rank:
                break
        space, other = span_subspace(rows, ncols), span_subspace(combos, ncols)
        assert space == other and space.basis == other.basis
        for p, row in space.basis.items():
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1 and row[p] > 0
            assert not set(row) & set(space.basis) - {p}
        result = rref(_matrix(rows))
        assert reduced_dense_rows(space) == result.reduced.rows[:rank]


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
    assert reduced_dense_rows(space) == ((0, 1, 0), (0, 0, 1))
    assert space.pivot_columns == (1, 2)


def test_subspace_pivot_structure():
    vectors = [
        (Fraction(0), Fraction(2), Fraction(0), Fraction(4)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(3)),
    ]
    space = span_subspace(vectors, 4)
    assert space.pivot_columns == (1, 3)
    assert space.free_columns == (0, 2)
    # the rows divided by their pivots are reduced: each pivot column holds
    # 1 in its own row, 0 elsewhere
    for k, p in enumerate(space.pivot_columns):
        for row_idx, row in enumerate(reduced_dense_rows(space)):
            assert row[p] == (Fraction(1) if row_idx == k else Fraction(0))


@settings(max_examples=150, deadline=None)
@given(_row_sets(), st.data())
def test_membership_on_dense_and_sparse_vectors_matches_contains(case, data):
    """membership on the dense and on the sparse form of a member, of a
    random rational vector and of a random integer vector equals
    the Fraction oracle contains; the sparse form may carry explicit zeros."""
    rows, mixed, ncols = case
    space = span_subspace(mixed, ncols)
    coeffs = data.draw(st.lists(_RATIONALS, min_size=len(rows), max_size=len(rows)))
    member = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
    other = data.draw(st.lists(_RATIONALS, min_size=ncols, max_size=ncols))
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    assert contains(space, member)
    for dense in (member, other, ints):
        keep_zeros = data.draw(st.booleans())
        sparse = {j: v for j, v in enumerate(dense) if v or keep_zeros}
        expected = contains(space, dense)
        assert membership(space, dense) is expected
        assert membership(space, tuple(dense)) is expected
        assert membership(space, sparse) is expected
        assert contains(space, sparse) is expected
        assert residual(space, sparse) == residual(space, dense)


@st.composite
def _torsion_vectors(draw):
    """(n, s, sparse vector) at n = 2..4, with the entries the lemma
    criterion reads drawn as often as the others."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(2, n))
    size = 2 * n
    base = two_form_block(flat_index(1, 2), flat_index(s, 2), size)[0]
    read = [base + flat_index(k, 1) for k in range(1, n + 1)]
    index = st.one_of(st.sampled_from(read), st.integers(0, n * (size - 1) * size - 1))
    vector = draw(st.dictionaries(index, st.one_of(_RATIONALS, st.integers(-2, 2)), max_size=6))
    return n, s, vector


@settings(max_examples=200, deadline=None)
@given(_torsion_vectors())
def test_lemma_criterion_agrees_on_dense_and_sparse_forms(case):
    n, s, sparse = case
    dim = n * (2 * n - 1) * 2 * n
    dense = [sparse.get(j, 0) for j in range(dim)]
    assert lemma_criterion(sparse, s, n) is lemma_criterion(dense, s, n)


_BAD_INDEX = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=90),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.just(None),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 89), _RATIONALS, max_size=3), _BAD_INDEX)
def test_sparse_vector_with_a_bad_index_raises(good, bad):
    """A sparse vector with a non-int index or one outside 0..dim-1 raises
    ValueError in membership and lemma_criterion, as in span_subspace."""
    vector = {**good, bad: Fraction(1)}
    space = span_subspace([{0: 1}, {5: 2}], 90)
    with pytest.raises(ValueError):
        membership(space, vector)
    with pytest.raises(ValueError):
        lemma_criterion(vector, 2, 3)
    with pytest.raises(ValueError):
        span_subspace([vector], 90)


def test_subspace_equality_is_equality_of_spaces_and_it_is_unhashable():
    """== compares the canonical bases, so it means the same space; the
    basis is a dict, so a Subspace is unhashable, like RationalFunction."""
    space = span_subspace([(1, 2, 0), (0, 1, 1)], 3)
    assert space == span_subspace([{1: 3, 2: 3}, {0: 2, 1: 4}], 3)
    assert space != span_subspace([(1, 2, 0)], 3)
    assert space != span_subspace([(1, 2, 0, 0), (0, 1, 1, 0)], 4)
    assert not isinstance(space, Hashable)
    with pytest.raises(TypeError):
        hash(space)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, 0.5])
def test_bool_and_float_entries_are_refused(bad):
    """A bool or a float value, zero or not, dense or sparse, is a
    UsageError in membership and in span_subspace: True is not read as 1."""
    space = span_subspace([(1, 1, 0)], 3)
    for vector in ([bad, 1, 0], (1, bad, 0), {0: bad, 1: 1}, {2: bad}):
        with pytest.raises(UsageError):
            membership(space, vector)
        with pytest.raises(UsageError):
            span_subspace([vector], 3)
    with pytest.raises(UsageError):
        membership(space, [True, True, False])


@pytest.mark.parametrize("vector", [{True: 1}, {False: Fraction(1), 1: 2}, {True: 1, 1: 1}])
def test_bool_index_is_refused(vector):
    """A bool index of a sparse vector is a UsageError in membership and in
    span_subspace: True is not read as index 1."""
    space = span_subspace([(1, 1, 0)], 3)
    with pytest.raises(UsageError):
        membership(space, vector)
    with pytest.raises(UsageError):
        span_subspace([vector], 3)


class _ReadRecorder(Mapping):
    """A read-only view of a functional index that records each key read."""

    def __init__(self, index):
        self.index = index
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return self.index[key]

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


def test_membership_touches_only_the_functionals_that_meet_the_support():
    """membership reads the column index at the vector's nonzero columns
    only, and so pairs it with exactly the functionals that have a nonzero
    coefficient there: a unit vector at a free column meets one functional
    of the 24 of Im(partial1) at n = 3, however many the subspace has."""
    p1 = build_partial1(GradedAlgebraSpec(3))
    image = p1.image
    index = image.functionals
    rows = _functional_rows(image)
    assert len(rows) == 24
    rng = random.Random(8)
    pivot, free = image.pivot_columns, image.free_columns
    vectors = [{free[0]: 1}, {pivot[0]: Fraction(1, 2)}, {free[3]: 2, pivot[-1]: -1}]
    vectors += [
        {j: rng.randint(-3, 3) or 1 for j in rng.sample(range(p1.target_dim), 4)}
        for _ in range(20)
    ]
    vectors.append(dict(image.basis[pivot[5]]))
    verdicts, touched_counts = set(), []
    for vector in vectors:
        recorder = _ReadRecorder(index)
        image.__dict__["functionals"] = recorder
        try:
            verdict = membership(image, vector)
        finally:
            image.__dict__["functionals"] = index
        support = set(vector)
        assert set(recorder.read) == support
        touched = {j for i in recorder.read for j, _ in index.get(i, ())}
        assert touched == {j for j, row in rows.items() if support & set(row)}
        assert verdict is contains(image, vector)
        verdicts.add(verdict)
        touched_counts.append(len(touched))
    assert touched_counts[0] == 1
    assert max(touched_counts) < len(rows)
    assert verdicts == {True, False}
