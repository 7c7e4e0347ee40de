"""Graded algebra, the differential partial1, and the trace-part bookkeeping."""

import functools
import random
from fractions import Fraction

import pytest

from agdeform import checks
from agdeform.deform import build_Phi
from agdeform.exactalg import UsageError, flat_index, two_form_block
from agdeform.linalg import MatrixQ, membership, rref, span_subspace, sparse_rank
from agdeform.model import Chart
from agdeform.reptheory import (
    GradedAlgebraSpec,
    _commutator,
    act_on_domain,
    act_on_target,
    build_partial1,
    decomposition_dims,
    trace_embedding_vectors,
)
from agdeform.sampling import ball_sweep
from agdeform.torsion import TorsionAssembler, lemma_components, lemma_criterion


def test_pair_index_bijection():
    """two_form_block numbers the pairs b < c in order, block by block, and
    gives the swapped pair the same block with sign -1."""
    for size in (4, 6, 8):
        pairs = [(b, c) for b in range(size) for c in range(b + 1, size)]
        assert [two_form_block(b, c, size) for b, c in pairs] == [
            (k * size, 1) for k in range(len(pairs))
        ]
        for b, c in pairs:
            assert two_form_block(c, b, size) == (two_form_block(b, c, size)[0], -1)
    for b, c in ((2, 2), (-1, 3), (3, 6), (6, 0)):
        with pytest.raises(UsageError):
            two_form_block(b, c, 6)


def test_algebra_spec_dimensions_and_guard():
    for n in (2, 3, 5):
        spec = GradedAlgebraSpec(n)
        assert spec.dim_gminus == 2 * n
        assert spec.dim_gzero == n * n + 3
        assert spec.dim_gplus == 2 * n
        assert len(spec.gzero_basis) == n * n + 3
    with pytest.raises(UsageError):
        GradedAlgebraSpec(1)


# -- the dense oracle: the graded bases as MatrixQ blocks, with their own indexing ----


def _unit(nrows, ncols, r, c, value=1):
    return MatrixQ([[value if (i, j) == (r, c) else 0 for j in range(ncols)] for i in range(nrows)])


def _dense_gzero_pairs(n):
    """The g_0 basis as (A, B) pairs of dense 2 x 2 and n x n blocks."""
    zero2, zeron = MatrixQ.zero(2, 2), MatrixQ.zero(n, n)
    basis = [(_unit(2, 2, 0, 1), zeron), (_unit(2, 2, 1, 0), zeron)]
    basis += [(zero2, _unit(n, n, j, k)) for j in range(n) for k in range(n) if j != k]
    basis.append((MatrixQ([[1, 0], [0, -1]]), zeron))
    basis += [(zero2, _unit(n, n, j, j) - _unit(n, n, j + 1, j + 1)) for j in range(n - 1)]
    basis.append((_unit(2, 2, 0, 0), _unit(n, n, 0, 0, -1)))
    return basis


def _gminus_unit(n, a):
    """The n x 2 matrix unit at flat index a = 2i + j'."""
    return _unit(n, 2, a // 2, a % 2)


def _gplus_unit(n, a):
    """The 2 x n matrix unit at flat index a = n j' + i."""
    return _unit(2, n, a // n, a % n)


def _embed(n, a2=None, bn=None, x=None, z=None):
    """Block matrix [[A, Z], [X, B]] in sl(2+n)."""
    rows = [[Fraction(0)] * (2 + n) for _ in range(2 + n)]
    for block, r0, c0 in ((a2, 0, 0), (z, 0, 2), (x, 2, 0), (bn, 2, 2)):
        if block is not None:
            for i, row in enumerate(block.rows):
                for j, value in enumerate(row):
                    rows[r0 + i][c0 + j] = value
    return MatrixQ(rows)


def _dense_pieces(n):
    """The graded bases as dense Fraction block matrices."""
    return {
        -1: [_embed(n, x=_gminus_unit(n, a)) for a in range(2 * n)],
        0: [_embed(n, a2, bn) for a2, bn in _dense_gzero_pairs(n)],
        1: [_embed(n, z=_gplus_unit(n, a)) for a in range(2 * n)],
    }


def _sparse(mat):
    """The nonzero entries {(row, col): value} of a dense matrix."""
    return {(r, c): v for r, row in enumerate(mat.rows) for c, v in enumerate(row) if v}


@functools.cache
def _dense_rho(n, m):
    """rho(g_m) on g_{-1} by the defining formula: column b holds B m_b - m_b A,
    flattened by 2i + j'."""
    a_mat, b_mat = _dense_gzero_pairs(n)[m]
    cols = [b_mat * _gminus_unit(n, b) - _gminus_unit(n, b) * a_mat for b in range(2 * n)]
    return MatrixQ([[cols[b][(d // 2, d % 2)] for b in range(2 * n)] for d in range(2 * n)])


def _gzero_from_coordinates(n, coeffs):
    """The (A, B) pair with the given g_0 coordinates, assembled densely."""
    a_rows = [[Fraction(0)] * 2 for _ in range(2)]
    b_rows = [[Fraction(0)] * n for _ in range(n)]
    a_rows[0][1], a_rows[1][0] = Fraction(coeffs[0]), Fraction(coeffs[1])
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


def test_gzero_coordinate_roundtrip():
    """Dense coordinates -> sparse block -> gzero_coordinates is the identity,
    and each g_0 basis element has unit coordinates."""
    for n in (2, 3, 4):
        spec = GradedAlgebraSpec(n)
        rng = random.Random(n)
        for _ in range(20):
            coeffs = tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(spec.dim_gzero)
            )
            a2, bn = _gzero_from_coordinates(n, coeffs)
            assert sum(a2[(i, i)] for i in range(2)) + sum(bn[(j, j)] for j in range(n)) == 0
            assert spec.gzero_coordinates(_sparse(_embed(n, a2, bn))) == coeffs
        for m, unit in enumerate(spec.gzero_basis):
            assert spec.gzero_coordinates(unit) == tuple(int(k == m) for k in range(spec.dim_gzero))
    spec = GradedAlgebraSpec(3)
    with pytest.raises(UsageError):
        spec.gzero_coordinates(_sparse(_embed(3, MatrixQ.identity(2), MatrixQ.zero(3, 3))))
    with pytest.raises(UsageError):
        spec.gzero_coordinates({(0, 0): 1, (1, 1): -1, (2, 0): 1})


def _dense_grading_holds(pieces, n):
    """The dense oracle for verify_grading: MatrixQ commutators, graded by block."""

    def grades(mat):
        out = set()
        if any(mat[(2 + i, j)] for i in range(n) for j in range(2)):
            out.add(-1)
        if any(mat[(i, 2 + j)] for i in range(2) for j in range(n)):
            out.add(1)
        if any(mat[(i, j)] for i in range(2) for j in range(2)) or any(
            mat[(2 + i, 2 + j)] for i in range(n) for j in range(n)
        ):
            out.add(0)
        return out

    for gi, lefts in pieces.items():
        for gj, rights in pieces.items():
            target = gi + gj
            allowed = {target} if target in (-1, 0, 1) else set()
            for lm in lefts:
                for rm in rights:
                    if not grades(lm * rm - rm * lm) <= allowed:
                        return False
    return True


def test_sparse_commutator():
    e01, e10, e12 = {(0, 1): 1}, {(1, 0): 1}, {(1, 2): 2}
    assert _commutator(e01, e10) == {(0, 0): 1, (1, 1): -1}
    assert _commutator(e01, e12) == {(0, 2): 2}
    assert _commutator(e12, e01) == {(0, 2): -2}
    assert _commutator(e01, e01) == {}


def test_verify_grading():
    """The sparse bases are the dense embedded blocks entry by entry, with int
    values, and both grading paths agree for n = 2..4."""
    for n in (2, 3, 4):
        spec = GradedAlgebraSpec(n)
        dense = _dense_pieces(n)
        sparse = {-1: spec.gminus_basis, 0: spec.gzero_basis, 1: spec.gplus_basis}
        for grade, mats in dense.items():
            assert [_sparse(m) for m in mats] == sparse[grade]
            assert all(type(v) is int for unit in sparse[grade] for v in unit.values())
        assert spec.verify_grading() is True
        assert _dense_grading_holds(dense, n) is True


def test_verify_grading_rejects_a_g1_block_in_g0():
    """Negative control: a g_0 basis element with a g_1 entry breaks the grading."""
    n = 3
    dense = _dense_pieces(n)
    rows = [list(row) for row in dense[0][4].rows]
    rows[0][2] = Fraction(1)
    dense[0][4] = MatrixQ(rows)
    assert _dense_grading_holds(dense, n) is False

    spec = GradedAlgebraSpec(n)
    spec.gzero_basis[4] = {**spec.gzero_basis[4], (0, 2): 1}
    assert spec.verify_grading() is False


@pytest.mark.parametrize("n", [3, 4])
def test_membership_positive_control(n):
    """Image vectors of partial1 and their multiples are members on both the
    integer path and the Fraction oracle; adding 1 at a free coordinate is not."""
    p1 = build_partial1(GradedAlgebraSpec(n))
    image = p1.image
    rng = random.Random(40 + n)
    for _ in range(3):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(p1.domain_dim)]
        member = p1.apply(v)
        assert any(member)
        for multiple in (1, -1, 7):
            scaled = tuple(multiple * x for x in member)
            assert membership(image, scaled)
            assert image.contains(scaled)
        assert membership(image, tuple(int(x) for x in member))
        j = rng.choice(image.free_columns)
        bumped = list(member)
        bumped[j] += 1
        assert not membership(image, bumped)
        assert not image.contains(bumped)


def test_action_matrix_matches_block_commutator():
    """rho(g_m) m_b is the g_{-1} block of the dense [embed(g_m), embed(m_b)],
    and spec.rho holds exactly its nonzero entries, as ints."""
    for n in (2, 3):
        spec = GradedAlgebraSpec(n)
        for m, (a2, bn) in enumerate(_dense_gzero_pairs(n)):
            g0 = _embed(n, a2, bn)
            rho = _dense_rho(n, m)
            for b in range(2 * n):
                mb = _embed(n, x=_gminus_unit(n, b))
                comm = g0 * mb - mb * g0
                for i in range(n):
                    for jp in range(2):
                        assert comm[(2 + i, jp)] == rho[(2 * i + jp, b)]
            assert spec.rho[m] == _sparse(rho)
            assert all(type(v) is int for v in spec.rho[m].values())


def test_structure_constants_match_dense_brackets():
    """[g_m1, g_m2] rebuilt densely from its tabulated coordinates is the
    dense commutator of the (A, B) pairs."""
    for n in (2, 3):
        spec = GradedAlgebraSpec(n)
        pairs = _dense_gzero_pairs(n)
        for m1, (a1, b1) in enumerate(pairs):
            for m2, (a2, b2) in enumerate(pairs):
                table = spec.structure_constants[m1][m2]
                assert all(type(v) is int and v for v in table.values())
                coeffs = [table.get(m, 0) for m in range(spec.dim_gzero)]
                assert _gzero_from_coordinates(n, coeffs) == (a1 * a2 - a2 * a1, b1 * b2 - b2 * b1)


def _apply_f(n, f_vec, b, c):
    """f(w_b).w_c as a flat g_{-1} vector, through the dense rho."""
    size = 2 * n
    dim0 = n * n + 3
    out = [Fraction(0)] * size
    for m in range(dim0):
        coeff = f_vec[b * dim0 + m]
        if coeff:
            action = _dense_rho(n, m)
            for d in range(size):
                out[d] += coeff * action[(d, c)]
    return out


def _two_form(t_vec, xi, eta, n):
    """T(xi, eta) in g_{-1} for T in pair-major coordinates, summed over
    every pair: the general evaluation that the lemma criterion specializes."""
    size = 2 * n
    out = [Fraction(0)] * size
    for b in range(size):
        for c in range(b + 1, size):
            weight = xi[b] * eta[c] - xi[c] * eta[b]
            base, _ = two_form_block(b, c, size)
            for d in range(size):
                out[d] += weight * t_vec[base + d]
    return tuple(out)


def _lemma_oracle(t_vec, s, n):
    """Some component along E_k, k outside {1, s}, of T(xi, eta)(E_1') is
    nonzero, with xi = e^{2'} (x) e_s and eta = e^{2'} (x) e_1."""
    size = 2 * n
    xi = [Fraction(1 if d == flat_index(s, 2) else 0) for d in range(size)]
    eta = [Fraction(1 if d == flat_index(1, 2) else 0) for d in range(size)]
    value = _two_form(t_vec, xi, eta, n)
    return any(value[flat_index(k, 1)] for k in range(1, n + 1) if k not in (1, s))


def test_partial1_matrix_matches_definition():
    """Column oracle: (partial1 f)(w_b, w_c) = f(w_b).w_c - f(w_c).w_b."""
    for n in (2, 3):
        p1 = build_partial1(GradedAlgebraSpec(n))
        size = 2 * n
        rng = random.Random(n)
        for _ in range(3):
            f_vec = [Fraction(rng.randint(-3, 3)) for _ in range(p1.domain_dim)]
            t_vec = p1.apply(f_vec)
            for b in range(size):
                e_b = [Fraction(1 if d == b else 0) for d in range(size)]
                for c in range(b + 1, size):
                    e_c = [Fraction(1 if d == c else 0) for d in range(size)]
                    got = _two_form(t_vec, e_b, e_c, n)
                    fb = _apply_f(n, f_vec, b, c)
                    fc = _apply_f(n, f_vec, c, b)
                    assert got == tuple(x - y for x, y in zip(fb, fc))


def test_rank_and_kernel():
    for n in (2, 3, 4):
        p1 = build_partial1(GradedAlgebraSpec(n))
        assert p1.domain_dim == 2 * n * (n * n + 3)
        assert p1.target_dim == n * (2 * n - 1) * 2 * n
        assert p1.rank == p1.domain_dim - 2 * n
        assert p1.kernel_dim == 2 * n


def _dense_span(rows):
    """Basis rows and pivot columns of the dense rref oracle."""
    result = rref(MatrixQ(rows))
    return result.reduced.rows[: result.rank], result.pivot_columns


def _dense(vector, dim):
    """A sparse {index: value} vector as a dense tuple of length dim."""
    return tuple(vector.get(j, Fraction(0)) for j in range(dim))


def _dense_rows(space):
    """The sparse RREF basis of a Subspace as dense rows, in pivot order."""
    return tuple(_dense(space.basis[p], space.ambient_dim) for p in space.pivot_columns)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_image_matches_dense_rref(n):
    """Im(partial1) from the integer sparse eliminator has the basis and
    pivot columns of the dense Fraction rref of the columns of partial1,
    for n = 2..6."""
    p1 = build_partial1(GradedAlgebraSpec(n))
    columns = [[Fraction(0)] * p1.target_dim for _ in range(p1.domain_dim)]
    for (r, col), value in p1.entries.items():
        columns[col][r] = Fraction(value)
    basis, pivots = _dense_span(columns)
    assert _dense_rows(p1.image) == basis
    assert p1.image.pivot_columns == pivots
    assert p1.rank == len(pivots) == sparse_rank(p1.entries, p1.target_dim, p1.domain_dim)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_span_matches_dense_rref(n):
    span = span_subspace(trace_embedding_vectors(n), n * (2 * n - 1) * 2 * n)
    family_one, family_two = _dense_trace_embedding_vectors(n)
    basis, pivots = _dense_span(family_one + family_two)
    assert _dense_rows(span) == basis
    assert span.pivot_columns == pivots


def test_image_certified_at_n6():
    """At n = 6 the image is also certified on its own, with no oracle:
    every residual functional pairs to zero with every column of partial1,
    and the dimension is the closed-form rank 2n(n^2 + 3) - 2n."""
    n = 6
    p1 = build_partial1(GradedAlgebraSpec(n))
    image = p1.image
    assert p1.image is image
    assert image.dim == p1.rank == 2 * n * (n * n + 3) - 2 * n
    functionals: dict[int, dict[int, int]] = {}
    for i, pairs in image.functionals.items():
        for j, coeff in pairs:
            functionals.setdefault(j, {})[i] = coeff
    assert sorted(functionals) == list(image.free_columns)
    assert len(functionals) == p1.target_dim - image.dim
    columns: dict[int, dict[int, int]] = {}
    for (r, col), value in p1.entries.items():
        columns.setdefault(col, {})[r] = value
    assert len(columns) == p1.domain_dim
    for functional in functionals.values():
        for column in columns.values():
            assert sum(functional.get(r, 0) * v for r, v in column.items()) == 0
    # the cached image is not a field: it takes no part in == or repr
    assert p1 == build_partial1(GradedAlgebraSpec(n))
    assert "image" not in repr(p1)


def test_decomposition_dims_table():
    expected_torsion = {2: 0, 3: 24, 4: 80, 5: 180}
    for n in (2, 3, 4, 5):
        dims = decomposition_dims(n)
        assert dims.lambda_split == (n * (n + 1) // 2, 3 * n * (n - 1) // 2)
        assert sum(dims.lambda_split) == n * (2 * n - 1)
        assert dims.torsion_module_dim == expected_torsion[n]
        assert dims.trace_family_dims == (n * n * (n - 1), 6 * n)
        assert dims.trace_overlap_dim == 2 * n
        assert dims.trace_span_dim == n * (n * n - n + 4)
        # span dim = sum of family dims minus the overlap
        assert dims.trace_span_dim == sum(dims.trace_family_dims) - dims.trace_overlap_dim
    with pytest.raises(UsageError):
        decomposition_dims(1)


def test_cokernel_matches_torsion_module():
    for n in (2, 3):
        p1 = build_partial1(GradedAlgebraSpec(n))
        assert p1.target_dim - p1.rank == decomposition_dims(n).torsion_module_dim


# -- the dense oracle of the trace embeddings, with its own index arithmetic --------


def _dense_trace_embedding_vectors(n):
    """The two trace families as dense Fraction vectors, filled in over every
    pair b < c of g_{-1} slots with the slot (i, j') at 2i + j' (0-based)."""
    size = 2 * n
    half = Fraction(1, 2)

    def flatten(values):
        return tuple(x for b in range(size) for c in range(b + 1, size) for x in values[(b, c)])

    family_one = []
    for p_prime in range(2):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    values = {}
                    for b in range(size):
                        ib, jb = b // 2, b % 2
                        for c in range(b + 1, size):
                            ic, jc = c // 2, c % 2
                            wedge = int((ib, ic) == (i, j)) - int((ib, ic) == (j, i))
                            vec = [Fraction(0)] * size
                            if wedge:
                                if jb == p_prime:
                                    vec[2 * k + jc] += half * wedge
                                if jc == p_prime:
                                    vec[2 * k + jb] += half * wedge
                            values[(b, c)] = vec
                    family_one.append(flatten(values))

    family_two = []
    for j_prime in range(2):
        for k_prime in range(j_prime, 2):
            for l_prime in range(2):
                for m in range(n):
                    values = {}
                    for b in range(size):
                        ib, jb = b // 2, b % 2
                        for c in range(b + 1, size):
                            ic, jc = c // 2, c % 2
                            sym = half * (
                                int((jb, jc) == (j_prime, k_prime))
                                + int((jb, jc) == (k_prime, j_prime))
                            )
                            vec = [Fraction(0)] * size
                            if sym:
                                if ib == m:
                                    vec[2 * ic + l_prime] += sym * half
                                if ic == m:
                                    vec[2 * ib + l_prime] -= sym * half
                            values[(b, c)] = vec
                    family_two.append(flatten(values))
    return tuple(family_one), tuple(family_two)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_embeddings_match_dense_oracle(n):
    """The sparse trace vectors equal the dense oracle entry by entry, in
    order, and store no zeros; the families have n^2(n-1) and 6n members."""
    family_one, family_two = _dense_trace_embedding_vectors(n)
    assert len(family_one) == n * n * (n - 1)
    assert len(family_two) == 6 * n
    assert (len(family_one), len(family_two)) == decomposition_dims(n).trace_family_dims
    vectors = trace_embedding_vectors(n)
    dim = n * (2 * n - 1) * 2 * n
    assert tuple(_dense(v, dim) for v in vectors) == family_one + family_two
    assert all(value for v in vectors for value in v.values())


def test_trace_embeddings_counts_membership_span():
    for n in (2, 3):
        vectors = trace_embedding_vectors(n)
        assert len(vectors) == n * n * (n - 1) + 6 * n
        p1 = build_partial1(GradedAlgebraSpec(n))
        image = p1.image
        for vec in vectors:
            assert membership(image, vec)
            assert membership(image, _dense(vec, p1.target_dim))
        span = span_subspace(vectors, p1.target_dim)
        assert span.dim == decomposition_dims(n).trace_span_dim


def test_rank_one_span_on_image():
    """Every Im(partial1) basis row keeps T(xi, eta)E_1' in span{E_1, E_s}."""
    for n in (2, 3):
        p1 = build_partial1(GradedAlgebraSpec(n))
        image = p1.image
        for row in image.basis.values():
            for s in range(2, n + 1):
                assert not lemma_criterion(row, s, n)
                assert not _lemma_oracle(_dense(row, image.ambient_dim), s, n)
    with pytest.raises(UsageError):
        lemma_criterion([Fraction(0)] * (15 * 6), 1, 3)
    with pytest.raises(UsageError):
        lemma_criterion([Fraction(0)] * (15 * 6), 2, 2)


def test_rank_one_span_on_random_image_elements():
    n = 3
    p1 = build_partial1(GradedAlgebraSpec(n))
    rng = random.Random(11)
    rows = _dense_rows(p1.image)
    for _ in range(100):
        weights = [Fraction(rng.randint(-3, 3)) for _ in rows]
        vec = [Fraction(0)] * p1.target_dim
        for w, row in zip(weights, rows):
            if w:
                for d in range(p1.target_dim):
                    if row[d]:
                        vec[d] += w * row[d]
        for s in (2, 3):
            assert not lemma_criterion(vec, s, n)


@pytest.mark.parametrize("n", [3, 4])
def test_lemma_criterion_matches_two_form_oracle(n):
    """The one-block lemma criterion equals the general two-form evaluation
    on seeded sparse integer vectors, with both verdicts reached for every s,
    and lemma_components lists exactly the s at which it holds."""
    size = 2 * n
    rng = random.Random(n)
    seen = {s: set() for s in range(2, n + 1)}
    for _ in range(60):
        t_vec = [rng.choice((0, 0, 0, 0, 0, 0, 1, -2)) for _ in range(n * (size - 1) * size)]
        hits = []
        for s in range(2, n + 1):
            verdict = lemma_criterion(t_vec, s, n)
            assert verdict == _lemma_oracle(t_vec, s, n)
            seen[s].add(verdict)
            if verdict:
                hits.append(s)
        assert lemma_components(t_vec, n) == tuple(hits)
    assert all(verdicts == {True, False} for verdicts in seen.values())


def test_lemma_criterion_on_sweep_vectors():
    """Positive control: the sweep's torsion vectors leave span{E_1, E_s}."""
    chart = Chart(3)
    assembler = TorsionAssembler(build_Phi(chart, [Fraction(2), Fraction(-3)]))
    for s in (2, 3):
        for _, point in ball_sweep(chart, s, 5, range(1, 4), seed=s):
            vector = assembler.evaluate_scaled(point)
            assert lemma_criterion(vector, s, 3)
            assert _lemma_oracle(vector, s, 3)


def test_equivariance():
    """partial1 intertwines the g_0 actions on domain and target."""
    for n in (2, 3):
        spec = GradedAlgebraSpec(n)
        p1 = build_partial1(spec)
        rng = random.Random(n + 10)
        for _ in range(8):
            a_idx = rng.randrange(spec.dim_gzero)
            f_vec = [Fraction(rng.randint(-2, 2)) for _ in range(p1.domain_dim)]
            lhs = p1.apply(act_on_domain(spec, a_idx, f_vec))
            rhs = act_on_target(spec, a_idx, p1.apply(f_vec))
            assert tuple(lhs) == tuple(rhs)


@pytest.fixture
def fresh_artifacts():
    checks.artifacts.cache_clear()
    yield
    checks.artifacts.cache_clear()


def test_equivariance_check_rejects_a_flipped_structure_constant(fresh_artifacts):
    """Negative control: with one g_0 structure constant negated, the
    equivariance check fails and every other reptheory check still passes."""
    n = 3
    spec = checks.artifacts(n).spec
    # the basis element that the seeded check (seed 0) draws first
    a_idx = random.Random(n).randrange(spec.dim_gzero)
    table = next(t for t in spec.structure_constants[a_idx] if t)
    m = next(iter(table))
    table[m] = -table[m]
    reports = {r.check_id: r.status for r in checks.reptheory_suite((n,))}
    assert reports.pop(f"reptheory.equivariance.n{n}") == checks.FAIL
    assert set(reports.values()) == {checks.PASS}


def test_surjective_only_at_n2():
    p1 = build_partial1(GradedAlgebraSpec(2))
    assert p1.rank == p1.target_dim
    p3 = build_partial1(GradedAlgebraSpec(3))
    assert p3.rank < p3.target_dim
