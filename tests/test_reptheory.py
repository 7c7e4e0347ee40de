"""Graded algebra, the differential partial1, and the trace-part bookkeeping."""

import random
from fractions import Fraction

import pytest

from agdeform.deform import build_Phi
from agdeform.exactalg import UsageError, flat_index, pair_index
from agdeform.linalg import MatrixQ, membership, span_subspace
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
from agdeform.torsion import TorsionAssembler, lemma_criterion


def test_pair_index_bijection():
    for size in (4, 6, 8):
        seen = [pair_index(b, c, size) for b in range(size) for c in range(b + 1, size)]
        assert seen == list(range(size * (size - 1) // 2))
    with pytest.raises(UsageError):
        pair_index(2, 2, 6)
    with pytest.raises(UsageError):
        pair_index(3, 1, 6)


def test_algebra_spec_dimensions_and_guard():
    for n in (2, 3, 5):
        spec = GradedAlgebraSpec(n)
        assert spec.dim_gminus == 2 * n
        assert spec.dim_gzero == n * n + 3
        assert spec.dim_gplus == 2 * n
        assert len(spec.gzero_basis) == n * n + 3
    with pytest.raises(UsageError):
        GradedAlgebraSpec(1)


def test_gzero_coordinate_roundtrip():
    spec = GradedAlgebraSpec(3)
    rng = random.Random(3)
    for _ in range(20):
        coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(spec.dim_gzero))
        a2, bn = spec.gzero_from_coordinates(coeffs)
        assert sum(a2[(i, i)] for i in range(2)) + sum(bn[(j, j)] for j in range(3)) == 0
        assert spec.gzero_coordinates(a2, bn) == coeffs
    with pytest.raises(UsageError):
        spec.gzero_coordinates(MatrixQ.identity(2), MatrixQ.zero(3, 3))


def _dense_pieces(spec):
    """The graded bases as dense Fraction block matrices, built by embed."""
    return {
        -1: [spec.embed(None, None, spec.gminus_basis_matrix(a), None)
             for a in range(spec.dim_gminus)],
        0: [spec.embed(a2, bn, None, None) for a2, bn in spec.gzero_basis],
        1: [spec.embed(None, None, None, spec.gplus_basis_matrix(a))
            for a in range(spec.dim_gplus)],
    }


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
    """The sparse units are the dense blocks, and both paths agree for n = 2..4."""
    for n in (2, 3, 4):
        spec = GradedAlgebraSpec(n)
        dense = _dense_pieces(spec)
        sparse = spec.sparse_pieces()
        for grade, mats in dense.items():
            assert [
                {(r, c): v for r, row in enumerate(m.rows) for c, v in enumerate(row) if v}
                for m in mats
            ] == sparse[grade]
        assert spec.verify_grading() is True
        assert _dense_grading_holds(dense, n) is True


def test_verify_grading_rejects_a_g1_block_in_g0(monkeypatch):
    """Negative control: a g_0 basis element with a g_1 entry breaks the grading."""
    n = 3
    spec = GradedAlgebraSpec(n)
    dense = _dense_pieces(spec)
    rows = [list(row) for row in dense[0][4].rows]
    rows[0][2] = Fraction(1)
    dense[0][4] = MatrixQ(rows)
    assert _dense_grading_holds(dense, n) is False

    sparse = spec.sparse_pieces()
    sparse[0][4] = {**sparse[0][4], (0, 2): 1}
    monkeypatch.setattr(spec, "sparse_pieces", lambda: sparse)
    assert spec.verify_grading() is False


@pytest.mark.parametrize("n", [3, 4])
def test_membership_positive_control(n):
    """Image vectors of partial1 and their multiples are members on both the
    integer path and the Fraction oracle; adding 1 at a free coordinate is not."""
    p1 = build_partial1(n)
    image = p1.image()
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
    """rho(g_m) m_b must be the g_{-1} block of [embed(g_m), embed(m_b)]."""
    for n in (2, 3):
        spec = GradedAlgebraSpec(n)
        for m, (a2, bn) in enumerate(spec.gzero_basis):
            g0 = spec.embed(a2, bn, None, None)
            rho = spec.action_matrix(m)
            for b in range(2 * n):
                mb = spec.embed(None, None, spec.gminus_basis_matrix(b), None)
                comm = g0 * mb - mb * g0
                for i in range(n):
                    for jp in range(2):
                        assert comm[(2 + i, jp)] == rho[(2 * i + jp, b)]


def _apply_f(spec, f_vec, b, c):
    """f(w_b).w_c as a flat g_{-1} vector."""
    size = 2 * spec.n
    dim0 = spec.dim_gzero
    out = [Fraction(0)] * size
    for m in range(dim0):
        coeff = f_vec[b * dim0 + m]
        if coeff:
            action = spec.action_matrix(m)
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
            base = pair_index(b, c, size) * size
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
        spec = GradedAlgebraSpec(n)
        p1 = build_partial1(n, spec)
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
                    fb = _apply_f(spec, f_vec, b, c)
                    fc = _apply_f(spec, f_vec, c, b)
                    assert got == tuple(x - y for x, y in zip(fb, fc))


def test_rank_and_kernel():
    for n in (2, 3, 4):
        p1 = build_partial1(n)
        assert p1.domain_dim == 2 * n * (n * n + 3)
        assert p1.target_dim == n * (2 * n - 1) * 2 * n
        assert p1.rank == p1.domain_dim - 2 * n
        assert p1.kernel_dim == 2 * n


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
        p1 = build_partial1(n)
        assert p1.target_dim - p1.rank == decomposition_dims(n).torsion_module_dim


def test_trace_embeddings_counts_membership_span():
    for n in (2, 3):
        emb = trace_embedding_vectors(n)
        assert len(emb.family_one) == n * n * (n - 1)
        assert len(emb.family_two) == 6 * n
        p1 = build_partial1(n)
        image = p1.image()
        for vec in emb.all_vectors():
            assert membership(image, vec)
        span = span_subspace(emb.all_vectors(), p1.target_dim)
        assert span.dim == decomposition_dims(n).trace_span_dim


def test_rank_one_span_on_image():
    """Every Im(partial1) basis row keeps T(xi, eta)E_1' in span{E_1, E_s}."""
    for n in (2, 3):
        p1 = build_partial1(n)
        image = p1.image()
        for row in image.basis.rows:
            for s in range(2, n + 1):
                assert not lemma_criterion(row, s, n)
                assert not _lemma_oracle(row, s, n)
    with pytest.raises(UsageError):
        lemma_criterion([Fraction(0)] * (15 * 6), 1, 3)
    with pytest.raises(UsageError):
        lemma_criterion([Fraction(0)] * (15 * 6), 2, 2)


def test_rank_one_span_on_random_image_elements():
    n = 3
    p1 = build_partial1(n)
    rng = random.Random(11)
    rows = p1.image().basis.rows
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
    on seeded sparse integer vectors, with both verdicts reached for every s."""
    size = 2 * n
    rng = random.Random(n)
    seen = {s: set() for s in range(2, n + 1)}
    for _ in range(60):
        t_vec = [rng.choice((0, 0, 0, 0, 0, 0, 1, -2)) for _ in range(n * (size - 1) * size)]
        for s in range(2, n + 1):
            verdict = lemma_criterion(t_vec, s, n)
            assert verdict == _lemma_oracle(t_vec, s, n)
            seen[s].add(verdict)
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
        p1 = build_partial1(n, spec)
        rng = random.Random(n + 10)
        for _ in range(8):
            a_idx = rng.randrange(spec.dim_gzero)
            f_vec = [Fraction(rng.randint(-2, 2)) for _ in range(p1.domain_dim)]
            lhs = p1.apply(act_on_domain(spec, a_idx, f_vec))
            rhs = act_on_target(spec, a_idx, p1.apply(f_vec))
            assert tuple(lhs) == tuple(rhs)


def test_surjective_only_at_n2():
    p1 = build_partial1(2)
    assert p1.rank == p1.target_dim
    p3 = build_partial1(3)
    assert p3.rank < p3.target_dim
