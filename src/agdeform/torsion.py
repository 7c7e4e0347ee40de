"""Deformed parallel frame, Lie brackets, and the torsion of the deformed structure.

The pulled-back frame fields E-tilde^{j'}_i are parallel for the pullback of
the flat connection, so the torsion is minus their Lie brackets, carried by
the deformed structure map (Id + Phi) o theta.  The flat identification theta
sends the coordinate field d/dx_{k p'} to E^{p'}_k, so theta(-bracket) has
the bracket's flat components negated.  Phi annihilates theta of every
pulled-frame bracket (the check torsion.phi_kills_brackets), so the torsion
is the negated bracket itself.

The sampled sweep reads the torsion at a point as one positive integer
multiple of its value (exactalg.ScaledValues): its two verdicts, the
rank-one lemma criterion and membership in Im(partial1), do not change
under a positive scale.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .exactalg import RationalFunction, ScaledValues, UsageError, flat_index, two_form_block
from .deform import EndomorphismField
from .linalg import Vector, nonzero_entries
from .model import ChartPoint

#: A vector field sum_a f_a d/dx_a: its 2n components f_a in the flat order.
Components = tuple[RationalFunction, ...]


def pulled_frame(phi: EndomorphismField) -> tuple[Components, ...]:
    """The 2n fields E-tilde^{j'}_i = theta^{-1} (Id+Phi)^{-1} E^{j'}_i.

    Since Phi is nilpotent of order two, (Id+Phi)^{-1} = Id - Phi, and the
    field at flat_index(i, j') is that column of its matrix:
    E-tilde^{j'}_i = d^{j'}_i - sum_{p',k} Phi^{p'i}_{j'k} d^{p'}_k.
    """
    inverse = EndomorphismField.identity(phi.table, phi.nrows) - phi
    return tuple(zip(*inverse.rows))


def frame_bracket(
    phi: EndomorphismField, frame: Sequence[Components], f: int, g: int
) -> Components:
    """[E~_f, E~_g]^b = sum_a (E~_f^a d_a E~_g^b - E~_g^a d_a E~_f^b) for
    the pulled frame of phi (see pulled_frame) at flat indices f and g.

    E~_f^b is delta^b_f - Phi[b, f], so d_a E~_f^b = -d_a Phi[b, f] is read
    from phi's shared table of first derivatives rather than taken again.
    Chart coordinate a is table variable a.  Each component is a pairwise
    sum in the order of the generic bracket that differentiates every
    entry afresh (the tests' oracle for this one), and equals it, stored
    form and all.
    """
    xi, eta = frame[f], frame[g]
    size = len(xi)
    zero = RationalFunction.zero(phi.table)
    out = []
    for b in range(size):
        acc = zero
        for a in range(size):
            if not xi[a].is_zero():
                d = phi.derivative(b, g, a)
                if not d.is_zero():
                    acc = acc - xi[a] * d
            if not eta[a].is_zero():
                d = phi.derivative(b, f, a)
                if not d.is_zero():
                    acc = acc + eta[a] * d
        out.append(acc)
    return tuple(out)


class TorsionAssembler:
    """The torsion of the pulled frame of phi, built as it is read;
    evaluates per point.

    pair(f, g) is the bracket [m_f, m_g] of the pulled-frame fields at flat
    indices f and g in flat components, built on first read and kept in
    pairs.  The torsion T(m_f, m_g) = (Id + Phi) theta(-bracket) is minus
    it, as Phi theta(bracket) = 0 (see the module docstring).  symbolic is
    the torsion in pair-major order, built from the pairs on first read:
    T(m_a, m_b) = -pair(a, b) for a < b, in the flat basis, starts at
    two_form_block(a, b, 2n)[0].  evaluate gives a positive integer multiple
    of the torsion vector at a point (exactalg.ScaledValues), which is all
    that the scale-invariant sweep verdicts need; a sample point costs an
    integer evaluation, not re-differentiation.
    """

    def __init__(self, phi: EndomorphismField):
        self.phi = phi
        self.chart = phi.chart
        self.frame = pulled_frame(phi)
        self.pairs: dict[tuple[int, int], Components] = {}

    def pair(self, f: int, g: int) -> Components:
        """[m_f, m_g] in flat components, built on first read; the torsion
        T(m_f, m_g) is its negation."""
        value = self.pairs.get((f, g))
        if value is None:
            value = self.pairs[f, g] = frame_bracket(self.phi, self.frame, f, g)
        return value

    @functools.cached_property
    def symbolic(self) -> tuple[RationalFunction, ...]:
        size = 2 * self.chart.n
        return tuple(
            -f for a in range(size) for b in range(a + 1, size) for f in self.pair(a, b)
        )

    @functools.cached_property
    def _values(self) -> ScaledValues:
        """The integer evaluator of symbolic, built on the first evaluate:
        an assembler whose c stays symbolic serves pair and symbolic only."""
        return ScaledValues(self.symbolic)

    def evaluate(self, point: ChartPoint) -> tuple[int, ...]:
        """A positive integer multiple of the torsion vector at a numeric
        point, where a c left symbolic reads 0 (ChartPoint.evaluation_vector);
        q(point) = 0 raises PoleAtPoint."""
        return self._values.at(point.evaluation_vector())


def lemma_criterion(t_vec: Vector, s: int, n: int) -> bool:
    """Rank-one test certifying nonzero harmonic torsion.

    t_vec is a torsion value in pair-major order.  With xi, eta the frame
    values at flat indices (1,2') and (s,2'), both rank one with kernel
    spanned by E_1', every torsion in the image of the algebraic differential
    partial1 maps E_1' into span{E_1, E_s}.  Returns true iff T(xi, eta)(E_1')
    has a component along some E_k with k outside {1, s}; the verdict does
    not change when t_vec is scaled by a nonzero factor.  t_vec is dense or
    a sparse {index: value} mapping, as in linalg.membership.
    """
    if not (2 <= s <= n):
        raise UsageError(f"component index s must be in 2..{n}")
    return s in lemma_components(t_vec, n)


@functools.cache
def _lemma_columns(n: int) -> dict[int, int]:
    """{column: s} over the E_k outputs, k outside {1, s}, of the pair of
    frame values at flat indices (1,2') and (s,2'), for s in 2..n: the
    columns that lemma_criterion reads.  Each pair is its own block."""
    return {
        two_form_block(flat_index(1, 2), flat_index(s, 2), 2 * n)[0] + flat_index(k, 1): s
        for s in range(2, n + 1)
        for k in range(2, n + 1)
        if k != s
    }


def lemma_components(t_vec: Vector, n: int) -> tuple[int, ...]:
    """The indices s in 2..n, ascending, at which lemma_criterion(t_vec, s, n)
    holds; t_vec is validated once for all of them, and the columns of
    _lemma_columns meet its nonzero entries in one key intersection, which
    iterates the smaller of the two."""
    columns = _lemma_columns(n)
    entries = nonzero_entries(t_vec, n * (2 * n - 1) * 2 * n)
    return tuple(sorted({columns[j] for j in columns.keys() & entries.keys()}))
