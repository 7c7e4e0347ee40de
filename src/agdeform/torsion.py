"""The torsion of the deformed structure, read from Phi's first derivatives.

The pulled-back frame fields E~_f = (Id - Phi) e_f are parallel for the
pullback of the flat connection, so the torsion is minus their Lie brackets,
carried by the deformed structure map (Id + Phi) o theta.  The flat
identification theta sends the coordinate field d/dx_{k p'} to E^{p'}_k, so
theta(-bracket) has the bracket's flat components negated.  Phi annihilates
theta of every pulled-frame bracket (the check torsion.phi_kills_brackets),
so the torsion is the negated bracket itself.  As E~_f^b = delta^b_f -
Phi[b, f], the bracket [E~_f, E~_g]^b is d_g Phi[b, f] - d_f Phi[b, g] plus
sum_a (Phi[a, f] d_a Phi[b, g] - Phi[a, g] d_a Phi[b, f]), and that sum
vanishes for Phi_c (the check torsion.frame_quadratic_cancels): the bracket
is the antisymmetrised derivative of Phi.

The sampled sweep reads the torsion at a point as one positive integer
multiple of its value (exactalg.ScaledValues): its two verdicts, the
rank-one lemma criterion and membership in Im(partial1), do not change
under a positive scale.  A point binds x only, so the sweep's Phi has c
bound by Chart.c_substitution before its torsion is evaluated.
"""

from __future__ import annotations

import functools

from .exactalg import RationalFunction, ScaledValues, UsageError, flat_index, two_form_block
from .deform import EndomorphismField
from .linalg import Vector, nonzero_entries
from .model import ChartPoint

#: A vector field sum_a f_a d/dx_a: its 2n components f_a in the flat order.
Components = tuple[RationalFunction, ...]


class TorsionAssembler:
    """The torsion of the pulled frame of phi, built as it is read;
    evaluates per point.

    pair(f, g) is the bracket [E~_f, E~_g] at flat indices f and g in flat
    components, the tuple d_g Phi[b, f] - d_f Phi[b, g] over b (see the
    module docstring), built on first read and kept in pairs; the torsion
    T(E~_f, E~_g) is minus it.  symbolic is the torsion in pair-major order,
    built from the pairs on first read: T(E~_a, E~_b) = -pair(a, b) for
    a < b, in the flat basis, starts at two_form_block(a, b, 2n)[0].
    evaluate gives a positive integer multiple of the torsion vector at a
    point (exactalg.ScaledValues), which is all that the scale-invariant
    sweep verdicts need.
    """

    def __init__(self, phi: EndomorphismField):
        self.phi = phi
        self.pairs: dict[tuple[int, int], Components] = {}

    def pair(self, f: int, g: int) -> Components:
        """[E~_f, E~_g] in flat components, built on first read; the torsion
        T(E~_f, E~_g) is its negation."""
        value = self.pairs.get((f, g))
        if value is None:
            d = self.phi.derivative
            value = self.pairs[f, g] = tuple(d(b, f, g) - d(b, g, f) for b in range(self.phi.nrows))
        return value

    @functools.cached_property
    def symbolic(self) -> tuple[RationalFunction, ...]:
        size = self.phi.nrows
        return tuple(
            -f for a in range(size) for b in range(a + 1, size) for f in self.pair(a, b)
        )

    @functools.cached_property
    def _values(self) -> ScaledValues:
        """The integer evaluator of symbolic, built on the first evaluate."""
        return ScaledValues(self.symbolic)

    def evaluate(self, point: ChartPoint) -> tuple[int, ...]:
        """A positive integer multiple of the torsion vector at a numeric
        point; q(point) = 0 raises PoleAtPoint.  phi must have c bound (a
        point binds x only, so ScaledValues refuses a torsion with some c_i
        in it)."""
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
