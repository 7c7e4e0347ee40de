"""Deformed parallel frame, Lie brackets, and the torsion of the deformed structure.

The pulled-back frame fields E-tilde^{j'}_i are parallel for the pullback of
the flat connection, so the torsion reduces to minus their Lie brackets,
re-expressed through the deformed structure map (Id + Phi) o theta.  The flat
identification theta sends the coordinate field d/dx_{k p'} to E^{p'}_k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactalg import (
    PoleAtPoint,
    Polynomial,
    RationalFunction,
    UsageError,
    flat_index,
    render_polynomial,
    two_form_block,
)
from .deform import EndomorphismField
from .linalg import Vector, nonzero_entries
from .model import ChartPoint

#: A vector field sum_a f_a d/dx_a: its 2n components f_a in the flat order.
Components = tuple[RationalFunction, ...]


def lie_bracket(xi: Components, eta: Components) -> Components:
    """[xi, eta]^b = sum_a (xi^a d_a eta^b - eta^a d_a xi^b).

    Chart coordinate a is table variable a, so differentiation is by flat
    index directly.
    """
    size = len(xi)
    zero = RationalFunction.zero(xi[0].table)
    out = []
    for b in range(size):
        acc = zero
        for a in range(size):
            if not xi[a].is_zero():
                d = eta[b].differentiate(a)
                if not d.is_zero():
                    acc = acc + xi[a] * d
            if not eta[a].is_zero():
                d = xi[b].differentiate(a)
                if not d.is_zero():
                    acc = acc - eta[a] * d
        out.append(acc)
    return tuple(out)


def pulled_frame(phi: EndomorphismField) -> tuple[Components, ...]:
    """The 2n fields E-tilde^{j'}_i = theta^{-1} (Id+Phi)^{-1} E^{j'}_i.

    Since Phi is nilpotent of order two, (Id+Phi)^{-1} = Id - Phi, and the
    field at flat_index(i, j') is that column of its matrix:
    E-tilde^{j'}_i = d^{j'}_i - sum_{p',k} Phi^{p'i}_{j'k} d^{p'}_k.
    """
    inverse = EndomorphismField.identity(phi.table, phi.nrows) - phi
    return tuple(zip(*inverse.rows))


def _structure_map(phi: EndomorphismField, bracket: Components) -> Components:
    """(Id + Phi) theta(-bracket) on the flat basis, computed as psi + Phi psi.

    theta sends the coefficient of d^{p'}_k to the section slot (k, p'),
    which has the same flat index, so psi is the flat components of -bracket.
    Adding psi skips building Id + Phi and multiplying psi by its diagonal.
    """
    psi = tuple(-f for f in bracket)
    return tuple(a + b for a, b in zip(psi, phi.apply(psi)))


@dataclass(frozen=True)
class TorsionComponent:
    """The section-level data of one torsion component T(E-tilde^{2'}_s, E-tilde^{2'}_1).

    bracket holds the flat components of the raw Lie bracket; d holds those
    of D = (Id+Phi) theta(-bracket), so D(E_{j'})_k = d[flat_index(k, j')].
    """

    bracket: Components
    d: Components


def torsion_component(phi: EndomorphismField, s: int) -> TorsionComponent:
    chart = phi.chart
    if not (2 <= s <= chart.n):
        raise UsageError(f"component index s must be in 2..{chart.n}")
    frame = pulled_frame(phi)
    bracket = lie_bracket(frame[flat_index(s, 2)], frame[flat_index(1, 2)])
    return TorsionComponent(bracket=bracket, d=_structure_map(phi, bracket))


class _IntegerPolynomials:
    """Polynomials in the chart variables, evaluated in integer arithmetic.

    At a rational point x = X / D with integer X and D > 0, values(X, D) is
    the list of integers scale * D**degree * p(x), where scale > 0 clears
    every coefficient denominator and degree is the largest total degree:
    one positive multiple of all the values p(x).
    """

    def __init__(self, polys: Sequence[Polynomial], nvars: int):
        scale = lcm(*(c.denominator for p in polys for c in p.coeffs.values()))
        monomials: dict[tuple[int, ...], int] = {}
        terms = []
        for p in polys:
            row = []
            for mono, coeff in p.coeffs.items():
                if any(mono[nvars:]):
                    raise ValueError("a torsion polynomial uses a variable outside the chart")
                idx = monomials.setdefault(mono[:nvars], len(monomials))
                row.append((idx, coeff.numerator * (scale // coeff.denominator)))
            terms.append(tuple(row))
        self.terms = tuple(terms)
        self.degree = max((sum(m) for m in monomials), default=0)
        self.monomials = tuple(
            (self.degree - sum(m), tuple((v, e) for v, e in enumerate(m) if e))
            for m in monomials
        )

    def values(self, X: Sequence[int], D: int) -> list[int]:
        mono_values = []
        for d_power, factors in self.monomials:
            value = D**d_power
            for v, e in factors:
                value *= X[v] ** e
            mono_values.append(value)
        return [sum(c * mono_values[i] for i, c in row) for row in self.terms]


class TorsionAssembler:
    """Precomputes the symbolic torsion once; evaluates per point.

    symbolic is the torsion in pair-major order: T(m_a, m_b) for the pulled
    frame fields m_a, m_b at flat indices a < b, in the flat basis, starts at
    two_form_block(a, b, 2n)[0].  Evaluation at many sample points only costs
    rational-function evaluation, not re-differentiation.  evaluate gives the
    exact torsion vector; evaluate_scaled gives a positive multiple of it in
    integer arithmetic, which is all that the scale-invariant sweep verdicts
    need.
    """

    def __init__(self, phi: EndomorphismField):
        self.phi = phi
        self.chart = phi.chart
        size = 2 * self.chart.n
        frame = pulled_frame(phi)
        self.symbolic: tuple[RationalFunction, ...] = tuple(
            f
            for a in range(size)
            for b in range(a + 1, size)
            for f in _structure_map(phi, lie_bracket(frame[a], frame[b]))
        )

    def evaluate(
        self, point: ChartPoint, c: Sequence[Fraction] | None = None
    ) -> tuple[Fraction, ...]:
        """Torsion vector at a numeric point; q(point) = 0 raises PoleAtPoint."""
        vec = point.evaluation_vector(c=c)
        return tuple(comp.evaluate(vec) for comp in self.symbolic)

    @functools.cached_property
    def _integer_tables(self):
        """The shared denominator as (factor, exponent, integer form) triples,
        and the numerators in symbolic order as one integer form.

        Built on first use, not in __init__: an assembler whose c stays
        symbolic has numerators in c and only serves evaluate.
        """
        nvars = 2 * self.chart.n
        nonzero = [f for f in self.symbolic if not f.is_zero()]
        shared = nonzero[0].den if nonzero else ()
        if any(f.den != shared for f in nonzero):
            raise ValueError("the torsion components do not share one denominator")
        factors = tuple(
            (factor, exponent, _IntegerPolynomials((factor,), nvars))
            for factor, exponent in shared
        )
        return factors, _IntegerPolynomials([f.num for f in self.symbolic], nvars)

    def evaluate_scaled(self, point: ChartPoint) -> tuple[int, ...]:
        """A positive integer multiple of evaluate(point).

        The point is cleared of its (dyadic) denominators, the numerators over
        the shared denominator are evaluated in integers, and the sign of the
        denominator is divided out; q(point) = 0 raises PoleAtPoint.
        """
        if not point.is_numeric:
            raise UsageError("integer evaluation requires a numeric point")
        factors, numerators = self._integer_tables
        coords = [v for row in point.entries for v in row]
        D = lcm(*(v.denominator for v in coords))
        X = [v.numerator * (D // v.denominator) for v in coords]
        negative = False
        for factor, exponent, form in factors:
            (value,) = form.values(X, D)
            if not value:
                raise PoleAtPoint(render_polynomial(factor), point.evaluation_vector())
            negative ^= value < 0 and exponent % 2 == 1
        values = numerators.values(X, D)
        return tuple(-v for v in values) if negative else tuple(values)


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


def lemma_components(t_vec: Vector, n: int) -> tuple[int, ...]:
    """The indices s in 2..n, ascending, at which lemma_criterion(t_vec, s, n)
    holds; t_vec is validated once for all of them."""
    size = 2 * n
    entries = nonzero_entries(t_vec, n * (2 * n - 1) * size)
    hits = []
    for s in range(2, n + 1):
        base, _ = two_form_block(flat_index(1, 2), flat_index(s, 2), size)
        if any(base + flat_index(k, 1) in entries for k in range(2, n + 1) if k != s):
            hits.append(s)
    return tuple(hits)
