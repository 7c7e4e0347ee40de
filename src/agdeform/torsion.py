"""Deformed parallel frame, Lie brackets, and the torsion of the deformed structure.

The pulled-back frame fields E-tilde^{j'}_i are parallel for the pullback of
the flat connection, so the torsion reduces to minus their Lie brackets,
re-expressed through the deformed structure map (Id + Phi) o theta.  The flat
identification theta sends the coordinate field d/dx_{k p'} to E^{p'}_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import RationalFunction, UsageError, flat_index
from .deform import EndomorphismField
from .model import Chart, ChartPoint


class VectorField:
    """First-order operator sum_a f_a d/dx_a over the 2n chart coordinates."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[RationalFunction]):
        if len(components) != 2 * chart.n:
            raise UsageError(
                f"expected {2 * chart.n} components, got {len(components)}"
            )
        self.chart = chart
        self.components = tuple(components)

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        z = RationalFunction.zero(chart.table)
        return VectorField(chart, (z,) * (2 * chart.n))

    @staticmethod
    def coordinate(chart: Chart, i: int, j_prime: int) -> "VectorField":
        """The field d/dx_{i j'} = partial^{j'}_i."""
        comps = [RationalFunction.zero(chart.table)] * (2 * chart.n)
        comps[flat_index(i, j_prime)] = chart.const(1)
        return VectorField(chart, comps)

    def is_zero(self) -> bool:
        return all(comp.is_zero() for comp in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart, [a + b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-a for a in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, factor: RationalFunction) -> "VectorField":
        return VectorField(self.chart, [factor * a for a in self.components])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def evaluate(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(comp.evaluate(point) for comp in self.components)


def lie_bracket(xi: VectorField, eta: VectorField) -> VectorField:
    """[xi, eta]^b = sum_a (xi^a d_a eta^b - eta^a d_a xi^b).

    Chart coordinate a is table variable a, so differentiation is by flat
    index directly.
    """
    chart = xi.chart
    size = 2 * chart.n
    zero = RationalFunction.zero(chart.table)
    out = []
    for b in range(size):
        acc = zero
        for a in range(size):
            if not xi.components[a].is_zero():
                d = eta.components[b].differentiate(a)
                if not d.is_zero():
                    acc = acc + xi.components[a] * d
            if not eta.components[a].is_zero():
                d = xi.components[b].differentiate(a)
                if not d.is_zero():
                    acc = acc - eta.components[a] * d
        out.append(acc)
    return VectorField(chart, out)


def pulled_frame(phi: EndomorphismField) -> tuple[VectorField, ...]:
    """The 2n fields E-tilde^{j'}_i = theta^{-1} (Id+Phi)^{-1} E^{j'}_i.

    Since Phi is nilpotent of order two, (Id+Phi)^{-1} = Id - Phi, and the
    field at flat_index(i, j') is that column of its matrix:
    E-tilde^{j'}_i = d^{j'}_i - sum_{p',k} Phi^{p'i}_{j'k} d^{p'}_k.
    """
    inverse = EndomorphismField.identity(phi.chart) - phi
    return tuple(VectorField(phi.chart, col) for col in zip(*inverse.matrix.rows))


@dataclass(frozen=True)
class TorsionComponent:
    """The section-level data of one torsion component T(E-tilde^{2'}_s, E-tilde^{2'}_1).

    bracket is the raw Lie bracket; d_section holds the components D^{i'}_k
    of D = (Id+Phi) theta(-bracket); d_of_e1prime is the n-vector D(E_1')
    = (D^{1'}_k)_k.
    """

    s: int
    bracket: VectorField
    d_section: tuple[tuple[RationalFunction, ...], ...]
    d_of_e1prime: tuple[RationalFunction, ...]


def torsion_component(phi: EndomorphismField, s: int) -> TorsionComponent:
    chart = phi.chart
    if not (2 <= s <= chart.n):
        raise UsageError(f"component index s must be in 2..{chart.n}")
    frame = pulled_frame(phi)
    bracket = lie_bracket(frame[flat_index(s, 2)], frame[flat_index(1, 2)])
    # theta sends the coefficient of d^{p'}_k to the section slot (k, p'),
    # which has the same flat index.  psi + Phi psi is D without building
    # Id + Phi and multiplying by its diagonal, once per s.
    psi = (-bracket).components
    d = tuple(a + b for a, b in zip(psi, phi.apply(psi)))
    d_section = (d[0::2], d[1::2])
    return TorsionComponent(
        s=s, bracket=bracket, d_section=d_section, d_of_e1prime=d_section[0]
    )


class TorsionValue:
    """Full torsion at a numeric point as a trilinear array over g_{-1}.

    entry(a, b) is the 2n-vector T(m_a, m_b) where m_a is the pulled frame
    field with flat index a; values are expressed in the flat basis via the
    deformed structure map at the point.  Antisymmetric in (a, b).
    """

    __slots__ = ("n", "point", "_entries")

    def __init__(self, n: int, point: ChartPoint, entries: dict):
        self.n = n
        self.point = point
        self._entries = entries

    def entry(self, a: int, b: int) -> tuple[Fraction, ...]:
        if a == b:
            return (Fraction(0),) * (2 * self.n)
        if a < b:
            return self._entries[(a, b)]
        return tuple(-v for v in self._entries[(b, a)])

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in vec) for vec in self._entries.values())

    def vectorize(self) -> tuple[Fraction, ...]:
        """Flatten to the row order used by the partial1 matrix: pairs (a<b)
        lexicographic, each contributing its 2n output components."""
        out = []
        size = 2 * self.n
        for a in range(size):
            for b in range(a + 1, size):
                out.extend(self._entries[(a, b)])
        return tuple(out)


class TorsionAssembler:
    """Precomputes the symbolic torsion entries once; evaluates per point.

    Evaluation at many sample points only costs rational-function evaluation,
    not re-differentiation.
    """

    def __init__(self, phi: EndomorphismField):
        self.phi = phi
        self.chart = phi.chart
        size = 2 * self.chart.n
        frame = pulled_frame(phi)
        forward = EndomorphismField.identity(self.chart) + phi
        self.symbolic: dict[tuple[int, int], tuple[RationalFunction, ...]] = {}
        for a in range(size):
            for b in range(a + 1, size):
                tilde = -lie_bracket(frame[a], frame[b])
                self.symbolic[(a, b)] = forward.apply(tilde.components)

    def evaluate(self, point: ChartPoint, c: Sequence[Fraction] | None = None) -> TorsionValue:
        """Torsion at a numeric point; q(point) = 0 raises PoleAtPoint."""
        vec = point.evaluation_vector(c=c)
        entries = {
            key: tuple(comp.evaluate(vec) for comp in comps)
            for key, comps in self.symbolic.items()
        }
        return TorsionValue(self.chart.n, point, entries)


def lemma_criterion(value: TorsionValue, s: int) -> bool:
    """Rank-one test certifying nonzero harmonic torsion.

    With xi, eta the frame values at flat indices (s,2') and (1,2'), both
    rank one with kernel spanned by E_1', any torsion in the image of the
    algebraic differential maps E_1' into span{E_1, E_s}.  Returns true iff
    T(xi, eta)(E_1') has a component along some E_k with k outside {1, s}.
    """
    if not (2 <= s <= value.n):
        raise UsageError(f"component index s must be in 2..{value.n}")
    vec = value.entry(flat_index(s, 2), flat_index(1, 2))
    for k in range(1, value.n + 1):
        if k in (1, s):
            continue
        # component along E_k of the E^{1'} part of the output
        if vec[flat_index(k, 1)] != 0:
            return True
    return False
