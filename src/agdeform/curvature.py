"""Second derivatives of the deformation and the projected curvature component.

The distinguished background connection is flat and torsion-free, so second
covariant derivatives reduce to pure partials in the chart; nabla^j_{i'} is
differentiation along d/dx_{j i'}.  The harmonic-curvature candidate is
obtained from the full second-derivative tensor by contracting one primed
pair, skew-symmetrizing the remaining primed pair, and symmetrizing the three
unprimed covariant slots; trace removal is handled as a membership test
against the explicitly embedded trace subspace of S^3 R^{n*} (x) R^n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .exactalg import RationalFunction, UsageError
from .linalg import Subspace, span_subspace, membership
from .model import Chart, ChartPoint
from .deform import EndomorphismField, build_q


class SecondDerivativeTensor:
    """entry(ip, j, lp, m, pp, o, qp, r) = nabla^j_{i'} nabla^m_{l'} Phi^{p'o}_{q'r}.

    Primed indices and the unprimed j, m, o, r are all 1-based.  Entries are
    built on first read and memoised, each first derivative per
    (l', m, p', o, q', r) and each second derivative per key, so a check
    that reads a few entries builds only those.  Both derivative orders are
    computed independently; the mixed-partial symmetry (i',j) <-> (l',m) is
    a checkable property, not an assumption.
    """

    __slots__ = ("phi", "chart", "first", "second")

    def __init__(self, phi: EndomorphismField):
        self.phi = phi
        self.chart = phi.chart
        self.first: dict[tuple, RationalFunction] = {}
        self.second: dict[tuple, RationalFunction] = {}

    def entry(self, ip: int, j: int, lp: int, m: int, pp: int, o: int, qp: int, r: int) -> RationalFunction:
        key = (ip, j, lp, m, pp, o, qp, r)
        value = self.second.get(key)
        if value is None:
            inner_key = key[2:]
            inner = self.first.get(inner_key)
            x_index = self.chart.table.x_index
            if inner is None:
                inner = self.phi.coefficient(pp, o, qp, r).differentiate(x_index(m, lp))
                self.first[inner_key] = inner
            value = self.second[key] = inner.differentiate(x_index(j, ip))
        return value

    def swap_symmetric(self) -> bool:
        """Exact (i',j) <-> (l',m) symmetry over every index combination."""
        n = self.chart.n
        for ip in (1, 2):
            for j in range(1, n + 1):
                for lp in (1, 2):
                    for m in range(1, n + 1):
                        if (ip, j) >= (lp, m):
                            continue
                        for pp in (1, 2):
                            for o in range(1, n + 1):
                                for qp in (1, 2):
                                    for r in range(1, n + 1):
                                        a = self.entry(ip, j, lp, m, pp, o, qp, r)
                                        b = self.entry(lp, m, ip, j, pp, o, qp, r)
                                        if not (a == b):
                                            return False
        return True


def nabla2_phi(phi: EndomorphismField) -> SecondDerivativeTensor:
    """The second derivatives of phi; entries are built as they are read."""
    return SecondDerivativeTensor(phi)


def sorted_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All 1-based triples j <= m <= o, lexicographic."""
    return tuple(
        (j, m, o)
        for j in range(1, n + 1)
        for m in range(j, n + 1)
        for o in range(m, n + 1)
    )


_HALF = Fraction(1, 2)
_SIXTH = Fraction(1, 6)


class KappaProjection:
    """Result of contraction, skew-symmetrization, and symmetrization.

    Only the independent skew slot (2', 1') is kept: the swapped slot
    (1', 2') is its negative and the diagonal slots vanish.  The unprimed
    slots are symmetric, so they are kept on sorted triples only.  Each
    (triple, r) value is projected from the second derivatives on first
    read and memoised.
    """

    __slots__ = ("d2", "chart", "values")

    def __init__(self, d2: SecondDerivativeTensor):
        self.d2 = d2
        self.chart = d2.chart
        self.values: dict[tuple, RationalFunction] = {}

    def value(self, triple: tuple[int, int, int], r: int) -> RationalFunction:
        """The (2', 1') component on a sorted triple, steps 1..3 in order.

        (1) contract p' with l'; (2) skew-symmetrize (i', q') with factor 1/2;
        (3) symmetrize (j, m, o) by averaging over all six permutations.
        """
        key = (triple, r)
        value = self.values.get(key)
        if value is None:
            table = self.chart.table
            entry = self.d2.entry

            def contracted(ip: int, j: int, m: int, o: int, qp: int) -> RationalFunction:
                acc = RationalFunction.zero(table)
                for lp in (1, 2):
                    acc = acc + entry(ip, j, lp, m, lp, o, qp, r)
                return acc

            acc = RationalFunction.zero(table)
            for j, m, o in permutations(triple):
                skew = contracted(2, j, m, o, 1) - contracted(1, j, m, o, 2)
                acc = acc + skew.scale(_HALF)
            value = self.values[key] = acc.scale(_SIXTH)
        return value

    def evaluate_slice(
        self, point: ChartPoint, c: Sequence[Fraction] | None = None
    ) -> tuple[tuple[Fraction, ...], ...]:
        """Numeric symmetric slice [triple index][r-1] at a chart point."""
        vec = point.evaluation_vector(c=c)
        n = self.chart.n
        return tuple(
            tuple(self.value(triple, r).evaluate(vec) for r in range(1, n + 1))
            for triple in sorted_triples(n)
        )


def project_kappa(d2: SecondDerivativeTensor) -> KappaProjection:
    """The kappa projection of d2; values are projected as they are read."""
    return KappaProjection(d2)


def kappa_closed_form(chart: Chart, r: int) -> RationalFunction:
    """Sum over i > 1 of c_i x_{i1} x_{r1} (3/q - 7(x11^2+x12^2)/q^2 + 4(x11^2+x12^2)^2/q^3).

    The closed form of kappa^{111}_{2'1'r} for r >= 2 only; at r = 1 the
    derivative variables collide with x_{r1} and it does not apply.
    """
    n = chart.n
    if not (2 <= r <= n):
        raise UsageError(f"index r must be in 2..{n}")
    q = build_q(chart)
    qinv = q.inverse()
    e = chart.x(1, 1) * chart.x(1, 1) + chart.x(1, 2) * chart.x(1, 2)
    shape = (
        chart.const(3) * qinv
        - chart.const(7) * e * qinv * qinv
        + chart.const(4) * e * e * qinv * qinv * qinv
    )
    acc = RationalFunction.zero(chart.table)
    for i in range(2, n + 1):
        acc = acc + chart.param(f"c{i}") * chart.x(i, 1) * chart.x(r, 1) * shape
    return acc


def trace_subspace(n: int) -> Subspace:
    """Span of S (x) Id symmetrized: vectors T(S)^{jmo}_r = S^{jm} d^o_r +
    S^{jo} d^m_r + S^{mo} d^j_r over the S^2 basis, in slice coordinates,
    passed to span_subspace as sparse rows."""
    triples = sorted_triples(n)
    index = {t: i for i, t in enumerate(triples)}
    ambient = len(triples) * n
    vectors = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            # S = e^a . e^b symmetric basis element: S^{jm} = [{j,m} == {a,b}]
            vec = {}
            for (j, m, o) in triples:
                for r in range(1, n + 1):
                    value = 0
                    if tuple(sorted((j, m))) == (a, b) and o == r:
                        value += 1
                    if tuple(sorted((j, o))) == (a, b) and m == r:
                        value += 1
                    if tuple(sorted((m, o))) == (a, b) and j == r:
                        value += 1
                    if value:
                        vec[index[(j, m, o)] * n + (r - 1)] = value
            vectors.append(vec)
    return span_subspace(vectors, ambient)


def not_pure_trace(
    slice_values: Sequence[Sequence[Fraction]], subspace: Subspace
) -> bool:
    """True iff the evaluated symmetric slice lies outside subspace, the
    trace subspace that trace_subspace(n) builds.

    A zero slice returns False: it lies in every subspace, so nothing is
    certified.  slice_values comes from KappaProjection.evaluate_slice.
    """
    flat = [value for row in slice_values for value in row]
    if len(flat) != subspace.ambient_dim:
        raise UsageError("slice shape does not match the trace subspace")
    return not membership(subspace, flat)
