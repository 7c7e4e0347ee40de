"""Second derivatives of the deformation and the projected curvature component.

The distinguished background connection is flat and torsion-free, so second
covariant derivatives reduce to pure partials in the chart; nabla^j_{i'} is
differentiation along d/dx_{j i'}.  The harmonic-curvature candidate is
obtained from the full second-derivative tensor by contracting one primed
pair, skew-symmetrizing the remaining primed pair, and symmetrizing the three
unprimed covariant slots; trace removal is handled as a membership test
against the explicitly embedded trace subspace of S^3 R^{n*} (x) R^n.  A
membership verdict does not change under a positive scale, so the sampled
check reads the slice at a point as one positive integer multiple of its
value: an exactalg.ScaledValues over KappaProjection.flat_slice with c
bound by Chart.c_substitution, since a point binds x only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .exactalg import RationalFunction, UsageError, dot, flat_index
from .linalg import Subspace, span_subspace
from .model import Chart
from .deform import EndomorphismField


class SecondDerivativeTensor:
    """entry(ip, j, lp, m, pp, o, qp, r) = nabla^j_{i'} nabla^m_{l'} Phi^{p'o}_{q'r}.

    Primed indices and the unprimed j, m, o, r are all 1-based.  The tensor
    keeps no table of its own: key translates the paper's indices into the
    key (row, col, x_{m l'}, x_{j i'}) of phi's one derivative table
    (EndomorphismField.derivative), which builds each entry on first read,
    from the first derivative that the degree ledger and the torsion
    brackets read too.  The two derivative orders are taken independently,
    so the mixed-partial symmetry is a checkable property, not an
    assumption.
    """

    __slots__ = ("phi",)

    def __init__(self, phi: EndomorphismField):
        self.phi = phi

    def key(self, ip: int, j: int, lp: int, m: int, pp: int, o: int, qp: int, r: int) -> tuple[int, int, int, int]:
        """The key of entry(ip, j, lp, m, pp, o, qp, r) in phi's derivative table."""
        x_index = self.phi.table.x_index
        # Phi^{p'o}_{q'r} is entry [flat_index(r, p'), flat_index(o, q')].
        return flat_index(r, pp), flat_index(o, qp), x_index(m, lp), x_index(j, ip)

    def entry(self, ip: int, j: int, lp: int, m: int, pp: int, o: int, qp: int, r: int) -> RationalFunction:
        return self.phi.derivative(*self.key(ip, j, lp, m, pp, o, qp, r))

    def swap_symmetric(self) -> bool:
        """Exact d(row, col, a, b) = d(row, col, b, a) for every entry and
        every pair a < b of chart variables."""
        phi = self.phi
        d = phi.derivative
        xs = range(2 * phi.table.n)  # the chart variables, in exactalg.flat_index order
        return all(
            d(row, col, a, b) == d(row, col, b, a)
            for row in range(phi.nrows)
            for col in range(phi.ncols)
            for a in xs
            for b in xs[a + 1:]
        )


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


#: The 1/2 of the skew step times the 1/6 of the symmetrisation.
_TWELFTH = Fraction(1, 12)


class KappaProjection:
    """Result of contraction, skew-symmetrization, and symmetrization.

    Only the independent skew slot (2', 1') is kept: the swapped slot
    (1', 2') is its negative and the diagonal slots vanish.  The unprimed
    slots are symmetric, so they are kept on sorted triples only.  Each
    (triple, r) value is projected from the second derivatives on first
    read and memoised.
    """

    __slots__ = ("d2", "values")

    def __init__(self, d2: SecondDerivativeTensor):
        self.d2 = d2
        self.values: dict[tuple, RationalFunction] = {}

    def value(self, triple: tuple[int, int, int], r: int) -> RationalFunction:
        """The (2', 1') component on a sorted triple, after steps 1..3.

        (1) contract p' with l'; (2) skew-symmetrize (i', q') with factor 1/2;
        (3) symmetrize (j, m, o) by averaging over all six permutations.
        The three steps are linear, so they are one signed sum of 24
        entries times 1/12.
        """
        key = (triple, r)
        value = self.values.get(key)
        if value is None:
            table = self.d2.phi.table
            entry = self.d2.entry
            plus, minus = RationalFunction.constant(table, 1), RationalFunction.constant(table, -1)
            signed = [
                (entry(ip, j, lp, m, lp, o, qp, r), sign)
                for j, m, o in permutations(triple)
                for ip, qp, sign in ((2, 1, plus), (1, 2, minus))
                for lp in (1, 2)
            ]
            value = self.values[key] = dot(table, signed).scale(_TWELFTH)
        return value

    def flat_slice(self) -> list[RationalFunction]:
        """The symmetric slice, flat: the value at (triple, r) is entry
        k * n + r - 1 for the k-th triple of sorted_triples(n), the
        coordinates of trace_subspace(n)."""
        n = self.d2.phi.table.n
        return [self.value(triple, r) for triple in sorted_triples(n) for r in range(1, n + 1)]


def project_kappa(d2: SecondDerivativeTensor) -> KappaProjection:
    """The kappa projection of d2; values are projected as they are read."""
    return KappaProjection(d2)


def kappa_closed_form(chart: Chart, r: int) -> RationalFunction:
    """Sum over i > 1 of c_i x_{i1} x_{r1} (3/q - 7(x11^2+x12^2)/q^2 + 4(x11^2+x12^2)^2/q^3).

    The closed form of kappa^{111}_{2'1'r} for r >= 2 only; at r = 1 the
    derivative variables collide with x_{r1} and it does not apply.  q is
    Chart.sf_sum, not the q that Phi is built from.
    """
    n = chart.n
    if not (2 <= r <= n):
        raise UsageError(f"index r must be in 2..{n}")
    qinv = chart.sf_sum().inverse()
    e = chart.x(1, 1) * chart.x(1, 1) + chart.x(1, 2) * chart.x(1, 2)
    shape = (
        chart.const(3) * qinv
        - chart.const(7) * e * qinv * qinv
        + chart.const(4) * e * e * qinv * qinv * qinv
    )
    tail = chart.x(r, 1) * shape
    return dot(chart.table, [(chart.param(f"c{i}") * chart.x(i, 1), tail) for i in range(2, n + 1)])


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

