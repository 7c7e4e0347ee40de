"""Oracles that several test modules share.

The Fraction oracles for linalg.Subspace: its reduced row echelon basis,
and membership by elimination of the vector against that basis.  linalg
keeps a Subspace as primitive integer rows and decides membership with
integer functionals; these read the same rows divided by their pivot
entries and answer the same questions in Fractions, by another route.

And the check that an integer evaluation (exactalg.ScaledValues) is one
positive multiple of the exact Fraction values, Phi_c at a numeric c as
the program builds it, and a Fraction evaluation point that binds t and c
as well as x, for the Fraction oracles (RationalFunction.evaluate).
"""

from fractions import Fraction

from agdeform.deform import build_Phi
from agdeform.exactalg import UsageError, coerce_rational
from agdeform.linalg import nonzero_entries


def evaluation_point(table, x, t=0, c=None):
    """The full evaluation vector of table at x (n rows of 2), t and c (n - 1
    values); s, and c unless given, are 0.  The program's points bind x only
    (ChartPoint.evaluation_vector) and bind c by substitution."""
    n = table.n
    if len(x) != n or any(len(row) != 2 for row in x):
        raise UsageError(f"point must have shape {n} x 2")
    values = [coerce_rational(v) for row in x for v in row] + [coerce_rational(t), Fraction(0)]
    if c is None:
        return tuple(values + [Fraction(0)] * (n - 1))
    if len(c) != n - 1:
        raise UsageError(f"expected {n - 1} deformation parameters")
    return tuple(values + [coerce_rational(v) for v in c])


def phi_at(chart, c):
    """Phi_c at numeric c: the symbolic Phi with chart.c_substitution(c)
    substituted, the one way the program binds c."""
    return build_Phi(chart).substitute(chart.c_substitution(c))


def reduced_dense_rows(space):
    """Each integer basis row divided by its pivot entry, as a dense row, in
    pivot order: the canonical RREF basis, in Fractions."""
    return tuple(
        tuple(Fraction(row.get(j, 0), row[p]) for j in range(space.ambient_dim))
        for p, row in sorted(space.basis.items())
    )


def _axpy(target, factor, source):
    """target += factor * source in place, dropping the zeros."""
    for j, v in source.items():
        acc = target.get(j, 0) + factor * v
        if acc:
            target[j] = acc
        else:
            del target[j]


def _reduce(space, vector):
    """The vector, dense or sparse, minus vector[p] times RREF row p (the
    basis row of pivot p over its pivot entry) for every pivot p: what is
    left is supported on the free columns."""
    work = {j: Fraction(v) for j, v in nonzero_entries(vector, space.ambient_dim).items()}
    for p, row in space.basis.items():
        coeff = work.get(p)
        if coeff:
            _axpy(work, -coeff / row[p], row)
    return work


def residual(space, vector):
    """Coordinates, on the free columns, of vector - (its projection onto
    the RREF rows); the vector lies in the subspace iff they all vanish."""
    left = _reduce(space, vector)
    return tuple(left.get(j, Fraction(0)) for j in space.free_columns)


def contains(space, vector):
    """Exact membership in Fractions, the oracle for linalg.membership."""
    return not _reduce(space, vector)


def assert_positive_multiple(scaled, exact):
    """scaled is a tuple of ints equal to one positive factor times exact;
    all zero when exact is."""
    assert type(scaled) is tuple and all(type(v) is int for v in scaled)
    pivot = next((i for i, v in enumerate(exact) if v), None)
    if pivot is None:
        assert not any(scaled)
        return
    factor = Fraction(scaled[pivot]) / Fraction(exact[pivot])
    assert factor > 0
    assert scaled == tuple(factor * v for v in exact)
