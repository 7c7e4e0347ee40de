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

And the general routes of exactalg's normalisation, kept as the oracles of
its one-factor fast paths: the merge, sort and trial-division of
RationalFunction._reduce, the per-term dict route of _align, and the
quotient rule built from Polynomial products.
"""

from fractions import Fraction

from agdeform.deform import build_Phi
from agdeform.exactalg import (
    RationalFunction,
    UsageError,
    _long_division,
    coerce_rational,
)
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


def reduce_reference(num, den):
    """The oracle for RationalFunction._reduce: equal factors merged (the
    first object kept), sorted by key(), and each divided out of num by long
    division as often as it goes; (num, den) as _reduce stores them."""
    if num.is_zero():
        return num, ()
    merged = {}
    for factor, exponent in den:
        merged[factor] = merged.get(factor, 0) + exponent
    out = []
    for factor in sorted(merged, key=lambda f: f.key()):
        exponent = merged[factor]
        while exponent:
            quotient = _long_division(num, factor)
            if quotient is None:
                break
            num, exponent = quotient, exponent - 1
        if exponent:
            out.append((factor, exponent))
    return num, tuple(out)


def align_reference(terms):
    """The oracle for exactalg._align: each term's factors merged into a
    dict, the lcm their largest exponents in order of first appearance (the
    first object kept); the numerators unchanged when every term has the
    lcm's factorization, else each pair expanded and every numerator
    multiplied by the powers it lacks."""
    owned, lcm = [], {}
    for _, factors in terms:
        mine = {}
        for factor, exponent in factors:
            mine[factor] = mine.get(factor, 0) + exponent
        for factor, exponent in mine.items():
            lcm[factor] = max(lcm.get(factor, 0), exponent)
        owned.append(mine)
    if all(mine == lcm for mine in owned):
        return [num for num, _ in terms], tuple(lcm.items())
    numerators = []
    for (num, _), mine in zip(terms, owned):
        if isinstance(num, tuple):
            num = num[0] * num[1]
        for factor, exponent in lcm.items():
            lack = exponent - mine.get(factor, 0)
            if lack:
                num = num * factor**lack
        numerators.append(num)
    return numerators, tuple(lcm.items())


def quotient_rule_reference(f, idx):
    """The oracle for RationalFunction.differentiate: the general quotient
    rule, num' prod f_i - num sum_i e_i f_i' prod_{j != i} f_j over
    prod f_i^(e_i + 1), built from Polynomial products and stored by
    reduce_reference."""
    num = f.num.differentiate(idx)
    factors = [g for g, _ in f.den]
    for g in factors:
        num = num * g
    for i, (g, e) in enumerate(f.den):
        term = g.differentiate(idx).scale(e)
        for j, other in enumerate(factors):
            if j != i:
                term = term * other
        num = num - f.num * term
    return RationalFunction._raw(*reduce_reference(num, [(g, e + 1) for g, e in f.den]))
