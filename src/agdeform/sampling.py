"""Deterministic rational sampling in shrinking coordinate balls.

Points have dyadic coordinates k / 2^(r + 6) with |k| < 2^6, so every
coordinate lies strictly inside the ball of radius 2^-r in the sup norm.
Sampling is driven by a seeded generator and is reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exactalg import UsageError
from .model import Chart, ChartPoint

_GRID_BITS = 6


def dyadic_entries(rng: random.Random, chart: Chart, radius_exp: int) -> list[list[Fraction]]:
    denom = 1 << (radius_exp + _GRID_BITS)
    bound = (1 << _GRID_BITS) - 1
    return [
        [Fraction(rng.randint(-bound, bound), denom) for _ in range(2)]
        for _ in range(chart.n)
    ]


def generic_off_singular(entries: Sequence[Sequence[Fraction]], s: int) -> bool:
    """x11 != 0, x12 != 0, and some first-column entry away from rows 1 and s.

    These conditions force q != 0 as well, since q is a sum of squares of
    rational numbers including x11.
    """
    if entries[0][0] == 0 or entries[0][1] == 0:
        return False
    return any(
        entries[k][0] != 0 for k in range(len(entries)) if k + 1 not in (1, s)
    )


def sample_points(
    chart: Chart,
    radius_exp: int,
    count: int,
    rng: random.Random,
    accept: Callable[[Sequence[Sequence[Fraction]]], bool],
) -> list[ChartPoint]:
    """The first count drawn points in the ball of radius 2^-radius_exp whose
    entries pass accept."""
    if count < 1 or radius_exp < 1:
        raise UsageError("count and radius exponent must be positive")
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise UsageError("sampling constraint rejects too many points")
        entries = dyadic_entries(rng, chart, radius_exp)
        if accept(entries):
            out.append(ChartPoint(chart, entries))
    return out


def ball_sweep(
    chart: Chart,
    s: int,
    per_radius: int,
    radii: Sequence[int],
    seed: int,
) -> Iterator[tuple[int, ChartPoint]]:
    """Deterministic (radius_exp, point) stream over all requested balls."""
    rng = random.Random(seed)
    accept = lambda entries: generic_off_singular(entries, s)
    for radius_exp in radii:
        for point in sample_points(chart, radius_exp, per_radius, rng, accept):
            yield radius_exp, point
