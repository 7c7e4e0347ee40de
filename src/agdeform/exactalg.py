"""Exact multivariate polynomial and rational-function arithmetic over Q.

Values live in a localization of the polynomial ring in the chart
coordinates x_{ij'} (i = 1..n, j' = 1,2), a flow parameter t, an auxiliary
flow parameter s, and deformation parameters c_2..c_n.  Denominators are
kept as factored multisets rather than expanded products, equality is
decided by cross-multiplication, and the only simplification performed is
trial division by stored factors.  No general gcd or factorization is
attempted; every computation in this package stays inside the localization
generated by the factors that actually occur (q, 1 + t*x11 and friends,
x11), so this is enough to reach canonical zero.

Most trial divisions fail, and a certified modular test rules them out
before any long division: each divisor caches a zero of its primitive
integer associate mod p = 2^61 - 1, and a dividend with denominators prime
to p that is nonzero there is not divisible, because by Gauss's lemma the
quotient of a divisible dividend is p-integral, so the dividend vanishes
wherever the divisor does mod p.  Quotients are unchanged; plain long
division decides every other case.

A divisor's zero also keeps the value mod p of every monomial it has been
asked about, so a monomial that comes up again in a later dividend costs
one dict lookup.

A coefficient is stored canonically: as an int when it is integral, and as
a Fraction only when its denominator is above 1.  Most coefficients are
integers, so the hot loops run on ints; equal values compare and hash
alike either way (hash(2) == hash(Fraction(2))).

Each value is normalised once, by RationalFunction._reduce: it merges the
denominator factors, sorts them and trial-divides.  The public constructor
checks its factors and makes them monic before it calls _reduce; products,
derivatives and sums, whose factors are canonical already, call it through
_from_monic and skip those checks.  A sum of raw terms (_sum_terms) adds
every numerator into one coefficient map and reduces once; dot hands it
each pair a * b unexpanded, and when every pair shares one factorization
the pair is multiplied straight into that map, so no product polynomial is
built.

A monomial is one packed int (after Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): each variable owns an 8-bit field whose top bit is a guard, so an
exponent is at most 127, and the first table variable owns the most
significant field, so int order is the lexicographic order of exponent
tuples.  A product term is then one int add, a division step one int
subtract after a guard-bit borrow test, and exponent_pairs unpacks the rest.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)
#: Marks a cached slot not yet filled.
_UNSET = object()


class UsageError(ValueError):
    """A caller violated a precondition (bad variable, table mismatch...)."""


class MismatchedTables(UsageError):
    """Two values built over different variable tables were combined."""


class PoleAtPoint(ArithmeticError):
    """A denominator factor vanishes at the requested evaluation point."""

    def __init__(self, factor_text: str):
        super().__init__(f"denominator factor {factor_text} vanishes at point")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of the form "p/q" or "p"."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational literal {text!r}") from exc


def flat_index(i: int, j_prime: int) -> int:
    """0-based position of the slot (i, j'), both arguments 1-based.

    This is the chart variable order x11, x12, x21, ..., so the same index
    addresses the coordinate x_{i j'}, the coordinate field d/dx_{i j'}, the
    frame vector E^{j'}_i and the g_{-1} basis matrix unit at (i, j').
    """
    return 2 * (i - 1) + (j_prime - 1)


def two_form_block(b: int, c: int, size: int) -> tuple[int, int]:
    """(start, sign) of the pair {b, c} in Lambda^2 g_{-1}* (x) g_{-1}.

    A two-form T valued in g_{-1} (size = 2n) is stored pair-major over the
    pairs b < c in lexicographic order: the size outputs of T(w_b, w_c)
    start at start, and T(w_c, w_b) = -T(w_b, w_c) gives sign -1 for b > c.
    """
    if b == c or not (0 <= b < size and 0 <= c < size):
        raise UsageError(f"need two distinct indices in 0..{size - 1}")
    lo, hi, sign = (b, c, 1) if b < c else (c, b, -1)
    return (lo * size - lo * (lo + 1) // 2 + (hi - lo - 1)) * size, sign


class VariableTable:
    """Fixed, ordered list of variable identifiers for one chart size n.

    Order: x11, x12, x21, x22, ..., xn1, xn2, t, s, c2, ..., cn.  The x
    variables carry weight 1 for degree bookkeeping; t, s and the c_i carry
    weight 0 (degrees are counted in chart variables only).
    """

    __slots__ = ("n", "names", "size", "guard", "_index")

    def __init__(self, n: int):
        if n < 2:
            raise UsageError(f"chart size n must be >= 2, got {n}")
        self.n = n
        names: list[str] = []
        for i in range(1, n + 1):
            names.append(f"x{i}1")
            names.append(f"x{i}2")
        names.append("t")
        names.append("s")
        for i in range(2, n + 1):
            names.append(f"c{i}")
        self.names = tuple(names)
        self.size = len(names)
        #: The guard bit of every field of a packed monomial (see pack_monomial).
        self.guard = int.from_bytes(bytes([_GUARD_BIT]) * self.size, "big")
        self._index = {name: k for k, name in enumerate(names)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableTable) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("VariableTable", self.n))

    def __repr__(self) -> str:
        return f"VariableTable(n={self.n})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"unknown variable {name!r}") from None

    def x_index(self, i: int, j: int) -> int:
        """Index of the chart coordinate x_{ij'} (1-based i in 1..n, j in 1..2)."""
        if not (1 <= i <= self.n and 1 <= j <= 2):
            raise UsageError(f"coordinate x[{i}][{j}] outside n x 2 chart")
        return flat_index(i, j)

    def c_index(self, i: int) -> int:
        if not (2 <= i <= self.n):
            raise UsageError(f"deformation parameter c{i} outside c2..c{self.n}")
        return 2 * self.n + 2 + (i - 2)

    def render(self, idx: int, latex: bool = False) -> str:
        name = self.names[idx]
        if not latex:
            return name
        head = name.rstrip("0123456789")
        tail = name[len(head):]
        return f"{head}_{{{tail}}}" if tail else head


def coerce_rational(value: Fraction | int | str) -> Fraction:
    """An exact rational from a Fraction, an int or a literal; a bool or a
    float raises UsageError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise UsageError(f"cannot interpret {value!r} as an exact rational")


#: A monomial packed into one int, as in the module docstring.
Monomial = int

#: The bits of one variable's field in a packed monomial, their mask, and
#: the field's guard bit.
_FIELD_BITS = 8
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_GUARD_BIT = 1 << (_FIELD_BITS - 1)
# pack_monomial and exponent_pairs read one field per byte of the int.
assert _FIELD_BITS == 8


def pack_monomial(exponents: Sequence[int]) -> Monomial:
    """The packed monomial with these exponents, one per table variable."""
    if not all(0 <= e < _GUARD_BIT for e in exponents):
        raise UsageError(f"exponents must lie in 0..{_GUARD_BIT - 1}")
    return int.from_bytes(bytes(exponents), "big")


def exponent_pairs(mono: Monomial, size: int) -> list[tuple[int, int]]:
    """The (index, exponent) pairs of the variables in mono, by index; size
    is the length of the table."""
    return [(idx, e) for idx, e in enumerate(mono.to_bytes(size, "big")) if e]


def _shift(table: "VariableTable", idx: int) -> int:
    """The bit offset of variable idx's field in a packed monomial."""
    return _FIELD_BITS * (table.size - 1 - idx)


_OVERFLOW = f"an exponent exceeds {_GUARD_BIT - 1}, the packed-monomial limit"


def _canonical(value: int | Fraction) -> int | Fraction:
    """The stored form of a coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    raise UsageError(f"coefficient {value!r} is neither an int nor a Fraction")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Coefficients are keyed by packed monomials (see pack_monomial); zero
    coefficients are never stored, so the zero polynomial is the empty map,
    and each stored one is in the canonical form of _canonical.
    Monomial order anywhere ordering matters is int order, which is
    lexicographic in the fixed table order and keeps every rendering
    deterministic.
    """

    __slots__ = ("table", "coeffs", "_key", "_hash", "_zero")

    def __init__(self, table: VariableTable, coeffs: dict[Monomial, int | Fraction]):
        self.table = table
        # Canonical form before the zero test, so a zero float is refused too.
        self.coeffs = {
            m: v for m, c in coeffs.items() if (v := c if type(c) is int else _canonical(c))
        }
        self._key: tuple | None = None
        self._hash: int | None = None
        # The zero mod p used when this divides (see _divide_exact); like
        # _key and _hash it is derived from coeffs, and __eq__ ignores it.
        self._zero = _UNSET

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "Polynomial":
        return Polynomial(table, {})

    @staticmethod
    def constant(table: VariableTable, value: Fraction | int | str) -> "Polynomial":
        value = coerce_rational(value)
        if not value:
            return Polynomial.zero(table)
        return Polynomial(table, {0: value})

    @staticmethod
    def variable(table: VariableTable, idx: int) -> "Polynomial":
        if not (0 <= idx < table.size):
            raise UsageError(f"variable index {idx} out of range")
        mono = pack_monomial([1 if k == idx else 0 for k in range(table.size)])
        return Polynomial(table, {mono: 1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not self.coeffs or self.coeffs.keys() == {0}

    def constant_value(self) -> int | Fraction:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise UsageError("polynomial is not constant")
        return next(iter(self.coeffs.values()))

    def key(self) -> tuple:
        """Canonical hashable form (sorted coefficient items)."""
        if self._key is None:
            self._key = tuple(sorted(self.coeffs.items()))
        return self._key

    def leading(self) -> tuple[Monomial, int | Fraction]:
        """Lexicographically greatest monomial and its coefficient."""
        if self.is_zero():
            raise UsageError("zero polynomial has no leading monomial")
        mono = max(self.coeffs)
        return mono, self.coeffs[mono]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.table == self.table
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        # Cached: factor dicts look a polynomial up many times, and hashing
        # key() rehashes every coefficient.
        if self._hash is None:
            self._hash = hash((self.table, self.key()))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        # Identity first: the values of one chart share its table object.
        if self.table is not other.table and self.table != other.table:
            raise MismatchedTables("operands use different variable tables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.coeffs)
        for mono, coeff in other.coeffs.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return Polynomial(self.table, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = m1 + m2
                prod = c1 * c2
                acc = out.get(mono)
                if acc is None:
                    out[mono] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        # Each field of m1 + m2 is below 2 * 128, so none carries; a stored
        # monomial whose guard bit is set has reached the limit.
        if functools.reduce(operator.or_, out, 0) & self.table.guard:
            raise UsageError(_OVERFLOW)
        return Polynomial(self.table, out)

    def scale(self, value: int | Fraction) -> "Polynomial":
        if not value:
            return Polynomial.zero(self.table)
        return Polynomial(self.table, {m: c * value for m, c in self.coeffs.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise UsageError("polynomial powers must be nonnegative")
        result = Polynomial.constant(self.table, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and evaluation ----------------------------------------------

    def differentiate(self, idx: int) -> "Polynomial":
        if not (0 <= idx < self.table.size):
            raise UsageError(f"variable index {idx} out of range")
        # Lowering the exponent of idx is injective on the monomials it
        # keeps, so no two terms meet.
        shift = _shift(self.table, idx)
        unit = 1 << shift
        return Polynomial(
            self.table,
            {
                mono - unit: coeff * e
                for mono, coeff in self.coeffs.items()
                if (e := mono >> shift & _FIELD_MASK)
            },
        )

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.table.size:
            raise UsageError("evaluation point does not bind every variable")
        size = self.table.size
        powers: list[list[Fraction]] = [[_ONE] for _ in range(size)]
        total = _ZERO
        for mono, coeff in self.coeffs.items():
            term = coeff
            for idx, e in exponent_pairs(mono, size):
                cache = powers[idx]
                while len(cache) <= e:
                    cache.append(cache[-1] * point[idx])
                term = term * cache[e]
            total += term
        return total

    def substitute(self, mapping: Mapping[int, "RationalFunction"]) -> "RationalFunction":
        """Replace variables by rational functions (composition).

        Each monomial is one raw term of _sum_terms: its unmapped variables
        times the powers of the substituted values, which are computed once
        per call, over their factors.
        """
        table = self.table
        powers: dict[int, list[Polynomial]] = {}
        terms = []
        for mono, coeff in self.coeffs.items():
            kept = mono
            factors: list[Polynomial] = []
            den: list[tuple[Polynomial, int]] = []
            for idx, e in exponent_pairs(mono, table.size):
                if idx not in mapping:
                    continue
                sub = mapping[idx]
                kept -= e << _shift(table, idx)
                cache = powers.setdefault(idx, [sub.num])
                while len(cache) < e:
                    cache.append(cache[-1] * sub.num)
                factors.append(cache[e - 1])
                den.extend((f, k * e) for f, k in sub.den)
            num = Polynomial(table, {kept: coeff})
            for factor in factors:
                num = num * factor
            terms.append((num, den))
        return _sum_terms(table, terms)

    # -- degree bookkeeping ----------------------------------------------------

    def chart_degree_range(self) -> tuple[int, int] | None:
        """(min, max) total degree in chart variables, or None for zero.

        The chart variables own the leading 2n fields of a packed monomial,
        so a monomial's chart degree is the byte sum of those fields."""
        if self.is_zero():
            return None
        count = 2 * self.table.n
        shift = _shift(self.table, count - 1)
        degrees = [sum((mono >> shift).to_bytes(count, "big")) for mono in self.coeffs]
        return min(degrees), max(degrees)


#: The Mersenne prime 2^61 - 1.  As p = 3 mod 4, a quadratic residue a mod p
#: has the square root a^((p+1)/4).
_P = (1 << 61) - 1


class _ZeroPoint:
    """A point mod p on the zero set of one divisor.

    values maps each monomial met so far to its value mod p at the point;
    it is shared by every later test against the same divisor.
    """

    __slots__ = ("point", "values")

    def __init__(self, point: Sequence[int]):
        self.point = tuple(point)
        self.values: dict[Monomial, int] = {}

    def residue(self, coeffs: Mapping[Monomial, int | Fraction]) -> int | None:
        """The value mod p at this point, or None if a denominator is divisible by p.

        The sum is kept as one fraction (integral * den + num)/den mod p, so
        no inverse is taken; den is the product of the denominators, 0 mod p
        iff one of them is.
        """
        values, point = self.values, self.point
        integral, num, den = 0, 0, 1
        for mono, coeff in coeffs.items():
            value = values.get(mono)
            if value is None:
                value = 1
                for idx, e in exponent_pairs(mono, len(point)):
                    value = value * pow(point[idx], e, _P) % _P
                values[mono] = value
            if type(coeff) is int:
                integral += coeff * value
            else:
                d = coeff.denominator
                num = (num * d + coeff.numerator * value * den) % _P
                den = den * d % _P
        return (integral * den + num) % _P if den else None


@functools.lru_cache(maxsize=256)
def _zero_point(key: tuple, size: int) -> _ZeroPoint | None:
    """A certified zero mod p of the divisor with canonical form `key` over a
    table of `size` variables, or None.

    The divisor is first made a primitive integer polynomial f.  A variable v
    in which f has degree 1 or 2 is solved for after the other coordinates
    are drawn from a fixed-seed generator, so the point depends only on the
    divisor.  The point is kept only once f vanishes there mod p.  None means
    f has no such variable (the expanded q^2, for instance) or none of eight
    draws gave a root (a quadratic's discriminant is a square mod p about
    half the time).
    """
    common = math.lcm(*(c.denominator for _, c in key))
    ints = [(mono, c.numerator * (common // c.denominator)) for mono, c in key]
    content = math.gcd(*(c for _, c in ints))
    f = [(mono, c // content % _P) for mono, c in ints]
    terms = [(exponent_pairs(mono, size), coeff) for mono, coeff in f]
    degrees = [0] * size
    for pairs, _ in terms:
        for idx, e in pairs:
            degrees[idx] = max(degrees[idx], e)
    solvable = [idx for d in (1, 2) for idx in range(size) if degrees[idx] == d]
    if not solvable:
        return None
    v = solvable[0]
    rng = random.Random(0)
    for _ in range(8):
        point = [rng.randrange(_P) for _ in range(size)]
        # f = a*v^2 + b*v + c with a, b, c read at the drawn coordinates.
        abc = [0, 0, 0]
        for pairs, coeff in terms:
            power = 0
            for idx, e in pairs:
                if idx == v:
                    power = e
                else:
                    coeff = coeff * pow(point[idx], e, _P) % _P
            abc[power] += coeff
        c, b, a = (x % _P for x in abc)
        if a:
            disc = (b * b - 4 * a * c) % _P
            root = pow(disc, (_P + 1) // 4, _P)
            if root * root % _P != disc:
                continue
            point[v] = (root - b) * pow(2 * a, -1, _P) % _P
        elif b:
            point[v] = -c * pow(b, -1, _P) % _P
        else:
            continue
        zero = _ZeroPoint(point)
        if zero.residue(dict(f)) == 0:
            return zero
    return None


def _divide_exact(dividend: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Exact multivariate division; None if divisor does not divide evenly.

    The certified modular test of the module docstring runs first, against
    the divisor's zero (see _zero_point), which the divisor keeps once it is
    looked up, so later calls skip hashing its key; every case the test
    does not decide runs _long_division.
    """
    if divisor.is_zero():
        raise UsageError("division by the zero polynomial")
    if dividend.is_zero():
        return dividend
    zero = divisor._zero
    if zero is _UNSET:
        zero = divisor._zero = _zero_point(divisor.key(), divisor.table.size)
    if zero is not None and zero.residue(dividend.coeffs):
        return None
    return _long_division(dividend, divisor)


def _long_division(dividend: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Plain multivariate long division by the lex-leading term over Q.

    The one division routine; None if the divisor does not divide evenly.
    The lead divides mono iff no field of (mono | guard) - lead borrows from
    its guard bit.
    """
    lead_mono, lead_coeff = divisor.leading()
    guard = dividend.table.guard
    remainder = dict(dividend.coeffs)
    quotient: dict[Monomial, int | Fraction] = {}
    while remainder:
        mono = max(remainder)
        if ((mono | guard) - lead_mono) & guard != guard:
            return None
        diff = mono - lead_mono
        q = remainder[mono]
        if lead_coeff != 1:
            q = _canonical(Fraction(q, lead_coeff))
        quotient[diff] = q
        for dm, dc in divisor.coeffs.items():
            target = diff + dm
            if target & guard:
                raise UsageError(_OVERFLOW)
            acc = remainder.get(target, 0) - q * dc
            if acc:
                remainder[target] = acc
            else:
                remainder.pop(target, None)
    return Polynomial(dividend.table, quotient)


DenominatorFactors = tuple[tuple[Polynomial, int], ...]


class RationalFunction:
    """numerator / product of denominator factors, each with an exponent.

    Factors are kept monic (leading coefficient 1 in lex order) and sorted
    canonically; scalars are folded into the numerator.  The represented
    value is num / prod(f**e); two values compare equal by
    cross-multiplication, which is decidable without gcd.  The constructor
    refuses a factor over another table, a negative exponent and the zero
    factor whatever the numerator, zero included.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Iterable[tuple[Polynomial, int]] = ()):
        table = num.table
        factors: list[tuple[Polynomial, int]] = []
        scale = 1
        for factor, exponent in den:
            if factor.table != table:
                raise MismatchedTables("denominator factor uses a different table")
            if exponent == 0:
                continue
            if exponent < 0:
                raise UsageError("denominator exponents must be positive")
            if factor.is_zero():
                raise UsageError("zero polynomial cannot be a denominator factor")
            if factor.is_constant():
                scale = scale * factor.constant_value() ** exponent
                continue
            _, lead = factor.leading()
            if lead != 1:
                factor = factor.scale(Fraction(1, lead))
                scale = scale * lead**exponent
            factors.append((factor, exponent))
        if scale != 1:
            num = num.scale(Fraction(1, scale))
        self._reduce(num, factors)

    def _reduce(self, num: Polynomial, den: Iterable[tuple[Polynomial, int]]) -> None:
        """Store num over den in canonical form: the one reduction routine.

        den lists monic, non-constant factors over num's table with positive
        exponents, which may repeat.  Equal factors are merged, the factors
        sorted by key(), and each is trial-divided out of num as often as
        it goes: the only reduction performed, and enough to reach canonical
        zero because equality testing never relies on it.
        """
        if not num.coeffs:
            self.num, self.den = num, ()
            return
        merged: dict[Polynomial, list] = {}
        for factor, exponent in den:
            entry = merged.get(factor)
            if entry is None:
                merged[factor] = [factor, exponent]
            else:
                entry[1] += exponent
        factors: list[list] = sorted(merged.values(), key=lambda e: e[0].key())
        for entry in factors:
            factor = entry[0]
            while entry[1] > 0:
                quotient = _divide_exact(num, factor)
                if quotient is None:
                    break
                num = quotient
                entry[1] -= 1
        self.num = num
        self.den = tuple((f, e) for f, e in factors if e > 0)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "RationalFunction":
        return RationalFunction(Polynomial.zero(table), ())

    @staticmethod
    def constant(table: VariableTable, value: Fraction | int | str) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(table, value), ())

    @staticmethod
    def variable(table: VariableTable, idx: int) -> "RationalFunction":
        return RationalFunction(Polynomial.variable(table, idx), ())

    @staticmethod
    def from_polynomial(num: Polynomial) -> "RationalFunction":
        return RationalFunction(num, ())

    @classmethod
    def _from_monic(
        cls, num: Polynomial, den: Iterable[tuple[Polynomial, int]]
    ) -> "RationalFunction":
        """num over factors already monic, non-constant and over num's table
        (see _reduce); skips the checks and the monic scaling of __init__."""
        out = object.__new__(cls)
        out._reduce(num, den)
        return out

    @classmethod
    def _raw(cls, num: Polynomial, den: DenominatorFactors) -> "RationalFunction":
        """Skip normalization for values already in canonical form."""
        out = object.__new__(cls)
        out.num = num
        out.den = den if not num.is_zero() else ()
        return out

    # -- structure -------------------------------------------------------------

    @property
    def table(self) -> VariableTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def denominator_polynomial(self) -> Polynomial:
        out = Polynomial.constant(self.table, 1)
        for factor, exponent in self.den:
            out = out * factor**exponent
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        self._check(other)
        # Cross-multiplication after cancelling shared factors.
        (left, right), _ = _align(((self.num, self.den), (other.num, other.den)))
        return left == right

    # Equal values can have different stored forms (x11^2/(x11 x12) and
    # x11/x12), so no hash can agree with __eq__.
    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalFunction({render_rational_function(self)})"

    # -- arithmetic ---------------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.table is not other.table and self.table != other.table:
            raise MismatchedTables("operands use different variable tables")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return _sum_terms(self.table, ((self.num, self.den), (other.num, other.den)))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.num, self.den)

    def scale(self, value: Fraction | int | str) -> "RationalFunction":
        """Multiply by a rational constant without re-normalizing factors."""
        value = coerce_rational(value)
        if not value:
            return RationalFunction.zero(self.table)
        return RationalFunction._raw(self.num.scale(value), self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return RationalFunction._from_monic(self.num * other.num, self.den + other.den)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero rational function")
        num = self.denominator_polynomial()
        return RationalFunction(num, ((self.num, 1),))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            raise UsageError("rational function powers must be nonnegative")
        out = RationalFunction.constant(self.table, 1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- calculus, evaluation, composition -----------------------------------------

    def differentiate(self, idx: int) -> "RationalFunction":
        """The quotient rule in one pass: d(num / prod f_i^e_i) has numerator
        num' prod f_i - num sum_i e_i f_i' prod_{j != i} f_j over
        prod f_i^(e_i + 1), where factors with f_i' = 0 drop out of the sum.
        """
        if not (0 <= idx < self.table.size):
            raise UsageError(f"variable index {idx} out of range")
        new_num = self.num.differentiate(idx)
        if not self.den:
            return RationalFunction._from_monic(new_num, ())
        factors = [f for f, _ in self.den]
        for factor in factors:
            new_num = new_num * factor
        correction = None
        for i, (factor, exponent) in enumerate(self.den):
            term = factor.differentiate(idx)
            if term.is_zero():
                continue
            term = term.scale(exponent)
            for j, other in enumerate(factors):
                if j != i:
                    term = term * other
            correction = term if correction is None else correction + term
        if correction is not None:
            new_num = new_num - self.num * correction
        return RationalFunction._from_monic(new_num, [(f, e + 1) for f, e in self.den])

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        value = _ONE
        for factor, exponent in self.den:
            fval = factor.evaluate(point)
            if not fval:
                raise PoleAtPoint(render_polynomial(factor))
            value = value * fval**exponent
        return self.num.evaluate(point) / value

    def substitute(self, mapping: Mapping[int, "RationalFunction"]) -> "RationalFunction":
        """Composition with mapping (see substitute_all, a batch of one)."""
        (result,) = substitute_all((self,), mapping)
        return result


def substitute_all(
    values: Iterable[RationalFunction], mapping: Mapping[int, RationalFunction]
) -> list[RationalFunction]:
    """Each value with the variables of mapping replaced (composition).

    The numerator is substituted and each denominator factor f^e becomes
    (f substituted)^(-1) ** e; every distinct factor is substituted and
    inverted, and each power of that inverse built, once for the whole
    batch, so a matrix over one denominator substitutes it once.
    """
    inverses: dict[Polynomial, RationalFunction] = {}
    powers: dict[tuple[Polynomial, int], RationalFunction] = {}
    out = []
    for value in values:
        result = value.num.substitute(mapping)
        for factor, exponent in value.den:
            power = powers.get((factor, exponent))
            if power is None:
                inverse = inverses.get(factor)
                if inverse is None:
                    inverse = inverses[factor] = factor.substitute(mapping).inverse()
                power = powers[factor, exponent] = inverse**exponent
            result = result * power
        out.append(result)
    return out


#: A numerator and its denominator factors.  The numerator is a Polynomial,
#: or an unexpanded pair of Polynomials whose product it is (see dot).
RawTerm = tuple[Polynomial | tuple[Polynomial, Polynomial], Iterable[tuple[Polynomial, int]]]


def _align(terms: Sequence[RawTerm]) -> tuple[list, DenominatorFactors]:
    """Every numerator over the lcm of the terms' factorizations, and the lcm.

    A term is a raw term: its denominator factors are monic and
    non-constant, and may repeat (a raw product lists both operands'
    factors).  The lcm lists the factors in order of first appearance and
    keeps the first object seen for each.  When every term has the lcm's
    factorization, the numerators come back unchanged, pairs unexpanded;
    otherwise each pair is expanded and each power f**k is built once per
    call.
    """
    owned: list[dict[Polynomial, int]] = []
    lcm: dict[Polynomial, int] = {}
    for _, factors in terms:
        mine: dict[Polynomial, int] = {}
        for factor, exponent in factors:
            mine[factor] = mine.get(factor, 0) + exponent
        for factor, exponent in mine.items():
            if lcm.get(factor, 0) < exponent:
                lcm[factor] = exponent
        owned.append(mine)
    if all(mine == lcm for mine in owned):
        return [num for num, _ in terms], tuple(lcm.items())
    powers: dict[tuple[Polynomial, int], Polynomial] = {}
    numerators = []
    for (num, _), mine in zip(terms, owned):
        if type(num) is tuple:
            num = num[0] * num[1]
        for factor, exponent in lcm.items():
            lack = exponent - mine.get(factor, 0)
            if lack:
                power = powers.get((factor, lack))
                if power is None:
                    power = powers[factor, lack] = factor**lack
                num = num * power
        numerators.append(num)
    return numerators, tuple(lcm.items())


def _sum_terms(table: VariableTable, terms: Iterable[RawTerm]) -> RationalFunction:
    """The sum of raw terms (see _align), normalized once.

    The numerators are brought over the lcm and added into one coefficient
    map, a pair multiplied straight into it, so trial division runs once
    for the whole sum rather than once per term and once per partial sum.
    A pair's factors are taken to be nonzero, as dot passes them.
    """
    terms = [term for term in terms if type(term[0]) is tuple or term[0].coeffs]
    if not terms:
        return RationalFunction.zero(table)
    numerators, lcm = _align(terms)
    total: dict[Monomial, int | Fraction] = {}
    get = total.get
    for num in numerators:
        if type(num) is tuple:
            left, right = num
            if (left.table is not table and left.table != table) or (
                right.table is not table and right.table != table
            ):
                raise MismatchedTables("terms use different variable tables")
            for m1, c1 in left.coeffs.items():
                for m2, c2 in right.coeffs.items():
                    mono = m1 + m2
                    acc = get(mono)
                    total[mono] = c1 * c2 if acc is None else acc + c1 * c2
        else:
            if num.table is not table and num.table != table:
                raise MismatchedTables("terms use different variable tables")
            for mono, coeff in num.coeffs.items():
                acc = get(mono)
                total[mono] = coeff if acc is None else acc + coeff
    # As in Polynomial.__mul__: no field of a pair's product carries, and a
    # monomial whose guard bit is set has reached the limit.  Zero sums are
    # still keys here, so a product that cancels is caught too.
    if functools.reduce(operator.or_, total, 0) & table.guard:
        raise UsageError(_OVERFLOW)
    return RationalFunction._from_monic(Polynomial(table, total), lcm)


def dot(
    table: VariableTable, pairs: Iterable[tuple[RationalFunction, RationalFunction]]
) -> RationalFunction:
    """The sum of a * b over the pairs, normalized once (see _sum_terms)."""
    return _sum_terms(
        table,
        [((a.num, b.num), a.den + b.den) for a, b in pairs if a.num.coeffs and b.num.coeffs],
    )


class ScaledValues:
    """Rational functions over one table, evaluated at many points in ints.

    On construction the functions are brought over the lcm Q of their
    denominators once (see _align), and each numerator and each factor of
    Q becomes a row of int coefficients over one table of monomials, all
    rows cleared by one positive scale.  at(point) writes the point as
    X / D with ints X and D > 0 and evaluates a monomial of total degree d
    as D**(degree - d) * X**e, with degree the largest total degree in the
    table, so each row reads scale * D**degree times its polynomial at the
    point.  The numerators, negated when Q is negative there, are then one
    positive multiple of the function values: all that a verdict which a
    positive scale does not change needs.

    A point binds the chart coordinates only, so a function in which t, s
    or some c_i occurs raises UsageError; c is bound by substitution
    (model.Chart.c_substitution) before the functions come here.
    """

    __slots__ = ("size", "monomials", "numerators", "factors")

    def __init__(self, functions: Sequence[RationalFunction]):
        table = functions[0].table
        if any(f.table != table for f in functions):
            raise MismatchedTables("functions use different variable tables")
        aligned, den = _align([(f.num, f.den) for f in functions if f.num.coeffs])
        aligned = iter(aligned)
        polys = [next(aligned) if f.num.coeffs else f.num for f in functions]
        polys += [factor for factor, _ in den]
        scale = math.lcm(*(c.denominator for p in polys for c in p.coeffs.values()))
        index: dict[Monomial, int] = {}
        rows = [
            tuple(
                (index.setdefault(mono, len(index)), c.numerator * (scale // c.denominator))
                for mono, c in p.coeffs.items()
            )
            for p in polys
        ]
        self.size = table.size
        pairs = [exponent_pairs(mono, table.size) for mono in index]
        if any(p and p[-1][0] >= 2 * table.n for p in pairs):
            raise UsageError("ScaledValues takes functions of x only; substitute t, s and c first")
        degrees = [sum(e for _, e in p) for p in pairs]
        degree = max(degrees, default=0)
        self.monomials = tuple((degree - d, p) for d, p in zip(degrees, pairs))
        self.numerators = tuple(rows[: len(functions)])
        self.factors = tuple(
            (factor, exponent % 2 == 1, row)
            for (factor, exponent), row in zip(den, rows[len(functions) :])
        )

    def at(self, point: Sequence[Fraction]) -> tuple[int, ...]:
        """One positive multiple of the values of the functions at point, a
        full evaluation vector, as ints; a vanishing denominator factor
        raises PoleAtPoint."""
        if len(point) != self.size:
            raise UsageError("evaluation point does not bind every variable")
        D = math.lcm(*(v.denominator for v in point))
        X = [v.numerator * (D // v.denominator) for v in point]
        values = []
        for d_power, pairs in self.monomials:
            value = D**d_power
            for idx, e in pairs:
                value *= X[idx] ** e
            values.append(value)
        negative = False
        for factor, odd, row in self.factors:
            value = sum(c * values[i] for i, c in row)
            if not value:
                raise PoleAtPoint(render_polynomial(factor))
            negative ^= odd and value < 0
        sums = [sum(c * values[i] for i, c in row) for row in self.numerators]
        return tuple(-v for v in sums) if negative else tuple(sums)


class Dual:
    """value + eps*e with e^2 = 0, for exact forward-mode derivatives
    (Griewank and Walther, Evaluating Derivatives, SIAM 2008).

    It has only the operations the evaluators apply, so Polynomial.evaluate
    or RationalFunction.evaluate at a point whose coordinate idx is
    Dual(p_idx, 1) gives df/dx_idx(p) as eps part, without differentiate.
    A Dual of Duals is hyper-dual (Fike and Alonso, AIAA 2011-886): seed x_i
    in the inner e and x_j in the outer, and the eps of the eps is
    d^2 f/dx_i dx_j(p).  bool reads the value, so a pole raises PoleAtPoint.
    An operand other than a Dual, an int or a Fraction is NotImplemented.
    """

    __slots__ = ("value", "eps")

    def __init__(self, value, eps):
        self.value, self.eps = value, eps

    def __bool__(self) -> bool:
        return bool(self.value)

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.eps)

    def __add__(self, other):
        o = _dual(other)
        return NotImplemented if o is None else Dual(self.value + o.value, self.eps + o.eps)

    def __mul__(self, other):
        o = _dual(other)
        return NotImplemented if o is None else Dual(self.value * o.value, self.value * o.eps + self.eps * o.value)

    def __truediv__(self, other):
        o = _dual(other)
        if o is None:
            return NotImplemented
        quotient = self.value / o.value
        return Dual(quotient, (self.eps + -(quotient * o.eps)) / o.value)

    def __rtruediv__(self, other):
        o = _dual(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            return NotImplemented
        head = self.value ** (exponent - 1) if exponent else _ZERO
        return Dual(self.value**exponent, exponent * head * self.eps)

    __radd__, __rmul__ = __add__, __mul__


def _dual(value) -> Dual | None:
    """value as a Dual, a scalar with eps 0; None for any other type."""
    if isinstance(value, Dual):
        return value
    return Dual(value, 0) if type(value) in (int, Fraction) else None


def eps_part(value: Dual | int | Fraction):
    """The eps part of an evaluator's result: 0 for the scalar it returns
    when no Dual reached it."""
    return value.eps if isinstance(value, Dual) else 0


# -- rendering -----------------------------------------------------------------


def _render_scalar(value: int | Fraction, latex: bool) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    if latex:
        sign = "-" if value < 0 else ""
        return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"
    return f"{value.numerator}/{value.denominator}"


def _render_monomial(table: VariableTable, mono: Monomial, latex: bool) -> str:
    parts = []
    for idx, e in exponent_pairs(mono, table.size):
        name = table.render(idx, latex=latex)
        if e == 1:
            parts.append(name)
        elif latex:
            parts.append(f"{name}^{{{e}}}")
        else:
            parts.append(f"{name}^{e}")
    joiner = " " if latex else "*"
    return joiner.join(parts)


def render_polynomial(p: Polynomial, latex: bool = False) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for mono in sorted(p.coeffs, reverse=True):
        coeff = p.coeffs[mono]
        body = _render_monomial(p.table, mono, latex)
        if not body:
            text = _render_scalar(coeff, latex)
        elif coeff == 1:
            text = body
        elif coeff == -1:
            text = f"-{body}"
        else:
            joiner = " " if latex else "*"
            text = f"{_render_scalar(coeff, latex)}{joiner}{body}"
        terms.append(text)
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def render_rational_function(f: RationalFunction, latex: bool = False) -> str:
    num = render_polynomial(f.num, latex)
    if not f.den:
        return num
    if latex:
        den_parts = []
        for factor, exponent in f.den:
            body = render_polynomial(factor, latex=True)
            den_parts.append(f"({body})^{{{exponent}}}" if exponent > 1 else f"({body})")
        return f"\\frac{{{num}}}{{{' '.join(den_parts)}}}"
    den_parts = []
    for factor, exponent in f.den:
        body = render_polynomial(factor)
        den_parts.append(f"({body})^{exponent}" if exponent > 1 else f"({body})")
    num_text = f"({num})" if (" + " in num or " - " in num) else num
    return f"{num_text}/{'/'.join(den_parts)}"
