"""Exact arithmetic on an elliptic curve presented as R^2 / Z^2.

Points carry two rational coordinates reduced mod 1, so the group law is
coordinatewise addition; each point is stored as integers over one
common denominator.  Divisors are finite formal sums of points with
integer multiplicities.  A degree-zero line bundle is given by its point:
Pic^0 of the curve is the curve itself, with the origin as base point,
so x stands for the class of [x] - [origin].

A bundle's graded class and its spectral cycle are one type, the
effective divisor PointMultiset; it, skyscrapers and signed divisors
store points with int multiplicities in one form, built by merge_points.
multiset_ranker numbers the canonical forms of a fixed total on the
torsion points of one order, from their integers alone.

Negation is cached: a point builds its negative once and links the two,
so the transforms, which negate every support point, reuse the same
objects instead of rebuilding them.  The link is a hidden slot outside
equality, hashing, repr and pickling, so points stay frozen, picklable
values; the way back is a weak reference, so a pair forms no reference
cycle and is freed as soon as it is dropped.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable
from weakref import ref as _weak

from .errors import EmptyBundle, NonPositiveRank, SchemaError

_setattr = object.__setattr__

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value, what: str = "rational") -> Fraction:
    """A Fraction, an int, or a string [+-]digits[/digits].

    This is the one rational grammar of the package: JSON documents, the
    CLI vectors and the Python constructors all read rationals here, and
    no exponent form can build a huge int.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string rational, got {value!r}")
    try:
        if _RATIONAL.fullmatch(value):
            return Fraction(value)  # past 4300 digits int() raises ValueError
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"{what}: bad rational {value!r}")


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float coordinates are not exact; pass Fraction, int, or str")
    return parse_fraction(x, "point coordinate")


class TorusPoint:
    """A point of the curve, coordinates in [0, 1).

    The point is stored as three integers (a, b, d) with u = a/d and
    v = b/d, in lowest terms: 0 <= a, b < d and gcd(a, b, d) = 1.  So d is
    the order of the point, equality and hashing are integer work, and
    the group law needs no Fraction arithmetic.  Points order
    lexicographically by (u, v); Python reflects > and >= onto __lt__
    and __le__.

    -p is built on first use and kept in the _neg slot of p, and -p keeps
    a weak link back to p there, so -(-p) is p.  The slot is a cache, not
    a field: equality, hashing, repr and __reduce__ read only (a, b, d),
    a copy or an unpickled point starts with an empty cache, and
    assignment stays refused.
    """

    __slots__ = ("_a", "_b", "_d", "_hash", "_neg", "__weakref__")

    def __new__(cls, u, v):
        u, v = _frac(u), _frac(v)
        du, dv = u.denominator, v.denominator
        d = du * dv // math.gcd(du, dv)
        # u and v are in lowest terms, so gcd(a, b, d) = 1 already
        return _build(u.numerator * (d // du) % d, v.numerator * (d // dv) % d, d)

    def __post_init__(self):
        # every point, from rationals, a triple, + or -, comes from _build,
        # which calls this once, so wrapping this one method sees every point built
        _setattr(self, "_hash", hash((self._a, self._b, self._d)))

    @classmethod
    def from_triple(cls, a: int, b: int, d: int) -> "TorusPoint":
        """The point (a/d, b/d) for any integers a, b and d >= 1."""
        if d < 1:
            raise ValueError(f"denominator must be positive, got {d}")
        return _lowest(a % d, b % d, d)

    @property
    def u(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def v(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.from_triple, (self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"TorusPoint(u={self.u!r}, v={self.v!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not TorusPoint:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __lt__(self, other) -> bool:
        if other.__class__ is not TorusPoint:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return (self._a, self._b) < (other._a, other._b)
        # compare (u, v) lexicographically over the common denominator d * e
        return (self._a * e, self._b * e) < (other._a * d, other._b * d)

    def __le__(self, other) -> bool:
        if other.__class__ is not TorusPoint:
            return NotImplemented
        return not other < self

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        d, e = self._d, other._d
        if d == e:
            return _lowest((self._a + other._a) % d, (self._b + other._b) % d, d)
        f = d * e // math.gcd(d, e)
        x, y = f // d, f // e
        return _lowest(
            (self._a * x + other._a * y) % f, (self._b * x + other._b * y) % f, f
        )

    def __neg__(self) -> "TorusPoint":
        # _neg holds the negative this point built, or a weak link back to
        # the point that built this one: no reference cycle, so a pair is
        # freed by reference counting as soon as both points are dropped
        try:
            neg = self._neg
        except AttributeError:
            pass
        else:
            if neg.__class__ is TorusPoint:
                return neg
            neg = neg()
            if neg is not None:
                return neg
        # gcd(d - a, d - b, d) = gcd(a, b, d) = 1: still in lowest terms
        d = self._d
        neg = _build(-self._a % d, -self._b % d, d)
        _setattr(neg, "_neg", _weak(self))
        _setattr(self, "_neg", neg)
        return neg

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return self + (-other)

    def is_zero(self) -> bool:
        return self._d == 1


def _build(a: int, b: int, d: int) -> TorusPoint:
    """The point of a triple already in lowest terms."""
    point = object.__new__(TorusPoint)
    _setattr(point, "_a", a)
    _setattr(point, "_b", b)
    _setattr(point, "_d", d)
    point.__post_init__()
    return point


def _lowest(a: int, b: int, d: int) -> TorusPoint:
    """The point (a/d, b/d) for 0 <= a, b < d, brought to lowest terms."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _build(a, b, d)


ORIGIN = TorusPoint(Fraction(0), Fraction(0))


Parts = tuple[tuple[TorusPoint, int], ...]

_point = itemgetter(0)
_multiplicity = itemgetter(1)


def merge_points(pairs: Iterable[tuple[TorusPoint, int]], signed: bool = False) -> Parts:
    """The canonical parts of (point, multiplicity) pairs.

    Equal points are merged and the result is sorted by point.  Points
    must be TorusPoints and multiplicities exactly int (bool is refused).
    Signed parts, for divisors, may be negative; zero sums are dropped and
    the result may be empty.  Otherwise every multiplicity must be
    positive and at least one pair given.
    """
    acc: dict[TorusPoint, int] = {}
    for p, m in pairs:
        if type(m) is not int:
            raise TypeError(f"multiplicity must be an int, got {m!r}")
        if m < 1 and not signed:
            raise NonPositiveRank(f"multiplicity must be a positive int, got {m!r}")
        if p.__class__ is not TorusPoint:
            raise TypeError(f"point must be a TorusPoint, got {p!r}")
        acc[p] = acc.get(p, 0) + m
    if signed:
        return tuple(sorted(((p, m) for p, m in acc.items() if m), key=_point))
    if not acc:
        raise EmptyBundle("a point multiset needs at least one point")
    return tuple(sorted(acc.items(), key=_point))


def multiset_ranker(n: int, torsion: int) -> tuple[int, Callable[[Parts], int]]:
    """The number of rank-n multisets of torsion points, and their ranker.

    With T = torsion, the point (a/d, b/d) has index (a*T/d)*T + b*T/d
    when d divides T: its place among the T**2 torsion points in sorted
    (u, v) order.  Parts with sorted indices i_1 <= ... <= i_n, repeated
    by multiplicity, have rank sum_k C(i_k + k - 1, k), the colex rank of
    the combination i_k + k - 1 in the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3), so the C(T**2 + n - 1, n) multisets take
    the ranks 0, 1, ... once each.  Parts that are no such multiset rank
    -1: a point whose order does not divide T, points out of order, or a
    total other than n.
    """
    count = torsion * torsion
    # ends[k][i] = C(i + k, k), the sum of C(i + j - 1, j) over 0 <= j <= k
    ends = [None, range(1, count + 1)]
    ends += [[math.comb(i + k, k) for i in range(count)] for k in range(2, n + 1)]

    def rank(parts: Parts) -> int:
        # m copies of index i at places t + 1 .. t + m add ends[t + m][i] - ends[t][i];
        # the first part's ends[0][i] = 1 is the starting -1
        r, total, last = -1, 0, -1
        for point, m in parts:
            d = point._d
            i = (point._a * torsion + point._b) * (torsion // d)
            if torsion % d or i <= last or m < 1 or total + m > n:
                return -1
            if total:
                r -= ends[total][i]
            total += m
            r += ends[total][i]
            last = i
        return r if total == n else -1

    return math.comb(count + n - 1, n), rank


@dataclass(frozen=True)
class PointMultiset:
    """Points with positive multiplicities, in merge_points order.

    A bundle's graded class and a spectral cycle are both this type, so
    equal parts compare equal; a skyscraper, its one subclass, adds its
    degree and compares unequal to any plain multiset.
    """

    parts: Parts

    def total(self) -> int:
        return sum(map(_multiplicity, self.parts))


def make_multiset(pairs: Iterable[tuple[TorusPoint, int]]) -> PointMultiset:
    """Merge duplicate points and sort; multiplicities must be positive ints."""
    return PointMultiset(merge_points(pairs))


@dataclass(frozen=True)
class Divisor:
    """Formal Z-combination of points, stored sorted with zero terms dropped."""

    terms: Parts


def make_divisor(pairs: Iterable[tuple[TorusPoint, int]]) -> Divisor:
    """Merge duplicate points, drop zero multiplicities, sort canonically."""
    return Divisor(merge_points(pairs, signed=True))
