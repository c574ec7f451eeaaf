"""Exact arithmetic on an elliptic curve presented as R^2 / Z^2.

Points carry two rational coordinates reduced mod 1, so the group law is
coordinatewise addition; each point is stored as integers over one
common denominator.  Divisors are finite formal sums of points with
integer multiplicities.  A degree-zero line bundle is given by its point:
Pic^0 of the curve is the curve itself, with the origin as base point,
so x stands for the class of [x] - [origin].

Divisors, graded classes, skyscrapers and spectral cycles all store points
with int multiplicities in one canonical form, built by merge_points.

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
from typing import Iterable
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

    def __init__(self, u, v):
        u, v = _frac(u), _frac(v)
        du, dv = u.denominator, v.denominator
        d = du * dv // math.gcd(du, dv)
        # u and v are in lowest terms, so gcd(a, b, d) = 1 already
        _setattr(self, "_a", u.numerator * (d // du) % d)
        _setattr(self, "_b", v.numerator * (d // dv) % d)
        _setattr(self, "_d", d)
        self.__post_init__()

    def __post_init__(self):
        # every construction, from __init__ or from a triple, ends here,
        # so wrapping this one method sees every point built
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

    Equal points are merged and the result is sorted by point.
    Multiplicities must be exactly int (bool is refused).  Signed parts,
    for divisors, may be negative; zero sums are dropped and the result
    may be empty.  Otherwise every multiplicity must be positive and at
    least one pair given.
    """
    acc: dict[TorusPoint, int] = {}
    for p, m in pairs:
        if type(m) is not int:
            raise TypeError(f"multiplicity must be an int, got {m!r}")
        if m < 1 and not signed:
            raise NonPositiveRank(f"multiplicity must be a positive int, got {m!r}")
        acc[p] = acc.get(p, 0) + m
    if signed:
        return tuple(sorted(((p, m) for p, m in acc.items() if m), key=_point))
    if not acc:
        raise EmptyBundle("a point multiset needs at least one point")
    return tuple(sorted(acc.items(), key=_point))


@dataclass(frozen=True)
class PointMultiset:
    """Points with positive multiplicities, in merge_points order.

    Subclasses are distinct types: equal parts under two subclasses
    compare unequal.
    """

    parts: Parts

    def total(self) -> int:
        return sum(map(_multiplicity, self.parts))


@dataclass(frozen=True)
class Divisor:
    """Formal Z-combination of points, stored sorted with zero terms dropped."""

    terms: Parts


def make_divisor(pairs: Iterable[tuple[TorusPoint, int]]) -> Divisor:
    """Merge duplicate points, drop zero multiplicities, sort canonically."""
    return Divisor(merge_points(pairs, signed=True))
