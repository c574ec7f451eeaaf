"""Coefficient domains for twisting-class arithmetic.

A twisting class is stored as a pair of rational vectors (a, b) and
enters rank computations as a + tau * b, where tau is a formal period.
The engine clears the denominators of (a, b) first, so every entry it
ranks is integral.  Two interpretations are supported: a generic mode
where tau and its conjugate are independent indeterminates t and s
(entries in Z[t, s]), and a gaussian mode where tau = i (entries in
Z[i]).  Both feed the same fraction-free rank routine through a
DomainOps adapter.  Poly2 and GaussQ take rational coefficients as well
and divide exactly either way; on integer data every quotient stays an
integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..linalg import DomainOps, exact_quotient


class Poly2:
    """Sparse polynomial in two variables t, s over the integers or the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction]):
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): value})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "Poly2":
        return Poly2({k: -v for k, v in self.coeffs.items()})

    def __add__(self, other) -> "Poly2":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Poly2(out)

    def __sub__(self, other) -> "Poly2":
        return self + (-other)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            return Poly2({k: v * other for k, v in self.coeffs.items()})
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), u in self.coeffs.items():
            for (k, l), v in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + u * v
        return Poly2(out)

    __rmul__ = __mul__

    def divexact(self, other: "Poly2") -> "Poly2":
        """Exact division over Q[t, s]; caller guarantees divisibility (Bareiss does).

        Int coefficients that divide give an int, others a Fraction: a
        polynomial's coefficient types cannot tell Z[t, s] from Q[t, s],
        since a Fraction coefficient that cancels is dropped.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quot: dict[tuple[int, int], int | Fraction] = {}
        lead = max(other.coeffs)
        lead_c = other.coeffs[lead]
        while rem:
            top = max(rem)
            dt, ds = top[0] - lead[0], top[1] - lead[1]
            if dt < 0 or ds < 0:
                raise ArithmeticError("inexact polynomial division")
            num = rem[top]
            if type(num) is int and type(lead_c) is int and not num % lead_c:
                c = num // lead_c
            else:
                c = Fraction(num) / lead_c
            quot[(dt, ds)] = quot.get((dt, ds), 0) + c
            for (i, j), v in other.coeffs.items():
                key = (i + dt, j + ds)
                new = rem.get(key, 0) - c * v
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return Poly2(quot)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly2(0)"
        parts = []
        for (i, j), v in sorted(self.coeffs.items()):
            parts.append(f"{v}*t^{i}*s^{j}")
        return "Poly2(" + " + ".join(parts) + ")"


def at_sample(matrix, t: Fraction, s: Fraction) -> list[list]:
    """q*r times a matrix of Poly2 at (t, s) = (p/q, u/r), which has the rank
    of the matrix at (t, s) and integer entries for integer coefficients.

    Every entry must have degree at most 1 in each variable, as every page
    entry has, so that one scale q*r serves all of them.
    """
    (p, q), (u, r) = t.as_integer_ratio(), s.as_integer_ratio()
    weight = {(0, 0): q * r, (1, 0): p * r, (0, 1): q * u, (1, 1): p * u}
    try:
        return [[sum(c * weight[m] for m, c in e.coeffs.items()) for e in row] for row in matrix]
    except KeyError:
        raise ValueError("an entry has degree above 1 in t or s") from None


POLY_T = Poly2({(1, 0): 1})
POLY_S = Poly2({(0, 1): 1})

POLY2_DOMAIN = DomainOps(is_zero=lambda p: p.is_zero, div=lambda a, b: a.divexact(b))


@dataclass(frozen=True)
class GaussQ:
    """Gaussian number re + im*i over the integers or the rationals.

    Gaussian integers divide exactly or raise ArithmeticError: a product
    reads both parts of both factors, so int parts come from int data only.
    """

    re: int | Fraction = 0
    im: int | Fraction = 0

    @classmethod
    def const(cls, value) -> "GaussQ":
        return cls(value, 0)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> "GaussQ":
        return GaussQ(-self.re, -self.im)

    def __add__(self, other) -> "GaussQ":
        return GaussQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "GaussQ":
        return GaussQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussQ":
        if isinstance(other, (int, Fraction)):
            return GaussQ(self.re * other, self.im * other)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussQ") -> "GaussQ":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("gaussian division by zero")
        re = self.re * other.re + self.im * other.im
        im = self.im * other.re - self.re * other.im
        return GaussQ(exact_quotient(re, norm), exact_quotient(im, norm))


GAUSS_I = GaussQ(0, 1)

GAUSS_DOMAIN = DomainOps(is_zero=lambda z: z.is_zero, div=lambda a, b: a / b)


@dataclass(frozen=True)
class CoefficientMode:
    """How the formal period and its conjugate are represented.

    Each generic rank is also taken at every (t, s) of sample_points.
    """

    name: str
    tau: object
    taubar: object
    embed: Callable
    dom: DomainOps
    sample_points: tuple = ()


GENERIC_MODE = CoefficientMode(
    name="generic",
    tau=POLY_T,
    taubar=POLY_S,
    embed=Poly2.const,
    dom=POLY2_DOMAIN,
    sample_points=(
        (Fraction(19, 7), Fraction(-23, 11)),
        (Fraction(5, 3), Fraction(7, 2)),
    ),
)

GAUSSIAN_MODE = CoefficientMode(
    name="gaussian",
    tau=GAUSS_I,
    taubar=-GAUSS_I,
    embed=GaussQ.const,
    dom=GAUSS_DOMAIN,
)

MODES = {m.name: m for m in (GENERIC_MODE, GAUSSIAN_MODE)}
