"""Coefficient domains for twisting-class arithmetic.

A twisting class is stored as a pair of rational vectors (a, b) and
enters rank computations as a + tau * b, where tau is a formal period.
Two interpretations are supported: a generic mode where tau and its
conjugate are independent indeterminates (exact, no special relations),
and a gaussian mode where tau = i.  Both feed the same fraction-free
rank routine through a DomainOps adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ..linalg import DomainOps


class Poly2:
    """Sparse polynomial in two variables over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction]):
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}

    @classmethod
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): Fraction(value)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "Poly2":
        return Poly2({k: -v for k, v in self.coeffs.items()})

    def __add__(self, other) -> "Poly2":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly2(out)

    def __sub__(self, other) -> "Poly2":
        return self + (-other)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), u in self.coeffs.items():
            for (k, l), v in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, Fraction(0)) + u * v
        return Poly2(out)

    __rmul__ = __mul__

    def divexact(self, other: "Poly2") -> "Poly2":
        """Exact division; caller guarantees divisibility (Bareiss does)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quot: dict[tuple[int, int], Fraction] = {}
        lead = max(other.coeffs)
        lead_c = other.coeffs[lead]
        while rem:
            top = max(rem)
            dt, ds = top[0] - lead[0], top[1] - lead[1]
            if dt < 0 or ds < 0:
                raise ArithmeticError("inexact polynomial division")
            c = rem[top] / lead_c
            quot[(dt, ds)] = quot.get((dt, ds), Fraction(0)) + c
            for (i, j), v in other.coeffs.items():
                key = (i + dt, j + ds)
                new = rem.get(key, Fraction(0)) - c * v
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return Poly2(quot)

    def subs(self, t_val: Fraction, s_val: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), v in self.coeffs.items():
            total += v * t_val**i * s_val**j
        return total

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly2(0)"
        parts = []
        for (i, j), v in sorted(self.coeffs.items()):
            parts.append(f"{v}*t^{i}*s^{j}")
        return "Poly2(" + " + ".join(parts) + ")"


POLY_T = Poly2({(1, 0): Fraction(1)})
POLY_S = Poly2({(0, 1): Fraction(1)})

POLY2_DOMAIN = DomainOps(is_zero=lambda p: p.is_zero, div=lambda a, b: a.divexact(b))


@dataclass(frozen=True)
class GaussQ:
    """Gaussian rational a + b*i."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def const(cls, value) -> "GaussQ":
        return cls(Fraction(value), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __neg__(self) -> "GaussQ":
        return GaussQ(-self.re, -self.im)

    def __add__(self, other) -> "GaussQ":
        return GaussQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "GaussQ":
        return GaussQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussQ":
        if isinstance(other, (int, Fraction)):
            other = GaussQ.const(other)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussQ") -> "GaussQ":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("gaussian division by zero")
        return GaussQ(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )


GAUSS_I = GaussQ(Fraction(0), Fraction(1))

GAUSS_DOMAIN = DomainOps(is_zero=lambda z: z.is_zero, div=lambda a, b: a / b)


@dataclass(frozen=True)
class CoefficientMode:
    """How the formal period and its conjugate are represented.

    Each rank over Poly2 is recomputed at every (t, s) of sample_points.
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
