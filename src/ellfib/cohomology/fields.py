"""Readers for the integer page of a twisting class.

A twisting class is stored as a pair of rational vectors (a, b) and
enters rank computations as a + tau * b, where tau is a formal period.
The engine clears the denominators of (a, b) first and builds one page
of integer triples for either mode: every page entry is affine in tau
and its conjugate, c + ct*t + cs*s with t = tau and s = taubar, and is
held as (c, ct, cs).  A mode only chooses how a rank is read off that
matrix:

- generic mode keeps t and s independent.  at_sample reads the matrix
  at a rational (t, s), and poly2_matrix gives its entries in Z[t, s]
  for Bareiss elimination over that ring.
- gaussian mode sets tau = i, so t = i and s = -i, and an entry becomes
  A + iB with A = c and B = ct - cs.  Its rank over Q(i) is half the
  integer rank of the real form [[A, -B], [B, A]] (real_form).

Poly2 takes rational coefficients as well and divides exactly either
way; on integer data every quotient stays an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..linalg import INTEGER_DOMAIN, DomainOps


class Poly2:
    """Sparse polynomial in two variables t, s over the integers or the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction]):
        self.coeffs = {k: v for k, v in coeffs.items() if v}

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


def at_sample(matrix, t: Fraction, s: Fraction) -> list[list[int]]:
    """q*r times a matrix of triples at (t, s) = (p/q, u/r): integer entries
    with the rank of the matrix at (t, s), since every entry is affine."""
    (p, q), (u, r) = t.as_integer_ratio(), s.as_integer_ratio()
    one, at_t, at_s = q * r, p * r, q * u
    return [[one * c + at_t * ct + at_s * cs for c, ct, cs in row] for row in matrix]


def poly2_matrix(matrix) -> list[list[Poly2]]:
    """A matrix of triples with entries c + ct*t + cs*s in Z[t, s]."""
    return [[Poly2({(0, 0): c, (1, 0): ct, (0, 1): cs}) for c, ct, cs in row] for row in matrix]


def real_form(matrix) -> list[list[int]]:
    """[[A, -B], [B, A]] for a matrix of triples at t = i, s = -i, where each
    entry is A + iB with A = c and B = ct - cs; its rank is twice the rank
    of the matrix over Q(i)."""
    re = [[c for c, _, _ in row] for row in matrix]
    im = [[ct - cs for _, ct, cs in row] for row in matrix]
    return [a + [-x for x in b] for a, b in zip(re, im)] + [b + a for a, b in zip(re, im)]


POLY2_DOMAIN = DomainOps(is_zero=lambda p: p.is_zero, div=lambda a, b: a.divexact(b))

# real forms are ranked over the integers; a domain of their own names them
GAUSS_DOMAIN = DomainOps(is_zero=INTEGER_DOMAIN.is_zero, div=INTEGER_DOMAIN.div)


@dataclass(frozen=True)
class CoefficientMode:
    """How a rank is read off a page of triples.

    A generic rank is also taken at every (t, s) of sample_points; with
    at_tau_i the rank is taken at tau = i, through the real form.
    """

    name: str
    sample_points: tuple = ()
    at_tau_i: bool = False


GENERIC_MODE = CoefficientMode(
    name="generic",
    sample_points=(
        (Fraction(19, 7), Fraction(-23, 11)),
        (Fraction(5, 3), Fraction(7, 2)),
    ),
)

GAUSSIAN_MODE = CoefficientMode(name="gaussian", at_tau_i=True)

MODES = {m.name: m for m in (GENERIC_MODE, GAUSSIAN_MODE)}
