"""Reference arithmetic for the tests: Q[t, s], Gaussian numbers, and each mode's period.

The engine ranks one integer page of affine triples (c, ct, cs) in both
modes: generic ranks as the largest integer rank at a triangle of
integer points, and tau = i through the real form.  The tests compare it
with ranks taken another way, by Bareiss elimination over Q[t, s] with
Poly2 entries built from their own t and s, and over Q(i) with GaussQ.
MODE_ARITHMETIC gives, per mode name, the (embed, tau, taubar, domain) a
rational reference computes with.
"""

from dataclasses import dataclass
from fractions import Fraction

from ellfib.linalg import DomainOps, exact_quotient


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


# Bareiss over Q[t, s], or over Z[t, s] on integer polynomials
POLYNOMIALS = DomainOps(is_zero=lambda p: p.is_zero, div=lambda a, b: a.divexact(b))


def poly2_matrix(matrix) -> list[list[Poly2]]:
    """A matrix of triples with entries c + ct*t + cs*s in Z[t, s]."""
    return [[Poly2({(0, 0): c, (1, 0): ct, (0, 1): cs}) for c, ct, cs in row] for row in matrix]


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

# Bareiss over Q(i), or over Z[i] on Gaussian integers
GAUSSIAN_RATIONALS = DomainOps(is_zero=lambda z: z.is_zero, div=lambda a, b: a / b)

POLY_T = Poly2({(1, 0): 1})
POLY_S = Poly2({(0, 1): 1})


def poly_const(value) -> Poly2:
    return Poly2({(0, 0): value})


def at_i(matrix) -> list[list[GaussQ]]:
    """A matrix of triples (c, ct, cs) at t = i, s = -i, in Gaussian arithmetic."""
    return [
        [GaussQ.const(c) + GAUSS_I * ct + (-GAUSS_I) * cs for c, ct, cs in row]
        for row in matrix
    ]


# mode name -> (embed, tau, taubar, domain): the period and conjugate as
# indeterminates of Q[t, s] for generic, and as i and -i for gaussian
MODE_ARITHMETIC = {
    "generic": (poly_const, POLY_T, POLY_S, POLYNOMIALS),
    "gaussian": (GaussQ.const, GAUSS_I, -GAUSS_I, GAUSSIAN_RATIONALS),
}
