"""Reference arithmetic for the tests: Gaussian numbers, and each mode's period.

The engine ranks one integer page of affine triples (c, ct, cs) in both
modes and reads tau = i through the real form.  The tests compare it
with ranks taken another way: over Q(i) with GaussQ, and over Q[t, s]
with Poly2 entries built from their own t and s.  MODE_ARITHMETIC gives,
per mode name, the (embed, tau, taubar, domain) a rational reference
computes with.
"""

from dataclasses import dataclass
from fractions import Fraction

from ellfib.cohomology.fields import POLY2_DOMAIN, Poly2
from ellfib.linalg import DomainOps, exact_quotient


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
    "generic": (poly_const, POLY_T, POLY_S, POLY2_DOMAIN),
    "gaussian": (GaussQ.const, GAUSS_I, -GAUSS_I, GAUSSIAN_RATIONALS),
}
