"""Readers for the integer page of a twisting class.

A twisting class is stored as a pair of rational vectors (a, b) and
enters rank computations as a + tau * b, where tau is a formal period.
The engine clears the denominators of (a, b) first and builds one page
of integer triples for either mode: every page entry is affine in tau
and its conjugate, c + ct*t + cs*s with t = tau and s = taubar, and is
held as (c, ct, cs).  A mode only chooses how a rank is read off that
matrix, and every reader gives an integer matrix:

- generic mode keeps t and s independent.  at_sample reads the matrix
  at a rational (t, s), and generic_rank takes the rank over Q(t, s) as
  the largest rank at a triangle of integer points.
- gaussian mode sets tau = i, so t = i and s = -i, and an entry becomes
  A + iB with A = c and B = ct - cs.  Its rank over Q(i) is half the
  integer rank of the real form [[A, -B], [B, A]] (real_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..linalg import INTEGER_DOMAIN, DomainOps, exact_rank


def at_sample(matrix, t: Fraction, s: Fraction) -> list[list[int]]:
    """q*r times a matrix of triples at (t, s) = (p/q, u/r): integer entries
    with the rank of the matrix at (t, s), since every entry is affine."""
    (p, q), (u, r) = t.as_integer_ratio(), s.as_integer_ratio()
    one, at_t, at_s = q * r, p * r, q * u
    return [[one * c + at_t * ct + at_s * cs for c, ct, cs in row] for row in matrix]


def generic_rank(matrix) -> int:
    """The rank of a matrix of triples over Q(t, s): its largest integer rank
    at the points (i, j) with i, j >= 0 and i + j <= r.

    Zero rows and columns carry no rank at any point and go first; r is
    then min(m, n) of what is left.  Every minor is a polynomial in t and
    s of total degree at most r, since every entry is affine.  Suppose a
    minor vanishes at every point of the triangle.  On the line
    t + s = r it has degree at most r and r + 1 roots (i, r - i), so
    t + s - r divides it; the quotient has lower degree and vanishes on
    the smaller triangle i + j <= r - 1, so by induction the minor is
    zero (Schwartz, J. ACM 27, 1980; Alon, Combin. Probab. Comput. 8,
    1999).  A nonzero minor of the generic rank is therefore nonzero at
    some point of the triangle, and no point exceeds the generic rank.
    This holds for any matrix of triples.
    """
    zero = (0, 0, 0)
    rows = [row for row in matrix if any(e != zero for e in row)]
    keep = [j for j, column in enumerate(zip(*rows)) if any(e != zero for e in column)]
    rows = [[row[j] for j in keep] for row in rows]
    full = min(len(rows), len(keep))
    rank = 0
    for i in range(full + 1):
        for j in range(full + 1 - i):
            if rank == full:
                return rank
            rank = max(rank, exact_rank(at_sample(rows, i, j), POLY2_DOMAIN))
    return rank


def real_form(matrix) -> list[list[int]]:
    """[[A, -B], [B, A]] for a matrix of triples at t = i, s = -i, where each
    entry is A + iB with A = c and B = ct - cs; its rank is twice the rank
    of the matrix over Q(i)."""
    re = [[c for c, _, _ in row] for row in matrix]
    im = [[ct - cs for _, ct, cs in row] for row in matrix]
    return [a + [-x for x in b] for a, b in zip(re, im)] + [b + a for a, b in zip(re, im)]


# generic ranks at integer points and real forms are ranked over the
# integers; a domain of their own names each
POLY2_DOMAIN = DomainOps(is_zero=INTEGER_DOMAIN.is_zero, div=INTEGER_DOMAIN.div)
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
