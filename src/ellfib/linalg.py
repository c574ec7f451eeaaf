"""Exact linear algebra used across the package.

Rank is computed by fraction-free Bareiss elimination, which works over
any integral domain supplying exact division.  The package ranks integer
matrices only; the tests also rank over the rationals, the Gaussian
rationals and the polynomials in two variables, as references.  Every
division it makes is exact in the domain (Bareiss, Math. Comp. 22,
1968), so integer data never needs a fraction; the integer domain raises
on a remainder instead of flooring it.  An integer diagonalization with
unimodular transforms covers the remaining needs: its one form (d, U, V)
solves A x = b over the integers and, read mod 2, over GF(2), since
unimodular U and V stay invertible mod 2 (the universal-coefficient
reading of a Smith form; Kaczynski, Mischaikow and Mrozek, Computational
Homology, 2004).  The diagonalization works in whole rows: once pivot t
is placed, the rows above it hold only their diagonal entries, so column
operations on A start at row t, and V is kept transposed so that its
column operations are row operations too.  Nothing here is
asymptotically clever because every matrix in this artifact is
desk-sized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class DomainOps:
    """Exact-division hooks for Bareiss elimination; + * - come from dunders."""

    is_zero: Callable
    div: Callable


FRACTION_DOMAIN = DomainOps(is_zero=lambda a: a == 0, div=lambda a, b: a / b)


def exact_quotient(a, b):
    """a / b where b divides a: two ints must leave no remainder (ArithmeticError
    otherwise, never a floor or a float); other values divide as in their field."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if remainder:
            raise ArithmeticError(f"inexact integer division {a} / {b}")
        return quotient
    return a / b


INTEGER_DOMAIN = DomainOps(is_zero=operator.not_, div=exact_quotient)


def exact_rank(matrix: Sequence[Sequence], dom: DomainOps = FRACTION_DOMAIN) -> int:
    """Bareiss fraction-free elimination; divisions are exact by construction."""
    rows = [list(row) for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    rank = 0
    top = 0
    prev = None
    for col in range(n):
        piv = next((i for i in range(top, m) if not dom.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pivot = rows[top][col]
        for i in range(top + 1, m):
            for j in range(col + 1, n):
                num = pivot * rows[i][j] - rows[i][col] * rows[top][j]
                rows[i][j] = num if prev is None else dom.div(num, prev)
            rows[i][col] = pivot - pivot
        prev = pivot
        rank += 1
        top += 1
        if top == m:
            break
    return rank


def integer_diagonalize(matrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (d, U, V) with U A V = diag(d).

    d holds the min(m, n) diagonal entries; U and V are unimodular.  The
    diagonal is not normalized to the full divisibility chain; diagonal
    form is all the solvers need.  Rows above the current pivot t hold
    only their diagonal entry, so column operations on A touch rows t..m
    only; V is kept transposed, its column operations are whole-row ones,
    and it is transposed back once at the end.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[0] * i + [1] + [0] * (m - i - 1) for i in range(m)]
    vt = [[0] * j + [1] + [0] * (n - j - 1) for j in range(n)]  # V transposed

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        vt[i], vt[j] = vt[j], vt[i]

    def add_row(src, dst, q):
        # dst += q * src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        # rows above t are zero in both columns (src, dst >= t), so they are skipped
        for row in a[t:]:
            row[dst] += q * row[src]
        vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]

    t = 0
    while t < m and t < n:
        mi, mj, best = -1, -1, 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (best == 0 or x < best):
                    mi, mj, best = i, j, x
            if best == 1:
                break  # a later entry cannot be smaller, so the pivot is final
        if best == 0:
            break
        swap_rows(t, mi)
        swap_cols(t, mj)
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        t += 1
    return [a[i][i] for i in range(min(m, n))], u, [list(row) for row in zip(*vt)]


def _times(matrix, vec) -> list[int]:
    """matrix @ vec over the integers, summed over the nonzero entries of vec."""
    terms = [(k, int(x)) for k, x in enumerate(vec) if x]
    return [sum(row[k] * x for k, x in terms) for row in matrix]


def solve_diagonalized(form, rhs) -> list[int] | None:
    """Solve A x = b over the integers from (d, U, V) with U A V = diag(d).

    x = V y where d_i y_i = (U b)_i, free coordinates 0; one form serves any b.
    """
    d, u, v = form
    y = [0] * len(v)
    for i, ci in enumerate(_times(u, rhs)):
        di = d[i] if i < len(d) else 0
        if di:
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return _times(v, y)


def solve_integer(matrix, rhs) -> list[int] | None:
    """One integer solution of A x = b, or None if no integral solution."""
    return solve_diagonalized(integer_diagonalize(matrix), rhs)


def solve_gf2(form, rhs) -> list[int] | None:
    """One solution of A x = b over GF(2) from the integer form (d, U, V) of A, or None.

    U and V are unimodular, so they stay invertible mod 2 and the same
    form read mod 2 solves the system: an odd d_i fixes y_i = (U b)_i, an
    even or missing one needs (U b)_i even; then x = V y mod 2.
    """
    d, u, v = form
    y = [0] * len(v)
    for i, ci in enumerate(_times(u, rhs)):
        if i < len(d) and d[i] & 1:
            y[i] = ci & 1
        elif ci & 1:
            return None
    return [x & 1 for x in _times(v, y)]
