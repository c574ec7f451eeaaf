"""Exact rank, solving, and diagonalization routines cross-checked."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfib.cohomology.fields import at_sample
from ellfib.linalg import (
    FRACTION_DOMAIN,
    INTEGER_DOMAIN,
    exact_rank,
    integer_diagonalize,
    solve_gf2,
    solve_integer,
)
from gaussian import (
    GAUSSIAN_RATIONALS,
    POLY_S,
    POLY_T,
    POLYNOMIALS,
    GaussQ,
    Poly2,
    poly2_matrix,
    poly_const,
)
from make_presets import rref, solve_fractions
from test_fibration import complete_nerve, grid_nerve, rp2_nerve


def det(matrix) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    sign = 1
    total = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        total *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inv
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return sign * total


def random_matrix(rng, m, n, span=9):
    return [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(m)]


def test_rank_of_obvious_matrices():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0


def test_rank_rejects_ragged_input():
    with pytest.raises(ValueError):
        exact_rank([[1, 2], [3]])


def test_bareiss_agrees_with_rref_pivot_count():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, span=4)
        _, pivots = rref(mat)
        assert exact_rank(mat) == len(pivots)


def test_rank_over_polynomial_domain():
    t = Poly2({(1, 0): Fraction(1)})
    s = Poly2({(0, 1): Fraction(1)})
    one = poly_const(1)
    # rows [1, t], [s, t*s] are proportional; adding [0, 1] restores rank 2
    assert exact_rank([[one, t], [s, t * s]], POLYNOMIALS) == 1
    zero = poly_const(0)
    assert exact_rank([[one, t], [s, t * s], [zero, one]], POLYNOMIALS) == 2


def test_polynomial_rank_specializes_consistently():
    rng = random.Random(11)
    # affine triples c + ct*t + cs*s, as every page entry is: 1, t, s and t + s
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]

    def entry():
        part, k = basis[rng.randrange(len(basis))], rng.randint(-2, 2)
        return tuple(k * x for x in part)

    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[entry() for _ in range(n)] for _ in range(m)]
        generic = exact_rank(poly2_matrix(mat), POLYNOMIALS)
        special = exact_rank(at_sample(mat, Fraction(19, 7), Fraction(-23, 11)), INTEGER_DOMAIN)
        # specialization can only lose rank
        assert special <= generic


def test_rank_over_gaussian_rationals():
    i = GaussQ(Fraction(0), Fraction(1))
    one = GaussQ.const(1)
    # second row is i times the first
    assert exact_rank([[one, i], [i, i * i]], GAUSSIAN_RATIONALS) == 1
    assert exact_rank([[one, i], [i, one]], GAUSSIAN_RATIONALS) == 2


def test_integer_division_raises_instead_of_flooring():
    assert INTEGER_DOMAIN.div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        INTEGER_DOMAIN.div(7, 2)
    with pytest.raises(ArithmeticError):
        INTEGER_DOMAIN.div(-7, 2)
    # Gaussian integers divide the same way
    assert (GaussQ(3, 1) * GaussQ(1, 2)) / GaussQ(1, 2) == GaussQ(3, 1)
    with pytest.raises(ArithmeticError):
        GaussQ(1, 0) / GaussQ(1, 1)  # (1 - i)/2 is no Gaussian integer
    # rational coefficients still divide as in a field
    assert GaussQ(Fraction(1), 0) / GaussQ(1, 1) == GaussQ(Fraction(1, 2), Fraction(-1, 2))
    # integer polynomials keep integer quotients, and divide over Q where ints do not
    quotient = Poly2({(1, 0): 6, (0, 0): -4}).divexact(poly_const(2))
    assert quotient == Poly2({(1, 0): 3, (0, 0): -2})
    assert {type(c) for c in quotient.coeffs.values()} == {int}
    assert Poly2({(1, 0): 3}).divexact(poly_const(2)) == Poly2({(1, 0): Fraction(3, 2)})


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=5))
def test_integer_rank_is_the_rational_rank(rows):
    # Bareiss quotients over Z are minors, so they are exact and never floored
    rationals = [[Fraction(x) for x in row] for row in rows]
    assert exact_rank(rows, INTEGER_DOMAIN) == exact_rank(rationals)


# small coefficients with many zeros, so rank drops are common
SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
ENTRIES = {
    "fraction": (FRACTION_DOMAIN, st.builds(Fraction, SMALL)),
    "poly2": (POLYNOMIALS, st.builds(
        lambda c, t, s: poly_const(c) + t * POLY_T + s * POLY_S, SMALL, SMALL, SMALL
    )),
    "gauss": (GAUSSIAN_RATIONALS, st.builds(GaussQ, st.builds(Fraction, SMALL), st.builds(Fraction, SMALL))),
}


@st.composite
def negated_blocks(draw):
    """A domain and blocks A (m1 x n), B (m2 x n), C (m2 x k) over it."""
    name = draw(st.sampled_from(sorted(ENTRIES)))
    dom, entry = ENTRIES[name]
    m1, m2, n, k = (draw(st.integers(1, 3)) for _ in range(4))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return dom, block(m1, n), block(m2, n), block(m2, k)


@settings(max_examples=80, deadline=None)
@given(negated_blocks())
def test_negating_a_block_keeps_the_rank(blocks):
    # the engine stores no negated block: only ranks are read off its page
    dom, a, b, c = blocks
    neg_b = [[-x for x in row] for row in b]
    assert exact_rank(a + b, dom) == exact_rank(a + neg_b, dom)
    zero = a[0][0] - a[0][0]
    top = [row + [zero] * len(c[0]) for row in a]
    assert exact_rank(top + [rb + rc for rb, rc in zip(b, c)], dom) == (
        exact_rank(top + [rb + rc for rb, rc in zip(neg_b, c)], dom)
    )


def test_rref_produces_identity_leading_blocks():
    red, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert red == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_solve_fractions_residual_and_inconsistency():
    rng = random.Random(23)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, span=5)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        x = solve_fractions(mat, rhs)
        if x is not None:
            for row, b in zip(mat, rhs):
                assert sum(c * v for c, v in zip(row, x)) == b
    assert solve_fractions([[1, 1], [1, 1]], [0, 1]) is None


def test_integer_diagonalize_transforms_are_unimodular():
    rng = random.Random(43)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v = integer_diagonalize(mat)
        assert len(d) == min(m, n)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        # U A V = diag(d)
        uav = [
            [
                sum(u[i][a] * mat[a][b] * v[b][j] for a in range(m) for b in range(n))
                for j in range(n)
            ]
            for i in range(m)
        ]
        assert uav == [[d[i] if i == j else 0 for j in range(n)] for i in range(m)]


def test_solve_integer_residual_and_obstructions():
    rng = random.Random(59)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x_true = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(r * x for r, x in zip(row, x_true)) for row in mat]
        x = solve_integer(mat, rhs)
        assert x is not None
        assert all(isinstance(v, int) for v in x)
        for row, b in zip(mat, rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[2, 4]], [3]) is None
    assert solve_integer([[0]], [1]) is None
    assert solve_integer([[2]], [6]) == [3]


def test_solve_gf2_residual_and_obstructions():
    rng = random.Random(61)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        x_true = [rng.randint(0, 1) for _ in range(n)]
        rhs = [sum(r * x for r, x in zip(row, x_true)) % 2 for row in mat]
        x = solve_gf2(integer_diagonalize(mat), rhs)
        assert x is not None
        for row, b in zip(mat, rhs):
            assert sum(c * v for c, v in zip(row, x)) % 2 == b
    assert solve_gf2(integer_diagonalize([[0, 0]]), [1]) is None
    # signed integer entries reduce mod 2
    assert solve_gf2(integer_diagonalize([[-1]]), [1]) == [1]


def test_solve_gf2_agrees_with_brute_force():
    # entries in -3..3 give even diagonal entries (2, -2) as well as odd ones
    rng = random.Random(67)
    evens = unsolvable = 0
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        form = integer_diagonalize(mat)
        evens += any(di and di % 2 == 0 for di in form[0])
        for rhs in ([rng.randint(-3, 3) for _ in range(m)], [rng.randint(0, 1) for _ in range(m)]):
            solutions = [
                x
                for x in itertools.product((0, 1), repeat=n)
                if all(
                    (sum(c * v for c, v in zip(row, x)) - b) % 2 == 0
                    for row, b in zip(mat, rhs)
                )
            ]
            x = solve_gf2(form, rhs)
            if not solutions:
                assert x is None
                unsolvable += 1
                continue
            assert x is not None and set(x) <= {0, 1}
            assert tuple(x) in solutions
    assert evens >= 10
    assert 100 <= unsolvable <= 500


def reference_diagonalize(matrix):
    """integer_diagonalize as it stood before its whole-row rewrite, verbatim.

    Its column operations run over every row of A, and V is kept as is,
    so a column operation on V is a loop over V's rows.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # dst += q * src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

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
    return [a[i][i] for i in range(min(m, n))], u, v


def matmul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def relator_matrix(nerve):
    """One row g_ij + g_jk - g_ik per sorted triple, one column per overlap."""
    column = {key: pos for pos, key in enumerate(nerve.overlaps)}
    rows = []
    for i, j, k in nerve.triples:
        row = [0] * len(column)
        row[column[(i, j)]] += 1
        row[column[(j, k)]] += 1
        row[column[(i, k)]] -= 1
        rows.append(row)
    return rows


def random_sparse_matrices():
    rng = random.Random(71)
    for _ in range(120):
        m, n = rng.randint(1, 10), rng.randint(1, 14)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m // 3)):
            mat[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n // 3)):
            for row in mat:
                row[j] = 0
        yield mat


RELATOR_NERVES = {
    "planar 4": grid_nerve(4, periodic=False),
    "planar 6": grid_nerve(6, periodic=False),
    "periodic 4": grid_nerve(4, periodic=True),
    "periodic 5": grid_nerve(5, periodic=True),
    "complete 7": complete_nerve([f"c{i}" for i in range(1, 8)]),
    "complete 8": complete_nerve([f"c{i}" for i in range(1, 9)]),
    "rp2": rp2_nerve(),
}


@pytest.mark.parametrize(
    "matrices",
    [pytest.param(random_sparse_matrices, id="random")]
    + [
        pytest.param(lambda nerve=nerve: [relator_matrix(nerve)], id=name)
        for name, nerve in RELATOR_NERVES.items()
    ],
)
def test_integer_diagonalize_keeps_the_reference_form_at_realistic_sizes(matrices):
    # the whole-row rewrite keeps every pivot, so (d, U, V) is the same lists
    for mat in matrices():
        form = integer_diagonalize(mat)
        assert form == reference_diagonalize(mat)
        d, u, v = form
        m, n = len(mat), len(mat[0])
        assert matmul(matmul(u, mat), v) == [
            [d[i] if i == j else 0 for j in range(n)] for i in range(m)
        ]
        if max(m, n) <= 14:
            assert abs(det(u)) == 1 == abs(det(v))
