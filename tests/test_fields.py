"""The readers of a page of triples, and the Q[t, s] and Gaussian references."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfib.cohomology.fields import (
    GAUSS_DOMAIN,
    GAUSSIAN_MODE,
    GENERIC_MODE,
    MODES,
    POLY2_DOMAIN,
    at_sample,
    generic_rank,
    real_form,
)
from ellfib.linalg import INTEGER_DOMAIN, exact_rank
from gaussian import (
    GAUSS_I,
    GAUSSIAN_RATIONALS,
    POLY_S,
    POLY_T,
    POLYNOMIALS,
    GaussQ,
    Poly2,
    at_i,
    poly2_matrix,
    poly_const,
)

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
polys = st.builds(
    Poly2,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=4
    ),
)
gaussians = st.builds(GaussQ, coeffs, coeffs)


def test_poly_zero_terms_dropped_on_construction():
    p = Poly2({(0, 0): Fraction(0), (1, 0): Fraction(2)})
    assert (0, 0) not in p.coeffs
    assert not p.is_zero
    assert poly_const(0).is_zero


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == poly_const(0)


@given(polys, polys)
def test_poly_exact_division_inverts_multiplication(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            (a * b).divexact(b)
    else:
        assert (a * b).divexact(b) == a


def test_poly_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        (POLY_T + poly_const(1)).divexact(POLY_S)


# page entries: c + ct*t + cs*s held as the integer triple (c, ct, cs)
ints = st.integers(-5, 5)
triples = st.tuples(ints, ints, ints)


def scaled_value(entry, t, s):
    return at_sample([[entry]], t, s)[0][0]


@given(triples, triples, coeffs, coeffs)
def test_sample_values_are_scaled_substitution(a, b, t, s):
    # at_sample is q*r times substitution at (t, s) = (p/q, u/r): additive,
    # and integral on integer triples
    scale = t.denominator * s.denominator
    total = tuple(x + y for x, y in zip(a, b))
    assert scaled_value(total, t, s) == scaled_value(a, t, s) + scaled_value(b, t, s)
    assert type(scaled_value(a, t, s)) is int
    c, ct, cs = a
    assert scaled_value(a, t, s) == scale * (c + ct * t + cs * s)


def triple_matrices(max_side):
    # small parts with many zeros, so rank drops are common
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    entry = st.tuples(part, part, part)
    return st.integers(1, max_side).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=max_side)
    )


@settings(max_examples=80, deadline=None)
@given(triple_matrices(4))
def test_real_form_rank_is_twice_the_rank_at_tau_i(mat):
    real = exact_rank(real_form(mat), GAUSS_DOMAIN)
    assert real % 2 == 0
    assert real // 2 == exact_rank(at_i(mat), GAUSSIAN_RATIONALS)


@st.composite
def generic_rank_inputs(draw):
    """Triples up to 5x5 with zero rows and columns mixed in, or a product
    L*K of an m x k integer matrix and a k x n matrix of triples, whose rank
    over Q(t, s) is at most k and often below min(m, n)."""
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    entry = st.tuples(part, part, part)
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(m, n)))
        left = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(m)]
        right = [[draw(entry) for _ in range(n)] for _ in range(k)]
        return [
            [tuple(sum(l * e[x] for l, e in zip(row, column)) for x in range(3))
             for column in zip(*right)]
            for row in left
        ]
    mat = [[draw(entry) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    zero_columns = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return [
        [(0, 0, 0) if i in zero_rows or j in zero_columns else e for j, e in enumerate(row)]
        for i, row in enumerate(mat)
    ]


@settings(max_examples=150, deadline=None)
@given(generic_rank_inputs())
@example([[(0, 1, 0)]])  # t: nonzero, but zero at (0, 0)
@example([[(0, 0, 1)]])  # s, likewise
@example([[(0, 0, 0)] * 2 for _ in range(3)])  # all zero, 3x2
def test_generic_rank_is_the_rank_over_q_t_s(mat):
    assert generic_rank(mat) == exact_rank(poly2_matrix(mat), POLYNOMIALS)


@given(triple_matrices(3))
def test_poly2_matrix_is_the_matrix_over_z_t_s(mat):
    assert poly2_matrix(mat) == [
        [poly_const(c) + POLY_T * ct + POLY_S * cs for c, ct, cs in row] for row in mat
    ]


def test_scalar_multiplication_of_polys():
    assert 2 * POLY_T == Poly2({(1, 0): Fraction(2)})
    assert POLY_T * Fraction(1, 2) == Poly2({(1, 0): Fraction(1, 2)})


def test_gaussian_square_of_i():
    assert GAUSS_I * GAUSS_I == GaussQ.const(-1)
    # tau = i and its conjugate -i, read through the real form
    assert real_form([[(0, 1, 0)]]) == [[0, -1], [1, 0]]
    assert real_form([[(0, 0, 1)]]) == [[0, 1], [-1, 0]]


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@given(gaussians, gaussians)
def test_gaussian_division_inverts_multiplication(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a * b) / b == a


def test_modes_registry():
    assert set(MODES) == {"generic", "gaussian"}
    assert MODES["generic"] is GENERIC_MODE
    assert MODES["gaussian"] is GAUSSIAN_MODE


def test_generic_mode_keeps_period_and_conjugate_independent():
    assert not GENERIC_MODE.at_tau_i
    assert poly2_matrix([[(0, -1, 1)]]) == [[POLY_S - POLY_T]]
    # taubar - tau, the factor of the conjugate (0,2) part, vanishes at no sample point
    for t, s in GENERIC_MODE.sample_points:
        assert t != s
        assert at_sample([[(0, -1, 1)]], t, s) == [[t.denominator * s.denominator * (s - t)]]


def test_gaussian_mode_uses_conjugate_pair():
    assert GAUSSIAN_MODE.at_tau_i
    assert GAUSSIAN_MODE.sample_points == ()
    # tau + taubar = i - i vanishes, taubar - tau = -2i does not
    assert real_form([[(0, 1, 1)]]) == [[0, 0], [0, 0]]
    assert real_form([[(0, -1, 1)]]) == [[0, 2], [-2, 0]]


def test_mode_embeddings_are_unital():
    # a constant triple reads as itself in every reading
    assert at_sample([[(3, 0, 0)]], Fraction(1, 2), Fraction(2, 5)) == [[30]]
    assert poly2_matrix([[(3, 0, 0)]]) == [[poly_const(3)]]
    assert real_form([[(3, 0, 0)]]) == [[3, 0], [0, 3]]
    assert at_i([[(3, 0, 0)]]) == [[GaussQ.const(3)]]


def test_the_gaussian_domain_is_its_own_object():
    # real forms and generic_rank's points are integer matrices, but a trace
    # must tell their ranks from the integer ranks at sample points and on
    # the total page (the domains compare equal, so identity tells them apart)
    assert len({id(dom) for dom in (INTEGER_DOMAIN, GAUSS_DOMAIN, POLY2_DOMAIN)}) == 3
    assert GAUSS_DOMAIN.div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        GAUSS_DOMAIN.div(7, 2)
