"""Polynomial and Gaussian coefficient domains behind the rank engine."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellfib.cohomology.fields import (
    GAUSS_I,
    GAUSSIAN_MODE,
    GENERIC_MODE,
    MODES,
    POLY_S,
    POLY_T,
    GaussQ,
    Poly2,
    at_sample,
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
    assert Poly2.const(0).is_zero


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Poly2.const(0)


@given(polys, polys)
def test_poly_exact_division_inverts_multiplication(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            (a * b).divexact(b)
    else:
        assert (a * b).divexact(b) == a


def test_poly_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        (POLY_T + Poly2.const(1)).divexact(POLY_S)


# integer polynomials of degree at most 1 in each variable, where at_sample is defined
ints = st.integers(-5, 5)
bilinear = st.builds(
    Poly2, st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), ints, max_size=4)
)
in_t = st.builds(lambda c, x: Poly2.const(c) + x * POLY_T, ints, ints)
in_s = st.builds(lambda c, y: Poly2.const(c) + y * POLY_S, ints, ints)


def scaled_value(p, t, s):
    return at_sample([[p]], t, s)[0][0]


@given(bilinear, bilinear, in_t, in_s, coeffs, coeffs)
def test_poly_substitution_is_a_ring_map(a, b, f, g, t, s):
    # at_sample is q*r times substitution at (t, s) = (p/q, u/r): additive,
    # multiplicative up to that scale, and integral on integer polynomials
    scale = t.denominator * s.denominator
    assert scaled_value(a + b, t, s) == scaled_value(a, t, s) + scaled_value(b, t, s)
    assert scale * scaled_value(f * g, t, s) == scaled_value(f, t, s) * scaled_value(g, t, s)
    assert type(scaled_value(a, t, s)) is int
    assert scaled_value(a, t, s) == scale * sum(
        c * t**i * s**j for (i, j), c in a.coeffs.items()
    )


def test_sample_values_need_degree_at_most_one_per_variable():
    with pytest.raises(ValueError):
        at_sample([[POLY_T * POLY_T]], Fraction(1, 2), Fraction(1, 3))


def test_scalar_multiplication_of_polys():
    assert 2 * POLY_T == Poly2({(1, 0): Fraction(2)})
    assert POLY_T * Fraction(1, 2) == Poly2({(1, 0): Fraction(1, 2)})


def test_gaussian_square_of_i():
    assert GAUSS_I * GAUSS_I == GaussQ.const(-1)


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
    tau, taubar = GENERIC_MODE.tau, GENERIC_MODE.taubar
    assert tau == POLY_T and taubar == POLY_S
    assert not (tau - taubar).is_zero
    # the sample points read a product at t and s, times both denominators
    t, s = GENERIC_MODE.sample_points[0]
    assert at_sample([[tau * taubar]], t, s) == [[t.numerator * s.numerator]]


def test_gaussian_mode_uses_conjugate_pair():
    assert GAUSSIAN_MODE.tau * GAUSSIAN_MODE.taubar == GaussQ.const(1)
    assert GAUSSIAN_MODE.tau + GAUSSIAN_MODE.taubar == GaussQ.const(0)
    assert GAUSSIAN_MODE.sample_points == ()


def test_mode_embeddings_are_unital():
    assert GENERIC_MODE.embed(Fraction(3, 2)) == Poly2.const(Fraction(3, 2))
    assert GAUSSIAN_MODE.embed(2) == GaussQ.const(2)
