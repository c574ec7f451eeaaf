"""Canonical block form of semistable bundles and their graded classes."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellfib.bundles import (
    direct_sum,
    dual_bundle,
    graded,
    make_bundle,
    make_graded,
    split_bundle,
    tensor_line,
)
from ellfib.errors import EmptyBundle, NonPositiveRank
from ellfib.torus import ORIGIN, TorusPoint
from ellfib.transform import make_skyscraper, psi_transform

rationals = st.fractions(min_value=0, max_value=1, max_denominator=8)
points = st.builds(TorusPoint, rationals, rationals)
blocks = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), points), min_size=1, max_size=5
)


def half() -> TorusPoint:
    return TorusPoint(Fraction(1, 2), Fraction(0))


def test_blocks_sorted_by_point_then_rank():
    b = make_bundle([(2, half()), (1, ORIGIN), (1, half())])
    assert b.blocks == ((1, ORIGIN), (1, half()), (2, half()))


def test_make_bundle_rejects_empty_and_bad_ranks():
    with pytest.raises(EmptyBundle):
        make_bundle([])
    with pytest.raises(NonPositiveRank):
        make_bundle([(0, ORIGIN)])
    with pytest.raises(NonPositiveRank):
        make_bundle([(-1, ORIGIN)])


@pytest.mark.parametrize("bad", ["a", None, Fraction(3, 2), 1.0, True], ids=repr)
def test_make_bundle_checks_ranks_before_sorting(bad):
    # a bad rank next to an int rank at the same point must not reach a
    # rank comparison, which would raise a raw TypeError
    with pytest.raises(NonPositiveRank):
        make_bundle([(1, half()), (bad, half())])
    with pytest.raises(NonPositiveRank):
        make_bundle([(bad, ORIGIN), (2, ORIGIN), (1, half())])


# few points, so that one point often carries several ranks
few_points = st.sampled_from(
    [ORIGIN, half(), TorusPoint(0, Fraction(1, 2)), TorusPoint(Fraction(1, 3), Fraction(2, 3))]
)


@given(st.lists(st.tuples(st.integers(1, 3), few_points), min_size=1, max_size=7))
def test_make_bundle_orders_blocks_by_point_then_rank(raw):
    reference = sorted(raw, key=lambda b: (b[1].u, b[1].v, b[0]))
    assert make_bundle(raw).blocks == tuple(reference)
    assert make_bundle(reversed(raw)).blocks == tuple(reference)


@given(st.lists(st.tuples(few_points, st.integers(1, 3)), min_size=1, max_size=5))
def test_psi_transform_matches_make_bundle_of_negated_parts(raw):
    s = make_skyscraper(raw, 0)
    assert psi_transform(s) == make_bundle((1, -p) for p, m in s.parts for _ in range(m))


def test_rank_and_degree():
    b = make_bundle([(2, ORIGIN), (3, half())])
    assert b.rank() == 5


def test_graded_collapses_towers():
    b = make_bundle([(3, ORIGIN), (2, half()), (1, half())])
    g = graded(b)
    assert g.parts == ((ORIGIN, 3), (half(), 3))
    assert g.total() == b.rank()


def test_make_graded_merges_and_validates():
    g = make_graded([(ORIGIN, 1), (ORIGIN, 2)])
    assert g.parts == ((ORIGIN, 3),)
    with pytest.raises(EmptyBundle):
        make_graded([])
    with pytest.raises(NonPositiveRank):
        make_graded([(ORIGIN, 0)])


@given(blocks, points)
def test_tensor_line_shifts_every_block(raw, t):
    b = make_bundle(raw)
    shifted = tensor_line(b, t)
    assert shifted.rank() == b.rank()
    assert graded(shifted) == make_graded((p + t, m) for p, m in graded(b).parts)
    assert tensor_line(shifted, -t) == b


@given(blocks)
def test_dual_is_an_involution(raw):
    b = make_bundle(raw)
    assert dual_bundle(dual_bundle(b)) == b
    assert graded(dual_bundle(b)) == make_graded((-p, m) for p, m in graded(b).parts)


@given(blocks, blocks)
def test_direct_sum_adds_ranks_and_commutes(x, y):
    a, b = make_bundle(x), make_bundle(y)
    s = direct_sum(a, b)
    assert s.rank() == a.rank() + b.rank()
    assert s == direct_sum(b, a)


def test_split_bundle_is_polystable_representative():
    g = make_graded([(ORIGIN, 2), (half(), 1)])
    s = split_bundle(g)
    assert s.blocks == ((1, ORIGIN), (1, ORIGIN), (1, half()))
    assert graded(s) == g


@given(blocks)
def test_split_graded_roundtrip(raw):
    b = make_bundle(raw)
    assert graded(split_bundle(graded(b))) == graded(b)
