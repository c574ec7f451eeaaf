"""Forward and inverse fiberwise transforms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellfib.bundles import (
    direct_sum,
    dual_bundle,
    graded,
    make_bundle,
    split_bundle,
    tensor_line,
)
from ellfib.errors import EmptyBundle, NonPositiveRank, WrongDegree
from ellfib.torus import TorusPoint, make_multiset, merge_points
from ellfib.transform import (
    SkyscraperClass,
    fm_transform,
    make_skyscraper,
    psi_transform,
    translate_skyscraper,
)

rationals = st.fractions(min_value=0, max_value=1, max_denominator=8)
points = st.builds(TorusPoint, rationals, rationals)
blocks = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), points), min_size=1, max_size=5
)


# few points, so blocks often share one
few_points = st.sampled_from(
    [TorusPoint(Fraction(a, 3), Fraction(b, 2)) for a in range(3) for b in range(2)]
)
few_parts = st.lists(st.tuples(few_points, st.integers(1, 3)), min_size=1, max_size=5)
canonical_bundles = st.one_of(
    st.lists(st.tuples(st.integers(1, 3), few_points), min_size=1, max_size=7).map(make_bundle),
    few_parts.map(lambda parts: psi_transform(make_skyscraper(parts, 0))),
    few_parts.map(lambda parts: split_bundle(make_multiset(parts))),
)


@given(canonical_bundles)
def test_graded_and_fm_merge_block_runs_as_merge_points_does(bundle):
    # both read the canonical blocks in one pass over runs; merge_points is the reference
    assert graded(bundle).parts == merge_points((x, n) for n, x in bundle.blocks)
    forward = fm_transform(bundle)
    assert forward.parts == merge_points((-x, n) for n, x in bundle.blocks)
    assert forward.degree == 1


def test_make_skyscraper_validates_degree_and_lengths():
    p = TorusPoint(Fraction(1, 2), Fraction(0))
    s = make_skyscraper([(p, 1), (p, 2)], 0)
    assert s.parts == ((p, 3),)
    assert s.total_length() == 3
    with pytest.raises(WrongDegree):
        make_skyscraper([(p, 1)], 2)
    with pytest.raises(WrongDegree):
        make_skyscraper([(p, 1)], True)
    with pytest.raises(NonPositiveRank):
        make_skyscraper([(p, 0)], 0)
    with pytest.raises(EmptyBundle):
        make_skyscraper([], 1)


def test_psi_of_the_empty_class_is_refused():
    with pytest.raises(EmptyBundle, match="^a bundle needs at least one block$"):
        psi_transform(SkyscraperClass((), 0))


def test_with_degree_revalidates():
    p = TorusPoint(Fraction(1, 3), Fraction(0))
    s = make_skyscraper([(p, 1)], 1)
    assert s.with_degree(0).degree == 0
    with pytest.raises(WrongDegree):
        s.with_degree(3)


@given(points, points, st.integers(min_value=1, max_value=4))
def test_translate_skyscraper_is_a_group_action(p, z, m):
    s = make_skyscraper([(p, m)], 0)
    moved = translate_skyscraper(translate_skyscraper(s, z), -z)
    assert moved == s


def test_fm_transform_negates_support_and_lands_in_degree_one():
    y = TorusPoint(Fraction(1, 3), Fraction(1, 4))
    b = make_bundle([(2, y)])
    s = fm_transform(b)
    assert s.degree == 1
    assert s.parts == ((-y, 2),)


@given(blocks)
def test_fm_preserves_total_length(raw):
    b = make_bundle(raw)
    assert fm_transform(b).total_length() == b.rank()


@given(blocks, points)
def test_fm_exchanges_twist_with_translation(raw, t):
    # tensoring by the class of t moves the transform by -t
    b = make_bundle(raw)
    left = fm_transform(tensor_line(b, t))
    right = translate_skyscraper(fm_transform(b), -t)
    assert left == right


@given(blocks)
def test_fm_intertwines_duality_with_negation(raw):
    b = make_bundle(raw)
    left = fm_transform(dual_bundle(b))
    neg = tuple(sorted((-p, m) for p, m in fm_transform(b).parts))
    assert left.parts == neg


@given(blocks, blocks)
def test_fm_is_additive_over_direct_sums(x, y):
    a, b = make_bundle(x), make_bundle(y)
    s = fm_transform(direct_sum(a, b))
    merged = make_skyscraper(
        list(fm_transform(a).parts) + list(fm_transform(b).parts), 1
    )
    assert s == merged


def test_psi_requires_degree_zero():
    p = TorusPoint(Fraction(1, 2), Fraction(0))
    with pytest.raises(WrongDegree):
        psi_transform(make_skyscraper([(p, 1)], 1))


def test_psi_emits_repeated_rank_one_blocks():
    p = TorusPoint(Fraction(1, 3), Fraction(0))
    b = psi_transform(make_skyscraper([(p, 3)], 0))
    assert b.blocks == ((1, -p), (1, -p), (1, -p))


@given(blocks)
def test_round_trip_recovers_the_polystable_representative(raw):
    b = make_bundle(raw)
    back = psi_transform(fm_transform(b).with_degree(0))
    assert back == split_bundle(graded(b))


@given(st.lists(st.tuples(points, st.integers(1, 3)), min_size=1, max_size=4))
def test_psi_then_fm_recovers_the_skyscraper(parts):
    s = make_skyscraper(parts, 0)
    assert fm_transform(psi_transform(s)) == s.with_degree(1)
