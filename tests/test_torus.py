"""Torus points, point multisets and divisors."""

import copy
import gc
import itertools
import math
import pickle
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellfib.bundles import GradedClass, make_bundle, make_graded
from ellfib.errors import EmptyBundle, NonPositiveRank, SchemaError
from ellfib.fibration import Nerve
from ellfib.spectral import SpectralCycle, make_cycle, round_trip_verify
from ellfib.torus import ORIGIN, PointMultiset, TorusPoint, make_divisor
from ellfib.transform import SkyscraperClass, make_skyscraper

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
points = st.builds(TorusPoint, rationals, rationals)


def test_coordinates_reduce_mod_one():
    p = TorusPoint(Fraction(7, 3), Fraction(-1, 4))
    assert p.u == Fraction(1, 3)
    assert p.v == Fraction(3, 4)


def test_int_and_string_coordinates_accepted():
    assert TorusPoint(1, "1/2") == TorusPoint(Fraction(0), Fraction(1, 2))


def test_float_coordinates_rejected():
    with pytest.raises(TypeError):
        TorusPoint(0.5, Fraction(0))


@pytest.mark.parametrize("u", ["1e-3", "0.5", " 1/2", True], ids=["exponent", "decimal", "space", "bool"])
def test_coordinates_follow_the_rational_grammar(u):
    # Fraction() would read "1e-3" as 1/1000 and True as 1
    with pytest.raises(SchemaError):
        TorusPoint(u, "0")


@given(points, points, points)
def test_addition_is_an_abelian_group(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ORIGIN == a
    assert (a + (-a)).is_zero()


def test_points_are_ordered_and_hashable():
    a = TorusPoint(Fraction(1, 3), Fraction(0))
    b = TorusPoint(Fraction(1, 2), Fraction(0))
    assert a < b
    assert len({a, b, TorusPoint(Fraction(1, 3), Fraction(0))}) == 2


def reference(x, y):
    """The point as a pair of Fractions reduced mod 1."""
    return (Fraction(x) % 1, Fraction(y) % 1)


def coords(p):
    return (p.u, p.v)


mixed = st.fractions(min_value=-3, max_value=3, max_denominator=60)
pairs = st.tuples(mixed, mixed)


@given(st.lists(pairs, min_size=2, max_size=8))
def test_points_agree_with_fraction_pairs_mod_one(raw):
    points = [TorusPoint(x, y) for x, y in raw]
    refs = [reference(x, y) for x, y in raw]
    for p, r in zip(points, refs):
        assert coords(p) == r
        assert isinstance(p.u, Fraction) and isinstance(p.v, Fraction)
        assert coords(-p) == reference(-r[0], -r[1])
        assert p.is_zero() == (r == (0, 0))
        for q, s in zip(points, refs):
            assert (p == q) == (r == s)
            assert (p != q) == (r != s)
            if p == q:
                assert hash(p) == hash(q)
            assert (p < q) == (r < s)
            assert (p <= q) == (r <= s)
            assert (p > q) == (r > s)
            assert (p >= q) == (r >= s)
            assert coords(p + q) == reference(r[0] + s[0], r[1] + s[1])
            assert coords(p - q) == reference(r[0] - s[0], r[1] - s[1])
    assert [coords(p) for p in sorted(points)] == sorted(refs)
    assert len(set(points)) == len(set(refs))


@given(mixed, mixed)
def test_points_copy_pickle_and_repr_round_trip(x, y):
    p = TorusPoint(x, y)
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and hash(clone) == hash(p)
        assert coords(clone) == coords(p)
    assert eval(repr(p), {"TorusPoint": TorusPoint, "Fraction": Fraction}) == p
    assert repr(p) == f"TorusPoint(u={p.u!r}, v={p.v!r})"


def test_points_are_immutable():
    p = TorusPoint(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(AttributeError):
        p.u = Fraction(0)
    with pytest.raises(AttributeError):
        del p.v
    assert p == TorusPoint(Fraction(1, 3), Fraction(1, 2))


@given(mixed, mixed)
def test_negation_is_cached_and_linked(x, y):
    p = TorusPoint(x, y)
    d = math.lcm(p.u.denominator, p.v.denominator)
    q = -p
    assert -q is p and -p is q
    twin = TorusPoint.from_triple(-int(p.u * d), -int(p.v * d), d)
    assert q == twin and hash(q) == hash(twin)


@given(mixed, mixed)
def test_negated_points_copy_and_pickle_as_plain_points(x, y):
    p = TorusPoint(x, y)
    q = -p
    for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert clone == q and hash(clone) == hash(q)
        assert repr(clone) == repr(q)
        assert -clone == p and -(-clone) is clone
    assert pickle.dumps(q) == pickle.dumps(TorusPoint(q.u, q.v))


def test_negation_pairs_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        p = TorusPoint(Fraction(1, 3), Fraction(1, 5))
        q = -p
        p_ref, q_ref = weakref.ref(p), weakref.ref(q)
        del p
        assert p_ref() is None  # q links back to p only weakly
        assert -q == TorusPoint(Fraction(1, 3), Fraction(1, 5)) and -(-q) is q
        del q
        assert q_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "name", ["u", "v", "_a", "_b", "_d", "_hash", "_neg", "__weakref__", "other"]
)
def test_every_attribute_stays_frozen(name):
    p = TorusPoint(Fraction(1, 3), Fraction(1, 2))
    for point in (p, -p, -ORIGIN):
        with pytest.raises(FrozenInstanceError):
            setattr(point, name, ORIGIN)
        with pytest.raises(FrozenInstanceError):
            delattr(point, name)
    assert -(-p) is p and -p == TorusPoint(Fraction(2, 3), Fraction(1, 2))


def test_round_trip_builds_each_point_and_its_negative_once(monkeypatch):
    # wrap the one construction hook, as perfbench/tracing.py does
    built = []
    post_init = TorusPoint.__dict__["__post_init__"]

    def counted(point):
        built.append(1)
        post_init(point)

    monkeypatch.setattr(TorusPoint, "__post_init__", counted)
    torsion = 4
    report = round_trip_verify(Nerve.single_chart(), 3, torsion)
    assert report.ok
    assert len(built) <= 2 * torsion**2


def test_points_compare_only_with_points():
    assert TorusPoint(0, 0) != (0, 0)
    with pytest.raises(TypeError):
        TorusPoint(0, 0) < (0, 0)


def test_from_triple_reduces_to_lowest_terms():
    assert TorusPoint.from_triple(2, 4, 6) == TorusPoint(Fraction(1, 3), Fraction(2, 3))
    assert TorusPoint.from_triple(-1, 7, 3) == TorusPoint(Fraction(2, 3), Fraction(1, 3))
    assert TorusPoint.from_triple(5, 10, 5) == ORIGIN
    assert TorusPoint.from_triple(3, 0, 6) == TorusPoint(Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        TorusPoint.from_triple(1, 1, 0)


def test_make_divisor_merges_and_drops_zeros():
    p = TorusPoint(Fraction(1, 2), Fraction(0))
    q = TorusPoint(Fraction(1, 3), Fraction(0))
    d = make_divisor([(p, 2), (q, 1), (p, -2)])
    assert d.terms == ((q, 1),)


def test_make_divisor_rejects_non_integer_multiplicity():
    with pytest.raises(TypeError):
        make_divisor([(ORIGIN, Fraction(1, 2))])


def test_divisor_terms_sorted_canonically():
    p = TorusPoint(Fraction(2, 3), Fraction(0))
    q = TorusPoint(Fraction(1, 3), Fraction(0))
    d = make_divisor([(p, 1), (q, 1)])
    assert d.terms == ((q, 1), (p, 1))


# name -> (constructor, attribute holding its parts, signed multiplicities)
MULTISETS = {
    "graded": (make_graded, "parts", False),
    "skyscraper": (lambda pairs: make_skyscraper(pairs, 1), "parts", False),
    "cycle": (make_cycle, "parts", False),
    "divisor": (make_divisor, "terms", True),
}


def counter_reference(pairs, signed):
    """Expected parts, or the error class, computed without the package's merge."""
    for _, m in pairs:
        if isinstance(m, bool) or not isinstance(m, int):
            return TypeError
        if m < 1 and not signed:
            return NonPositiveRank
    if not pairs and not signed:
        return EmptyBundle
    counts = Counter()
    for p, m in pairs:
        counts[p] += m
    merged = [(p, m) for p, m in counts.items() if m != 0]
    return tuple(sorted(merged, key=lambda pm: (pm[0].u, pm[0].v)))


# few distinct points, so merging happens often
few_points = st.builds(
    TorusPoint.from_triple, st.integers(0, 2), st.integers(0, 2), st.integers(1, 3)
)
multiplicities = st.one_of(
    st.integers(-2, 4), st.sampled_from([True, False, 1.0, Fraction(1, 2), "1"])
)


@given(
    st.sampled_from(sorted(MULTISETS)),
    st.lists(st.tuples(few_points, multiplicities), max_size=6),
)
def test_multiset_constructors_match_a_counter(name, pairs):
    build, attr, signed = MULTISETS[name]
    expected = counter_reference(pairs, signed)
    if isinstance(expected, type):
        with pytest.raises(expected):
            build(pairs)
    else:
        assert getattr(build(pairs), attr) == expected


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda pairs: make_bundle([(m, p) for p, m in pairs]), NonPositiveRank),
        (make_graded, TypeError),
        (lambda pairs: make_skyscraper(pairs, 0), TypeError),
        (make_cycle, TypeError),
        (make_divisor, TypeError),
    ],
    ids=["bundle", "graded", "skyscraper", "cycle", "divisor"],
)
def test_constructors_reject_bool_multiplicities(build, error):
    with pytest.raises(error):
        build([(ORIGIN, True)])


def test_multiset_types_stay_distinct_on_equal_parts():
    parts = ((ORIGIN, 2),)
    values = [
        PointMultiset(parts),
        GradedClass(parts),
        SkyscraperClass(parts, 0),
        SpectralCycle(parts),
    ]
    for a, b in itertools.combinations(values, 2):
        assert a != b
    assert GradedClass(parts) == make_graded([(ORIGIN, 1), (ORIGIN, 1)])
    assert len(set(values)) == len(values)
