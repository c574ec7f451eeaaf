"""Spectral cycles, bundle families, and the two-way correspondence."""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from ellfib import spectral
from ellfib.bundles import graded, make_bundle, make_graded, split_bundle, tensor_line
from ellfib.errors import (
    BudgetExceeded,
    EmptyBundle,
    MissingSample,
    NonConstantLength,
    NonPositiveRank,
    OverlapMismatch,
    SchemaError,
    WrongTotal,
)
from ellfib.fibration import Nerve, TranslationCocycle
from ellfib.spectral import (
    ROUND_TRIP_BUDGET,
    BundleFamily,
    beta_map,
    constant_family,
    cycle_of_graded,
    enumerate_bundles,
    enumerate_cycles,
    gamma_map,
    make_cycle,
    round_trip_count,
    round_trip_verify,
    spectral_cover,
    torsion_points,
    translate_cycle,
)
from ellfib.torus import ORIGIN, TorusPoint
from ellfib.transform import make_skyscraper


def pt(u, v=0) -> TorusPoint:
    return TorusPoint(Fraction(u), Fraction(v))


def two_chart_nerve() -> Nerve:
    return Nerve(
        ["a", "b"],
        [("a", "b")],
        chart_samples={"a": ["s"], "b": ["s"]},
        overlap_samples={("a", "b"): ["s"]},
    )


def test_make_cycle_merges_and_validates():
    c = make_cycle([(pt("1/2"), 1), (pt("1/2"), 2), (ORIGIN, 1)])
    assert c.parts == ((ORIGIN, 1), (pt("1/2"), 3))
    assert c.total() == 4
    with pytest.raises(EmptyBundle):
        make_cycle([])
    with pytest.raises(NonPositiveRank):
        make_cycle([(ORIGIN, 0)])
    with pytest.raises(TypeError):
        make_cycle([(ORIGIN, True)])


def test_translate_cycle_round_trip():
    c = make_cycle([(pt("1/3"), 2), (ORIGIN, 1)])
    z = pt("1/7", "2/7")
    assert translate_cycle(translate_cycle(c, z), -z) == c


def test_spectral_cover_negates_points_and_counts_rank():
    b = make_bundle([(2, pt("1/3")), (1, ORIGIN)])
    c = spectral_cover(b)
    assert c.parts == ((ORIGIN, 1), (pt("2/3"), 2))
    assert c.total() == b.rank()


def test_cycle_of_graded_matches_polystable_cover():
    g = make_graded([(pt("1/4"), 2), (ORIGIN, 1)])
    assert cycle_of_graded(g) == spectral_cover(split_bundle(g))


def test_family_requires_complete_equal_rank_data():
    nerve = Nerve.single_chart("c", ("s", "t"))
    b1 = make_bundle([(1, ORIGIN)])
    b2 = make_bundle([(2, ORIGIN)])
    with pytest.raises(MissingSample):
        BundleFamily(nerve, TranslationCocycle({}), {("c", "s"): b1})
    with pytest.raises(SchemaError):
        BundleFamily(
            nerve,
            TranslationCocycle({}),
            {("c", "s"): b1, ("c", "t"): b1, ("c", "zz"): b1},
        )
    with pytest.raises(NonConstantLength):
        BundleFamily(
            nerve, TranslationCocycle({}), {("c", "s"): b1, ("c", "t"): b2}
        )
    with pytest.raises(NonConstantLength):
        BundleFamily(
            nerve, TranslationCocycle({}), {("c", "s"): b1, ("c", "t"): b1}, rank=2
        )
    for rank in (True, 1.0, 0, -1, "1"):
        with pytest.raises(NonPositiveRank):
            BundleFamily(
                nerve, TranslationCocycle({}), {("c", "s"): b1, ("c", "t"): b1}, rank=rank
            )


@pytest.mark.parametrize(
    "pair, sample", [(("a", "q"), "s"), (("a", "b"), "zz")], ids=["unknown-chart", "unknown-sample"]
)
def test_family_refuses_a_cocycle_value_off_the_nerve(pair, sample):
    nerve = two_chart_nerve()
    values = {("a", "b"): {"s": ORIGIN}}
    values.setdefault(pair, {})[sample] = ORIGIN
    b = make_bundle([(1, ORIGIN)])
    with pytest.raises(SchemaError, match="cocycle value"):
        BundleFamily(nerve, TranslationCocycle(values), {("a", "s"): b, ("b", "s"): b})


def test_constant_family_covers_every_sample():
    nerve = two_chart_nerve()
    b = make_bundle([(1, pt("1/2"))])
    fam = constant_family(nerve, b)
    assert fam.rank == 1
    assert fam.fiber("a", "s") == b
    assert fam.fiber("b", "s") == b


def test_gamma_on_constant_family():
    nerve = Nerve.single_chart("c", ("s", "t"))
    b = make_bundle([(2, pt("1/3")), (1, ORIGIN)])
    cycles = gamma_map(constant_family(nerve, b))
    assert cycles[("c", "s")] == spectral_cover(b)
    assert cycles[("c", "t")] == spectral_cover(b)


def test_gamma_accepts_cocycle_compatible_families():
    nerve = two_chart_nerve()
    lam = pt("1/5")
    cocycle = TranslationCocycle({("a", "b"): {"s": lam}})
    b = make_bundle([(1, pt("1/3")), (2, ORIGIN)])
    # chart-b data is the chart-a data twisted by the transition class
    family = BundleFamily(
        nerve, cocycle, {("a", "s"): b, ("b", "s"): tensor_line(b, lam)}
    )
    cycles = gamma_map(family)
    assert cycles[("b", "s")] == translate_cycle(cycles[("a", "s")], -lam)


def test_gamma_rejects_incompatible_overlap_data():
    nerve = two_chart_nerve()
    cocycle = TranslationCocycle({("a", "b"): {"s": pt("1/5")}})
    b = make_bundle([(1, ORIGIN)])
    family = BundleFamily(nerve, cocycle, {("a", "s"): b, ("b", "s"): b})
    with pytest.raises(OverlapMismatch):
        gamma_map(family)


def test_gamma_rejects_cycle_totals_that_vary_across_samples(monkeypatch):
    # equal ranks keep every total equal, so a cover that answers two totals is patched in
    line, moved = make_bundle([(1, ORIGIN)]), make_bundle([(1, pt("1/2"))])
    family = BundleFamily(
        Nerve.single_chart("c", ("s", "t")), TranslationCocycle({}),
        {("c", "s"): line, ("c", "t"): moved},
    )
    original = spectral.spectral_cover
    doubled = original(make_bundle([(2, ORIGIN)]))
    monkeypatch.setattr(
        spectral, "spectral_cover", lambda b: original(b) if b == line else doubled
    )
    with pytest.raises(NonConstantLength) as info:
        gamma_map(family)
    assert str(info.value) == "cycle totals vary across samples: [1, 2]"


def test_beta_restores_polystable_fibers():
    nerve = Nerve.single_chart("c", ("s",))
    cycle = make_cycle([(pt("1/3"), 2), (ORIGIN, 1)])
    fam = beta_map(nerve, {"s": cycle}, 3)
    bundle = fam.fiber("c", "s")
    assert bundle.blocks == ((1, ORIGIN), (1, pt("2/3")), (1, pt("2/3")))
    assert gamma_map(fam)[("c", "s")] == cycle


def test_beta_validates_section_shape():
    nerve = Nerve.single_chart("c", ("s", "t"))
    cycle = make_cycle([(ORIGIN, 2)])
    with pytest.raises(MissingSample):
        beta_map(nerve, {"s": cycle}, 2)
    with pytest.raises(SchemaError):
        beta_map(nerve, {"s": cycle, "t": cycle, "zz": cycle}, 2)
    with pytest.raises(WrongTotal):
        beta_map(nerve, {"s": cycle, "t": cycle}, 3)


def test_beta_requires_a_single_chart():
    nerve = two_chart_nerve()
    with pytest.raises(SchemaError):
        beta_map(nerve, {"s": make_cycle([(ORIGIN, 1)])}, 1)


def test_torsion_points_enumeration():
    pts = torsion_points(2)
    assert len(pts) == 4
    assert ORIGIN in pts
    assert pt("1/2", "1/2") in pts
    with pytest.raises(SchemaError):
        torsion_points(0)


def test_enumerate_cycles_counts_multisets():
    # multisets of size n from torsion^2 points
    assert len(enumerate_cycles(1, 2)) == 4
    assert len(enumerate_cycles(2, 2)) == 10
    assert len(enumerate_cycles(2, 3)) == 45
    assert all(c.total() == 2 for c in enumerate_cycles(2, 2))


def test_enumerated_cycles_are_canonical():
    # the run-length parts equal make_cycle's merged parts, type and order included
    for n in (1, 2, 3):
        for torsion in range(1, 7):
            points = sorted(torsion_points(torsion))
            expected = [
                make_cycle((p, 1) for p in combo)
                for combo in combinations_with_replacement(points, n)
            ]
            cycles = enumerate_cycles(n, torsion)
            assert [(type(c), c.parts) for c in cycles] == [(type(c), c.parts) for c in expected]
    with pytest.raises(SchemaError):
        enumerate_cycles(0, 2)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("enumerate_", [enumerate_cycles, enumerate_bundles])
def test_enumerators_refuse_a_rank_below_one(enumerate_, n):
    with pytest.raises(SchemaError, match="rank must be at least 1"):
        enumerate_(n, 2)


def test_enumerate_bundles_counts_block_shapes():
    # rank 2 over 4 points: 4 single towers + 10 unordered pairs
    assert len(enumerate_bundles(2, 2)) == 14
    # rank 3 over 4 points: 4 + 4*4 + C(6,3)
    assert len(enumerate_bundles(3, 2)) == 40
    ranks = {b.rank() for b in enumerate_bundles(3, 2)}
    assert ranks == {3}


def test_enumerated_bundles_are_distinct():
    bundles = enumerate_bundles(2, 2)
    assert len(set(bundles)) == len(bundles)


@pytest.mark.parametrize(
    "n, torsion", [(n, t) for n in (1, 2, 3) for t in (1, 2, 3)] + [(4, 2)]
)
def test_enumerated_bundles_are_every_canonical_bundle_once(n, torsion):
    # brute force: every multiset of (rank, point) blocks whose ranks sum to n
    blocks = [(rank, p) for p in torsion_points(torsion) for rank in range(1, n + 1)]
    expected = {
        make_bundle(combo)
        for size in range(1, n + 1)
        for combo in combinations_with_replacement(blocks, size)
        if sum(rank for rank, _ in combo) == n
    }
    bundles = enumerate_bundles(n, torsion)
    assert set(bundles) == expected
    assert len(bundles) == len(expected)
    assert all(b == make_bundle(b.blocks) for b in bundles)


def test_graded_classes_biject_with_cycles():
    bundles = enumerate_bundles(2, 3)
    classes = {graded(b) for b in bundles}
    cycles = set(enumerate_cycles(2, 3))
    assert len(classes) == len(cycles) == 45
    assert {cycle_of_graded(g) for g in classes} == cycles


def test_round_trip_small_instance():
    base = Nerve.single_chart("c", ("s",))
    report = round_trip_verify(base, 2, 3)
    assert report.ok
    assert report.sections_checked == 45
    assert report.bundles_checked == 54
    assert report.bijective
    assert report.failures == ()


def test_round_trip_grades_each_bundle_once(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "graded", lambda b: calls.append(b) or graded(b))
    report = round_trip_verify(Nerve.single_chart("c", ("s1", "s2")), 2, 3)
    assert report.ok
    assert len(calls) == len(set(calls)) == report.bundles_checked == 54


def test_round_trip_multi_sample():
    base = Nerve.single_chart("c", ("s1", "s2"))
    report = round_trip_verify(base, 1, 2)
    assert report.ok
    assert report.sections_checked == 4
    assert report.bundles_checked == 4


def sample_labels(k):
    return [f"s{i}" for i in range(1, k + 1)]


def test_round_trip_report_does_not_depend_on_the_sample_count():
    for n in (1, 2):
        for torsion in (1, 2, 3, 4):
            reports = [
                round_trip_verify(Nerve.single_chart("c", sample_labels(k)), n, torsion)
                for k in (1, 2, 5)
            ]
            assert reports[0].ok, (n, torsion)
            assert reports[0] == reports[1] == reports[2], (n, torsion)


def test_round_trip_transforms_each_object_once_whatever_the_samples(monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(spectral, name)

        def counted(x):
            calls[name] += 1
            return original(x)

        return counted

    for name in ("fm_transform", "psi_transform"):
        monkeypatch.setattr(spectral, name, counting(name))
    seen = []
    for k in (1, 3):
        calls.clear()
        report = round_trip_verify(Nerve.single_chart("c", sample_labels(k)), 2, 3)
        assert report.ok
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    # one beta_map, so one inverse transform, per enumerated object
    assert seen[0]["psi_transform"] == 45 + 54


def test_round_trip_with_a_moved_block_fails_on_three_samples(monkeypatch):
    step = TorusPoint.from_triple(1, 0, 2)
    original = spectral.psi_transform

    def moved(sky):
        (n, x), *rest = original(sky).blocks
        return make_bundle([(n, x + step)] + rest)

    monkeypatch.setattr(spectral, "psi_transform", moved)
    report = round_trip_verify(Nerve.single_chart("c", sample_labels(3)), 1, 2)
    assert not report.ok
    assert report.bijective
    kinds = Counter(line.split(" round trip")[0] for line in report.failures)
    assert kinds == {"section": report.sections_checked, "family": report.bundles_checked}


def test_round_trip_keeps_the_family_rank_check(monkeypatch):
    original = spectral.psi_transform

    def one_block_more(sky):
        return make_bundle(original(sky).blocks + ((1, ORIGIN),))

    monkeypatch.setattr(spectral, "psi_transform", one_block_more)
    with pytest.raises(NonConstantLength, match="family fibers must all have rank 1"):
        round_trip_verify(Nerve.single_chart(), 1, 2)


def test_round_trip_covers_through_the_module_transform(monkeypatch):
    step = TorusPoint.from_triple(1, 0, 2)
    original = spectral.fm_transform

    def moved(bundle):
        sky = original(bundle)
        (p, m), *rest = sky.parts
        return make_skyscraper([(p + step, m)] + rest, sky.degree)

    monkeypatch.setattr(spectral, "fm_transform", moved)
    report = round_trip_verify(Nerve.single_chart(), 1, 2)
    assert not report.ok
    kinds = Counter(line.split(" round trip")[0] for line in report.failures)
    assert kinds == {"section": report.sections_checked, "family": report.bundles_checked}


def test_round_trip_reports_two_classes_with_one_cycle(monkeypatch):
    first, second, *_ = enumerate_cycles(1, 2)
    original = spectral.cycle_of_graded
    monkeypatch.setattr(
        spectral, "cycle_of_graded", lambda g: first if original(g) == second else original(g)
    )
    report = round_trip_verify(Nerve.single_chart(), 1, 2)
    assert not report.ok
    assert not report.bijective
    assert report.failures == ("graded classes and cycles are not in bijection",)


def test_round_trip_requires_single_chart():
    with pytest.raises(SchemaError):
        round_trip_verify(two_chart_nerve(), 1, 1)


def test_round_trip_count_matches_enumeration_on_the_criterion_5_grid():
    for n in (1, 2, 3):
        for torsion in (1, 2, 3, 4, 5, 6):
            expected = (len(enumerate_cycles(n, torsion)), len(enumerate_bundles(n, torsion)))
            assert round_trip_count(n, torsion) == expected, (n, torsion)


def partition_sum(n, torsion):
    """Bundles as the sum over partitions of n of prod_i C(T^2 + m_i - 1, m_i)."""

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    points = torsion * torsion
    total = 0
    for shape in partitions(n, n):
        term = 1
        for part in set(shape):
            mult = shape.count(part)
            term *= comb(points + mult - 1, mult)
        total += term
    return total


def test_round_trip_count_is_the_partition_sum():
    for n in range(1, 13):
        for torsion in range(1, 5):
            sections = comb(torsion * torsion + n - 1, n)
            assert round_trip_count(n, torsion) == (sections, partition_sum(n, torsion))


def test_round_trip_count_with_a_cap_stops_only_above_it():
    for n in range(1, 13):
        for torsion in range(1, 5):
            full = sum(round_trip_count(n, torsion))
            for cap in (10, 1000, 10**6):
                capped = sum(round_trip_count(n, torsion, cap))
                assert capped == full if full <= cap else cap < capped <= full


def test_round_trip_refuses_over_budget_before_enumerating():
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        round_trip_verify(Nerve.single_chart(), 50, 100)
    with pytest.raises(BudgetExceeded):
        round_trip_verify(Nerve.single_chart(), 10**9, 1)
    assert time.monotonic() - start < 1.0
    # samples multiply the work: (3, 6) checks 18204 objects per sample
    samples = [f"s{i}" for i in range(ROUND_TRIP_BUDGET // 18204 + 1)]
    with pytest.raises(BudgetExceeded):
        round_trip_verify(Nerve.single_chart("c", samples), 3, 6)
