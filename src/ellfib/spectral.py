"""Spectral cycles and the correspondence between bundle families and sections.

A spectral cycle is the support-with-multiplicity shadow of the
transform of a semistable bundle.  Families of bundles over a nerve map
chartwise to cycle-valued sections; on one chart the correspondence has
an explicit inverse, and the round-trip verifier checks both directions
on every torsion cycle and bundle, each enumerated already canonical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

from .bundles import AtiyahBundle, GradedClass, graded, split_bundle
from .errors import (
    BudgetExceeded,
    MissingSample,
    NonConstantLength,
    NonPositiveRank,
    OverlapMismatch,
    SchemaError,
    WrongTotal,
)
from .fibration import Nerve, TranslationCocycle
from .torus import PointMultiset, TorusPoint, merge_points
from .transform import SkyscraperClass, fm_transform, psi_transform


@dataclass(frozen=True)
class SpectralCycle(PointMultiset):
    """Multiset of torus points with positive multiplicities, sorted."""


def make_cycle(pairs: Iterable[tuple[TorusPoint, int]]) -> SpectralCycle:
    return SpectralCycle(merge_points(pairs))


def translate_cycle(cycle: SpectralCycle, z: TorusPoint) -> SpectralCycle:
    return make_cycle((point + z, m) for point, m in cycle.parts)


def spectral_cover(bundle: AtiyahBundle) -> SpectralCycle:
    """Support cycle of the transform; total equals the rank."""
    return SpectralCycle(fm_transform(bundle).parts)


def cycle_of_graded(g: GradedClass) -> SpectralCycle:
    return spectral_cover(split_bundle(g))


class BundleFamily:
    """Equal-rank bundle data on every (chart, sample) of a nerve.

    The overlap compatibility of the data with the transition cocycle is
    a caller precondition; the glued-section map checks its consequence
    at cycle level, which is all that survives S-equivalence.
    """

    __slots__ = ("base", "cocycle", "data", "rank")

    def __init__(
        self,
        base: Nerve,
        cocycle: TranslationCocycle,
        data: Mapping[tuple[str, str], AtiyahBundle],
        rank: int | None = None,
    ):
        if rank is not None and (type(rank) is not int or rank < 1):
            raise NonPositiveRank(f"family rank must be a positive int, got {rank!r}")
        missing = base.check_data(cocycle, data, "family data")
        if missing:
            raise MissingSample(f"family data missing at {sorted(missing)!r}")
        self.base = base
        self.cocycle = cocycle
        table = dict(data)
        ranks = {bundle.rank() for bundle in table.values()}
        if rank is None:
            rank = min(ranks)
        if ranks != {rank}:
            raise NonConstantLength(
                f"family fibers must all have rank {rank}, got ranks {sorted(ranks)}"
            )
        self.data = table
        self.rank = rank

    def fiber(self, chart: str, sample: str) -> AtiyahBundle:
        return self.data[(chart, sample)]


# the empty cocycle of every family built below, shared because nothing writes to it
_NO_TRANSITIONS = TranslationCocycle({})


def constant_family(base: Nerve, bundle: AtiyahBundle) -> BundleFamily:
    data = {
        (chart, s): bundle for chart in base.charts for s in base.chart_samples(chart)
    }
    return BundleFamily(base, _NO_TRANSITIONS, data, bundle.rank())


def gamma_map(family: BundleFamily) -> dict[tuple[str, str], SpectralCycle]:
    """Per-sample spectral cycles, checked for flatness and overlap gluing.

    Chart-i cycles are written in chart-i coordinates; on an overlap the
    chart-j cycle must equal the chart-i cycle translated by the negated
    transition value at that sample.
    """
    cycles = {key: spectral_cover(bundle) for key, bundle in family.data.items()}
    totals = {cycle.total() for cycle in cycles.values()}
    if len(totals) > 1:
        raise NonConstantLength(f"cycle totals vary across samples: {sorted(totals)}")
    base = family.base
    for i, j in base.overlaps:
        for s in base.overlap_samples(i, j):
            lam = family.cocycle.value(i, j, s)
            moved = translate_cycle(cycles[(i, s)], -lam)
            if moved != cycles[(j, s)]:
                raise OverlapMismatch(
                    f"overlap {(i, j)!r} sample {s!r}: translated chart-{i} cycle "
                    f"does not match chart-{j} cycle"
                )
    return cycles


def _require_single_chart(base: Nerve) -> str:
    if len(base.charts) != 1 or base.overlaps:
        raise SchemaError("this operation is defined chartwise: one chart, no overlaps")
    return base.charts[0]


def beta_map(base: Nerve, section: Mapping[str, SpectralCycle], n: int) -> BundleFamily:
    """Inverse direction on one chart: cycles back to polystable bundles."""
    chart = _require_single_chart(base)
    samples = base.chart_samples(chart)
    for s in samples:
        if s not in section:
            raise MissingSample(f"section undefined at sample {s!r}")
    if len(section) != len(samples):
        raise SchemaError(f"section given at unknown samples {sorted(set(section) - set(samples))!r}")
    data = {}
    for s in samples:
        cycle = section[s]
        if cycle.total() != n:
            raise WrongTotal(
                f"sample {s!r}: cycle total {cycle.total()} differs from rank {n}"
            )
        data[(chart, s)] = psi_transform(SkyscraperClass(cycle.parts, 0))
    return BundleFamily(base, _NO_TRANSITIONS, data, n)


# the last torsion asked for, and weak references to its points
_last_points: tuple[int, list] = (0, [])


def torsion_points(torsion: int) -> list[TorusPoint]:
    """The torsion**2 points (p/torsion, q/torsion), sorted; while every
    point of the last call is alive, the same torsion gets them again, so
    the two enumerations of one round trip share their points and the
    negatives those keep."""
    global _last_points
    if torsion < 1:
        raise SchemaError("torsion bound must be at least 1")
    last, refs = _last_points
    if last == torsion:
        points = [ref() for ref in refs]
        if None not in points:
            return points
    # p, then q, ascending: the sorted (u, v) order
    points = [TorusPoint.from_triple(p, q, torsion) for p in range(torsion) for q in range(torsion)]
    _last_points = (torsion, [weakref.ref(point) for point in points])
    return points


def enumerate_cycles(n: int, torsion: int) -> list[SpectralCycle]:
    """Every rank-n cycle on torsion points."""
    if n < 1:
        raise SchemaError("cycle rank must be at least 1")
    cycles = []
    for combo in combinations_with_replacement(torsion_points(torsion), n):
        runs = []  # a sorted combination repeats one point object: one pass gives the parts
        for point in combo:
            if runs and runs[-1][0] is point:
                runs[-1] = (point, runs[-1][1] + 1)
            else:
                runs.append((point, 1))
        cycles.append(SpectralCycle(tuple(runs)))
    return cycles


def enumerate_bundles(n: int, torsion: int) -> list[AtiyahBundle]:
    """Every rank-n bundle whose block points are torsion, each class once:
    one per non-decreasing run, with ranks summing to n, of the blocks
    (rank, point) listed in bundle order, so each comes out canonical."""
    if n < 1:
        raise SchemaError("bundle rank must be at least 1")
    blocks = [(rank, point) for point in torsion_points(torsion) for rank in range(1, n + 1)]

    def runs(run: tuple, start: int, left: int):
        for i in range(start, len(blocks)):
            rank, _ = block = blocks[i]
            if rank == left:
                yield run + (block,)
            elif rank < left:
                yield from runs(run + (block,), i, left - rank)

    return [AtiyahBundle(run) for run in runs((), 0, n)]


# Largest round trip, in enumerated objects times samples, that
# round_trip_verify accepts: over 100x the (3, 6, 1) case of 18 204
# objects.  Counts grow like torsion**(2n), so far past this a request
# exhausts memory long before it finishes.
ROUND_TRIP_BUDGET = 2_000_000


def round_trip_count(n: int, torsion: int, cap: int | None = None) -> tuple[int, int]:
    """(sections, bundles) that enumerate_cycles and enumerate_bundles return.

    With P = torsion**2 points, sections number C(P + n - 1, n).  Bundles
    number the sum over partitions of n of prod_i C(P + m_i - 1, m_i),
    m_i the multiplicity of each part: the x^n coefficient of
    prod_k (1 - x^k)^-P, found by the recurrence m c_m = sum_j P s(j)
    c_(m-j), s(j) the divisor sum of j, in O(n^2) steps however many
    partitions n has.  Both counts grow with n, so given a cap the count
    stops at the first rank whose total exceeds it and returns that pair.
    """
    points = torsion * torsion
    sections, bundles = 1, [1]
    weights = [0]
    for m in range(1, n + 1):
        sections = sections * (points + m - 1) // m
        weights.append(points * sum(j for j in range(1, m + 1) if m % j == 0))
        bundles.append(sum(weights[j] * bundles[m - j] for j in range(1, m + 1)) // m)
        if cap is not None and sections + bundles[m] > cap:
            break
    return sections, bundles[-1]


def _check_budget(n: int, torsion: int, samples: int) -> None:
    """Refuse a round trip whose object count times samples exceeds the budget."""
    work = sum(round_trip_count(n, torsion, ROUND_TRIP_BUDGET)) * samples
    if work > ROUND_TRIP_BUDGET:
        raise BudgetExceeded(
            f"round trip over n={n}, torsion={torsion} and {samples} samples "
            f"would check over {ROUND_TRIP_BUDGET} objects"
        )


@dataclass(frozen=True)
class RoundTripReport:
    ok: bool
    sections_checked: int
    bundles_checked: int
    bijective: bool
    failures: tuple[str, ...]


def round_trip_verify(base: Nerve, n: int, torsion: int) -> RoundTripReport:
    """Exhaustive two-way check over torsion data on a single chart.

    Requests whose object count times sample count exceeds
    ROUND_TRIP_BUDGET are refused before anything is enumerated.

    Each object's round trip runs once, on a one-sample view of the
    chart: on one chart every sample sees the same entry, so further
    samples would repeat each check on equal values.  Each object calls
    beta_map once, which checks total and rank, and spectral_cover
    directly: with one sample and no overlap, gamma_map's equal-totals and
    overlap checks compare nothing, and constant_family's keys and rank
    hold by construction, so no check is dropped.
    """
    chart = _require_single_chart(base)
    samples = base.chart_samples(chart)
    _check_budget(n, torsion, len(samples))
    view = Nerve.single_chart(chart, samples[:1])
    s = samples[0]
    failures: list[str] = []

    cycles = enumerate_cycles(n, torsion)
    for cycle in cycles:
        if spectral_cover(beta_map(view, {s: cycle}, n).fiber(chart, s)) != cycle:
            failures.append(f"section round trip failed at {cycle!r}")

    bundles = enumerate_bundles(n, torsion)
    classes = set()
    for bundle in bundles:
        rebuilt = beta_map(view, {s: spectral_cover(bundle)}, bundle.rank())
        graded_class = graded(bundle)
        classes.add(graded_class)
        if rebuilt.fiber(chart, s) != split_bundle(graded_class):
            failures.append(f"family round trip failed at {bundle!r}")

    image = {cycle_of_graded(g) for g in classes}
    bijective = len(image) == len(classes) and image == set(cycles)
    if not bijective:
        failures.append("graded classes and cycles are not in bijection")

    return RoundTripReport(
        ok=not failures,
        sections_checked=len(cycles),
        bundles_checked=len(bundles),
        bijective=bijective,
        failures=tuple(failures),
    )
