"""Spectral cycles and the correspondence between bundle families and sections.

A spectral cycle is the support of the transform of a semistable
bundle with multiplicities: its graded class, a PointMultiset, with
every point negated.  Families of bundles over a nerve map chartwise to
cycle-valued sections; on one chart the correspondence has an explicit
inverse, and the round-trip verifier checks both directions on every
torsion cycle and bundle, each enumerated already canonical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

from .bundles import AtiyahBundle, graded, split_bundle
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
from .torus import PointMultiset, TorusPoint, make_multiset, multiset_ranker
from .transform import SkyscraperClass, fm_transform, psi_transform


def translate_cycle(cycle: PointMultiset, z: TorusPoint) -> PointMultiset:
    return make_multiset((point + z, m) for point, m in cycle.parts)


def spectral_cover(bundle: AtiyahBundle) -> PointMultiset:
    """Support cycle of the transform; total equals the rank."""
    return PointMultiset(fm_transform(bundle).parts)


def cycle_of_graded(g: PointMultiset) -> PointMultiset:
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


# the empty cocycle of beta_map's families, shared because nothing writes to it
_NO_TRANSITIONS = TranslationCocycle({})


def gamma_map(family: BundleFamily) -> dict[tuple[str, str], PointMultiset]:
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


def beta_map(base: Nerve, section: Mapping[str, PointMultiset], n: int) -> BundleFamily:
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


def _require_count(value, what: str) -> None:
    """Refuse a count that is not exactly an int (bool included) or is below 1."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    if value < 1:
        raise SchemaError(f"{what} must be at least 1")


# the last torsion asked for, and weak references to its points
_last_points: tuple[int, list] = (0, [])


def torsion_points(torsion: int) -> list[TorusPoint]:
    """The torsion**2 points (p/torsion, q/torsion), sorted; while every
    point of the last call is alive, the same torsion gets them again, so
    the two enumerations of one round trip, made before either runs, share
    their points and the negatives those keep.  The cache holds the points
    weakly: reference counting frees them when the round trip returns."""
    global _last_points
    _require_count(torsion, "torsion bound")
    last, refs = _last_points
    if last == torsion:
        points = [ref() for ref in refs]
        if None not in points:
            return points
    # p, then q, ascending: the sorted (u, v) order
    points = [TorusPoint.from_triple(p, q, torsion) for p in range(torsion) for q in range(torsion)]
    _last_points = (torsion, [weakref.ref(point) for point in points])
    return points


def _cycles(points: list[TorusPoint], n: int) -> Iterator[PointMultiset]:
    for combo in combinations_with_replacement(points, n):
        runs = []  # a sorted combination repeats one point object: one pass gives the parts
        for point in combo:
            if runs and runs[-1][0] is point:
                runs[-1] = (point, runs[-1][1] + 1)
            else:
                runs.append((point, 1))
        yield PointMultiset(tuple(runs))


def enumerate_cycles(n: int, torsion: int) -> Iterator[PointMultiset]:
    """Every rank-n cycle on torsion points, built one at a time; the
    arguments are checked at the call."""
    _require_count(n, "cycle rank")
    return _cycles(torsion_points(torsion), n)


def _runs(blocks: list, run: tuple, start: int, left: int) -> Iterator[tuple]:
    """Each non-decreasing run of blocks[start:] with ranks summing to left, after run."""
    for i in range(start, len(blocks)):
        rank, _ = block = blocks[i]
        if rank == left:
            yield run + (block,)
        elif rank < left:
            yield from _runs(blocks, run + (block,), i, left - rank)


def enumerate_bundles(n: int, torsion: int) -> Iterator[AtiyahBundle]:
    """Every rank-n bundle whose block points are torsion, each class once,
    built one at a time: one per non-decreasing run, with ranks summing to
    n, of the blocks (rank, point) listed in bundle order, so each comes
    out canonical.  The arguments are checked at the call."""
    _require_count(n, "bundle rank")
    blocks = [(rank, point) for point in torsion_points(torsion) for rank in range(1, n + 1)]
    return (AtiyahBundle(run) for run in _runs(blocks, (), 0, n))


# Largest round trip, in enumerated objects times samples, that
# round_trip_verify accepts: over 100x the (3, 6, 1) case of 18 204
# objects.  The check keeps no object, so memory stays small at any
# accepted size; the budget bounds time, which grows with the count, and
# counts grow like torsion**(2n).  (6, 5), 1 906 450 objects, takes about
# 40 s on a 2-vCPU host.
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


def _mark(bitmap: bytearray, r: int) -> bool:
    """Set byte r of bitmap, or its last byte when r is no rank below that
    byte; True when it was clear."""
    if not 0 <= r < len(bitmap) - 1:
        r = -1
    new = not bitmap[r]
    bitmap[r] = 1
    return new


def round_trip_verify(base: Nerve, n: int, torsion: int) -> RoundTripReport:
    """Exhaustive two-way check over torsion data on a single chart.

    Requests whose object count times sample count exceeds
    ROUND_TRIP_BUDGET are refused before anything is enumerated.

    Each object's round trip runs once, on a one-sample view of the
    chart: on one chart every sample sees the same entry, so further
    samples would repeat each check on equal values.  Each object calls
    beta_map once, which checks total and rank, and spectral_cover
    directly: with one sample and no overlap, gamma_map's equal-totals and
    overlap checks compare nothing, and a family of one bundle has its
    keys and rank by construction, so no check is dropped.

    Both enumerations are streamed and no object is kept; their points
    are freed on return.  The bijection is read from three bitmaps of one
    byte per rank-n multiset of torsion points, indexed by
    multiset_ranker: `listed` marks each enumerated cycle, `classes` each
    bundle's graded class and `image` the cycle of each class, computed
    when its class is first marked.  The classes and the cycles are in
    bijection when the class count equals the image count and `listed`
    equals `image`: the set test len(image) == len(classes) and
    image == set(cycles).  Anything the ranker cannot rank sets its
    bitmap's one extra last byte, which counts against the bijection.
    """
    chart = _require_single_chart(base)
    samples = base.chart_samples(chart)
    _check_budget(n, torsion, len(samples))
    view = Nerve.single_chart(chart, samples[:1])
    s = samples[0]
    failures: list[str] = []
    # both made before either runs, so the second finds the first's points
    cycles, bundles = enumerate_cycles(n, torsion), enumerate_bundles(n, torsion)
    size, rank = multiset_ranker(n, torsion)
    listed, classes, image = bytearray(size + 1), bytearray(size + 1), bytearray(size + 1)

    sections = 0
    for cycle in cycles:
        sections += 1
        if spectral_cover(beta_map(view, {s: cycle}, n).fiber(chart, s)) != cycle:
            failures.append(f"section round trip failed at {cycle!r}")
        _mark(listed, rank(cycle.parts))

    bundle_count = class_count = image_count = 0
    for bundle in bundles:
        bundle_count += 1
        rebuilt = beta_map(view, {s: spectral_cover(bundle)}, bundle.rank())
        graded_class = graded(bundle)
        if rebuilt.fiber(chart, s) != split_bundle(graded_class):
            failures.append(f"family round trip failed at {bundle!r}")
        if _mark(classes, rank(graded_class.parts)):
            class_count += 1
            image_count += _mark(image, rank(cycle_of_graded(graded_class).parts))

    unranked = listed[size] or classes[size] or image[size]
    bijective = not unranked and class_count == image_count and listed == image
    if not bijective:
        failures.append("graded classes and cycles are not in bijection")

    return RoundTripReport(
        ok=not failures,
        sections_checked=sections,
        bundles_checked=bundle_count,
        bijective=bijective,
        failures=tuple(failures),
    )
