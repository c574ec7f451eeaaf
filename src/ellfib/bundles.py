"""Degree-zero semistable bundles on the curve in their canonical block form.

Every such bundle is a direct sum of blocks: the unique indecomposable
self-extension tower of a given rank, twisted by a degree-zero line bundle.
A block is stored as (rank, twist point).  The associated graded object
forgets the tower structure and keeps each twist point with its total
multiplicity, a PointMultiset; two bundles are S-equivalent exactly when
their graded objects agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .errors import EmptyBundle, NonPositiveRank
from .torus import Parts, PointMultiset, TorusPoint


_rank = itemgetter(0)
_twist = itemgetter(1)


@dataclass(frozen=True)
class AtiyahBundle:
    """Multiset of blocks (rank, twist point), sorted by point then rank."""

    blocks: tuple[tuple[int, TorusPoint], ...]

    def rank(self) -> int:
        return sum(map(_rank, self.blocks))


def make_bundle(blocks: Iterable[tuple[int, TorusPoint]]) -> AtiyahBundle:
    blocks = list(blocks)
    if not blocks:
        raise EmptyBundle("a bundle needs at least one block")
    for n, x in blocks:
        if type(n) is not int or n < 1:
            raise NonPositiveRank(f"block rank must be a positive int, got {n!r}")
        if x.__class__ is not TorusPoint:
            raise TypeError(f"block point must be a TorusPoint, got {x!r}")
    # two stable sorts give (point, rank) order with one point call per comparison
    blocks.sort(key=_rank)
    blocks.sort(key=_twist)
    return AtiyahBundle(tuple(blocks))


def _block_runs(bundle: AtiyahBundle) -> Parts:
    """(x, summed rank) per run of blocks at x: canonical blocks need no check or sort."""
    runs: list[tuple[TorusPoint, int]] = []
    for n, x in bundle.blocks:
        if runs and runs[-1][0] == x:
            runs[-1] = (x, runs[-1][1] + n)
        else:
            runs.append((x, n))
    return tuple(runs)


def graded(bundle: AtiyahBundle) -> PointMultiset:
    """Collapse each block of rank n at x to n copies of the twist line at x."""
    return PointMultiset(_block_runs(bundle))


def tensor_line(bundle: AtiyahBundle, t: TorusPoint) -> AtiyahBundle:
    """Tensor every block by the degree-zero line bundle of the point t."""
    return make_bundle((n, x + t) for n, x in bundle.blocks)


def dual_bundle(bundle: AtiyahBundle) -> AtiyahBundle:
    # each block tower is self-dual; only the twist point negates
    return make_bundle((n, -x) for n, x in bundle.blocks)


def direct_sum(a: AtiyahBundle, b: AtiyahBundle) -> AtiyahBundle:
    return make_bundle(a.blocks + b.blocks)


def split_bundle(g: PointMultiset) -> AtiyahBundle:
    """Polystable representative: every part becomes rank-one blocks."""
    # parts are sorted by point, so these blocks are already in bundle order
    return AtiyahBundle(tuple([(1, p) for p, m in g.parts for _ in range(m)]))
