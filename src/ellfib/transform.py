"""Fiberwise integral transform between semistable bundles and skyscrapers.

The forward transform sends a degree-zero semistable bundle to finite
support/length data on the dual curve, concentrated in cohomological
degree one: each graded part of multiplicity m at y contributes length m
at -y.  The inverse transform consumes an honest degree-zero skyscraper
and returns the polystable bundle with one rank-one block at the negative
of each support point.  Extension data is invisible on both sides, so the
round trip recovers the associated graded, never the original towers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bundles import AtiyahBundle, _block_runs
from .errors import EmptyBundle, WrongDegree
from .torus import PointMultiset, TorusPoint, _point, merge_points


def _cohomological(degree: int) -> int:
    if type(degree) is not int or degree not in (0, 1):
        raise WrongDegree(f"cohomological degree must be 0 or 1, got {degree!r}")
    return degree


@dataclass(frozen=True)
class SkyscraperClass(PointMultiset):
    """Support points with lengths, tagged with a cohomological degree."""

    degree: int

    def total_length(self) -> int:
        return self.total()

    def with_degree(self, degree: int) -> "SkyscraperClass":
        return SkyscraperClass(self.parts, _cohomological(degree))


def make_skyscraper(
    parts: Iterable[tuple[TorusPoint, int]], degree: int
) -> SkyscraperClass:
    degree = _cohomological(degree)
    return SkyscraperClass(merge_points(parts), degree)


def translate_skyscraper(s: SkyscraperClass, z: TorusPoint) -> SkyscraperClass:
    return make_skyscraper(((p + z, m) for p, m in s.parts), s.degree)


def fm_transform(bundle: AtiyahBundle) -> SkyscraperClass:
    """Forward transform: graded part (y, m) becomes length m at -y, degree 1.

    The graded parts hold distinct points, so their negatives need one
    sort and no merge.
    """
    return SkyscraperClass(tuple(sorted([(-y, m) for y, m in _block_runs(bundle)], key=_point)), 1)


# Most rank-one blocks that one psi or beta document may ask psi_transform
# to build (for beta, its rank times its samples): each unit of length is
# one block, so a document of a few bytes can name a length far past what
# fits in memory.  At this budget a cold `ellfib psi` writes about 8 MB in
# about 2 s.  The check is made when the document is parsed (serialize),
# so the round trip's own calls pay nothing.
PSI_BLOCK_BUDGET = 100_000


def psi_transform(s: SkyscraperClass) -> AtiyahBundle:
    """Inverse transform of a degree-zero skyscraper: polystable bundle.

    Each support point p of length m contributes m rank-one blocks at -p.
    The parts hold distinct points, so sorting their negatives once puts
    the blocks in bundle order.
    """
    if s.degree != 0:
        raise WrongDegree(
            f"inverse transform needs cohomological degree 0, got {s.degree}"
        )
    parts = sorted([(-p, m) for p, m in s.parts], key=_point)
    blocks = tuple([(1, q) for q, m in parts for _ in range(m)])
    if not blocks:
        raise EmptyBundle("a bundle needs at least one block")
    return AtiyahBundle(blocks)
