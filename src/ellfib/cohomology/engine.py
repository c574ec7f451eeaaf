"""Second-page differentials and third-page dimensions for the two towers.

Inputs are a bigraded ring for the base and a twisting class given by
two rational vectors (a, b) on the full H^2 basis.  The class enters as
eta = a + tau*b; only its (1,1) part and the (0,2) part of the conjugate
partner drive the bigraded differential, while the total-degree page
uses the rational span of {a, b} directly and never sees tau.

Each class carries its one page, as cached properties of EtaClass built
on first read: the blocks x*eta11 and x*etabar02 from every bidegree of
the square, the 32 cell maps stacked from them with their ranks, the
total-degree page (a and b in de Rham coordinates and the ranks of the
maps they induce) and the Hodge diamond.  borel_hodge and structure_maps
take the class alone and read that page, so no map is built or ranked
twice, and structure_maps assembles every flag.  A block keeps no sign:
negating it keeps its rank over the mode's field and at each sample point.

The page is the same for both modes.  Every entry is affine in tau and
its conjugate, c + ct*t + cs*s, and is held as the integer triple
(c, ct, cs): eta11 = x + tau*y gives (x, y, 0) from the integer blocks
of x and y, and etabar02 = (taubar - tau)*z gives (0, -z, z).  The mode
only chooses which reader of fields a rank is taken through.

Third-page dimensions come from exact ranks: dimension minus outgoing
rank minus incoming rank.  This needs d*d = 0, which holds with nothing
to check: two differentials in a row shift the base bidegree by (1, 3),
and a ring has no basis outside 0 <= p, q <= 2 (BigradedRing refuses
one), so every composite has an empty source or an empty target.

Every rank is an integer rank: each tower clears its class's
denominators by one scale, and the ring's integer tables scale whole
maps, so no rank moves.  Generic ranks are taken, first, at fixed
rational (t, s) and flagged where they differ.  A sample rank of
min(m, n) certifies the generic rank (specialization only lowers rank);
any other map takes its generic rank from fields.generic_rank, the
largest integer rank at a triangle of integer points.  A rank at tau = i
is half the integer rank of the map's real form; where it is below
min(m, n), the map's generic rank is taken as generic mode takes it,
and a rank that tau = i lowers is flagged.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Sequence

from ..errors import InvalidClass, SchemaError
from ..linalg import INTEGER_DOMAIN, exact_rank
from ..torus import parse_fraction
from .fields import GAUSS_DOMAIN, GENERIC_MODE, CoefficientMode
from .fields import at_sample, generic_rank, real_form
from .ring import BIDEGREES, BigradedRing, degree_blocks

FIBER_BETTI = (1, 2, 1)


@dataclass(frozen=True)
class EtaClass:
    """Twisting class split into bidegree parts, with its page.

    The parts are cleared integer vectors: eta11 = x11 + tau*y11 and
    etabar02 = (taubar - tau)*z02.  blocks, cells, total and diamond are
    the class's page, each built on first read and kept on the instance
    (cached_property writes the instance dict, so the fields, equality
    and repr are those of the parts alone).
    """

    ring: BigradedRing
    mode: CoefficientMode
    a_vec: tuple[Fraction, ...]
    b_vec: tuple[Fraction, ...]
    x11: tuple[int, ...]
    y11: tuple[int, ...]
    z02: tuple[int, ...]
    synthetic: bool = False

    @functools.cached_property
    def blocks(self) -> dict[tuple[tuple[int, int], str], list]:
        """(source, kind) -> x -> x*w from H^source as triples, dim(target) x
        dim(source); a source off the square reads as an empty block."""
        blocks: dict[tuple[tuple[int, int], str], list] = defaultdict(list)
        for source in BIDEGREES:
            x = self.ring.mult_matrix(source, (1, 1), self.x11)
            y = self.ring.mult_matrix(source, (1, 1), self.y11)
            z = self.ring.mult_matrix(source, (0, 2), self.z02)
            blocks[source, "11"] = [
                [(c, ct, 0) for c, ct in zip(xrow, yrow)] for xrow, yrow in zip(x, y)
            ]
            blocks[source, "02"] = [[(0, -c, c) for c in row] for row in z]
        return blocks

    @functools.cached_property
    def cells(self) -> dict[tuple[int, int, int], tuple[int, tuple[str, ...]]]:
        """(P, Q, t) -> checked rank of the differential leaving the cell:
        t = 1 maps onto H^{P,Q+1}, t = 2 from H^{P-1,Q-1} onto H^{P,Q} + H^{P-1,Q+1}."""
        blocks, cells = self.blocks, {}
        for P, Q in product(range(4), repeat=2):
            corner = (P - 1, Q - 1)
            first = _beside(blocks[(P, Q - 1), "02"], blocks[(P - 1, Q), "11"])
            second = blocks[corner, "11"] + blocks[corner, "02"]
            cells[P, Q, 1] = _checked_rank(first, self.mode)
            cells[P, Q, 2] = _checked_rank(second, self.mode)
        return cells

    @functools.cached_property
    def total(self) -> _TotalPage:
        return _TotalPage(self.ring, self.a_vec, self.b_vec)

    @functools.cached_property
    def diamond(self) -> HodgeDiamond:
        rank, dim = {cell: checked[0] for cell, checked in self.cells.items()}, self.ring.dim
        h = [[0] * 4 for _ in range(4)]
        for p, q in product(range(4), repeat=2):
            # cell (p, q, t) is H^{p,q}, H^{p,q-1} + H^{p-1,q} or H^{p-1,q-1} for t = 0, 1, 2
            cells = (dim(p, q), dim(p, q - 1) + dim(p - 1, q), dim(p - 1, q - 1))
            for t, cell in enumerate(cells):
                leaving, entering = rank.get((p, q, t), 0), rank.get((p, q - 1, t + 1), 0)
                h[p][q] += cell - leaving - entering
        return HodgeDiamond(tuple(map(tuple, h)))


def _split_h2(ring: BigradedRing, vec) -> tuple[list, list, list]:
    sizes = [len(ring.basis[pq]) for pq in degree_blocks(2)]
    values = [parse_fraction(x, "H^2 coordinate") for x in vec]
    if len(values) != sum(sizes):
        raise SchemaError(
            f"H^2 vector needs {sum(sizes)} coordinates "
            f"({'+'.join(map(str, sizes))} by descending p), got {len(values)}"
        )
    i, j = sizes[0], sizes[0] + sizes[1]
    return values[:i], values[i:j], values[j:]


def _cleared(values: list[Fraction]) -> list[int]:
    """The values times the lcm of their denominators, one scale for all."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _eta_class(
    ring: BigradedRing, a, b, mode: CoefficientMode, synthetic: bool
) -> EtaClass:
    """The parts the page reads: (1,1) of eta = a + tau*b, (0,2) of its conjugate."""
    a20, a11, a02 = _split_h2(ring, a)
    b20, b11, b02 = _split_h2(ring, b)
    if synthetic and any(a02):
        raise InvalidClass("synthetic classes require a zero (0,2) block in a")
    if not synthetic and any(a02 + b02):
        # tau is not rational in either mode, so a + tau*b vanishes only when a and b do
        raise InvalidClass(
            "the (0,2) part of a + tau*b must vanish; with rational inputs "
            "that means both (0,2) blocks are zero"
        )
    # one scale for every part eta reads scales eta as a whole
    cleared, n = _cleared(a11 + b11 + b02), len(a11)
    # a synthetic class reads a's (0,2) block as -tau*b; a plain one has b02 = 0
    x11, y11, z02 = tuple(cleared[:n]), tuple(cleared[n : 2 * n]), tuple(cleared[2 * n :])
    a_vec, b_vec = tuple(a20 + a11 + a02), tuple(b20 + b11 + b02)
    return EtaClass(ring, mode, a_vec, b_vec, x11, y11, z02, synthetic)


def char_to_eta(
    ring: BigradedRing, a, b, mode: CoefficientMode = GENERIC_MODE
) -> EtaClass:
    """Split eta = a + tau*b by bidegree; the (0,2) part must vanish."""
    return _eta_class(ring, a, b, mode, synthetic=False)


def synthetic_eta(
    ring: BigradedRing, a, b, mode: CoefficientMode = GENERIC_MODE
) -> EtaClass:
    """Valid class with a prescribed conjugate (0,2) part.

    The (0,2) block of a is forced to -tau times the (0,2) block of b,
    which kills the (0,2) part of eta while leaving the conjugate with
    (taubar - tau) times that block.  The rational seeds are kept for
    the total-degree computation.
    """
    return _eta_class(ring, a, b, mode, synthetic=True)


# -- the pages -------------------------------------------------------------


def _checked_rank(mat: list, mode: CoefficientMode) -> tuple[int, tuple[str, ...]]:
    """The mode's rank of a matrix of triples, and where it misses the generic rank.

    At tau = i the generic rank is taken as generic mode takes it, unless
    the rank is min(m, n) (specialization only lowers rank) or 0 (a page
    entry, (c, ct, 0) or (0, -z, z), vanishes at tau = i only when zero).
    """
    if not mat or not mat[0]:
        return 0, ()
    full = min(len(mat), len(mat[0]))
    if mode.at_tau_i:
        rank = exact_rank(real_form(mat), GAUSS_DOMAIN) // 2
        generic = rank if rank in (0, full) else _checked_rank(mat, GENERIC_MODE)[0]
        missed = f"generic rank {generic} not reproduced at tau = i"
        return rank, (missed,) if rank < generic else ()
    at = [exact_rank(at_sample(mat, *pair), INTEGER_DOMAIN) for pair in mode.sample_points]
    rank = full if full in at else generic_rank(mat)
    return rank, tuple(
        f"generic rank {rank} not reproduced at t,s = {pair}"
        for pair, r in zip(mode.sample_points, at) if r != rank
    )


def _flags(tag: str, missed: tuple[str, ...]) -> list[str]:
    return [f"{tag}: {why}" for why in missed]


def _beside(left: list, right: list) -> list:
    """Two blocks with one target side by side; an empty block adds nothing."""
    if not left or not right:
        return left or right
    return [lrow + rrow for lrow, rrow in zip(left, right)]


@dataclass(frozen=True)
class HodgeDiamond:
    """h[p][q] for 0 <= p,q <= 3."""

    h: tuple[tuple[int, ...], ...]

    def value(self, p: int, q: int) -> int:
        return self.h[p][q]

    def rows_by_total(self) -> list[list[int]]:
        """Row k lists h(p, k-p) left to right by decreasing q."""
        return [[self.h[p][k - p] for p in range(max(0, k - 3), min(3, k) + 1)] for k in range(7)]


class _TotalPage:
    """a and b (one denominator cleared) in de Rham coordinates, and the page's ranks."""

    def __init__(self, ring: BigradedRing, a, b):
        self.ring = ring
        cleared = _cleared([parse_fraction(x, "degree-2 coordinate") for x in [*a, *b]])
        self.a_dr = ring.to_derham(2, cleared[: len(a)])
        self.b_dr = ring.to_derham(2, cleared[len(a) :])
        # (s, t) -> rank of the map leaving H^s(base) x H^t(fiber)
        self.rank: dict[tuple[int, int], int] = {}
        for s in range(5):
            ma = ring.dr_mult_matrix(s, self.a_dr, 2)
            mb = ring.dr_mult_matrix(s, self.b_dr, 2)
            joined = [ra + rb for ra, rb in zip(ma, mb)]
            self.rank[s, 1] = exact_rank(joined, INTEGER_DOMAIN) if joined else 0
            self.rank[s, 2] = exact_rank(mb + ma, INTEGER_DOMAIN) if ma else 0

    def betti(self) -> tuple[int, ...]:
        betti = [0] * 7
        for s, t in product(range(5), range(3)):
            leaving, entering = self.rank.get((s, t), 0), self.rank.get((s - 2, t + 1), 0)
            betti[s + t] += self.ring.dr_dim(s) * FIBER_BETTI[t] - leaving - entering
        return tuple(betti)


# -- bigraded tower --------------------------------------------------------


def borel_hodge(eta: EtaClass) -> HodgeDiamond:
    """Third-page Hodge numbers h(p,q) for 0 <= p,q <= 3."""
    return eta.diamond


# -- rank profile ----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    e: int
    g: int
    d: int
    dprime: int
    h_rank: int
    f: int
    h_bidegree: tuple[int, int] | None
    h_by_bidegree: tuple[tuple[tuple[int, int], int], ...]
    h_aggregate: int
    flags: tuple[str, ...]


def structure_maps(eta: EtaClass) -> RankProfile:
    """Ranks of the connecting maps, read from the class's page.

    The combined map at (p, q) is page cell (p+1, q+1, 2); f and the
    degree-1 aggregate are built from the page's blocks.  The flags list
    the page cells first, then these maps, then h-selection-unrealized.

    The reported rank h is selected, not computed from one map: with
    target = 6 - g - h(1,1) read from the finished table, h is the first
    per-bidegree combined-map rank equal to the target (bidegrees in
    (p, q) order), else the aggregate degree-1 rank if that equals it.
    When neither matches, h is the aggregate rank and the profile is
    flagged h-selection-unrealized.
    """
    mode, ring, blocks, total = eta.mode, eta.ring, eta.blocks, eta.total
    flags: list[str] = []
    for (P, Q, t), (_, missed) in eta.cells.items():
        flags += _flags(f"page cell ({P},{Q},{t})", missed)
    # tau is not rational, so a part vanishes exactly when its integer vectors do
    e = 1 if any(eta.z02) else 0
    g = 1 if any(eta.x11) or any(eta.y11) else 0
    d = exact_rank([total.a_dr, total.b_dr], INTEGER_DOMAIN) if total.a_dr else 0

    f_rank, missed = _checked_rank(blocks[(1, 0), "02"], mode)
    flags += _flags("f map", missed)

    per_bidegree = []
    for p, q in BIDEGREES:
        if ring.dim(p, q):
            rank, missed = eta.cells[p + 1, q + 1, 2]
            flags += _flags(f"combined map at ({p},{q})", missed)
            per_bidegree.append(((p, q), rank))

    # [x*eta11 from (1,0), 0; x*etabar02 from (1,0), x*eta11 from (0,1)]
    zeros = [(0, 0, 0)] * ring.dim(0, 1)
    top = [row + zeros for row in blocks[(1, 0), "11"]]
    bottom = _beside(blocks[(1, 0), "02"], blocks[(0, 1), "11"])
    h_aggregate, missed = _checked_rank(top + bottom, mode)
    flags += _flags("degree-1 combined map", missed)

    target = 6 - g - eta.diamond.value(1, 1)
    h_bidegree = next((pq for pq, rank in per_bidegree if rank == target), None)
    h_rank = h_aggregate if h_bidegree is None else target
    if h_rank != target:
        flags.append("h-selection-unrealized")

    return RankProfile(
        e=e,
        g=g,
        d=d,
        dprime=total.rank[1, 1],
        h_rank=h_rank,
        f=f_rank,
        h_bidegree=h_bidegree,
        h_by_bidegree=tuple(per_bidegree),
        h_aggregate=h_aggregate,
        flags=tuple(flags),
    )


# -- total-degree tower ----------------------------------------------------


def leray_betti(ring: BigradedRing, a, b) -> tuple[int, ...]:
    """Seven Betti numbers from the total-degree page; tau never enters."""
    return _TotalPage(ring, a, b).betti()


# -- cross-checks ----------------------------------------------------------


def consistency_report(diamond: HodgeDiamond, betti: Sequence[int]) -> tuple[str, ...]:
    """Violation list: Euler counts, both dualities, degeneration bound."""
    report = []
    chi = sum((-1) ** (p + q) * diamond.value(p, q) for p in range(4) for q in range(4))
    if chi != 0:
        report.append(f"alternating Hodge sum is {chi}, expected 0")
    euler = sum((-1) ** k * bk for k, bk in enumerate(betti))
    if euler != 0:
        report.append(f"alternating Betti sum is {euler}, expected 0")
    for k in range(7):
        if betti[k] != betti[6 - k]:
            report.append(f"duality fails: b{k} = {betti[k]} but b{6 - k} = {betti[6 - k]}")
    for p in range(4):
        for q in range(4):
            if diamond.value(p, q) != diamond.value(3 - p, 3 - q):
                report.append(
                    f"duality fails: h({p},{q}) = {diamond.value(p, q)} but "
                    f"h({3 - p},{3 - q}) = {diamond.value(3 - p, 3 - q)}"
                )
    for k in range(7):
        hodge_sum = sum(diamond.value(p, k - p) for p in range(4) if 0 <= k - p <= 3)
        if betti[k] > hodge_sum:
            report.append(f"degeneration bound fails: b{k} = {betti[k]} exceeds Hodge sum {hodge_sum}")
    return tuple(report)


@dataclass(frozen=True)
class InvariantsResult:
    ring_name: str
    mode_name: str
    synthetic: bool
    profile: RankProfile
    diamond: HodgeDiamond
    betti: tuple[int, ...]
    consistency: tuple[str, ...]


def full_invariants(
    ring: BigradedRing, a, b, mode: CoefficientMode = GENERIC_MODE, synthetic: bool = False
) -> InvariantsResult:
    """One-call pipeline: class, both towers, ranks, cross-checks."""
    eta = (synthetic_eta if synthetic else char_to_eta)(ring, a, b, mode)
    diamond = borel_hodge(eta)
    profile = structure_maps(eta)
    # the class's own total-degree page, already built by structure_maps
    betti = eta.total.betti()
    return InvariantsResult(
        ring_name=ring.name,
        mode_name=mode.name,
        synthetic=synthetic,
        profile=profile,
        diamond=diamond,
        betti=betti,
        consistency=consistency_report(diamond, betti),
    )
