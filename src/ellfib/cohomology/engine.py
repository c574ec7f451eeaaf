"""Second-page differentials and third-page dimensions for the two towers.

Inputs are a bigraded ring for the base and a twisting class given by
two rational vectors (a, b) on the full H^2 basis.  The class enters as
eta = a + tau*b; only its (1,1) part and the (0,2) part of the conjugate
partner drive the bigraded differential, while the total-degree page
uses the rational span of {a, b} directly and never sees tau.

Both pages are assembled cell by cell; third-page dimensions come from
exact ranks (dimension minus outgoing rank minus incoming rank, valid
because the square of the differential is checked to vanish first).
In generic mode every rank is recomputed at fixed rational values of
the indeterminates and discrepancies are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from ..errors import DifferentialNotSquareZero, InvalidClass, SchemaError
from ..linalg import exact_rank
from .fields import GENERIC_MODE, CoefficientMode
from .ring import BigradedRing

FIBER_HODGE = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
FIBER_BETTI = (1, 2, 1)


@dataclass(frozen=True)
class EtaClass:
    """Twisting class split into bidegree parts over the mode's field."""

    ring: BigradedRing
    mode: CoefficientMode
    a_vec: tuple[Fraction, ...]
    b_vec: tuple[Fraction, ...]
    eta20: tuple
    eta11: tuple
    eta02: tuple
    etabar20: tuple
    etabar11: tuple
    etabar02: tuple
    synthetic: bool = False


def _split_h2(ring: BigradedRing, vec) -> tuple[list, list, list]:
    sizes = [ring.dim(2, 0), ring.dim(1, 1), ring.dim(0, 2)]
    values = [Fraction(x) for x in vec]
    if len(values) != sum(sizes):
        raise SchemaError(
            f"H^2 vector needs {sum(sizes)} coordinates "
            f"({sizes[0]}+{sizes[1]}+{sizes[2]} by descending p), got {len(values)}"
        )
    first = values[: sizes[0]]
    second = values[sizes[0] : sizes[0] + sizes[1]]
    third = values[sizes[0] + sizes[1] :]
    return first, second, third


def char_to_eta(
    ring: BigradedRing, a, b, mode: CoefficientMode = GENERIC_MODE
) -> EtaClass:
    """Split eta = a + tau*b by bidegree; the (0,2) part must vanish."""
    a20, a11, a02 = _split_h2(ring, a)
    b20, b11, b02 = _split_h2(ring, b)
    embed, tau, taubar = mode.embed, mode.tau, mode.taubar
    eta02 = tuple(embed(x) + tau * embed(y) for x, y in zip(a02, b02))
    if any(not mode.dom.is_zero(x) for x in eta02):
        raise InvalidClass(
            "the (0,2) part of a + tau*b must vanish; with rational inputs "
            "that means both (0,2) blocks are zero"
        )
    return EtaClass(
        ring=ring,
        mode=mode,
        a_vec=tuple(Fraction(x) for x in a),
        b_vec=tuple(Fraction(x) for x in b),
        eta20=tuple(embed(x) + tau * embed(y) for x, y in zip(a20, b20)),
        eta11=tuple(embed(x) + tau * embed(y) for x, y in zip(a11, b11)),
        eta02=eta02,
        etabar20=tuple(embed(x) + taubar * embed(y) for x, y in zip(a20, b20)),
        etabar11=tuple(embed(x) + taubar * embed(y) for x, y in zip(a11, b11)),
        etabar02=tuple(embed(x) + taubar * embed(y) for x, y in zip(a02, b02)),
    )


def synthetic_eta(
    ring: BigradedRing, a, b, mode: CoefficientMode = GENERIC_MODE
) -> EtaClass:
    """Valid class with a prescribed conjugate (0,2) part.

    The (0,2) block of a is forced to -tau times the (0,2) block of b,
    which kills the (0,2) part of eta while leaving the conjugate with
    (taubar - tau) times that block.  The rational seeds are kept for
    the total-degree computation.
    """
    a20, a11, a02 = _split_h2(ring, a)
    b20, b11, b02 = _split_h2(ring, b)
    if any(a02):
        raise InvalidClass("synthetic classes require a zero (0,2) block in a")
    embed, tau, taubar = mode.embed, mode.tau, mode.taubar
    shift = taubar - tau
    return EtaClass(
        ring=ring,
        mode=mode,
        a_vec=tuple(Fraction(x) for x in a),
        b_vec=tuple(Fraction(x) for x in b),
        eta20=tuple(embed(x) + tau * embed(y) for x, y in zip(a20, b20)),
        eta11=tuple(embed(x) + tau * embed(y) for x, y in zip(a11, b11)),
        eta02=tuple(embed(Fraction(0)) for _ in a02),
        etabar20=tuple(embed(x) + taubar * embed(y) for x, y in zip(a20, b20)),
        etabar11=tuple(embed(x) + taubar * embed(y) for x, y in zip(a11, b11)),
        etabar02=tuple(shift * embed(y) for y in b02),
        synthetic=True,
    )


# -- small field-matrix helpers -------------------------------------------


@dataclass
class _Mat:
    r: int
    c: int
    m: list


def _mult(ring: BigradedRing, source, w_block, w_coeffs, mode, sign=1) -> _Mat:
    p, q = source
    if not (0 <= p <= 2 and 0 <= q <= 2):
        return _Mat(0, 0, [])
    data, cols = ring.mult_matrix(source, w_block, w_coeffs, mode.embed, sign)
    return _Mat(len(data), len(cols), data)


def _hstack(a: _Mat, b: _Mat) -> _Mat:
    # callers pad both blocks to a common explicit row count first
    if a.r != b.r:
        raise AssertionError("row mismatch in hstack")
    if a.r == 0:
        return _Mat(0, a.c + b.c, [])
    return _Mat(a.r, a.c + b.c, [lr + rr for lr, rr in zip(a.m, b.m)])


def _vstack(a: _Mat, b: _Mat) -> _Mat:
    cols = max(a.c, b.c)
    if a.c not in (0, cols) or b.c not in (0, cols):
        raise AssertionError("column mismatch in vstack")
    data = [row for row in a.m] + [row for row in b.m]
    return _Mat(a.r + b.r, cols, data)


def _matmul(a: _Mat, b: _Mat, zero) -> _Mat:
    if a.c != b.r:
        raise AssertionError("shape mismatch in matmul")
    data = []
    for i in range(a.r):
        row = []
        for j in range(b.c):
            total = zero
            for k in range(a.c):
                total = total + a.m[i][k] * b.m[k][j]
            row.append(total)
        data.append(row)
    return _Mat(a.r, b.c, data)


def _checked_rank(mat: _Mat, mode: CoefficientMode, flags: list, tag: str) -> int:
    if mat.r == 0 or mat.c == 0:
        return 0
    rank = exact_rank(mat.m, mode.dom)
    if mode.specialize is not None:
        for pair in mode.sample_points:
            special = [[mode.specialize(e, pair) for e in row] for row in mat.m]
            if exact_rank(special) != rank:
                flags.append(
                    f"{tag}: generic rank {rank} not reproduced at t,s = {pair}"
                )
    return rank


# -- bigraded tower --------------------------------------------------------


@dataclass(frozen=True)
class HodgeDiamond:
    """h[p][q] for 0 <= p,q <= 3."""

    h: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.h) != 4 or any(len(row) != 4 for row in self.h):
            raise SchemaError("diamond must be a 4x4 table")
        object.__setattr__(
            self, "h", tuple(tuple(int(x) for x in row) for row in self.h)
        )

    def value(self, p: int, q: int) -> int:
        return self.h[p][q]

    def rows_by_total(self) -> list[list[int]]:
        """Row k lists h(p, k-p) left to right by decreasing q."""
        out = []
        for k in range(7):
            row = []
            for p in range(max(0, k - 3), min(3, k) + 1):
                row.append(self.h[p][k - p])
            out.append(row)
        return out


def _cell_components(P: int, Q: int, t: int) -> list[tuple[int, int]]:
    if t == 0:
        return [(P, Q)]
    if t == 1:
        return [(P, Q - 1), (P - 1, Q)]
    return [(P - 1, Q - 1)]


def _block_dim(ring: BigradedRing, pq) -> int:
    p, q = pq
    if 0 <= p <= 2 and 0 <= q <= 2:
        return ring.dim(p, q)
    return 0


def _cell_dim(ring: BigradedRing, P: int, Q: int, t: int) -> int:
    return sum(_block_dim(ring, pq) for pq in _cell_components(P, Q, t))


def _outgoing_map(ring: BigradedRing, eta: EtaClass, P: int, Q: int, t: int) -> _Mat:
    """Matrix of the differential leaving cell (P, Q, t)."""
    mode = eta.mode
    if t == 1:
        bar = _mult(ring, (P, Q - 1), (0, 2), eta.etabar02, mode)
        via = _mult(ring, (P - 1, Q), (1, 1), eta.eta11, mode)
        target_rows = _block_dim(ring, (P, Q + 1))
        bar = _pad(bar, target_rows, _block_dim(ring, (P, Q - 1)), mode)
        via = _pad(via, target_rows, _block_dim(ring, (P - 1, Q)), mode)
        return _hstack(bar, via)
    if t == 2:
        top = _mult(ring, (P - 1, Q - 1), (1, 1), eta.eta11, mode)
        bottom = _mult(ring, (P - 1, Q - 1), (0, 2), eta.etabar02, mode, sign=-1)
        cols = _block_dim(ring, (P - 1, Q - 1))
        top = _pad(top, _block_dim(ring, (P, Q)), cols, mode)
        bottom = _pad(bottom, _block_dim(ring, (P - 1, Q + 1)), cols, mode)
        return _vstack(top, bottom)
    return _Mat(0, _cell_dim(ring, P, Q, t), [])


def _pad(mat: _Mat, rows: int, cols: int, mode: CoefficientMode) -> _Mat:
    """Normalize a block to an explicit rows x cols zero-filled matrix."""
    zero = mode.embed(Fraction(0))
    if mat.r == rows and mat.c == cols:
        return mat
    data = [[zero] * cols for _ in range(rows)]
    for i in range(mat.r):
        for j in range(mat.c):
            data[i][j] = mat.m[i][j]
    return _Mat(rows, cols, data)


def borel_hodge(
    ring: BigradedRing, eta: EtaClass, flags: list | None = None
) -> HodgeDiamond:
    """Third-page Hodge numbers h(p,q) for 0 <= p,q <= 3."""
    mode = eta.mode
    zero = mode.embed(Fraction(0))
    sink = [] if flags is None else flags

    out_maps: dict[tuple[int, int, int], _Mat] = {}
    for P in range(4):
        for Q in range(4):
            for t in (1, 2):
                out_maps[(P, Q, t)] = _outgoing_map(ring, eta, P, Q, t)

    for P in range(4):
        for Q in range(4):
            second = out_maps[(P, Q, 2)]
            first = out_maps[(P, Q + 1, 1)] if Q + 1 <= 3 else None
            if first is None or second.r == 0 or first.r == 0:
                continue
            composite = _matmul(first, second, zero)
            for row in composite.m:
                for entry in row:
                    if not mode.dom.is_zero(entry):
                        raise DifferentialNotSquareZero(
                            f"composite through cell ({P},{Q + 1}) is nonzero"
                        )

    out_rank: dict[tuple[int, int, int], int] = {}
    for (P, Q, t), mat in out_maps.items():
        out_rank[(P, Q, t)] = _checked_rank(mat, mode, sink, f"page cell ({P},{Q},{t})")

    table = []
    for p in range(4):
        row = []
        for q in range(4):
            total = 0
            for t in range(3):
                dim = _cell_dim(ring, p, q, t)
                if dim == 0:
                    continue
                leaving = out_rank.get((p, q, t), 0)
                entering = out_rank.get((p, q - 1, t + 1), 0) if t < 2 else 0
                total += dim - leaving - entering
            row.append(total)
        table.append(tuple(row))
    return HodgeDiamond(tuple(table))


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


def structure_maps(
    ring: BigradedRing, eta: EtaClass, diamond: HodgeDiamond | None = None
) -> RankProfile:
    """Ranks of the connecting maps.

    The reported rank h is selected, not computed from one map: with
    target = 6 - g - h(1,1) read from the finished table, h is the first
    per-bidegree combined-map rank equal to the target (bidegrees in
    (p, q) order), else the aggregate degree-1 rank if that equals it.
    When neither matches, h is the aggregate rank and the profile is
    flagged h-selection-unrealized.
    """
    mode = eta.mode
    flags: list[str] = []
    e = 0 if all(mode.dom.is_zero(x) for x in eta.etabar02) else 1
    g = 0 if all(mode.dom.is_zero(x) for x in eta.eta11) else 1

    a_dr = ring.to_derham(2, eta.a_vec)
    b_dr = ring.to_derham(2, eta.b_vec)
    d = exact_rank([a_dr, b_dr]) if a_dr else 0

    ma = ring.dr_mult_matrix(1, a_dr, 2)
    mb = ring.dr_mult_matrix(1, b_dr, 2)
    joined = [ra + rb for ra, rb in zip(ma, mb)]
    dprime = exact_rank(joined) if joined else 0

    f_mat = _mult(ring, (1, 0), (0, 2), eta.etabar02, mode)
    f_rank = _checked_rank(f_mat, mode, flags, "f map")

    per_bidegree = []
    for p in range(3):
        for q in range(3):
            if ring.dim(p, q) == 0:
                continue
            cols = ring.dim(p, q)
            up = _pad(
                _mult(ring, (p, q), (1, 1), eta.eta11, mode),
                _block_dim(ring, (p + 1, q + 1)),
                cols,
                mode,
            )
            flat = _pad(
                _mult(ring, (p, q), (0, 2), eta.etabar02, mode, sign=-1),
                _block_dim(ring, (p, q + 2)),
                cols,
                mode,
            )
            rank = _checked_rank(
                _vstack(up, flat), mode, flags, f"combined map at ({p},{q})"
            )
            per_bidegree.append(((p, q), rank))

    top_left = _pad(
        _mult(ring, (1, 0), (1, 1), eta.eta11, mode),
        _block_dim(ring, (2, 1)),
        ring.dim(1, 0),
        mode,
    )
    top_right = _Mat(0, ring.dim(0, 1), [])
    top_right = _pad(top_right, _block_dim(ring, (2, 1)), ring.dim(0, 1), mode)
    bottom_left = _pad(
        _mult(ring, (1, 0), (0, 2), eta.etabar02, mode, sign=-1),
        _block_dim(ring, (1, 2)),
        ring.dim(1, 0),
        mode,
    )
    bottom_right = _pad(
        _mult(ring, (0, 1), (1, 1), eta.eta11, mode),
        _block_dim(ring, (1, 2)),
        ring.dim(0, 1),
        mode,
    )
    aggregate_mat = _vstack(
        _hstack(top_left, top_right), _hstack(bottom_left, bottom_right)
    )
    h_aggregate = _checked_rank(aggregate_mat, mode, flags, "degree-1 combined map")

    if diamond is None:
        diamond = borel_hodge(ring, eta, flags)
    target = 6 - g - diamond.value(1, 1)
    h_rank = None
    h_bidegree = None
    if target >= 0:
        for (p, q), rank in per_bidegree:
            if rank == target:
                h_rank, h_bidegree = rank, (p, q)
                break
        if h_rank is None and h_aggregate == target:
            h_rank = h_aggregate
    if h_rank is None:
        h_rank = h_aggregate
        flags.append("h-selection-unrealized")

    return RankProfile(
        e=e,
        g=g,
        d=d,
        dprime=dprime,
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
    a_dr = ring.to_derham(2, [Fraction(x) for x in a])
    b_dr = ring.to_derham(2, [Fraction(x) for x in b])

    dims = {(s, t): ring.dr_dim(s) * FIBER_BETTI[t] for s in range(5) for t in range(3)}
    out_rank: dict[tuple[int, int], int] = {}
    for s in range(5):
        ma = ring.dr_mult_matrix(s, a_dr, 2)
        mb = ring.dr_mult_matrix(s, b_dr, 2)
        joined = [ra + rb for ra, rb in zip(ma, mb)]
        out_rank[(s, 1)] = exact_rank(joined) if joined else 0
        stacked = [[-x for x in row] for row in mb] + ma
        out_rank[(s, 2)] = exact_rank(stacked) if stacked else 0
        out_rank[(s, 0)] = 0

    betti = []
    for k in range(7):
        total = 0
        for s in range(5):
            t = k - s
            if not 0 <= t <= 2:
                continue
            entering = out_rank.get((s - 2, t + 1), 0)
            total += dims[(s, t)] - out_rank[(s, t)] - entering
        betti.append(total)
    return tuple(betti)


# -- cross-checks ----------------------------------------------------------


def consistency_report(diamond: HodgeDiamond, betti: Sequence[int]) -> tuple[str, ...]:
    """Violation list: Euler counts, both dualities, degeneration bound."""
    report = []
    chi = sum(
        (-1) ** (p + q) * diamond.value(p, q) for p in range(4) for q in range(4)
    )
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
        hodge_sum = sum(
            diamond.value(p, k - p) for p in range(4) if 0 <= k - p <= 3
        )
        if betti[k] > hodge_sum:
            report.append(
                f"degeneration bound fails: b{k} = {betti[k]} exceeds "
                f"Hodge sum {hodge_sum}"
            )
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
    ring: BigradedRing,
    a,
    b,
    mode: CoefficientMode = GENERIC_MODE,
    synthetic: bool = False,
) -> InvariantsResult:
    """One-call pipeline: class, both towers, ranks, cross-checks."""
    build = synthetic_eta if synthetic else char_to_eta
    eta = build(ring, a, b, mode)
    flags: list[str] = []
    diamond = borel_hodge(ring, eta, flags)
    profile = structure_maps(ring, eta, diamond)
    profile = replace(profile, flags=tuple(dict.fromkeys(flags + list(profile.flags))))
    betti = leray_betti(ring, a, b)
    return InvariantsResult(
        ring_name=ring.name,
        mode_name=mode.name,
        synthetic=synthetic,
        profile=profile,
        diamond=diamond,
        betti=betti,
        consistency=consistency_report(diamond, betti),
    )


def kunneth_diamond(ring: BigradedRing) -> HodgeDiamond:
    """Product-case diamond: base numbers spread by the fiber square."""
    table = []
    for p in range(4):
        row = []
        for q in range(4):
            total = 0
            for (i, j), mult in FIBER_HODGE.items():
                bp, bq = p - i, q - j
                if 0 <= bp <= 2 and 0 <= bq <= 2:
                    total += mult * ring.dim(bp, bq)
            row.append(total)
        table.append(tuple(row))
    return HodgeDiamond(tuple(table))
