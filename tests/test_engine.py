"""Twisted cohomology tables against independently derived closed forms.

The expected values below were frozen from hand computations with the
preset structure tables: block-by-block differentials for the bigraded
tower and explicit multiplication matrices for the total-degree tower.
"""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellfib.cohomology import engine, fields
from ellfib.cohomology import ring as ring_module
from ellfib.cohomology.engine import (
    FIBER_BETTI,
    borel_hodge,
    char_to_eta,
    consistency_report,
    full_invariants,
    leray_betti,
    structure_maps,
    synthetic_eta,
)
from ellfib.cohomology.fields import GAUSSIAN_MODE, GENERIC_MODE
from ellfib.cohomology.ring import PRESET_NAMES, BigradedRing, load_preset
from ellfib.errors import InvalidClass, SchemaError
from ellfib.linalg import FRACTION_DOMAIN, exact_rank
from gaussian import MODE_ARITHMETIC, POLYNOMIALS

FIBER_HODGE = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

MODES = (GENERIC_MODE, GAUSSIAN_MODE)


def kodaira_vec(n1=0, A=0, B=0, FF=0):
    return [Fraction(n1), Fraction(A), Fraction(B), Fraction(FF)]


def k3_vec(sg=0, sgb=0, **ws):
    vec = [Fraction(0)] * 22
    vec[0] = Fraction(sg)
    vec[21] = Fraction(sgb)
    for key, value in ws.items():
        vec[int(key[1:])] = Fraction(value)
    return vec


# (label, a, b, e, g, beta), all synthetic so the conjugate (0,2) part is
# free; the (1,1) twist rides on a and the (0,2) twist on b so the two
# towers stay consistent (a shared vector would drop d below the twist count)
KODAIRA_CASES = [
    ("zero", kodaira_vec(), kodaira_vec(), 0, 0, 0),
    ("e", kodaira_vec(), kodaira_vec(FF=1), 1, 0, 0),
    ("g", kodaira_vec(A=1), kodaira_vec(), 0, 1, 0),
    ("g-beta", kodaira_vec(B=1), kodaira_vec(), 0, 1, 1),
    ("e-g", kodaira_vec(A=1), kodaira_vec(FF=1), 1, 1, 0),
    ("e-g-beta", kodaira_vec(B=1), kodaira_vec(FF=1), 1, 1, 1),
]

KODAIRA_BETTI = {
    "zero": (1, 5, 11, 14, 11, 5, 1),
    "e": (1, 4, 7, 8, 7, 4, 1),
    "g": (1, 4, 7, 8, 7, 4, 1),
    "g-beta": (1, 4, 7, 8, 7, 4, 1),
    "e-g": (1, 3, 5, 6, 5, 3, 1),
    "e-g-beta": (1, 3, 6, 8, 6, 3, 1),
}


def expected_kodaira_diamond(e, g, beta):
    eg = 1 if (e or g) else 0
    h = [[0] * 4 for _ in range(4)]
    h[0][0] = 1
    h[1][0] = 2 - g
    h[0][1] = 3 - e
    h[2][0] = 2 - beta
    h[1][1] = 6 - g - beta - eg
    h[0][2] = 3 - e
    h[3][0] = 1
    h[0][3] = 1
    h[2][1] = 6 - 2 * beta - eg
    h[1][2] = 6 - 2 * beta - eg
    for p in range(4):
        for q in range(4):
            if p + q > 3:
                h[p][q] = h[3 - p][3 - q]
    return [list(row) for row in h]


def expected_k3_diamond(e, g):
    eg = 1 if (e or g) else 0
    h = [[0] * 4 for _ in range(4)]
    h[0][0] = 1
    h[1][0] = 1 - g
    h[0][1] = 1 - e
    h[2][0] = 1
    h[1][1] = 21 - g - eg
    h[0][2] = 1 - e
    h[3][0] = 1
    h[0][3] = 1
    h[2][1] = 21 - eg
    h[1][2] = 21 - eg
    for p in range(4):
        for q in range(4):
            if p + q > 3:
                h[p][q] = h[3 - p][3 - q]
    return [list(row) for row in h]


# -- class construction gates ----------------------------------------------


def test_char_to_eta_enforces_vector_length():
    ring = load_preset("kodaira")
    with pytest.raises(SchemaError):
        char_to_eta(ring, [0, 0, 0], kodaira_vec())


def test_char_to_eta_rejects_antiholomorphic_part():
    ring = load_preset("kodaira")
    with pytest.raises(InvalidClass):
        char_to_eta(ring, kodaira_vec(FF=1), kodaira_vec())
    with pytest.raises(InvalidClass):
        char_to_eta(ring, kodaira_vec(), kodaira_vec(FF=1))
    with pytest.raises(InvalidClass):
        char_to_eta(ring, kodaira_vec(), kodaira_vec(FF=1), GAUSSIAN_MODE)


def test_synthetic_eta_frees_the_conjugate_part():
    ring = load_preset("kodaira")
    eta = synthetic_eta(ring, kodaira_vec(), kodaira_vec(FF=1))
    assert any(eta.z02)
    assert eta.synthetic
    with pytest.raises(InvalidClass):
        synthetic_eta(ring, kodaira_vec(FF=1), kodaira_vec())


# -- primitive-surface tower -----------------------------------------------


@pytest.mark.parametrize("label,a,b,e,g,beta", KODAIRA_CASES)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_kodaira_diamond_closed_forms(label, a, b, e, g, beta, mode):
    ring = load_preset("kodaira")
    result = full_invariants(ring, a, b, mode, synthetic=True)
    assert [list(r) for r in result.diamond.h] == expected_kodaira_diamond(e, g, beta)
    assert result.profile.e == e
    assert result.profile.g == g
    assert result.consistency == ()


@pytest.mark.parametrize("label,a,b,e,g,beta", KODAIRA_CASES)
def test_kodaira_connecting_map_ranks(label, a, b, e, g, beta):
    ring = load_preset("kodaira")
    eta = synthetic_eta(ring, a, b)
    profile = structure_maps(eta)
    eg = 1 if (e or g) else 0
    by_cell = dict(profile.h_by_bidegree)
    expected = {
        (0, 0): eg,
        (1, 0): beta,
        (0, 1): beta,
        (2, 0): e,
        (1, 1): g,
        (0, 2): 0,
    }
    for key, value in expected.items():
        assert by_cell.pop(key) == value
    # cells whose shifted targets leave the table contribute nothing
    assert all(value == 0 for value in by_cell.values())
    assert profile.h_aggregate == 2 * beta
    assert profile.f == 0
    # selected rank always hits the page-side target on this preset
    assert profile.h_rank == 6 - g - borel_hodge(eta).value(1, 1)
    assert "h-selection-unrealized" not in profile.flags


def test_kodaira_betti_for_synthetic_classes():
    ring = load_preset("kodaira")
    for label, a, b, *_ in KODAIRA_CASES:
        assert leray_betti(ring, a, b) == KODAIRA_BETTI[label]


def test_coupled_synthetic_twist_is_flagged_inconsistent():
    # pushing both twist parts through one b vector leaves d = 1, so the
    # total-degree tower keeps b1 = 4 while the bigraded tower drops to 3;
    # the report must say so rather than hide it
    ring = load_preset("kodaira")
    result = full_invariants(
        ring, kodaira_vec(), kodaira_vec(A=1, FF=1), synthetic=True
    )
    assert [list(r) for r in result.diamond.h] == expected_kodaira_diamond(1, 1, 0)
    assert result.betti == (1, 4, 7, 8, 7, 4, 1)
    assert result.consistency
    assert all("degeneration bound" in line for line in result.consistency)


# frozen (a, b, d, dprime) cases for the total-degree tower
KODAIRA_LERAY_CASES = [
    (kodaira_vec(n1=1), kodaira_vec(), 1, 2),
    (kodaira_vec(n1=1, A=1), kodaira_vec(), 1, 0),
    (kodaira_vec(n1=1), kodaira_vec(A=1), 2, 2),
    (kodaira_vec(A=1), kodaira_vec(B=1), 2, 3),
    (kodaira_vec(A=1, B=1), kodaira_vec(), 1, 2),
]


@pytest.mark.parametrize("a,b,d,dprime", KODAIRA_LERAY_CASES)
def test_kodaira_betti_closed_forms(a, b, d, dprime):
    ring = load_preset("kodaira")
    betti = leray_betti(ring, a, b)
    assert betti[1] == 5 - d
    assert betti[2] == 10 - d - dprime
    assert betti[3] == 12 - 2 * dprime
    assert betti == tuple(reversed(betti))
    result = full_invariants(ring, a, b)
    assert result.profile.d == d
    assert result.profile.dprime == dprime


# -- twenty-dimensional middle block ---------------------------------------


K3_CASES = [
    ("zero", k3_vec(), k3_vec(), 0, 0),
    ("e", k3_vec(), k3_vec(sgb=1), 1, 0),
    ("g", k3_vec(w1=1), k3_vec(), 0, 1),
    ("e-g", k3_vec(w1=1), k3_vec(sgb=1), 1, 1),
]


@pytest.mark.parametrize("label,a,b,e,g", K3_CASES)
def test_k3_diamond_closed_forms(label, a, b, e, g):
    ring = load_preset("k3")
    result = full_invariants(ring, a, b, synthetic=True)
    assert [list(r) for r in result.diamond.h] == expected_k3_diamond(e, g)
    assert (result.profile.e, result.profile.g) == (e, g)
    assert result.consistency == ()


def test_k3_full_twist_matches_frozen_betti_row():
    ring = load_preset("k3")
    for a, b in [
        (k3_vec(w1=1), k3_vec(sgb=1)),
        # the middle block is big enough that a coupled b keeps d = 2
        (k3_vec(w2=1), k3_vec(w1=1, sgb=1)),
    ]:
        result = full_invariants(ring, a, b, synthetic=True)
        assert result.betti == (1, 0, 20, 42, 20, 0, 1)
        assert result.profile.d == 2
        assert result.profile.h_aggregate == 0
        assert "h-selection-unrealized" in result.profile.flags
        assert result.consistency == ()


def test_k3_gaussian_mode_agrees():
    ring = load_preset("k3")
    a, b = k3_vec(w1=1), k3_vec(sgb=1)
    left = full_invariants(ring, a, b, GENERIC_MODE, synthetic=True)
    right = full_invariants(ring, a, b, GAUSSIAN_MODE, synthetic=True)
    assert left.diamond == right.diamond
    assert left.betti == right.betti


# -- product case ----------------------------------------------------------


@pytest.mark.parametrize("name", ("kodaira", "torus4", "k3"))
def test_zero_class_reproduces_the_kunneth_table(name):
    ring = load_preset(name)
    length = sum(ring.dim(*pq) for pq in ((2, 0), (1, 1), (0, 2)))
    zero = [Fraction(0)] * length
    result = full_invariants(ring, zero, zero)
    # independent spread of the base numbers by the fiber square
    for p in range(4):
        for q in range(4):
            expected = sum(
                mult * ring.dim(p - i, q - j)
                for (i, j), mult in FIBER_HODGE.items()
                if 0 <= p - i <= 2 and 0 <= q - j <= 2
            )
            assert result.diamond.value(p, q) == expected
    # Betti numbers likewise spread by the fiber line
    for k in range(7):
        expected = sum(
            ring.dr_dim(s) * FIBER_BETTI[k - s]
            for s in range(5)
            if 0 <= k - s <= 2
        )
        assert result.betti[k] == expected


def test_kodaira_kunneth_frozen_values():
    result = full_invariants(load_preset("kodaira"), kodaira_vec(), kodaira_vec())
    assert [list(r) for r in result.diamond.h] == [
        [1, 3, 3, 1],
        [2, 6, 6, 2],
        [2, 6, 6, 2],
        [1, 3, 3, 1],
    ]
    assert result.betti == (1, 5, 11, 14, 11, 5, 1)


# -- universal laws over a mixed sweep -------------------------------------


def torus4_vec(e12=0, e13=0, e14=0, e23=0, e24=0, e34=0):
    return [Fraction(x) for x in (e12, e13, e14, e23, e24, e34)]


SWEEP = (
    [("kodaira", a, b, True) for _, a, b, *_ in KODAIRA_CASES]
    + [("k3", a, b, True) for _, a, b, *_ in K3_CASES]
    + [("kodaira", a, b, False) for a, b, *_ in KODAIRA_LERAY_CASES]
    + [
        ("torus4", torus4_vec(e13=1), torus4_vec(), False),
        ("torus4", torus4_vec(e12=1), torus4_vec(e14=1, e23=-1), False),
        ("torus4", torus4_vec(), torus4_vec(e34=1), True),
    ]
)


@pytest.mark.parametrize("name,a,b,synthetic", SWEEP)
def test_universal_laws(name, a, b, synthetic):
    result = full_invariants(load_preset(name), a, b, synthetic=synthetic)
    d = result.diamond
    assert sum((-1) ** (p + q) * d.value(p, q) for p in range(4) for q in range(4)) == 0
    assert sum((-1) ** k * bk for k, bk in enumerate(result.betti)) == 0
    for p in range(4):
        for q in range(4):
            assert d.value(p, q) == d.value(3 - p, 3 - q)
    for k in range(7):
        assert result.betti[k] == result.betti[6 - k]
        hodge_sum = sum(d.value(p, k - p) for p in range(4) if 0 <= k - p <= 3)
        assert result.betti[k] <= hodge_sum
    assert result.consistency == ()


@pytest.mark.parametrize("name,a,b,synthetic", SWEEP)
def test_mode_independence(name, a, b, synthetic):
    ring = load_preset(name)
    left = full_invariants(ring, a, b, GENERIC_MODE, synthetic=synthetic)
    right = full_invariants(ring, a, b, GAUSSIAN_MODE, synthetic=synthetic)
    assert left.diamond == right.diamond
    assert left.betti == right.betti
    assert (left.profile.e, left.profile.g) == (right.profile.e, right.profile.g)


def test_degree_one_aggregate_without_a_11_part_is_the_f_block():
    # with eta11 = 0 the aggregate keeps only x*etabar02 from (1,0), the
    # f map; on torus4 that block is injective on the two (1,0) classes
    ring = load_preset("torus4")
    profile = full_invariants(ring, torus4_vec(), torus4_vec(e34=1), synthetic=True).profile
    assert (profile.e, profile.g) == (1, 0)
    assert profile.h_aggregate == profile.f == ring.dim(1, 0) == 2


def test_twist_side_does_not_matter():
    # realizing the same (1,1) part through a or through b only rescales
    # the class by the modulus unit, so every rank agrees
    ring = load_preset("kodaira")
    via_a = full_invariants(ring, kodaira_vec(A=1), kodaira_vec())
    via_b = full_invariants(ring, kodaira_vec(), kodaira_vec(A=1))
    assert via_a.diamond == via_b.diamond
    assert via_a.betti == via_b.betti
    assert via_a.profile == via_b.profile


# -- report plumbing -------------------------------------------------------


def test_result_metadata():
    result = full_invariants(load_preset("kodaira"), kodaira_vec(), kodaira_vec())
    assert result.ring_name == "kodaira"
    assert result.mode_name == "generic"
    assert not result.synthetic
    assert result.profile.flags == ()


def test_diamond_rows_by_total():
    result = full_invariants(load_preset("kodaira"), kodaira_vec(), kodaira_vec())
    rows = result.diamond.rows_by_total()
    assert rows[0] == [1]
    assert rows[1] == [3, 2]  # h(0,1) then h(1,0)
    assert rows[3] == [1, 6, 6, 1]
    assert [sum(row) for row in rows] == [1, 5, 11, 14, 11, 5, 1]


def test_consistency_report_flags_tampering():
    result = full_invariants(load_preset("kodaira"), kodaira_vec(), kodaira_vec())
    bad_betti = list(result.betti)
    bad_betti[1] += 1
    report = consistency_report(result.diamond, bad_betti)
    assert any("Betti" in line or "duality" in line for line in report)


def test_consistency_report_words_each_of_the_five_checks():
    # h(0,0) = 1 alone and b0 = 2 alone break the Euler counts, both
    # dualities and the degeneration bound
    diamond = engine.HodgeDiamond(((1, 0, 0, 0),) + ((0, 0, 0, 0),) * 3)
    assert consistency_report(diamond, [2, 0, 0, 0, 0, 0, 0]) == (
        "alternating Hodge sum is 1, expected 0",
        "alternating Betti sum is 2, expected 0",
        "duality fails: b0 = 2 but b6 = 0",
        "duality fails: b6 = 0 but b0 = 2",
        "duality fails: h(0,0) = 1 but h(3,3) = 0",
        "duality fails: h(3,3) = 0 but h(0,0) = 1",
        "degeneration bound fails: b0 = 2 exceeds Hodge sum 1",
    )


def test_exact_rank_backs_the_pairing_claim():
    # d for a rational pair is literally the rank of the two de Rham rows
    ring = load_preset("kodaira")
    a, b = kodaira_vec(n1=1), kodaira_vec(A=1)
    result = full_invariants(ring, a, b)
    rows = [ring.to_derham(2, a), ring.to_derham(2, b)]
    assert result.profile.d == exact_rank(rows) == 2


# -- specialization flags and page reuse -----------------------------------


# one sample point at t = s = 0, where eta11 = A + t*B loses its B part
DEGENERATE_MODE = replace(GENERIC_MODE, sample_points=((Fraction(0), Fraction(0)),))
PAIR = (Fraction(0), Fraction(0))


def specialization_flag(tag, rank):
    return f"{tag}: generic rank {rank} not reproduced at t,s = {PAIR}"


PAGE_FLAGS = tuple(
    specialization_flag(f"page cell {cell}", 1)
    for cell in ("(1,1,1)", "(1,2,2)", "(2,0,1)", "(2,1,2)")
)
PROFILE_FLAGS = (
    specialization_flag("combined map at (0,1)", 1),
    specialization_flag("combined map at (1,0)", 1),
    specialization_flag("degree-1 combined map", 2),
)


def test_specialization_flags_are_pinned():
    ring = load_preset("kodaira")
    a, b = kodaira_vec(A=1), kodaira_vec(B=1)
    result = full_invariants(ring, a, b, DEGENERATE_MODE)
    assert result.profile.flags == PAGE_FLAGS + PROFILE_FLAGS
    # structure_maps assembles them, in the same order
    profile = structure_maps(char_to_eta(ring, a, b, DEGENERATE_MODE))
    assert profile.flags == PAGE_FLAGS + PROFILE_FLAGS
    # the mode's own sample points reproduce every rank
    assert full_invariants(ring, a, b).profile.flags == ()


def test_each_block_is_built_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("mult_matrix", "dr_mult_matrix", "to_derham"):
        monkeypatch.setattr(BigradedRing, name, counted(name, getattr(BigradedRing, name)))
    monkeypatch.setattr(engine, "exact_rank", counted("exact_rank", engine.exact_rank))
    ring, a, b = load_preset("kodaira"), kodaira_vec(A=1), kodaira_vec(B=1)
    full_invariants(ring, a, b)
    # one push of a and of b, one integer block per source and part (x, y, z)
    assert calls["to_derham"] == 2
    assert calls["dr_mult_matrix"] == 10
    assert calls["mult_matrix"] == 27
    assert calls["exact_rank"] <= 43
    # each reader of a fresh class builds on the page the one before it kept
    calls.clear()
    eta = char_to_eta(ring, a, b)
    borel_hodge(eta)
    structure_maps(eta)
    eta.total
    assert calls["mult_matrix"] == 27


@pytest.mark.parametrize("entry", ["1e3", "1.5", 0.5, True], ids=["exponent", "decimal", "float", "bool"])
def test_class_coordinates_follow_the_rational_grammar(entry):
    ring = load_preset("kodaira")
    with pytest.raises(SchemaError):
        char_to_eta(ring, [0, entry, 0, 0], kodaira_vec())
    with pytest.raises(SchemaError):
        leray_betti(ring, [0, entry, 0, 0], kodaira_vec())
    assert char_to_eta(ring, [0, "2/4", 0, 0], kodaira_vec()).a_vec[1] == Fraction(1, 2)


# -- the integer engine against a rational reference ------------------------


def substitute(entry, t, s):
    return sum((c * t**i * s**j for (i, j), c in entry.coeffs.items()), Fraction(0))


def reference_rank(mat, generic, mode):
    """The mode's rank of a rational matrix, and where it misses the generic
    rank: the rank of generic, the same map over Q[t, s], at tau = i, and
    sample points (ranked over FRACTION_DOMAIN by substitution) otherwise."""
    if not mat or not mat[0]:
        return 0, ()
    rank = exact_rank(mat, MODE_ARITHMETIC[mode.name][3])
    if mode.at_tau_i:
        over_q_ts = exact_rank(generic, POLYNOMIALS)
        missed = f"generic rank {over_q_ts} not reproduced at tau = i"
        return rank, (missed,) if rank < over_q_ts else ()
    return rank, tuple(
        f"generic rank {rank} not reproduced at t,s = {pair}"
        for pair in mode.sample_points
        if exact_rank([[substitute(e, *pair) for e in row] for row in mat], FRACTION_DOMAIN) != rank
    )


def rational_block(ring, source, w_block, w, zero):
    """x -> x*w from H^source on the rational product table, dense."""
    p, q = source[0] + w_block[0], source[1] + w_block[1]
    if p > 2 or q > 2:
        return []
    return [
        [
            sum((v * ring.cup(x, y).get(out, 0) for v, y in zip(w, ring.labels(*w_block))), zero)
            for x in ring.labels(*source)
        ]
        for out in ring.labels(p, q)
    ]


def rational_dr(ring, source_deg, w):
    return [
        [
            sum((v * ring.dr_cup(x, y).get(out, 0) for v, y in zip(w, ring.dr_basis[2])), Fraction(0))
            for x in ring.dr_basis.get(source_deg, ())
        ]
        for out in ring.dr_basis.get(source_deg + 2, ())
    ]


def rational_maps(ring, a, b, arithmetic):
    """The cell maps, f and the degree-1 aggregate of a class in one mode's
    arithmetic, by cell (P, Q, t) and by name."""
    n20, n11 = ring.dim(2, 0), ring.dim(1, 1)
    embed, tau, taubar, _ = MODE_ARITHMETIC[arithmetic]
    zero = embed(Fraction(0))
    eta11 = [embed(x) + tau * embed(y) for x, y in zip(a[n20:n20 + n11], b[n20:n20 + n11])]
    etabar02 = [(taubar - tau) * embed(y) for y in b[n20 + n11:]]

    def block(source, kind):
        if kind == "11":
            return rational_block(ring, source, (1, 1), eta11, zero)
        return rational_block(ring, source, (0, 2), etabar02, zero)

    def beside(left, right):
        return [l + r for l, r in zip(left, right)] if left and right else left or right

    maps = {}
    for P in range(4):
        for Q in range(4):
            corner = (P - 1, Q - 1)
            maps[P, Q, 1] = beside(block((P, Q - 1), "02"), block((P - 1, Q), "11"))
            maps[P, Q, 2] = block(corner, "11") + block(corner, "02")
    top = [row + [zero] * ring.dim(0, 1) for row in block((1, 0), "11")]
    maps["aggregate"] = top + beside(block((1, 0), "02"), block((0, 1), "11"))
    maps["f"] = block((1, 0), "02")
    return maps


def rational_reference(ring, a, b, mode):
    """Cell ranks, f, the degree-1 aggregate, d and the total-page ranks of
    a class, from rational data only, without clearing a denominator."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    maps = rational_maps(ring, a, b, mode.name)
    generic = rational_maps(ring, a, b, "generic") if mode.at_tau_i else maps
    checked = {key: reference_rank(mat, generic[key], mode) for key, mat in maps.items()}
    labels = ring.degree_labels(2)
    a_dr, b_dr = (
        [sum((v * ring.ident[x].get(out, 0) for x, v in zip(labels, vec)), Fraction(0))
         for out in ring.dr_basis[2]]
        for vec in (a, b)
    )
    total = {}
    for deg in range(5):
        ma, mb = rational_dr(ring, deg, a_dr), rational_dr(ring, deg, b_dr)
        total[deg, 1] = exact_rank([ra + rb for ra, rb in zip(ma, mb)]) if ma else 0
        total[deg, 2] = exact_rank(mb + ma) if ma else 0
    return {
        "cells": {key: value for key, value in checked.items() if type(key) is tuple},
        "f": checked["f"],
        "aggregate": checked["aggregate"],
        "d": exact_rank([a_dr, b_dr]),
        "total": total,
    }


RATIONALS = st.sampled_from([0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
# at t = s = 0 and at t = s = 1 the conjugate part vanishes, so sample ranks
# often drop at both points and only elimination over Z[t, s] gives the rank
SPECIAL_MODE = replace(GENERIC_MODE, sample_points=(
    (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))
))


@st.composite
def class_vectors(draw, ring, synthetic):
    """(a, b) of a class over ring: b has a (0,2) block only when synthetic."""
    head = ring.dim(2, 0) + ring.dim(1, 1)

    def vec(with_02):
        tail = [draw(RATIONALS) if with_02 else 0 for _ in range(ring.dim(0, 2))]
        return [draw(RATIONALS) for _ in range(head)] + tail

    return vec(False), vec(synthetic)


@st.composite
def rational_classes(draw):
    ring = load_preset(draw(st.sampled_from(PRESET_NAMES)))
    mode = draw(st.sampled_from(MODES + (SPECIAL_MODE,)))
    synthetic = draw(st.booleans())
    return (ring, mode, synthetic, *draw(class_vectors(ring, synthetic)))


@settings(max_examples=80, deadline=None)
@given(rational_classes())
# the torus4 class special at tau = i: its gaussian ranks see the ratio of a to b
@example((load_preset("torus4"), GAUSSIAN_MODE, False,
          [0, Fraction(1, 2), 0, 0, 2, 0], [2, 0, -1, 1, 0, 0]))
def test_integer_ranks_match_a_rational_reference(drawn):
    ring, mode, synthetic, a, b = drawn
    eta = (synthetic_eta if synthetic else char_to_eta)(ring, a, b, mode)
    profile = structure_maps(eta)
    expected = rational_reference(ring, a, b, mode)
    assert eta.cells == expected["cells"]
    assert profile.f == expected["f"][0]
    assert profile.h_aggregate == expected["aggregate"][0]
    # the flags of f and the aggregate, which are no page cell
    assert [flag for flag in profile.flags if flag.startswith(("f map", "degree-1"))] == [
        f"{tag}: {why}" for tag, key in (("f map", "f"), ("degree-1 combined map", "aggregate"))
        for why in expected[key][1]
    ]
    assert profile.d == expected["d"]
    assert eta.total.rank == expected["total"]


@pytest.mark.parametrize("synthetic", [False, True], ids=["plain", "synthetic"])
@pytest.mark.parametrize("name", PRESET_NAMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_both_modes_build_one_page(name, synthetic, data):
    # the page holds integer triples whatever the mode; only its ranks differ
    ring = load_preset(name)
    a, b = data.draw(class_vectors(ring, synthetic))
    build = synthetic_eta if synthetic else char_to_eta
    generic = build(ring, a, b, GENERIC_MODE)
    gaussian = build(ring, a, b, GAUSSIAN_MODE)
    assert generic.blocks == gaussian.blocks
    assert all(
        type(part) is int
        for block in generic.blocks.values() for row in block for entry in row for part in entry
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structure_maps_assembles_the_flags_full_invariants_reports(data):
    # page cells, then the connecting maps, then h-selection-unrealized, once
    ring = load_preset(data.draw(st.sampled_from(PRESET_NAMES)))
    mode = data.draw(st.sampled_from(MODES + (DEGENERATE_MODE, SPECIAL_MODE)))
    synthetic = data.draw(st.booleans())
    a, b = data.draw(class_vectors(ring, synthetic))
    eta = (synthetic_eta if synthetic else char_to_eta)(ring, a, b, mode)
    result = full_invariants(ring, a, b, mode, synthetic)
    assert structure_maps(eta).flags == result.profile.flags
    assert borel_hodge(eta) == result.diamond


TORUS4_AT_I = ([0, Fraction(1, 2), 0, 0, 2, 0], [2, 0, -1, 1, 0, 0])


def test_gaussian_mode_flags_the_ranks_tau_i_drops():
    # both tables are right; the gaussian one now says which maps lose rank at tau = i
    ring = load_preset("torus4")
    gaussian = full_invariants(ring, *TORUS4_AT_I, GAUSSIAN_MODE)
    generic = full_invariants(ring, *TORUS4_AT_I, GENERIC_MODE)
    assert gaussian.diamond.rows_by_total()[2:5] == [[3, 6, 2], [1, 6, 6, 1], [2, 6, 3]]
    assert generic.diamond.rows_by_total()[2:5] == [[3, 5, 1], [1, 4, 4, 1], [1, 5, 3]]
    assert generic.profile.flags == ()
    lost = [
        *(f"page cell {cell}: generic rank 2" for cell in ("(1,1,1)", "(1,2,2)", "(2,0,1)", "(2,1,2)")),
        "combined map at (0,1): generic rank 2",
        "combined map at (1,0): generic rank 2",
        "degree-1 combined map: generic rank 4",
    ]
    assert gaussian.profile.flags == (
        *(f"{head} not reproduced at tau = i" for head in lost), "h-selection-unrealized"
    )


def lost_a_rank(result) -> bool:
    return any("not reproduced" in flag for flag in result.profile.flags)


@st.composite
def preset_classes(draw):
    ring = load_preset(draw(st.sampled_from(PRESET_NAMES)))
    synthetic = draw(st.booleans())
    return (ring, synthetic, *draw(class_vectors(ring, synthetic)))


@settings(max_examples=80, deadline=None)
@given(preset_classes())
@example((load_preset("torus4"), False, *TORUS4_AT_I))
def test_modes_agree_unless_one_flags_a_lost_rank(drawn):
    ring, synthetic, a, b = drawn
    generic = full_invariants(ring, a, b, GENERIC_MODE, synthetic)
    gaussian = full_invariants(ring, a, b, GAUSSIAN_MODE, synthetic)
    if lost_a_rank(generic) or lost_a_rank(gaussian):
        return
    assert generic.diamond == gaussian.diamond
    assert generic.betti == gaussian.betti
    ranks = [(p.e, p.g, p.d, p.dprime, p.h_rank, p.f) for p in (generic.profile, gaussian.profile)]
    assert ranks[0] == ranks[1]


def scaled_kodaira(products, dr_products, ident) -> dict:
    """The kodaira document with each of three tables times its own rational."""
    doc = json.loads(resources.files("ellfib.cohomology").joinpath("presets/kodaira.json").read_text())

    def scale(table, c):
        return {x: {z: str(Fraction(v) * c) for z, v in vec.items()} for x, vec in table.items()}

    doc["products"] = {x: scale(per, products) for x, per in doc["products"].items()}
    doc["derham"]["products"] = {x: scale(per, dr_products) for x, per in doc["derham"]["products"].items()}
    doc["ident"] = scale(doc["ident"], ident)
    return doc


def test_fractional_tables_give_the_preset_results(monkeypatch):
    lcms, real_lcm = [], ring_module.lcm

    def counted(*args):
        lcms.append(args)
        return real_lcm(*args)

    monkeypatch.setattr(ring_module, "lcm", counted)
    for name in PRESET_NAMES:
        text = resources.files("ellfib.cohomology").joinpath(f"presets/{name}.json").read_text()
        BigradedRing(json.loads(text))
    assert lcms == []  # an integral table is copied as it is
    scaled = BigradedRing(scaled_kodaira(Fraction(3, 2), Fraction(1, 6), Fraction(5, 4)))
    assert len(lcms) == 3  # one per scaled table
    preset = load_preset("kodaira")
    classes = [
        (kodaira_vec(), kodaira_vec(), False),
        (kodaira_vec(A=1), kodaira_vec(B=1), False),
        (kodaira_vec(n1=Fraction(1, 3), A=2), kodaira_vec(B=Fraction(-1, 2)), False),
        (kodaira_vec(B=1), kodaira_vec(FF=Fraction(2, 5)), True),
    ]
    for a, b, synthetic in classes:
        for mode in MODES:
            assert full_invariants(scaled, a, b, mode, synthetic) == (
                full_invariants(preset, a, b, mode, synthetic)
            ), (a, b, mode.name)


def test_full_invariants_ranks_nothing_over_the_rationals(monkeypatch):
    # every matrix engine and fields rank, generic ranks included, holds ints
    domains, entry_types, calls = [], set(), Counter()

    def recorded(module):
        def rank(matrix, dom=FRACTION_DOMAIN):
            calls[module] += 1
            domains.append(dom)
            entry_types.update(type(x) for row in matrix for x in row)
            return exact_rank(matrix, dom)

        return rank

    for module in (engine, fields):
        monkeypatch.setattr(module, "exact_rank", recorded(module.__name__))
    for name in PRESET_NAMES:
        ring = load_preset(name)
        n = ring.dim(2, 0) + ring.dim(1, 1) + ring.dim(0, 2)
        a = [Fraction(1, 2)] + [0] * (n - 1)
        b = [0] * (n - 1) + [Fraction(-3, 7)]
        # SPECIAL_MODE's sample points drop ranks, so generic_rank runs too
        for mode in MODES + (SPECIAL_MODE,):
            full_invariants(ring, a, b, mode, synthetic=True)
    assert calls[engine.__name__] and calls[fields.__name__]
    assert FRACTION_DOMAIN not in domains
    assert entry_types == {int}
