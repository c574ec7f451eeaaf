"""Tests of the benchmark's seeded generators (standard library only)."""

import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402

KODAIRA = (
    Path(__file__).resolve().parents[2] / "src/ellfib/cohomology/presets/kodaira.json"
).read_text()


def brute_force_counts(n, torsion):
    """Sections and bundles counted by listing them."""
    points = [(p, q) for p in range(torsion) for q in range(torsion)]
    sections = sum(1 for _ in combinations_with_replacement(points, n))
    blocks = [(rank, pt) for rank in range(1, n + 1) for pt in points]
    bundles = 0
    for size in range(1, n + 1):
        for combo in combinations_with_replacement(blocks, size):
            bundles += sum(rank for rank, _ in combo) == n
    return sections, bundles


def test_closed_forms_reproduce_pinned_counts():
    assert (gen.section_count(2, 3), gen.bundle_count(2, 3)) == (45, 54)
    assert (gen.section_count(3, 6), gen.bundle_count(3, 6)) == (8436, 9768)


def test_closed_forms_match_enumeration():
    for n in (1, 2, 3):
        for torsion in (1, 2, 3):
            expected = brute_force_counts(n, torsion)
            assert (gen.section_count(n, torsion), gen.bundle_count(n, torsion)) == expected


def inputs(seed):
    return {
        "moduli": gen.moduli_inputs(),
        "gerbe": gen.gerbe_inputs(seed),
        "invariants": gen.invariants_inputs(seed),
        "cli": gen.cli_inputs(seed, KODAIRA),
    }


def ops(units):
    return [op for unit in units for op in unit]


def test_same_seed_gives_identical_inputs_and_other_seeds_differ():
    first, again, other = inputs(7), inputs(7), inputs(8)
    for name in first:
        assert gen.inputs_digest(first[name]) == gen.inputs_digest(again[name]), name
        if name != "moduli":  # the moduli cases are fixed; the seed orders the passes
            assert gen.inputs_digest(first[name]) != gen.inputs_digest(other[name]), name


def test_composition_does_not_depend_on_the_seed():
    def shape(seed):
        p = inputs(seed)
        return (
            sorted((op["n"], op["torsion"], op["samples"]) for op in ops(p["moduli"])),
            Counter((op["kind"], len(op["doc"]["nerve"]["charts"])) for op in ops(p["gerbe"])),
            Counter((op["kind"], op.get("preset")) for op in ops(p["invariants"])),
            sorted(op["verb"] for op in ops(p["cli"])),
        )

    assert shape(1) == shape(2)


def test_pass_order_shuffles_whole_units():
    units = gen.invariants_inputs(3)
    first, second = gen.pass_order(3, 0, units), gen.pass_order(3, 1, units)
    assert first != second and sorted(map(id, first)) == sorted(map(id, units))
    assert gen.pass_order(3, 0, units) == first


def test_moduli_inputs_hold_both_anchors_and_no_oversized_case():
    units = gen.moduli_inputs()
    cases = Counter((op["n"], op["torsion"], op["samples"]) for op in ops(units))
    assert cases.pop((3, 6, 1)) == cases.pop((4, 4, 1)) == 1 and units[0][0]["fixed"]
    assert set(cases.values()) == {2}
    for n, torsion, samples in cases:
        assert 1 <= n <= 4 and 2 <= torsion <= 6 and samples in (1, 4)
        objects = gen.section_count(n, torsion) + gen.bundle_count(n, torsion)
        assert objects * samples <= gen.MODULI_WORK_CAP


def test_grid_complexes_have_the_expected_topology():
    for k in range(3, 8):
        charts, edges, triangles = gen.grid_complex(k, periodic=False)
        assert len(charts) == k * k and len(triangles) == 2 * (k - 1) ** 2
        assert len(charts) - len(edges) + len(triangles) == 1  # a disc
        charts, edges, triangles = gen.grid_complex(k, periodic=True)
        assert len(triangles) == 2 * k * k and len(edges) == 3 * k * k
        assert len(charts) - len(edges) + len(triangles) == 0  # a torus
    charts, edges, triangles = gen.complete_complex(6)
    assert (len(charts), len(edges), len(triangles)) == (6, 15, 20)


def test_primes_and_semiprimes():
    import random

    small = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if gen.is_probable_prime(n)] == small
    assert not gen.is_probable_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    n = gen.semiprime(random.Random(0))
    assert 19 <= len(str(n)) <= 20


def test_cocycle_and_gerbe_documents_are_well_formed():
    import random

    rng = random.Random(4)
    doc, expect = gen.cocycle_doc(rng, 3, True, 2, True)
    assert expect == {"solvable": False}
    assert set(doc["cocycle"]["lambda"]) == {",".join(e) for e in doc["nerve"]["overlaps"]}
    doc, expect = gen.gerbe_doc(rng, "periodic", 3, True, False)
    assert expect == {"gluable": False, "cocycle_ok": True}
    doc, expect = gen.gerbe_doc(rng, "planar", 3, True, True)
    assert expect == {"gluable": True, "cocycle_ok": True}
    assert any(len(str(abs(int(v.split("/")[0])))) >= 19 for v in doc["gerbe"]["a"].values())


def test_cli_inputs_cover_every_verb_with_an_expected_exit_code():
    pool = [op for op in ops(gen.cli_inputs(5, KODAIRA)) if not op.get("fixed")]
    assert sorted(op["verb"] for op in pool) == sorted(gen.CLI_VERBS)
    broken = {op["verb"] for seed in (0, 1) for op in ops(gen.cli_inputs(seed, KODAIRA))
              if op["expect"]["code"] == 1}
    assert broken == set(gen.CLI_BROKEN[0] + gen.CLI_BROKEN[1])
