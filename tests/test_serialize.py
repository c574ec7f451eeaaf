"""Strict JSON schemas: parse/emit round trips and malformed payloads."""

import json
import random
from fractions import Fraction

import pytest

from ellfib.bundles import make_bundle
from ellfib.errors import BudgetExceeded, SchemaError
from ellfib.fibration import GerbeData, Nerve, TranslationCocycle
from ellfib.serialize import (
    bundle_json,
    canonical_json,
    chart_sample_key,
    cocycle_json,
    cocycle_report_json,
    cycle_json,
    divisor_json,
    family_json,
    fraction_json,
    gamma_json,
    gerbe_json,
    gerbe_report_json,
    glued_json,
    mu_json,
    nerve_json,
    parse_bundle,
    parse_chart_sample_map,
    parse_cocycle,
    parse_cycle,
    parse_divisor,
    parse_family,
    parse_fraction,
    parse_gerbe,
    parse_int,
    parse_nerve,
    parse_point,
    parse_section_doc,
    parse_skyscraper,
    point_json,
    roundtrip_report_json,
    section_doc_json,
    skyscraper_json,
)
from ellfib.spectral import BundleFamily, make_cycle, round_trip_verify
from ellfib.fibration import check_cocycle, gerbe_alpha
from ellfib.torus import ORIGIN, TorusPoint, make_divisor
from ellfib.transform import PSI_BLOCK_BUDGET, make_skyscraper


def rand_fraction(rng, den=12, span=3):
    d = rng.randint(1, den)
    return Fraction(rng.randint(-span * d, span * d), d)


def rand_point(rng):
    return TorusPoint(rand_fraction(rng), rand_fraction(rng))


def rand_divisor(rng):
    return make_divisor(
        [(rand_point(rng), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
    )


def rand_bundle(rng, rank=None):
    if rank is None:
        blocks = [
            (rng.randint(1, 3), rand_point(rng)) for _ in range(rng.randint(1, 4))
        ]
    else:
        blocks, left = [], rank
        while left > 0:
            n = rng.randint(1, left)
            blocks.append((n, rand_point(rng)))
            left -= n
    return make_bundle(blocks)


def rand_skyscraper(rng):
    parts = [(rand_point(rng), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    return make_skyscraper(parts, rng.choice((0, 1)))


def rand_cycle(rng):
    return make_cycle(
        [(rand_point(rng), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    )


def rand_nerve(rng):
    k = rng.randint(1, 4)
    charts = [f"c{i}" for i in range(1, k + 1)]
    pool = [f"s{i}" for i in range(1, rng.randint(1, 3) + 1)]
    core = pool[0]

    def some(base):
        return sorted({core} | {s for s in base if rng.random() < 0.5})

    overlaps = [
        (a, b)
        for idx, a in enumerate(charts)
        for b in charts[idx + 1 :]
        if rng.random() < 0.8
    ]
    present = set(overlaps)
    triples = []
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                tri = (charts[i], charts[j], charts[l])
                pairs = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
                if all(p in present for p in pairs) and rng.random() < 0.7:
                    triples.append(tri)
    chart_samples = {c: list(pool) for c in charts}
    overlap_samples = {pair: some(pool) for pair in overlaps}
    triple_samples = {}
    for tri in triples:
        pairs = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
        inter = set(pool)
        for p in pairs:
            inter &= set(overlap_samples[p])
        triple_samples[tri] = some(inter)
    return Nerve(
        charts, overlaps, triples, chart_samples, overlap_samples, triple_samples
    )


def rand_cocycle(rng, nerve):
    table = {}
    for pair in nerve.overlaps:
        table[pair] = {
            s: rand_point(rng) for s in nerve.overlap_samples(*pair)
        }
    return TranslationCocycle(table)


def rand_scalar(rng):
    return Fraction(2) ** rng.randint(-1, 1) * Fraction(3) ** rng.randint(-1, 1)


def rand_gerbe(rng, nerve):
    a = {pair: rand_scalar(rng) for pair in nerve.overlaps}
    c = {tri: rand_scalar(rng) for tri in nerve.triples}
    descriptors = None
    if nerve.overlaps and rng.random() < 0.4:
        pair = nerve.overlaps[0]
        descriptors = {pair: {pair: rng.choice((1, 2, -1))}}
    return GerbeData(nerve, a, c, descriptors)


def rand_family(rng):
    nerve = rand_nerve(rng)
    rank = rng.randint(1, 3)
    data = {
        (c, s): rand_bundle(rng, rank)
        for c in nerve.charts
        for s in nerve.chart_samples(c)
    }
    return BundleFamily(nerve, rand_cocycle(rng, nerve), data, rank)


def gerbes_equal(x, y):
    return (
        x.nerve == y.nerve
        and x.a == y.a
        and x.c == y.c
        and x.descriptors == y.descriptors
    )


def families_equal(x, y):
    return (
        x.base == y.base
        and x.cocycle == y.cocycle
        and x.data == y.data
        and x.rank == y.rank
    )


# -- canonical emission ----------------------------------------------------


def test_canonical_json_bytes():
    assert canonical_json({"b": 1, "a": "x"}) == '{\n  "a": "x",\n  "b": 1\n}\n'
    assert canonical_json({"a": "x", "b": 1}) == canonical_json({"b": 1, "a": "x"})


def test_fraction_strings_are_lowest_terms():
    assert parse_fraction("2/4") == Fraction(1, 2)
    assert fraction_json(Fraction(2, 4)) == "1/2"
    assert fraction_json(Fraction(-3)) == "-3"
    assert parse_fraction(2) == Fraction(2)


@pytest.mark.parametrize(
    "bad",
    [1.5, True, False, "1/0", "x", None, [1], "1e3", pytest.param("1.5", id="decimal"),
     " 2", "1e10000000", "1/-2"],
)
def test_fraction_rejects_non_rationals(bad):
    with pytest.raises(SchemaError):
        parse_fraction(bad)


@pytest.mark.parametrize("bad", [True, False, 1.0, "2", None])
def test_parse_int_rejects_non_integers(bad):
    with pytest.raises(SchemaError):
        parse_int(bad, "n")


# -- per-type round trips --------------------------------------------------


def test_handcrafted_round_trips():
    p = TorusPoint(Fraction(1, 3), Fraction(-2, 7))
    assert parse_point(point_json(p)) == p
    d = make_divisor([(p, 2), (ORIGIN, -2)])
    assert parse_divisor(divisor_json(d)) == d
    b = make_bundle([(2, p), (1, ORIGIN)])
    assert parse_bundle(bundle_json(b)) == b
    s = make_skyscraper([(p, 2)], 1)
    assert parse_skyscraper(skyscraper_json(s)) == s
    c = make_cycle([(p, 1), (ORIGIN, 3)])
    assert parse_cycle(cycle_json(c)) == c


@pytest.mark.parametrize("seed", range(6))
def test_random_value_round_trips(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        p = rand_point(rng)
        assert parse_point(point_json(p)) == p
        d = rand_divisor(rng)
        assert parse_divisor(divisor_json(d)) == d
        b = rand_bundle(rng)
        assert parse_bundle(bundle_json(b)) == b
        s = rand_skyscraper(rng)
        assert parse_skyscraper(skyscraper_json(s)) == s
        c = rand_cycle(rng)
        assert parse_cycle(cycle_json(c)) == c


@pytest.mark.parametrize("seed", range(6))
def test_random_structure_round_trips(seed):
    rng = random.Random(200 + seed)
    for _ in range(10):
        nerve = rand_nerve(rng)
        assert parse_nerve(nerve_json(nerve)) == nerve
        cocycle = rand_cocycle(rng, nerve)
        assert parse_cocycle(cocycle_json(cocycle)) == cocycle
        gerbe = rand_gerbe(rng, nerve)
        assert gerbes_equal(parse_gerbe(gerbe_json(gerbe), nerve), gerbe)
        family = rand_family(rng)
        assert families_equal(parse_family(family_json(family)), family)


@pytest.mark.parametrize("seed", range(4))
def test_section_doc_round_trip(seed):
    rng = random.Random(300 + seed)
    nerve = Nerve.single_chart("c", ("s1", "s2"))
    section = {s: rand_cycle(rng) for s in ("s1", "s2")}
    n = max(c.total() for c in section.values())
    back = parse_section_doc(section_doc_json(nerve, section, n))
    assert back == (nerve, section, n)


def test_emitted_payloads_survive_json_text():
    # the canonical text layer itself must not lose anything
    rng = random.Random(7)
    family = rand_family(rng)
    text = canonical_json(family_json(family))
    assert families_equal(parse_family(json.loads(text)), family)
    assert canonical_json(family_json(parse_family(json.loads(text)))) == text


def test_gerbe_emit_strips_default_descriptors():
    nerve = Nerve(
        ["c1", "c2"],
        [("c1", "c2")],
        chart_samples={"c1": ["s"], "c2": ["s"]},
        overlap_samples={("c1", "c2"): ["s"]},
    )
    plain = GerbeData(nerve, {("c1", "c2"): Fraction(2)}, {})
    assert "descriptors" not in gerbe_json(plain)
    fancy = GerbeData(
        nerve, {("c1", "c2"): Fraction(2)}, {}, {("c1", "c2"): {("c1", "c2"): 2}}
    )
    payload = gerbe_json(fancy)
    assert payload["descriptors"] == {"c1,c2": {"c1,c2": 2}}
    assert gerbes_equal(parse_gerbe(payload, nerve), fancy)


# -- malformed payloads ----------------------------------------------------


def _bad_cases():
    nerve_payload = nerve_json(Nerve.single_chart())
    yield parse_point, {"u": "1/2"}
    yield parse_point, {"u": "1/2", "v": "0", "w": "0"}
    yield parse_point, {"u": 0.5, "v": "0"}
    yield parse_point, ["1/2", "0"]
    yield parse_divisor, {"terms": []}
    yield parse_divisor, [{"point": {"u": "0", "v": "0"}}]
    yield parse_bundle, {"blocks": {}}
    yield parse_bundle, {"blocks": [{"n": True, "x": {"u": "0", "v": "0"}}]}
    yield parse_skyscraper, {"parts": []}
    yield parse_cycle, {"parts": [{"p": {"u": "0", "v": "0"}}]}
    yield parse_nerve, {"charts": "c1", "samples": {"charts": {}}}
    yield parse_nerve, {"charts": ["c1"], "samples": {}}
    yield parse_nerve, {
        "charts": ["c1"],
        "samples": {"charts": {"c1": ["s"]}, "overlaps": {"c1": ["s"]}},
    }
    yield parse_cocycle, {}
    yield parse_cocycle, {"lambda": []}
    yield parse_cocycle, {"lambda": {"c1": {"s": {"u": "0", "v": "0"}}}}
    yield parse_cocycle, {"lambda": {"c1,c2": ["s"]}}
    yield parse_family, {"nerve": nerve_payload}
    yield parse_section_doc, {"nerve": nerve_payload, "section": [], "n": 1}
    yield parse_section_doc, {"nerve": nerve_payload, "section": {}, "n": "1"}


@pytest.mark.parametrize("parser,payload", list(_bad_cases()))
def test_malformed_payloads_raise_schema_error(parser, payload):
    with pytest.raises(SchemaError):
        parser(payload)


def test_block_budget_edge_at_the_document_boundary():
    origin = {"u": "0", "v": "0"}
    nerve_payload = nerve_json(Nerve.single_chart())

    def sky(blocks):
        return {"parts": [{"p": origin, "len": blocks}], "degree": 0}

    def section_doc(blocks):
        section = {"s": {"parts": [{"p": origin, "m": blocks}]}}
        return {"nerve": nerve_payload, "section": section, "n": blocks}

    assert parse_skyscraper(sky(PSI_BLOCK_BUDGET)).total() == PSI_BLOCK_BUDGET
    assert parse_section_doc(section_doc(PSI_BLOCK_BUDGET))[2] == PSI_BLOCK_BUDGET
    with pytest.raises(BudgetExceeded):
        parse_skyscraper(sky(PSI_BLOCK_BUDGET + 1))
    with pytest.raises(BudgetExceeded):
        parse_section_doc(section_doc(PSI_BLOCK_BUDGET + 1))


def test_gerbe_parser_rejects_unknown_keys_and_bad_descriptors():
    nerve = Nerve.single_chart()
    with pytest.raises(SchemaError):
        parse_gerbe({"alpha": {}}, nerve)
    with pytest.raises(SchemaError):
        parse_gerbe({"descriptors": {"c1,c2": [1]}}, nerve)
    with pytest.raises(SchemaError):
        parse_gerbe({"descriptors": {"c1,c2": {"c1,c2": True}}}, nerve)


def test_chart_sample_map_key_shapes():
    parsed = parse_chart_sample_map(
        {"c1/s": {"u": "0", "v": "0"}}, "data", parse_point
    )
    assert parsed == {("c1", "s"): ORIGIN}
    for bad_key in ("c1", "c1/s/x", "/s", "c1/"):
        with pytest.raises(SchemaError):
            parse_chart_sample_map({bad_key: {"u": "0", "v": "0"}}, "data", parse_point)
    with pytest.raises(SchemaError):
        parse_chart_sample_map([], "data", parse_point)
    assert chart_sample_key("c1", "s") == "c1/s"


# -- report emitters -------------------------------------------------------


def test_mu_and_glued_shapes():
    assert mu_json(None) == {"solvable": False, "mu": None}
    assert mu_json({("c1", "s"): ORIGIN}) == {
        "solvable": True,
        "mu": {"c1/s": {"u": "0", "v": "0"}},
    }
    assert glued_json({"s": TorusPoint(Fraction(1, 2), 0)}) == {
        "glued": {"s": {"u": "1/2", "v": "0"}}
    }


def test_gamma_json_shape():
    assert gamma_json({}) == {"n": 0, "section": {}}
    cycles = {("c1", "s"): make_cycle([(ORIGIN, 2)])}
    payload = gamma_json(cycles)
    assert payload["n"] == 2
    assert list(payload["section"]) == ["c1/s"]


def test_report_emitters_shapes():
    nerve = Nerve(
        ["c1", "c2"],
        [("c1", "c2")],
        chart_samples={"c1": ["s"], "c2": ["s"]},
        overlap_samples={("c1", "c2"): ["s"]},
    )
    cocycle = TranslationCocycle({("c1", "c2"): {"s": ORIGIN}})
    payload = cocycle_report_json(check_cocycle(nerve, cocycle))
    assert payload == {"ok": True, "violations": []}

    report = gerbe_alpha(nerve, GerbeData(nerve, {("c1", "c2"): Fraction(3, 2)}, {}))
    payload = gerbe_report_json(report)
    assert payload["cocycle_ok"] and payload["gluable"]
    assert payload["alpha"] == {}
    assert payload["tetrahedra"] == {}
    # no triple constrains the overlap, so the witness is 1 there
    assert payload["witness"] == {"c1,c2": "1"}

    payload = roundtrip_report_json(round_trip_verify(Nerve.single_chart(), 1, 1))
    assert payload["ok"] and payload["bijective"]
    assert payload["failures"] == []
    assert payload["sections_checked"] >= 1
