"""Nerve validation, translation cocycles, gluing, and gerbe obstructions."""

import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellfib import fibration
from ellfib.bundles import make_bundle
from ellfib.errors import (
    IncompatibleFamily,
    InvalidGerbe,
    MissingSample,
    SchemaError,
    WitnessMismatch,
)
from ellfib.fibration import (
    GerbeData,
    Nerve,
    TranslationCocycle,
    check_cocycle,
    classify_line_family,
    coboundary_solve,
    gerbe_alpha,
    overlap_key,
    triple_key,
    validate_gerbe,
)
from ellfib.linalg import solve_integer
from ellfib.serialize import nerve_json, parse_nerve
from ellfib.spectral import BundleFamily
from ellfib.torus import ORIGIN, TorusPoint

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py: grid nerve shapes, read only)


def pt(u, v=0) -> TorusPoint:
    return TorusPoint(Fraction(u), Fraction(v))


def cycle_nerve(samples=("s",)) -> Nerve:
    charts = ["c1", "c2", "c3"]
    pairs = [("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
    return Nerve(
        charts,
        pairs,
        [("c1", "c2", "c3")],
        chart_samples={c: samples for c in charts},
        overlap_samples={p: samples for p in pairs},
        triple_samples={("c1", "c2", "c3"): samples},
    )


def one_sample_nerve(charts, pairs, tris) -> Nerve:
    return Nerve(
        charts,
        pairs,
        tris,
        chart_samples={c: ["s"] for c in charts},
        overlap_samples={p: ["s"] for p in pairs},
        triple_samples={t: ["s"] for t in tris},
    )


def complete_nerve(charts) -> Nerve:
    pairs, tris = (list(itertools.combinations(charts, r)) for r in (2, 3))
    return one_sample_nerve(charts, pairs, tris)


def tetra_nerve() -> Nerve:
    return complete_nerve(["c1", "c2", "c3", "c4"])


def grid_nerve(k: int, periodic: bool) -> Nerve:
    """Triangulated k x k grid: a disc, or a torus when periodic."""
    return one_sample_nerve(*gen.grid_complex(k, periodic))


# -- nerve validation ------------------------------------------------------


def test_keys_canonicalize_and_reject_repeats():
    assert overlap_key("b", "a") == ("a", "b")
    assert triple_key("c", "a", "b") == ("a", "b", "c")
    with pytest.raises(SchemaError):
        overlap_key("a", "a")
    with pytest.raises(SchemaError):
        triple_key("a", "b", "a")


def test_labels_may_not_contain_separators():
    with pytest.raises(SchemaError):
        Nerve(["a,b"], chart_samples={"a,b": ["s"]})
    with pytest.raises(SchemaError):
        Nerve(["c"], chart_samples={"c": ["x/y"]})
    with pytest.raises(SchemaError):
        Nerve([""], chart_samples={"": ["s"]})


def test_nerve_rejects_structural_defects():
    with pytest.raises(SchemaError):
        Nerve([], chart_samples={})
    with pytest.raises(SchemaError):
        Nerve(["c", "c"], chart_samples={"c": ["s"]})
    with pytest.raises(SchemaError):
        Nerve(["a"], overlaps=[("a", "z")], chart_samples={"a": ["s"]})
    # a triple needs all three of its overlaps
    with pytest.raises(SchemaError):
        Nerve(
            ["a", "b", "c"],
            overlaps=[("a", "b"), ("b", "c")],
            triples=[("a", "b", "c")],
            chart_samples={c: ["s"] for c in "abc"},
            overlap_samples={("a", "b"): ["s"], ("b", "c"): ["s"]},
        )


def test_nerve_requires_nested_sample_sets():
    with pytest.raises(SchemaError):
        Nerve(["a"], chart_samples={"a": []})
    with pytest.raises(SchemaError):
        Nerve(["a"], chart_samples={"a": ["s", "s"]})
    with pytest.raises(SchemaError):
        Nerve(["a"], chart_samples={"a": ["s"], "zz": ["s"]})
    # overlap sample missing from one chart's sample set
    with pytest.raises(SchemaError):
        Nerve(
            ["a", "b"],
            overlaps=[("a", "b")],
            chart_samples={"a": ["s"], "b": ["t"]},
            overlap_samples={("a", "b"): ["s"]},
        )
    # triple sample missing from an overlap sample set
    with pytest.raises(SchemaError):
        Nerve(
            ["a", "b", "c"],
            overlaps=[("a", "b"), ("a", "c"), ("b", "c")],
            triples=[("a", "b", "c")],
            chart_samples={c: ["s", "t"] for c in "abc"},
            overlap_samples={
                ("a", "b"): ["s", "t"],
                ("a", "c"): ["s", "t"],
                ("b", "c"): ["s"],
            },
            triple_samples={("a", "b", "c"): ["t"]},
        )


def test_sample_keys_may_list_their_charts_in_any_order():
    sorted_keys = cycle_nerve(("s", "t"))
    shuffled = Nerve(
        ["c3", "c1", "c2"],
        [("c2", "c1"), ("c3", "c1"), ("c3", "c2")],
        [("c3", "c1", "c2")],
        chart_samples={c: ("t", "s") for c in ("c1", "c2", "c3")},
        overlap_samples={
            ("c2", "c1"): ("s", "t"),
            ("c1", "c3"): ("t", "s"),
            ("c3", "c2"): ("s", "t"),
        },
        triple_samples={("c2", "c3", "c1"): ("s", "t")},
    )
    assert shuffled == sorted_keys
    assert nerve_json(shuffled) == nerve_json(sorted_keys)
    # "c10" sorts before "c2", so a document may well list the pair the other way
    doc = {
        "charts": ["c2", "c10"],
        "overlaps": [["c2", "c10"]],
        "samples": {"charts": {"c2": ["s"], "c10": ["s"]}, "overlaps": {"c2,c10": ["s"]}},
    }
    assert nerve_json(parse_nerve(doc))["samples"]["overlaps"] == {"c10,c2": ["s"]}


def test_sample_key_given_in_two_orders_is_refused():
    charts, pairs, tris = ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")], [("a", "b", "c")]
    samples = {c: ["s"] for c in charts}
    overlap_samples = {p: ["s"] for p in pairs}
    with pytest.raises(SchemaError, match=re.escape("overlap ('a', 'b') given in two orders")):
        Nerve(charts, pairs, tris, samples, {**overlap_samples, ("b", "a"): ["s"]},
              {("a", "b", "c"): ["s"]})
    with pytest.raises(SchemaError, match=re.escape("triple ('a', 'b', 'c') given in two orders")):
        Nerve(charts, pairs, tris, samples, overlap_samples,
              {("a", "b", "c"): ["s"], ("c", "a", "b"): ["s"]})
    # the document schema reaches the same refusal through its "i,j" keys
    doc = nerve_json(Nerve(charts, pairs, tris, samples, overlap_samples, {("a", "b", "c"): ["s"]}))
    doc["samples"]["overlaps"]["b,a"] = ["s"]
    with pytest.raises(SchemaError, match=re.escape("overlap ('a', 'b') given in two orders")):
        parse_nerve(doc)
    del doc["samples"]["overlaps"]["a,b"]
    assert parse_nerve(doc).overlap_samples("a", "b") == ("s",)
    # a key that is not a tuple of the charts names no overlap
    with pytest.raises(SchemaError, match=re.escape("missing samples for overlap ('a', 'b')")):
        Nerve(["a", "b"], [("a", "b")], (), {"a": ["s"], "b": ["s"]}, {"ba": ["s"]})


def test_nerve_sorts_and_answers_queries():
    n = cycle_nerve(("t", "s"))
    assert n.charts == ("c1", "c2", "c3")
    assert n.overlaps == (("c1", "c2"), ("c1", "c3"), ("c2", "c3"))
    assert n.chart_samples("c2") == ("s", "t")
    assert n.overlap_samples("c3", "c1") == ("s", "t")
    assert n.triple_samples("c3", "c2", "c1") == ("s", "t")
    with pytest.raises(SchemaError):
        n.chart_samples("zz")


def test_single_chart_constructor():
    n = Nerve.single_chart("c", ("a", "b"))
    assert n.charts == ("c",)
    assert n.overlaps == ()
    assert n.chart_samples("c") == ("a", "b")


def test_tetrahedra_enumeration():
    assert cycle_nerve().tetrahedra() == ()
    assert tetra_nerve().tetrahedra() == ((("c1", "c2", "c3", "c4"),))[0:1]


def brute_force_tetrahedra(nerve: Nerve):
    present = set(nerve.triples)
    return tuple(
        quad
        for quad in itertools.combinations(nerve.charts, 4)
        if all(face in present for face in itertools.combinations(quad, 3))
    )


def test_tetrahedra_match_brute_force_on_random_nerves():
    rng = random.Random(47)
    for _ in range(200):
        charts = [f"c{i}" for i in range(rng.randint(1, 7))]
        pairs = [p for p in itertools.combinations(charts, 2) if rng.random() < 0.8]
        present = set(pairs)
        tris = [
            t
            for t in itertools.combinations(charts, 3)
            if all(p in present for p in itertools.combinations(t, 2)) and rng.random() < 0.8
        ]
        nerve = one_sample_nerve(charts, pairs, tris)
        assert nerve.tetrahedra() == brute_force_tetrahedra(nerve)


def test_nerve_equality_and_hash():
    assert cycle_nerve() == cycle_nerve()
    assert hash(cycle_nerve()) == hash(cycle_nerve())
    assert cycle_nerve() != tetra_nerve()


# -- translation cocycles --------------------------------------------------


def test_cocycle_antisymmetry_via_storage_and_lookup():
    lam = pt("1/3", "1/7")
    c = TranslationCocycle({("c2", "c1"): {"s": lam}})
    assert c.value("c2", "c1", "s") == lam
    assert c.value("c1", "c2", "s") == -lam


def test_cocycle_rejects_duplicates_and_bad_values():
    with pytest.raises(SchemaError):
        TranslationCocycle(
            {("c1", "c2"): {"s": ORIGIN}, ("c2", "c1"): {"s": ORIGIN}}
        )
    with pytest.raises(SchemaError):
        TranslationCocycle({("c1", "c2"): {"s": "not a point"}})


def test_cocycle_repr_counts_its_overlaps():
    assert repr(TranslationCocycle({})) == "TranslationCocycle(overlaps=0)"


def test_cocycle_missing_sample():
    c = TranslationCocycle({("c1", "c2"): {"s": ORIGIN}})
    with pytest.raises(MissingSample):
        c.value("c1", "c2", "t")
    with pytest.raises(MissingSample):
        c.value("c1", "c3", "s")


def delta_of(nerve: Nerve, mu) -> TranslationCocycle:
    values = {}
    for i, j in nerve.overlaps:
        values[(i, j)] = {
            s: mu[(j, s)] - mu[(i, s)] for s in nerve.overlap_samples(i, j)
        }
    return TranslationCocycle(values)


def random_mu(nerve: Nerve, rng):
    return {
        (c, s): pt(Fraction(rng.randint(-5, 5), 7), Fraction(rng.randint(-5, 5), 9))
        for c in nerve.charts
        for s in nerve.chart_samples(c)
    }


def test_coboundaries_pass_the_cocycle_check():
    rng = random.Random(5)
    for nerve in (cycle_nerve(("s", "t")), tetra_nerve()):
        for _ in range(20):
            report = check_cocycle(nerve, delta_of(nerve, random_mu(nerve, rng)))
            assert report.ok
            assert report.violations == ()


def test_cocycle_check_reports_each_defect():
    nerve = cycle_nerve()
    bad = TranslationCocycle(
        {
            ("c1", "c2"): {"s": pt("1/3")},
            ("c2", "c3"): {"s": ORIGIN},
            ("c1", "c3"): {"s": ORIGIN},
        }
    )
    report = check_cocycle(nerve, bad)
    assert not report.ok
    assert report.violations == ((("c1", "c2", "c3"), "s", pt("1/3")),)


def test_cocycle_check_requires_full_overlap_data():
    nerve = cycle_nerve()
    partial = TranslationCocycle({("c1", "c2"): {"s": ORIGIN}})
    with pytest.raises(MissingSample):
        check_cocycle(nerve, partial)


def test_coboundary_solve_recovers_canonical_normalization():
    rng = random.Random(17)
    nerve = cycle_nerve(("s", "t"))
    for _ in range(20):
        mu = random_mu(nerve, rng)
        solved = coboundary_solve(nerve, delta_of(nerve, mu))
        assert solved is not None
        # same coboundary, anchored at zero on the smallest node of each component
        for (i, j) in nerve.overlaps:
            for s in nerve.overlap_samples(i, j):
                assert solved[(j, s)] - solved[(i, s)] == mu[(j, s)] - mu[(i, s)]
        for s in ("s", "t"):
            assert solved[("c1", s)] == ORIGIN


def test_coboundary_solve_zeroes_every_component_root():
    # two charts with disjoint sample labels and no overlaps: four components
    nerve = Nerve(
        ["a", "b"], chart_samples={"a": ["x", "y"], "b": ["x", "z"]}
    )
    solved = coboundary_solve(nerve, TranslationCocycle({}))
    assert solved == {
        ("a", "x"): ORIGIN,
        ("a", "y"): ORIGIN,
        ("b", "x"): ORIGIN,
        ("b", "z"): ORIGIN,
    }


def test_holonomy_obstruction_returns_none():
    nerve = cycle_nerve()
    lam = TranslationCocycle(
        {
            ("c1", "c2"): {"s": pt("1/3")},
            ("c2", "c3"): {"s": ORIGIN},
            ("c3", "c1"): {"s": ORIGIN},
        }
    )
    assert coboundary_solve(nerve, lam) is None


def test_equal_thirds_cycle_is_a_coboundary():
    nerve = cycle_nerve()
    third = pt("1/3")
    lam = TranslationCocycle(
        {
            ("c1", "c2"): {"s": third},
            ("c2", "c3"): {"s": third},
            ("c3", "c1"): {"s": third},
        }
    )
    assert check_cocycle(nerve, lam).ok
    solved = coboundary_solve(nerve, lam)
    assert solved == {
        ("c1", "s"): ORIGIN,
        ("c2", "s"): pt("1/3"),
        ("c3", "s"): pt("2/3"),
    }


# -- gluing of classifying maps --------------------------------------------


def test_classify_glues_constant_families():
    nerve = cycle_nerve(("s", "t"))
    value = {"s": pt("1/5", "2/5"), "t": pt("3/7")}
    local = {
        (c, s): value[s] for c in nerve.charts for s in nerve.chart_samples(c)
    }
    cocycle = delta_of(nerve, random_mu(nerve, random.Random(3)))
    assert classify_line_family(nerve, cocycle, local) == value


def test_classify_rejects_overlap_mismatch():
    nerve = cycle_nerve()
    local = {("c1", "s"): pt("1/5"), ("c2", "s"): pt("2/5"), ("c3", "s"): pt("1/5")}
    with pytest.raises(IncompatibleFamily) as err:
        classify_line_family(nerve, TranslationCocycle({}), local)
    # the first mismatch in sorted overlap order is reported
    assert "('c1', 'c2')" in str(err.value)


def test_classify_requires_every_chart_sample():
    nerve = cycle_nerve()
    with pytest.raises(MissingSample):
        classify_line_family(nerve, TranslationCocycle({}), {("c1", "s"): ORIGIN})


def test_classify_detects_disconnected_disagreement():
    nerve = Nerve(["a", "b"], chart_samples={"a": ["s"], "b": ["s"]})
    local = {("a", "s"): pt("1/2"), ("b", "s"): pt("1/3")}
    with pytest.raises(IncompatibleFamily):
        classify_line_family(nerve, TranslationCocycle({}), local)


# -- data off the nerve ----------------------------------------------------


def cocycle_with(nerve: Nerve, pair, sample) -> TranslationCocycle:
    """Zero on every overlap sample of nerve, plus one value at (pair, sample)."""
    values = {key: dict.fromkeys(nerve.overlap_samples(*key), ORIGIN) for key in nerve.overlaps}
    values.setdefault(pair, {})[sample] = ORIGIN
    return TranslationCocycle(values)


OFF_NERVE = {
    "unknown-chart": (("c1", "q"), "s", "unknown overlap ('c1', 'q')"),
    "unknown-sample": (("c1", "c2"), "zz", "overlap ('c1', 'c2') at unknown samples ['zz']"),
}


@pytest.mark.parametrize("pair, sample, message", OFF_NERVE.values(), ids=list(OFF_NERVE))
def test_cocycle_values_off_the_nerve_are_refused(pair, sample, message):
    nerve = cycle_nerve()
    cocycle = cocycle_with(nerve, pair, sample)
    local = {(c, "s"): ORIGIN for c in nerve.charts}
    for verb in (check_cocycle, coboundary_solve):
        with pytest.raises(SchemaError, match=re.escape(message)):
            verb(nerve, cocycle)
    with pytest.raises(SchemaError, match=re.escape(message)):
        classify_line_family(nerve, cocycle, local)


@pytest.mark.parametrize(
    "key", [("nochart", "s"), ("c1", "zz")], ids=["unknown-chart", "unknown-sample"]
)
def test_classify_refuses_a_local_class_off_the_nerve(key):
    nerve = cycle_nerve()
    local = {(c, "s"): ORIGIN for c in nerve.charts}
    local[key] = ORIGIN
    with pytest.raises(SchemaError, match=re.escape(f"local class at unknown chart/sample {key!r}")):
        classify_line_family(nerve, TranslationCocycle({}), local)


# -- one message per defect ------------------------------------------------

ABC = ("a", "b", "c")
ABC_PAIRS = [("a", "b"), ("a", "c"), ("b", "c")]
CHART_S = {c: ["s", "t"] for c in ABC}
OVERLAP_S = {p: ["s", "t"] for p in ABC_PAIRS}
TRIPLE_S = {ABC: ["s"]}


def abc_nerve(**changes) -> Nerve:
    """Charts a, b, c with samples s and t, their three overlaps with s and
    t, and their triple with s; each change replaces one whole argument."""
    args = dict(
        charts=list(ABC), overlaps=ABC_PAIRS, triples=[ABC],
        chart_samples=CHART_S, overlap_samples=OVERLAP_S, triple_samples=TRIPLE_S,
    )
    return Nerve(**{**args, **changes})


def without(mapping: dict, key) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def no_bc() -> Nerve:
    """abc_nerve without the overlap b,c and so without the triple."""
    return abc_nerve(
        overlaps=ABC_PAIRS[:2], triples=[], overlap_samples=without(OVERLAP_S, ("b", "c")),
        triple_samples={},
    )


def local_on(nerve: Nerve, extra=None) -> dict:
    """A zero class on every (chart, sample) of nerve, plus one more key."""
    local = {(c, s): ORIGIN for c in nerve.charts for s in nerve.chart_samples(c)}
    if extra:
        local[extra] = ORIGIN
    return local


def classify_on(nerve: Nerve, extra=None, cocycle=None):
    return classify_line_family(nerve, cocycle or TranslationCocycle({}), local_on(nerve, extra))


def family_on(nerve: Nerve, extra=None, cocycle=None):
    data = dict.fromkeys(local_on(nerve, extra), make_bundle([(1, ORIGIN)]))
    return BundleFamily(nerve, cocycle or TranslationCocycle({}), data)


def off_cocycle(pair, sample="s") -> TranslationCocycle:
    return TranslationCocycle({pair: {sample: ORIGIN}})


NERVE_DEFECTS = {
    # charts
    "no-charts": (lambda: abc_nerve(charts=[]), "a nerve needs at least one chart"),
    "duplicate-chart": (lambda: abc_nerve(charts=["a", "b", "c", "a"]), "duplicate chart labels"),
    "empty-chart-label": (
        lambda: abc_nerve(charts=["a", "b", "c", ""]),
        "chart label must be a nonempty string: ''",
    ),
    "chart-label-not-a-string": (
        lambda: abc_nerve(charts=["a", "b", "c", 7]),
        "chart label must be a nonempty string: 7",
    ),
    "chart-label-with-a-comma": (
        lambda: abc_nerve(charts=["a", "b", "c", "d,e"]),
        "chart label may not contain ',' or '/': 'd,e'",
    ),
    "chart-label-with-a-slash": (
        lambda: abc_nerve(charts=["a", "b", "c", "d/e"]),
        "chart label may not contain ',' or '/': 'd/e'",
    ),
    # overlaps
    "overlap-of-one-chart": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [("a",)]), "overlap must list two charts: ('a',)"
    ),
    "overlap-of-three-charts": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [ABC]),
        "overlap must list two charts: ('a', 'b', 'c')",
    ),
    "overlap-of-a-chart-with-itself": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [("a", "a")]),
        "overlap needs two distinct charts, got 'a' twice",
    ),
    "overlap-of-an-unknown-chart": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [("z", "a")]),
        "overlap ('a', 'z') references unknown charts",
    ),
    "duplicate-overlap": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [("b", "a")]), "duplicate overlap ('a', 'b')"
    ),
    # triples
    "triple-of-two-charts": (
        lambda: abc_nerve(triples=[ABC, ("a", "b")]), "triple must list three charts: ('a', 'b')"
    ),
    "triple-with-a-repeated-chart": (
        lambda: abc_nerve(triples=[ABC, ("a", "b", "a")]),
        "triple needs three distinct charts: ('a', 'b', 'a')",
    ),
    "triple-of-an-unknown-chart": (
        lambda: abc_nerve(triples=[ABC, ("z", "b", "a")]),
        "triple ('a', 'b', 'z') misses overlap ('a', 'z')",
    ),
    "triple-missing-a-face": (
        lambda: abc_nerve(overlaps=ABC_PAIRS[:2], overlap_samples=without(OVERLAP_S, ("b", "c"))),
        "triple ('a', 'b', 'c') misses overlap ('b', 'c')",
    ),
    "duplicate-triple": (
        lambda: abc_nerve(triples=[ABC, ("c", "b", "a")]), "duplicate triple ('a', 'b', 'c')"
    ),
    # sample sets: given in two orders, missing, empty, duplicate, badly labelled
    "overlap-samples-in-two-orders": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("b", "a"): ["s"]}),
        "samples for overlap ('a', 'b') given in two orders",
    ),
    "triple-samples-in-two-orders": (
        lambda: abc_nerve(triple_samples={**TRIPLE_S, ("c", "a", "b"): ["s"]}),
        "samples for triple ('a', 'b', 'c') given in two orders",
    ),
    "chart-samples-missing": (
        lambda: abc_nerve(chart_samples=without(CHART_S, "b")), "missing samples for chart 'b'"
    ),
    "overlap-samples-missing": (
        lambda: abc_nerve(overlap_samples=without(OVERLAP_S, ("a", "c"))),
        "missing samples for overlap ('a', 'c')",
    ),
    "triple-samples-missing": (
        lambda: abc_nerve(triple_samples={}), "missing samples for triple ('a', 'b', 'c')"
    ),
    "no-sample-sections": (
        lambda: Nerve(list(ABC), ABC_PAIRS, [ABC]), "missing samples for chart 'a'"
    ),
    "empty-chart-samples": (
        lambda: abc_nerve(chart_samples={**CHART_S, "a": []}), "empty sample set for chart 'a'"
    ),
    "empty-overlap-samples": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("a", "c"): ()}),
        "empty sample set for overlap ('a', 'c')",
    ),
    "empty-triple-samples": (
        lambda: abc_nerve(triple_samples={ABC: []}), "empty sample set for triple ('a', 'b', 'c')"
    ),
    "duplicate-chart-samples": (
        lambda: abc_nerve(chart_samples={**CHART_S, "c": ["t", "s", "t"]}),
        "duplicate samples for chart 'c'",
    ),
    "duplicate-overlap-samples": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("b", "c"): ["s", "s"]}),
        "duplicate samples for overlap ('b', 'c')",
    ),
    "duplicate-triple-samples": (
        lambda: abc_nerve(triple_samples={ABC: ["s", "s"]}),
        "duplicate samples for triple ('a', 'b', 'c')",
    ),
    "empty-sample-label": (
        lambda: abc_nerve(chart_samples={**CHART_S, "a": ["s", ""]}),
        "sample label must be a nonempty string: ''",
    ),
    "sample-label-with-a-slash": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("a", "b"): ["s", "x/y"]}),
        "sample label may not contain ',' or '/': 'x/y'",
    ),
    "sample-label-with-a-comma": (
        lambda: abc_nerve(triple_samples={ABC: ["x,y"]}),
        "sample label may not contain ',' or '/': 'x,y'",
    ),
    # samples for what the nerve does not have
    "samples-for-an-unknown-chart": (
        lambda: abc_nerve(chart_samples={**CHART_S, "z": ["s"]}),
        "samples given for unknown charts: ['z']",
    ),
    "samples-for-an-unknown-overlap": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("z", "a"): ["s"]}),
        "samples given for unknown overlaps: [('a', 'z')]",
    ),
    "samples-for-an-unknown-triple": (
        lambda: abc_nerve(triple_samples={**TRIPLE_S, ("a", "z", "b"): ["s"]}),
        "samples given for unknown triples: [('a', 'b', 'z')]",
    ),
    "chart-samples-under-an-overlap-key": (
        lambda: abc_nerve(chart_samples={**CHART_S, ("b", "a"): ["s"]}),
        "samples given for unknown charts: [('a', 'b')]",
    ),
    "overlap-samples-under-a-chart-key": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, "a": ["s"]}),
        "samples given for unknown overlaps: ['a']",
    ),
    "triple-samples-under-an-overlap-key": (
        lambda: abc_nerve(triple_samples={**TRIPLE_S, ("a", "b"): ["s"]}),
        "samples given for unknown triples: [('a', 'b')]",
    ),
    # a sample key whose charts are not all strings is unknown, and the unknown keys sort by str
    "overlap-samples-under-a-key-with-an-int-chart": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("a", 7): ["s"]}),
        "samples given for unknown overlaps: [('a', 7)]",
    ),
    "triple-samples-under-a-key-with-a-none-chart": (
        lambda: abc_nerve(triple_samples={**TRIPLE_S, ("c", None, "a"): ["s"]}),
        "samples given for unknown triples: [('c', None, 'a')]",
    ),
    "overlap-samples-under-keys-of-mixed-kinds": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, (7, 8): ["s"], ("z", "a"): ["s"]}),
        "samples given for unknown overlaps: [('a', 'z'), (7, 8)]",
    ),
    "chart-samples-under-keys-of-mixed-kinds": (
        lambda: abc_nerve(chart_samples={**CHART_S, 7: ["s"], "z": ["s"]}),
        "samples given for unknown charts: [7, 'z']",
    ),
    # sample tables that are not mappings
    "chart-samples-as-a-list": (
        lambda: abc_nerve(chart_samples=[("a", ["s"])]),
        "chart samples must be a mapping: [('a', ['s'])]",
    ),
    "overlap-samples-as-a-list": (
        lambda: abc_nerve(overlap_samples=[(("a", "b"), ["s"])]),
        "overlap samples must be a mapping: [(('a', 'b'), ['s'])]",
    ),
    "triple-samples-as-a-string": (
        lambda: abc_nerve(triple_samples="a,b,c"), "triple samples must be a mapping: 'a,b,c'"
    ),
    # a sample missing from a face
    "overlap-sample-missing-from-a-chart": (
        lambda: abc_nerve(overlap_samples={**OVERLAP_S, ("a", "c"): ["s", "u"]}),
        "overlap ('a', 'c') sample 'u' missing from a chart",
    ),
    "overlap-sample-missing-from-its-second-chart": (
        lambda: abc_nerve(chart_samples={**CHART_S, "c": ["s"]}),
        "overlap ('a', 'c') sample 't' missing from a chart",
    ),
    "triple-sample-missing-from-an-overlap": (
        lambda: abc_nerve(triple_samples={ABC: ["s", "t"]},
                          overlap_samples={**OVERLAP_S, ("a", "c"): ["s"]}),
        "triple ('a', 'b', 'c') sample 't' missing from overlap ('a', 'c')",
    ),
    "triple-sample-missing-from-two-overlaps": (
        lambda: abc_nerve(triple_samples={ABC: ["s", "t"]},
                          overlap_samples={**OVERLAP_S, ("a", "c"): ["s"], ("b", "c"): ["s"]}),
        "triple ('a', 'b', 'c') sample 't' missing from overlap ('b', 'c')",
    ),
    # accessor calls on keys the nerve does not have
    "unknown-chart": (lambda: abc_nerve().chart_samples("z"), "unknown chart 'z'"),
    "an-overlap-asked-as-a-chart": (
        lambda: abc_nerve().chart_samples(("a", "b")), "unknown chart ('a', 'b')"
    ),
    "a-triple-asked-as-a-chart": (
        lambda: abc_nerve().chart_samples(ABC), "unknown chart ('a', 'b', 'c')"
    ),
    "unknown-overlap": (
        lambda: abc_nerve().overlap_samples("z", "c"), "unknown overlap ('c', 'z')"
    ),
    "overlap-asked-of-one-chart": (
        lambda: abc_nerve().overlap_samples("b", "b"),
        "overlap needs two distinct charts, got 'b' twice",
    ),
    "overlap-missing-from-the-nerve": (
        lambda: no_bc().overlap_samples("c", "b"), "unknown overlap ('b', 'c')"
    ),
    "unknown-triple": (
        lambda: abc_nerve().triple_samples("a", "z", "b"), "unknown triple ('a', 'b', 'z')"
    ),
    "triple-asked-with-a-repeated-chart": (
        lambda: abc_nerve().triple_samples("a", "b", "a"),
        "triple needs three distinct charts: ('a', 'b', 'a')",
    ),
    "triple-of-a-nerve-without-triples": (
        lambda: abc_nerve(triples=[], triple_samples={}).triple_samples("c", "b", "a"),
        "unknown triple ('a', 'b', 'c')",
    ),
    # gerbe tables given on a nerve without the key, refused as the data enter
    "gerbe-descriptor-off-the-nerve": (
        lambda: GerbeData(Nerve.single_chart(), descriptors={("a", "b"): {}}),
        "descriptor on unknown overlap ('a', 'b')",
    ),
    "gerbe-scalar-a-off-the-nerve": (
        lambda: GerbeData(Nerve.single_chart(), a={("b", "a"): 2}),
        "gerbe scalar on unknown overlap ('a', 'b')",
    ),
    "gerbe-scalar-c-off-the-nerve": (
        lambda: GerbeData(Nerve.single_chart(), c={("c", "a", "b"): 2}),
        "gerbe scalar on unknown triple ('a', 'b', 'c')",
    ),
    "gerbe-descriptor-of-an-overlap-missing-from-the-nerve": (
        lambda: GerbeData(no_bc(), descriptors={("b", "c"): {}}),
        "descriptor on unknown overlap ('b', 'c')",
    ),
    "gerbe-scalar-c-of-a-nerve-without-triples": (
        lambda: GerbeData(abc_nerve(triples=[], triple_samples={}), c={("c", "b", "a"): 2}),
        "gerbe scalar on unknown triple ('a', 'b', 'c')",
    ),
    # cocycle values, local classes and family entries off the nerve
    "cocycle-check-on-an-unknown-overlap": (
        lambda: check_cocycle(abc_nerve(), off_cocycle(("a", "z"))),
        "cocycle value on unknown overlap ('a', 'z')",
    ),
    "coboundary-on-a-missing-overlap": (
        lambda: coboundary_solve(no_bc(), off_cocycle(("c", "b"))),
        "cocycle value on unknown overlap ('b', 'c')",
    ),
    "classify-cocycle-at-an-unknown-sample": (
        lambda: classify_on(abc_nerve(), cocycle=off_cocycle(("a", "b"), "u")),
        "cocycle value on overlap ('a', 'b') at unknown samples ['u']",
    ),
    "local-class-at-an-unknown-chart": (
        lambda: classify_on(abc_nerve(), ("z", "s")),
        "local class at unknown chart/sample ('z', 's')",
    ),
    "local-class-at-an-unknown-sample": (
        lambda: classify_on(abc_nerve(), ("b", "u")),
        "local class at unknown chart/sample ('b', 'u')",
    ),
    "local-class-under-an-overlap-key": (
        lambda: classify_on(no_bc(), ("a", "b")),
        "local class at unknown chart/sample ('a', 'b')",
    ),
    "family-entry-at-an-unknown-chart": (
        lambda: family_on(abc_nerve(), ("z", "t")), "family data at unknown chart/sample ('z', 't')"
    ),
    "family-entry-at-an-unknown-sample": (
        lambda: family_on(abc_nerve(), ("c", "u")), "family data at unknown chart/sample ('c', 'u')"
    ),
    "family-cocycle-on-an-unknown-overlap": (
        lambda: family_on(abc_nerve(), cocycle=off_cocycle(("a", "z"))),
        "cocycle value on unknown overlap ('a', 'z')",
    ),
    # gerbe scalars and descriptors off the nerve, or given twice
    "gerbe-a-on-an-unknown-overlap": (
        lambda: GerbeData(abc_nerve(), a={("z", "a"): 2}),
        "gerbe scalar on unknown overlap ('a', 'z')",
    ),
    "gerbe-a-on-a-missing-overlap": (
        lambda: GerbeData(no_bc(), a={("b", "c"): 2}), "gerbe scalar on unknown overlap ('b', 'c')"
    ),
    "gerbe-a-on-one-chart": (
        lambda: GerbeData(abc_nerve(), a={("a", "a"): 2}),
        "overlap needs two distinct charts, got 'a' twice",
    ),
    "gerbe-c-on-an-unknown-triple": (
        lambda: GerbeData(abc_nerve(), c={("a", "b", "z"): 2}),
        "gerbe scalar on unknown triple ('a', 'b', 'z')",
    ),
    "gerbe-c-on-a-nerve-without-triples": (
        lambda: GerbeData(abc_nerve(triples=[], triple_samples={}), c={ABC: 2}),
        "gerbe scalar on unknown triple ('a', 'b', 'c')",
    ),
    "gerbe-a-given-twice": (
        lambda: GerbeData(abc_nerve(), a={("a", "b"): 2, ("b", "a"): Fraction(1, 2)}),
        "gerbe lists overlap ('a', 'b') twice",
    ),
    "gerbe-c-given-twice": (
        lambda: GerbeData(abc_nerve(), c={ABC: 3, ("b", "c", "a"): 3}),
        "gerbe lists triple ('a', 'b', 'c') twice",
    ),
    "descriptor-on-an-unknown-overlap": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", "z"): {}}),
        "descriptor on unknown overlap ('a', 'z')",
    ),
    "descriptor-on-a-missing-overlap": (
        lambda: GerbeData(no_bc(), descriptors={("c", "b"): {("a", "b"): 1}}),
        "descriptor on unknown overlap ('b', 'c')",
    ),
    "descriptor-with-an-unknown-generator": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", "b"): {("z", "a"): 1}}),
        "descriptor references unknown overlap ('z', 'a')",
    ),
    "descriptor-with-a-missing-generator": (
        lambda: GerbeData(no_bc(), descriptors={("a", "b"): {("c", "b"): 1}}),
        "descriptor references unknown overlap ('c', 'b')",
    ),
}


@pytest.mark.parametrize("call, message", NERVE_DEFECTS.values(), ids=list(NERVE_DEFECTS))
def test_each_nerve_defect_has_its_message(call, message):
    with pytest.raises(SchemaError) as info:
        call()
    assert str(info.value) == message


ZERO_AT_S = {"s": ORIGIN}


def descriptors_of(exponent):
    return lambda: GerbeData(abc_nerve(), descriptors={("a", "b"): {("a", "b"): exponent}})


# defects of cocycle and gerbe data that NERVE_DEFECTS does not reach: the
# exception type and the whole message of each
DATA_DEFECTS = {
    # cocycles
    "cocycle-overlap-twice": (
        lambda: TranslationCocycle({("a", "b"): ZERO_AT_S, ("b", "a"): ZERO_AT_S}),
        SchemaError, "cocycle lists overlap ('a', 'b') twice",
    ),
    "cocycle-overlap-twice-reversed-first": (
        lambda: TranslationCocycle({("b", "a"): ZERO_AT_S, ("a", "b"): ZERO_AT_S}),
        SchemaError, "cocycle lists overlap ('a', 'b') twice",
    ),
    "cocycle-value-not-a-point": (
        lambda: TranslationCocycle({("a", "b"): {"s": (0, 0)}}),
        SchemaError, "cocycle value for ('a', 'b')/'s' not a point",
    ),
    "cocycle-value-not-a-point-reversed": (
        lambda: TranslationCocycle({("b", "a"): {"t": "0"}}),
        SchemaError, "cocycle value for ('a', 'b')/'t' not a point",
    ),
    "cocycle-empty-sample-label": (
        lambda: TranslationCocycle({("a", "b"): {"": ORIGIN}}),
        SchemaError, "sample label must be a nonempty string: ''",
    ),
    "cocycle-sample-label-with-a-comma": (
        lambda: TranslationCocycle({("a", "b"): {"s,t": ORIGIN}}),
        SchemaError, "sample label may not contain ',' or '/': 's,t'",
    ),
    "cocycle-sample-label-with-a-slash": (
        lambda: TranslationCocycle({("a", "b"): {"s/t": ORIGIN}}),
        SchemaError, "sample label may not contain ',' or '/': 's/t'",
    ),
    # gerbe scalars: the message names the key as given
    "gerbe-a-float": (
        lambda: GerbeData(abc_nerve(), a={("b", "a"): 0.5}),
        SchemaError, "gerbe scalar a[b,a] must be a string rational, got 0.5",
    ),
    "gerbe-a-bool": (
        lambda: GerbeData(abc_nerve(), a={("a", "b"): True}),
        SchemaError, "gerbe scalar a[a,b] must be a string rational, got True",
    ),
    "gerbe-a-exponent-string": (
        lambda: GerbeData(abc_nerve(), a={("a", "c"): "1e3"}),
        SchemaError, "gerbe scalar a[a,c]: bad rational '1e3'",
    ),
    "gerbe-a-zero": (
        lambda: GerbeData(abc_nerve(), a={("c", "b"): 0}), InvalidGerbe, "zero scalar at a[c,b]"
    ),
    "gerbe-c-float": (
        lambda: GerbeData(abc_nerve(), c={("c", "a", "b"): 2.0}),
        SchemaError, "gerbe scalar c[c,a,b] must be a string rational, got 2.0",
    ),
    "gerbe-c-bool": (
        lambda: GerbeData(abc_nerve(), c={ABC: False}),
        SchemaError, "gerbe scalar c[a,b,c] must be a string rational, got False",
    ),
    "gerbe-c-exponent-string": (
        lambda: GerbeData(abc_nerve(), c={ABC: "1e3"}),
        SchemaError, "gerbe scalar c[a,b,c]: bad rational '1e3'",
    ),
    "gerbe-c-zero": (
        lambda: GerbeData(abc_nerve(), c={("b", "a", "c"): "0/5"}),
        InvalidGerbe, "zero scalar at c[b,a,c]",
    ),
    # descriptors
    "descriptor-exponent-float": (
        descriptors_of(1.0), SchemaError, "descriptor exponent must be an integer, got 1.0"
    ),
    "descriptor-exponent-bool": (
        descriptors_of(True), SchemaError, "descriptor exponent must be an integer, got True"
    ),
    "descriptor-exponent-string": (
        descriptors_of("1"), SchemaError, "descriptor exponent must be an integer, got '1'"
    ),
    "descriptor-orientations-disagree": (
        lambda: GerbeData(
            abc_nerve(), descriptors={("a", "b"): {("a", "b"): 1}, ("b", "a"): {("a", "b"): 1}}
        ),
        InvalidGerbe,
        "condition 2 violated: descriptors for ('a', 'b') and its reverse are not inverse",
    ),
}


@pytest.mark.parametrize("call, error, message", DATA_DEFECTS.values(), ids=list(DATA_DEFECTS))
def test_each_cocycle_and_gerbe_defect_has_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# every key of the data on a nerve is read by one reader, which checks its length
# and that its charts are strings
SHAPE_DEFECTS = {
    "nerve-overlap-without-a-length": (
        lambda: abc_nerve(overlaps=ABC_PAIRS + [7]), "overlap must list two charts: 7"
    ),
    "nerve-triple-without-a-length": (
        lambda: abc_nerve(triples=[ABC, None]), "triple must list three charts: None"
    ),
    "cocycle-key-of-three-charts": (
        lambda: TranslationCocycle({ABC: ZERO_AT_S}),
        "overlap must list two charts: ('a', 'b', 'c')",
    ),
    "cocycle-key-without-a-length": (
        lambda: TranslationCocycle({7: ZERO_AT_S}), "overlap must list two charts: 7"
    ),
    "cocycle-table-not-a-mapping": (
        lambda: TranslationCocycle({("b", "a"): ["s"]}),
        "cocycle values for ('a', 'b') must be a mapping: ['s']",
    ),
    "gerbe-a-key-of-three-charts": (
        lambda: GerbeData(abc_nerve(), a={ABC: 2}), "overlap must list two charts: ('a', 'b', 'c')"
    ),
    "gerbe-a-key-of-one-chart": (
        lambda: GerbeData(abc_nerve(), a={("a",): 2}), "overlap must list two charts: ('a',)"
    ),
    "gerbe-c-key-of-two-charts": (
        lambda: GerbeData(abc_nerve(), c={("a", "b"): 2}),
        "triple must list three charts: ('a', 'b')",
    ),
    "gerbe-c-key-of-four-charts": (
        lambda: GerbeData(abc_nerve(), c={ABC + ("d",): 2}),
        "triple must list three charts: ('a', 'b', 'c', 'd')",
    ),
    "gerbe-c-key-without-a-length": (
        lambda: GerbeData(abc_nerve(), c={3: 2}), "triple must list three charts: 3"
    ),
    "descriptor-key-of-three-charts": (
        lambda: GerbeData(abc_nerve(), descriptors={ABC: {}}),
        "overlap must list two charts: ('a', 'b', 'c')",
    ),
    "descriptor-generator-of-three-charts": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", "b"): {ABC: 1}}),
        "overlap must list two charts: ('a', 'b', 'c')",
    ),
    "descriptor-generator-of-one-chart": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", "b"): {("b",): 1}}),
        "overlap must list two charts: ('b',)",
    ),
    "descriptor-not-a-mapping": (
        lambda: GerbeData(abc_nerve(), descriptors={("b", "a"): [("a", "b")]}),
        "descriptor for ('a', 'b') must be a mapping: [('a', 'b')]",
    ),
    # a chart in a key must be a string: the reader orders charts with <
    "nerve-overlap-with-an-int": (
        lambda: Nerve(["a", "b"], [("a", 7)]), "overlap charts must be strings: ('a', 7)"
    ),
    "nerve-triple-holding-a-list": (
        lambda: abc_nerve(triples=[("a", "b", ["c"])]),
        "triple charts must be strings: ('a', 'b', ['c'])",
    ),
    "cocycle-key-with-an-int": (
        lambda: TranslationCocycle({("a", 7): ZERO_AT_S}),
        "overlap charts must be strings: ('a', 7)",
    ),
    "gerbe-a-key-with-an-int": (
        lambda: GerbeData(abc_nerve(), a={("a", 7): 2}), "overlap charts must be strings: ('a', 7)"
    ),
    "gerbe-c-key-holding-a-tuple": (
        lambda: GerbeData(abc_nerve(), c={("a", "b", ("c",)): 2}),
        "triple charts must be strings: ('a', 'b', ('c',))",
    ),
    "descriptor-generator-with-an-int": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", "b"): {(7, "a"): 1}}),
        "overlap charts must be strings: (7, 'a')",
    ),
    # a string is one label, not the list of its letters
    "nerve-overlap-given-as-one-string": (
        lambda: Nerve(
            ["a", "b"], ["ab"], chart_samples={"a": ["s"], "b": ["s"]},
            overlap_samples={("a", "b"): ["s"]},
        ),
        "overlap must list two charts: 'ab'",
    ),
    "cocycle-key-given-as-one-string": (
        lambda: TranslationCocycle({"ba": ZERO_AT_S}), "overlap must list two charts: 'ba'"
    ),
    # nor is a string a collection of chart or sample labels
    "nerve-charts-given-as-one-string": (
        lambda: Nerve("ab", chart_samples={"a": ["s"], "b": ["s"]}),
        "charts must be a collection of labels, not a string: 'ab'",
    ),
    "single-chart-samples-given-as-one-string": (
        lambda: Nerve.single_chart("c", "s1"),
        "samples for chart 'c' must be a collection of labels, not a string: 's1'",
    ),
    "chart-samples-given-as-one-string": (
        lambda: Nerve(["a"], chart_samples={"a": "xy"}),
        "samples for chart 'a' must be a collection of labels, not a string: 'xy'",
    ),
    "overlap-samples-given-as-one-string": (
        lambda: Nerve(
            ["a", "b"], [("a", "b")], chart_samples={"a": ["s"], "b": ["s"]},
            overlap_samples={("a", "b"): "s"},
        ),
        "samples for overlap ('a', 'b') must be a collection of labels, not a string: 's'",
    ),
}


@pytest.mark.parametrize("call, message", SHAPE_DEFECTS.values(), ids=list(SHAPE_DEFECTS))
def test_keys_and_tables_of_the_wrong_shape_are_refused(call, message):
    with pytest.raises(SchemaError) as info:
        call()
    assert str(info.value) == message


# a query naming a chart that is not a string: the words of the key reader
QUERY_DEFECTS = {
    "overlap-samples": (
        lambda: Nerve.single_chart().overlap_samples("c", 7),
        "overlap charts must be strings: ('c', 7)",
    ),
    "triple-samples": (
        lambda: abc_nerve().triple_samples("a", "b", 7),
        "triple charts must be strings: ('a', 'b', 7)",
    ),
    "overlap-key": (lambda: overlap_key("a", 7), "overlap charts must be strings: ('a', 7)"),
    "overlap-key-with-a-list": (
        lambda: overlap_key([1], "a"), "overlap charts must be strings: ([1], 'a')"
    ),
    "triple-key": (
        lambda: triple_key("a", "b", 7), "triple charts must be strings: ('a', 'b', 7)"
    ),
    "triple-key-with-a-list": (
        lambda: triple_key("a", "b", ["c"]), "triple charts must be strings: ('a', 'b', ['c'])"
    ),
    "cocycle-value": (
        lambda: TranslationCocycle({}).value("a", 7, "s"),
        "overlap charts must be strings: ('a', 7)",
    ),
    # the gerbe's tables take their keys through the same reader
    "gerbe-scalar-a": (
        lambda: GerbeData(abc_nerve(), a={(7, "b"): 2}),
        "overlap charts must be strings: (7, 'b')",
    ),
    "gerbe-scalar-c": (
        lambda: GerbeData(abc_nerve(), c={("a", 7, "c"): 2}),
        "triple charts must be strings: ('a', 7, 'c')",
    ),
    "gerbe-descriptor": (
        lambda: GerbeData(abc_nerve(), descriptors={("a", None): {}}),
        "overlap charts must be strings: ('a', None)",
    ),
    # charts of one non-string type compare with each other: only a type check refuses them
    "overlap-key-of-two-ints": (
        lambda: overlap_key(7, 8), "overlap charts must be strings: (7, 8)"
    ),
    "triple-key-of-three-ints": (
        lambda: triple_key(1, 2, 3), "triple charts must be strings: (1, 2, 3)"
    ),
    "cocycle-value-of-two-ints": (
        lambda: TranslationCocycle({}).value(7, 8, "s"), "overlap charts must be strings: (7, 8)"
    ),
    "overlap-samples-of-two-ints": (
        lambda: Nerve.single_chart().overlap_samples(7, 8),
        "overlap charts must be strings: (7, 8)",
    ),
}


@pytest.mark.parametrize("call, message", QUERY_DEFECTS.values(), ids=list(QUERY_DEFECTS))
def test_a_query_on_a_chart_that_is_not_a_string_is_refused(call, message):
    with pytest.raises(SchemaError) as info:
        call()
    assert str(info.value) == message


# -- gerbe data and obstruction --------------------------------------------


def face_descriptor(g: GerbeData, i: str, j: str) -> dict[tuple[str, str], int]:
    """F_ij from the stored table, which holds F on the sorted key: F_ji = -F_ij."""
    if i < j:
        return dict(g.descriptors[(i, j)])
    return {gen: -e for gen, e in g.descriptors[(j, i)].items()}


def test_gerbe_scalar_orientation():
    nerve = cycle_nerve()
    g = GerbeData(nerve, a={("c2", "c1"): Fraction(3, 2)})
    assert g.a == {("c1", "c2"): Fraction(2, 3)}
    assert g.c == {}
    # a_13 and c_123 are left out, so they read 1: alpha = a_12 a_23 / a_13 c_123
    assert gerbe_alpha(nerve, g).alpha == ((("c1", "c2", "c3"), Fraction(2, 3)),)


def test_gerbe_c_scalar_carries_the_orientation_of_its_key():
    # an odd permutation of the sorted key inverts c, as a reversed key inverts a
    nerve = cycle_nerve()
    g = GerbeData(nerve, c={("c2", "c1", "c3"): Fraction(3, 2)})
    assert g.c == {("c1", "c2", "c3"): Fraction(2, 3)}
    assert gerbe_alpha(nerve, g).alpha == ((("c1", "c2", "c3"), Fraction(3, 2)),)
    for order in [("c1", "c2", "c3"), ("c2", "c3", "c1"), ("c3", "c1", "c2")]:
        assert GerbeData(nerve, c={order: Fraction(2, 3)}).c == g.c
    for order in [("c2", "c1", "c3"), ("c1", "c3", "c2"), ("c3", "c2", "c1")]:
        assert GerbeData(nerve, c={order: Fraction(3, 2)}).c == g.c


@pytest.mark.parametrize("last", ["c4", "c10"])
def test_a_coboundary_c_glues_however_the_chart_names_sort(last):
    # c = delta b with every key in numeric order; c1,c2,c10 sorts as c1,c10,c2
    charts = ["c1", "c2", "c3", last]
    nerve = complete_nerve(charts)
    rng = random.Random(43)
    b = {pair: rand_scalar(rng) for pair in itertools.combinations(charts, 2)}
    triples = itertools.combinations(charts, 3)
    c = {(i, j, k): b[(i, j)] * b[(j, k)] / b[(i, k)] for i, j, k in triples}
    report = gerbe_alpha(nerve, GerbeData(nerve, c=c))
    assert report.cocycle_ok and report.gluable


def test_gerbe_rejects_bad_scalars():
    nerve = cycle_nerve()
    with pytest.raises(InvalidGerbe):
        GerbeData(nerve, a={("c1", "c2"): 0})
    with pytest.raises(SchemaError):
        GerbeData(nerve, a={("c1", "zz"): 1})
    with pytest.raises(SchemaError):
        GerbeData(nerve, c={("c1", "c2", "c4"): 1})
    with pytest.raises(SchemaError):
        GerbeData(
            nerve, a={("c1", "c2"): 2, ("c2", "c1"): 2}
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"a": {("c1", "c2"): 0.1}},
        {"c": {("c1", "c2", "c3"): True}},
        {"descriptors": {("c1", "c2"): {("c1", "c2"): 1.5}}},
        {"descriptors": {("c1", "c2"): {("c1", "c2"): True}}},
        {"a": {("c1", "c2"): "1e5"}},
        {"c": {("c1", "c2", "c3"): "1.5"}},
    ],
    ids=[
        "float-scalar", "bool-scalar", "float-exponent", "bool-exponent",
        "exponent-string", "decimal-string",
    ],
)
def test_gerbe_refuses_float_and_bool_values(kwargs):
    # a float loads as the binary fraction nearest it; int() truncates 1.5
    with pytest.raises(SchemaError):
        GerbeData(cycle_nerve(), **kwargs)


def test_gerbe_descriptor_defaults_and_orientation():
    nerve = cycle_nerve()
    g = GerbeData(nerve)
    assert g.descriptors == {key: {key: 1} for key in nerve.overlaps}
    assert face_descriptor(g, "c2", "c1") == {("c1", "c2"): -1}
    # a descriptor given on the reversed key is stored negated on the sorted one
    reverse = GerbeData(nerve, descriptors={("c2", "c1"): {("c1", "c2"): -1}})
    assert reverse.descriptors == g.descriptors


def test_gerbe_descriptor_reverse_consistency():
    nerve = cycle_nerve()
    # giving both orientations is fine when they are inverse
    g = GerbeData(
        nerve,
        descriptors={
            ("c1", "c2"): {("c1", "c2"): 1},
            ("c2", "c1"): {("c2", "c1"): 1},
        },
    )
    assert g.descriptors[("c1", "c2")] == {("c1", "c2"): 1}
    with pytest.raises(InvalidGerbe):
        GerbeData(
            nerve,
            descriptors={
                ("c1", "c2"): {("c1", "c2"): 1},
                ("c2", "c1"): {("c1", "c2"): 1},
            },
        )


def test_descriptor_condition_three():
    nerve = cycle_nerve()
    validate_gerbe(GerbeData(nerve))
    # doubling one descriptor leaves the triple product outside the relator lattice
    bad = GerbeData(nerve, descriptors={("c1", "c2"): {("c1", "c2"): 2}})
    with pytest.raises(InvalidGerbe) as err:
        validate_gerbe(bad)
    assert "condition 3" in str(err.value)
    # shifting by a whole relator stays inside the lattice
    shifted = GerbeData(
        nerve,
        descriptors={
            ("c1", "c2"): {("c1", "c2"): 2, ("c2", "c3"): 1, ("c1", "c3"): -1}
        },
    )
    validate_gerbe(shifted)


def test_descriptor_condition_four_holds_on_tetrahedra():
    validate_gerbe(GerbeData(tetra_nerve()))


LATTICE_NERVES = [
    complete_nerve(["c1", "c2", "c3", "c4"]),
    complete_nerve(["c1", "c2", "c3", "c4", "c5"]),
    grid_nerve(3, periodic=False),
    grid_nerve(3, periodic=True),
]


@st.composite
def descriptor_sets(draw, nerves=LATTICE_NERVES):
    """A nerve and random descriptors, half of them shifted by relators.

    A descriptor g_ij plus a combination of triple relators keeps
    condition 3; an arbitrary exponent vector usually breaks it.  Keys
    and generators come in either orientation.
    """
    nerve = draw(st.sampled_from(nerves))
    overlap = st.sampled_from(nerve.overlaps)
    descriptors = {}
    for key in draw(st.lists(overlap, max_size=4, unique=True)):
        if draw(st.booleans()):
            vec = {key: 1}
            for i, j, k in draw(st.lists(st.sampled_from(nerve.triples), min_size=1, max_size=3)):
                sign = draw(st.sampled_from((-1, 1)))
                for gen, e in (((i, j), sign), ((j, k), sign), ((i, k), -sign)):
                    vec[gen] = vec.get(gen, 0) + e
        else:
            vec = draw(st.dictionaries(overlap, st.integers(-3, 3), max_size=3))
        if draw(st.booleans()):
            key = key[::-1]
            vec = {gen[::-1]: e for gen, e in vec.items()}
        descriptors[key] = vec
    return GerbeData(nerve, descriptors=descriptors)


def first_condition_three_failure(g: GerbeData):
    """Reference: solve R^T x = t over the integers for each triple target t."""
    gens = list(g.nerve.overlaps)
    relators = []
    for i, j, k in g.nerve.triples:
        row = [0] * len(gens)
        row[gens.index((i, j))] += 1
        row[gens.index((j, k))] += 1
        row[gens.index((i, k))] -= 1
        relators.append(row)
    transpose = [list(col) for col in zip(*relators)]
    for i, j, k in g.nerve.triples:
        target = [0] * len(gens)
        for vec in (face_descriptor(g, i, j), face_descriptor(g, j, k), face_descriptor(g, k, i)):
            for gen, e in vec.items():
                target[gens.index(gen)] += e
        if solve_integer(transpose, target) is None:
            return (i, j, k)
    return None


@settings(max_examples=80, deadline=None)
@given(descriptor_sets())
def test_condition_three_matches_a_transposed_integer_solve(g):
    failing = first_condition_three_failure(g)
    if failing is None:
        validate_gerbe(g)
    else:
        with pytest.raises(InvalidGerbe, match=re.escape(f"triple {failing!r}")):
            validate_gerbe(g)


# V rows of 75 and 21 entries, against at most 27 on LATTICE_NERVES
LONG_ROW_NERVES = [
    grid_nerve(5, periodic=True),
    complete_nerve([f"c{i}" for i in range(1, 8)]),
]


@settings(max_examples=30, deadline=None)
@given(descriptor_sets(nerves=LONG_ROW_NERVES))
def test_condition_three_matches_a_transposed_integer_solve_on_long_rows(g):
    failing = first_condition_three_failure(g)
    if failing is None:
        validate_gerbe(g)
    else:
        with pytest.raises(InvalidGerbe, match=re.escape(f"triple {failing!r}")):
            validate_gerbe(g)


@settings(max_examples=60, deadline=None)
@given(descriptor_sets(nerves=[complete_nerve(["c1", "c2", "c3", "c4", "c5"])]))
def test_condition_four_face_sum_vanishes_by_encoding(g):
    # the identity that lets validate_gerbe skip condition 4
    def face(x, y, z):
        return [face_descriptor(g, x, y), face_descriptor(g, y, z), face_descriptor(g, z, x)]

    for i, j, k, l in g.nerve.tetrahedra():
        total = {}
        for sign, vecs in (
            (1, face(i, j, k)), (-1, face(j, k, l)), (1, face(k, l, i)), (-1, face(l, i, j))
        ):
            for vec in vecs:
                for gen, e in vec.items():
                    total[gen] = total.get(gen, 0) + sign * e
        assert not any(total.values()), (i, j, k, l)


def rand_scalar(rng) -> Fraction:
    sign = rng.choice([1, -1])
    return Fraction(sign) * Fraction(2) ** rng.randint(-1, 1) * Fraction(3) ** rng.randint(-1, 1)


def coherent_gerbe(nerve: Nerve, rng) -> GerbeData:
    """Random instance whose c is the coboundary of a random overlap cochain."""
    gamma = {key: rand_scalar(rng) for key in nerve.overlaps}
    a = {key: rand_scalar(rng) for key in nerve.overlaps}
    c = {}
    for i, j, k in nerve.triples:
        c[(i, j, k)] = (
            gamma[overlap_key(i, j)]
            * gamma[overlap_key(j, k)]
            / gamma[overlap_key(i, k)]
        )
    return GerbeData(nerve, a, c)


def test_coherent_gerbes_glue_with_verified_witness():
    rng = random.Random(29)
    for nerve in (cycle_nerve(), tetra_nerve()):
        for _ in range(15):
            report = gerbe_alpha(nerve, coherent_gerbe(nerve, rng))
            assert report.cocycle_ok
            assert report.gluable
            witness = dict(report.witness)
            for (i, j, k), value in report.alpha:
                beta = (
                    witness[overlap_key(i, j)]
                    * witness[overlap_key(j, k)]
                    / witness[overlap_key(i, k)]
                )
                assert beta == value


def test_trivial_gerbe_is_gluable():
    report = gerbe_alpha(tetra_nerve(), GerbeData(tetra_nerve()))
    assert report.cocycle_ok and report.gluable
    assert all(value == 1 for _, value in report.alpha)


def test_gauge_rescaling_leaves_the_obstruction_fixed():
    rng = random.Random(37)
    nerve = tetra_nerve()
    base = coherent_gerbe(nerve, rng)
    mu = {c: rand_scalar(rng) for c in nerve.charts}
    rescaled = GerbeData(
        nerve,
        {(i, j): base.a[(i, j)] * mu[j] / mu[i] for i, j in nerve.overlaps},
        dict(base.c),
    )
    left = gerbe_alpha(nerve, base)
    right = gerbe_alpha(nerve, rescaled)
    assert left.alpha == right.alpha
    assert (left.cocycle_ok, left.gluable) == (right.cocycle_ok, right.gluable)


def test_simultaneous_twist_of_a_and_c_is_invisible():
    rng = random.Random(41)
    nerve = tetra_nerve()
    base = coherent_gerbe(nerve, rng)
    beta = {key: rand_scalar(rng) for key in nerve.overlaps}
    twisted_a = {key: base.a[key] * beta[key] for key in nerve.overlaps}
    twisted_c = {}
    for i, j, k in nerve.triples:
        twisted_c[(i, j, k)] = base.c[(i, j, k)] * (
            beta[overlap_key(i, j)]
            * beta[overlap_key(j, k)]
            / beta[overlap_key(i, k)]
        )
    left = gerbe_alpha(nerve, base)
    right = gerbe_alpha(nerve, GerbeData(nerve, twisted_a, twisted_c))
    assert left.alpha == right.alpha


def test_non_coboundary_gerbe_fails_both_verdicts():
    nerve = tetra_nerve()
    g = GerbeData(nerve, c={("c1", "c2", "c3"): 2})
    report = gerbe_alpha(nerve, g)
    assert dict(report.alpha)[("c1", "c2", "c3")] == Fraction(1, 2)
    assert not report.cocycle_ok
    assert not report.gluable
    assert report.witness is None


def test_single_triple_gerbes_always_glue():
    # three overlap unknowns against one constraint: every alpha is a coboundary
    nerve = cycle_nerve()
    report = gerbe_alpha(nerve, GerbeData(nerve, c={("c1", "c2", "c3"): 2}))
    assert report.gluable


def test_a_nerve_without_triples_has_a_witness_on_every_overlap():
    # no triple constrains an overlap, so beta = 1 on each one is a witness
    nerve = abc_nerve(triples=[], triple_samples={})
    report = gerbe_alpha(nerve, GerbeData(nerve, a={("a", "b"): 5, ("c", "b"): Fraction(-1, 3)}))
    assert report.alpha == () and report.gluable
    assert report.witness == tuple((key, Fraction(1)) for key in nerve.overlaps)
    assert gerbe_alpha(nerve, GerbeData(nerve)).witness == report.witness
    single = Nerve.single_chart()
    assert gerbe_alpha(single, GerbeData(single)).witness == ()


def test_gerbe_alpha_reads_the_stored_tables_without_orienting_a_key(monkeypatch):
    # every key was oriented as the data entered; the loops read the sorted faces
    rng = random.Random(59)
    cases = []
    for nerve in (grid_nerve(3, periodic=False), complete_nerve(["c1", "c2", "c3", "c4", "c5"])):
        g = coherent_gerbe(nerve, rng)
        cases.append((nerve, g, gerbe_alpha(nerve, g)))

    def refuse(*charts):
        raise AssertionError(f"oriented {charts!r}")

    monkeypatch.setattr(fibration, "_oriented", refuse)
    monkeypatch.setattr(fibration, "_oriented_triple", refuse)
    for nerve, g, report in cases:
        assert gerbe_alpha(nerve, g) == report


def test_gerbe_alpha_diagonalizes_the_relators_once(monkeypatch):
    # condition 3 and the witness share the nerve's one form, which the
    # benchmark tracer counts through the fibration module name
    nerve = grid_nerve(4, periodic=False)
    rng = random.Random(53)
    primes = (2, 3, 5, 7, 11, 13)
    a = {key: Fraction(rng.choice(primes), rng.choice(primes)) for key in nerve.overlaps}
    calls = []
    original = fibration.integer_diagonalize

    def counted(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(fibration, "integer_diagonalize", counted)
    report = gerbe_alpha(nerve, GerbeData(nerve, a))
    assert report.gluable
    seen = {p for _, q in report.alpha for p in primes if (q.numerator * q.denominator) % p == 0}
    assert len(seen) >= 4
    assert calls == [len(nerve.triples)]
    assert gerbe_alpha(nerve, GerbeData(nerve, a)) == report
    assert len(calls) == 1


# the 6-vertex triangulation of the real projective plane: every pair of
# vertices is an edge, and each edge lies on exactly two of the ten faces
RP2_FACES = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
)


def rp2_nerve() -> Nerve:
    charts = [f"c{v}" for v in range(1, 7)]
    tris = [tuple(f"c{v}" for v in face) for face in RP2_FACES]
    return one_sample_nerve(charts, list(itertools.combinations(charts, 2)), tris)


def test_rp2_sign_gerbes_glue_exactly_when_an_even_number_of_signs_is_negative():
    # with a = 1 and c = +-1, alpha is the sign cochain; H^2(RP^2; Z/2) = Z/2
    # is detected by the fundamental class, the sum of all ten faces, so the
    # cochain is a coboundary exactly when it has an even number of -1
    nerve = rp2_nerve()
    assert (len(nerve.charts), len(nerve.overlaps), len(nerve.triples)) == (6, 15, 10)
    assert nerve.tetrahedra() == ()
    # with an all-odd diagonal every sign pattern would glue; the 2 refuses half
    d, _, _ = nerve._relator_form()
    assert sorted(abs(x) for x in d) == [1] * 9 + [2]
    glued = 0
    for signs in itertools.product((1, -1), repeat=len(nerve.triples)):
        report = gerbe_alpha(nerve, GerbeData(nerve, c=dict(zip(nerve.triples, signs))))
        assert report.gluable == (signs.count(-1) % 2 == 0)
        if report.gluable:
            # gerbe_alpha has checked the witness on every triple
            assert {abs(q) for _, q in report.witness} == {1}
            glued += 1
    assert glued == 512


def test_module_getattr_serves_sympy_and_nothing_else():
    assert fibration.sympy is sys.modules["sympy"]
    with pytest.raises(AttributeError):
        getattr(fibration, "nope")


def test_gerbe_alpha_factors_through_the_module_sympy(monkeypatch):
    # the benchmark tracer counts factorizations by wrapping fibration.sympy.factorint
    sympy = fibration.sympy
    factored = []
    original = sympy.factorint

    def counted(n, *args, **kwargs):
        factored.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", counted)
    nerve = tetra_nerve()
    report = gerbe_alpha(nerve, coherent_gerbe(nerve, random.Random(41)))
    assert report.gluable
    assert any(value != 1 for _, value in report.alpha)
    for _, value in report.alpha:
        assert {abs(value.numerator), value.denominator} <= set(factored)


def test_gerbe_alpha_rejects_foreign_nerve():
    g = GerbeData(cycle_nerve())
    with pytest.raises(SchemaError):
        gerbe_alpha(tetra_nerve(), g)


def test_gerbe_alpha_raises_on_a_wrong_witness(monkeypatch):
    # the witness check is a real error, so it also runs under python -O
    nerve = cycle_nerve()
    g = GerbeData(nerve, c={("c1", "c2", "c3"): 2})
    wrong = {key: Fraction(1) for key in nerve.overlaps}
    monkeypatch.setattr(fibration, "_coboundary_witness", lambda *_: wrong)
    with pytest.raises(WitnessMismatch):
        gerbe_alpha(nerve, g)
