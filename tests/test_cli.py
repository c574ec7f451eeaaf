"""Command line verbs: exit codes, canonical output, file plumbing."""

import contextlib
import copy
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ellfib.bundles import make_bundle, tensor_line
from ellfib.cli import main
from ellfib.cohomology import engine
from ellfib.cohomology.ring import load_preset, ring_to_dict
from ellfib.fibration import Nerve, TranslationCocycle
from ellfib.serialize import (
    bundle_json,
    canonical_json,
    cocycle_json,
    family_json,
    nerve_json,
    point_json,
    section_doc_json,
    skyscraper_json,
)
from ellfib.spectral import BundleFamily, make_cycle
from ellfib.torus import ORIGIN, TorusPoint
from ellfib.transform import PSI_BLOCK_BUDGET, make_skyscraper

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py: seeded documents, read only)
from cli_digest import renamed_nerve  # noqa: E402  (tools/cli_digest.py)


def pt(u, v=0):
    return TorusPoint(Fraction(u), Fraction(v))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(canonical_json(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cycle_nerve():
    charts = ["c1", "c2", "c3"]
    pairs = [("c1", "c2"), ("c2", "c3"), ("c1", "c3")]
    return Nerve(
        charts,
        pairs,
        [("c1", "c2", "c3")],
        chart_samples={c: ["s"] for c in charts},
        overlap_samples={p: ["s"] for p in pairs},
        triple_samples={("c1", "c2", "c3"): ["s"]},
    )


def cocycle_doc(lam12, lam23, lam31):
    cocycle = TranslationCocycle(
        {
            ("c1", "c2"): {"s": lam12},
            ("c2", "c3"): {"s": lam23},
            ("c3", "c1"): {"s": lam31},
        }
    )
    return {"nerve": nerve_json(cycle_nerve()), "cocycle": cocycle_json(cocycle)}


# -- transforms ------------------------------------------------------------


def test_fm_rank_three_block(tmp_path, capsys):
    infile = write(tmp_path, "bundle.json", bundle_json(make_bundle([(3, ORIGIN)])))
    code, out, _ = run(capsys, "fm", "--in", infile)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "degree": 1,
        "parts": [{"p": {"u": "0", "v": "0"}, "len": 3}],
    }


def test_fm_then_psi_restores_polystable(tmp_path, capsys):
    bundle = make_bundle([(2, pt("1/3")), (1, pt("1/2", "1/4"))])
    infile = write(tmp_path, "bundle.json", bundle_json(bundle))
    code, out, _ = run(capsys, "fm", "--in", infile)
    assert code == 0
    sky = json.loads(out)
    sky["degree"] = 0
    back = write(tmp_path, "sky.json", sky)
    code, out, _ = run(capsys, "psi", "--in", back)
    assert code == 0
    parsed = json.loads(out)
    # three rank-one blocks at the negated support points
    assert [blk["n"] for blk in parsed["blocks"]] == [1, 1, 1]


def test_psi_rejects_degree_one(tmp_path, capsys):
    sky = make_skyscraper([(ORIGIN, 2)], 1)
    infile = write(tmp_path, "sky.json", skyscraper_json(sky))
    code, out, err = run(capsys, "psi", "--in", infile)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_spectral_cover_merges_weights(tmp_path, capsys):
    bundle = make_bundle([(2, pt("1/3")), (1, pt("1/3")), (1, ORIGIN)])
    infile = write(tmp_path, "bundle.json", bundle_json(bundle))
    code, out, _ = run(capsys, "spectral-cover", "--in", infile)
    assert code == 0
    # support negated, both thirds blocks merge
    assert json.loads(out) == {
        "parts": [
            {"p": {"u": "0", "v": "0"}, "m": 1},
            {"p": {"u": "2/3", "v": "0"}, "m": 3},
        ]
    }


# -- family and section verbs ----------------------------------------------


def two_chart_family():
    nerve = Nerve(
        ["c1", "c2"],
        [("c1", "c2")],
        chart_samples={"c1": ["s"], "c2": ["s"]},
        overlap_samples={("c1", "c2"): ["s"]},
    )
    lam = pt("1/5")
    cocycle = TranslationCocycle({("c1", "c2"): {"s": lam}})
    base_bundle = make_bundle([(1, ORIGIN), (1, pt("1/3"))])
    data = {
        ("c1", "s"): base_bundle,
        ("c2", "s"): tensor_line(base_bundle, lam),
    }
    return BundleFamily(nerve, cocycle, data, 2)


def test_gamma_emits_glued_section(tmp_path, capsys):
    infile = write(tmp_path, "family.json", family_json(two_chart_family()))
    code, out, _ = run(capsys, "gamma", "--in", infile)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert set(payload["section"]) == {"c1/s", "c2/s"}


def test_gamma_reports_overlap_mismatch(tmp_path, capsys):
    family = two_chart_family()
    broken = BundleFamily(
        family.base,
        family.cocycle,
        {
            ("c1", "s"): family.data[("c1", "s")],
            ("c2", "s"): family.data[("c1", "s")],
        },
        2,
    )
    infile = write(tmp_path, "family.json", family_json(broken))
    code, out, err = run(capsys, "gamma", "--in", infile)
    assert code == 1
    assert "error:" in err


def test_beta_round_trips_section(tmp_path, capsys):
    nerve = Nerve.single_chart("c", ("s",))
    section = {"s": make_cycle([(ORIGIN, 1), (pt("2/3"), 2)])}
    infile = write(tmp_path, "section.json", section_doc_json(nerve, section, 3))
    code, out, _ = run(capsys, "beta", "--in", infile)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    blocks = payload["data"]["c/s"]["blocks"]
    assert [blk["n"] for blk in blocks] == [1, 1, 1]
    code2, out2, _ = run(capsys, "gamma", "--in", write(tmp_path, "f.json", payload))
    assert code2 == 0
    assert json.loads(out2)["section"]["c/s"] == {
        "parts": [
            {"p": {"u": "0", "v": "0"}, "m": 1},
            {"p": {"u": "2/3", "v": "0"}, "m": 2},
        ]
    }


def test_beta_rejects_multi_chart(tmp_path, capsys):
    doc = {
        "nerve": nerve_json(two_chart_family().base),
        "section": {"s": {"parts": [{"p": {"u": "0", "v": "0"}, "m": 1}]}},
        "n": 1,
    }
    code, out, err = run(capsys, "beta", "--in", write(tmp_path, "doc.json", doc))
    assert code == 2
    assert "error:" in err


def test_roundtrip_verb(capsys):
    code, out, _ = run(capsys, "roundtrip", "--n", "2", "--torsion", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["bijective"]
    assert payload["sections_checked"] == 45
    assert payload["bundles_checked"] == 54
    assert payload["failures"] == []


def test_roundtrip_rejects_nonpositive_bounds(capsys):
    code, _, err = run(capsys, "roundtrip", "--n", "0", "--torsion", "3")
    assert code == 2
    assert "positive" in err


def test_roundtrip_refuses_over_budget(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "roundtrip", "--n", "50", "--torsion", "100")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun


def _within_one_second(capsys, *argv):
    """run(), failed by an alarm if it takes over 1 s, so that a request
    the budget misses fails the test within that second instead of
    filling memory."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run(capsys, *argv)
    except Overrun:
        pytest.fail(f"{' '.join(argv)} was not refused within 1 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_roundtrip_refuses_a_huge_sample_count_before_building_labels(capsys):
    code, out, err = _within_one_second(capsys, "roundtrip", "--n", "1", "--torsion", "1",
                                        "--samples", "1000000000000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: round trip over n=1, torsion=1 and 1000000000000 samples "
        "would check over 2000000 objects\n"
    )


def test_roundtrip_builds_one_sample_label_whatever_the_count(capsys, monkeypatch):
    # 2 objects times 10**6 samples is the budget itself, so the run is accepted
    _, expected, _ = run(capsys, "roundtrip", "--n", "1", "--torsion", "1", "--samples", "2")
    sizes = []
    build = Nerve.single_chart

    def recorded(cls, chart="c", samples=("s",)):
        sizes.append(len(samples))
        return build(chart, samples)

    monkeypatch.setattr(Nerve, "single_chart", classmethod(recorded))
    code, out, err = run(capsys, "roundtrip", "--n", "1", "--torsion", "1",
                         "--samples", "1000000")
    assert (code, err) == (0, "")
    assert sizes and set(sizes) == {1}
    assert out == expected


def test_psi_refuses_a_length_over_the_block_budget(tmp_path, capsys):
    # a 70-byte document once asked psi for 10**8 rank-one blocks
    doc = {"parts": [{"p": {"u": "0", "v": "0"}, "len": 10**8}], "degree": 0}
    code, out, err = _within_one_second(capsys, "psi", "--in", write(tmp_path, "s.json", doc))
    assert (code, out) == (2, "")
    assert err == (
        "error: skyscraper asks for 100000000 rank-one blocks, over the budget of 100000\n"
    )
    # the budget counts the merged total, not each part
    half = PSI_BLOCK_BUDGET // 2 + 1
    doc["parts"] = [{"p": {"u": "0", "v": "0"}, "len": half}] * 2
    code, out, err = _within_one_second(capsys, "psi", "--in", write(tmp_path, "s.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_beta_refuses_a_rank_over_the_block_budget(tmp_path, capsys):
    # beta builds n blocks at each sample: one sample past the budget, then
    # two samples whose ranks are each within it
    for samples, n in ((["s"], PSI_BLOCK_BUDGET + 1), (["s1", "s2"], PSI_BLOCK_BUDGET // 2 + 1)):
        cycle = {"parts": [{"p": {"u": "0", "v": "0"}, "m": n}]}
        doc = {
            "nerve": nerve_json(Nerve.single_chart("c", samples)),
            "section": {s: cycle for s in samples},
            "n": n,
        }
        path = write(tmp_path, "d.json", doc)
        code, out, err = _within_one_second(capsys, "beta", "--in", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: section (rank {n}, samples {len(samples)}) asks for "
            f"{n * len(samples)} rank-one blocks, over the budget of 100000\n"
        )


# -- cocycle verbs ---------------------------------------------------------


def test_cocycle_check_passes_coboundary(tmp_path, capsys):
    doc = cocycle_doc(pt("1/4"), pt("-1/4"), ORIGIN)
    code, out, _ = run(capsys, "cocycle-check", "--in", write(tmp_path, "c.json", doc))
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_cocycle_check_reports_defect(tmp_path, capsys):
    doc = cocycle_doc(pt("1/3"), ORIGIN, ORIGIN)
    code, out, _ = run(capsys, "cocycle-check", "--in", write(tmp_path, "c.json", doc))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"] == [
        {
            "triple": ["c1", "c2", "c3"],
            "sample": "s",
            "defect": {"u": "1/3", "v": "0"},
        }
    ]


def test_coboundary_solvable_and_not(tmp_path, capsys):
    doc = cocycle_doc(pt("1/3"), pt("1/3"), pt("1/3"))
    code, out, _ = run(capsys, "coboundary", "--in", write(tmp_path, "c.json", doc))
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True
    assert payload["mu"] == {
        "c1/s": {"u": "0", "v": "0"},
        "c2/s": {"u": "1/3", "v": "0"},
        "c3/s": {"u": "2/3", "v": "0"},
    }

    doc = cocycle_doc(pt("1/3"), ORIGIN, ORIGIN)
    code, out, _ = run(capsys, "coboundary", "--in", write(tmp_path, "d.json", doc))
    assert code == 1
    assert json.loads(out) == {"solvable": False, "mu": None}


def test_classify_glues_constant_classes(tmp_path, capsys):
    doc = cocycle_doc(ORIGIN, ORIGIN, ORIGIN)
    doc["local"] = {
        f"{c}/s": point_json(pt("1/2")) for c in ("c1", "c2", "c3")
    }
    code, out, _ = run(capsys, "classify", "--in", write(tmp_path, "c.json", doc))
    assert code == 0
    assert json.loads(out) == {"glued": {"s": {"u": "1/2", "v": "0"}}}


def test_classify_conflict_is_domain_error(tmp_path, capsys):
    doc = cocycle_doc(ORIGIN, ORIGIN, ORIGIN)
    doc["local"] = {
        "c1/s": point_json(pt("1/2")),
        "c2/s": point_json(pt("1/3")),
        "c3/s": point_json(pt("1/2")),
    }
    code, out, err = run(capsys, "classify", "--in", write(tmp_path, "c.json", doc))
    assert code == 1
    assert "('c1', 'c2')" in err


def assert_schema_error(code, out, err, *pieces):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for piece in pieces:
        assert piece in err


def off_nerve_docs():
    """(verb, document) for every verb reading a cocycle, one value off the nerve each."""
    family = family_json(two_chart_family())
    classify = cocycle_doc(ORIGIN, ORIGIN, ORIGIN)
    classify["local"] = {f"{c}/s": point_json(ORIGIN) for c in ("c1", "c2", "c3")}
    for label, pair, sample, key in (
        ("unknown-chart", "c1,q", "s", "unknown overlap"),
        ("unknown-sample", "c1,c2", "zz", "['zz']"),
    ):
        for verb, doc in (
            ("cocycle-check", cocycle_doc(ORIGIN, ORIGIN, ORIGIN)),
            ("coboundary", cocycle_doc(ORIGIN, ORIGIN, ORIGIN)),
            ("classify", classify),
            ("gamma", family),
        ):
            doc = copy.deepcopy(doc)
            doc["cocycle"]["lambda"].setdefault(pair, {})[sample] = point_json(ORIGIN)
            yield pytest.param(verb, doc, key, id=f"{verb}-{label}")


@pytest.mark.parametrize("verb, doc, key", off_nerve_docs())
def test_cocycle_verbs_refuse_a_value_off_the_nerve(tmp_path, capsys, verb, doc, key):
    code, out, err = run(capsys, verb, "--in", write(tmp_path, "doc.json", doc))
    assert_schema_error(code, out, err, "cocycle value", key)


def test_classify_refuses_a_local_class_off_the_nerve(tmp_path, capsys):
    doc = cocycle_doc(ORIGIN, ORIGIN, ORIGIN)
    doc["local"] = {f"{c}/s": point_json(ORIGIN) for c in ("c1", "c2", "c3", "nochart")}
    code, out, err = run(capsys, "classify", "--in", write(tmp_path, "c.json", doc))
    assert_schema_error(code, out, err, "('nochart', 's')")


# -- gerbe verb ------------------------------------------------------------


def tetra_doc(a=None, c=None):
    charts = ["c1", "c2", "c3", "c4"]
    pairs = [
        (x, y) for i, x in enumerate(charts) for y in charts[i + 1 :]
    ]
    triples = [
        ("c1", "c2", "c3"),
        ("c1", "c2", "c4"),
        ("c1", "c3", "c4"),
        ("c2", "c3", "c4"),
    ]
    nerve = Nerve(
        charts,
        pairs,
        triples,
        chart_samples={ch: ["s"] for ch in charts},
        overlap_samples={p: ["s"] for p in pairs},
        triple_samples={t: ["s"] for t in triples},
    )
    gerbe = {}
    if a:
        gerbe["a"] = a
    if c:
        gerbe["c"] = c
    return {"nerve": nerve_json(nerve), "gerbe": gerbe}


def test_gerbe_trivial_glues(tmp_path, capsys):
    doc = tetra_doc(a={"c1,c2": "2", "c3,c4": "1/3"})
    code, out, _ = run(capsys, "gerbe", "--in", write(tmp_path, "g.json", doc))
    assert code == 0
    payload = json.loads(out)
    assert payload["cocycle_ok"] and payload["gluable"]
    assert all(cell["ok"] for cell in payload["tetrahedra"].values())


def test_gerbe_obstructed_fixture(tmp_path, capsys):
    doc = tetra_doc(c={"c1,c2,c3": "2"})
    code, out, _ = run(capsys, "gerbe", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    payload = json.loads(out)
    assert payload["alpha"]["c1,c2,c3"] == "1/2"
    assert payload["cocycle_ok"] is False
    assert payload["gluable"] is False
    assert payload["witness"] is None


def test_gerbe_on_a_nerve_without_triples_prints_a_witness_per_overlap(tmp_path, capsys):
    doc = tetra_doc(a={"c1,c2": "2", "c3,c4": "-1/3"})
    doc["nerve"]["triples"], doc["nerve"]["samples"]["triples"] = [], {}
    code, out, _ = run(capsys, "gerbe", "--in", write(tmp_path, "g.json", doc))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == {} and payload["gluable"]
    assert payload["witness"] == {",".join(pair): "1" for pair in doc["nerve"]["overlaps"]}


@pytest.mark.parametrize(
    "path, message",
    [
        (("gerbe", "a"), "gerbe a must be a JSON object"),
        (("nerve", "samples", "overlaps"), "overlap samples must be a JSON object"),
    ],
)
def test_a_table_given_as_an_array_is_refused(tmp_path, capsys, path, message):
    doc = tetra_doc(a={"c1,c2": "2"})
    *steps, key = path
    at = doc
    for step in steps:
        at = at[step]
    at[key] = []
    infile = write(tmp_path, "g.json", doc)
    assert run(capsys, "gerbe", "--in", infile) == (2, "", f"error: {message}\n")


SYMPY_PROBE = """
import contextlib, io, json, sys
import ellfib.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ellfib.cli.main(argv)
    loaded.append([argv[0], "sympy" in sys.modules])
print(json.dumps(loaded))
"""


def test_only_the_gerbe_verb_loads_sympy(tmp_path):
    # one fresh process runs every verb of a benchmark seed, gerbe last
    kodaira_text = (ROOT / "src/ellfib/cohomology/presets/kodaira.json").read_text()
    runs = []
    for unit in gen.cli_inputs(0, kodaira_text)[:12]:
        op = unit[0]
        doc = tmp_path / f"{op['args'][0]}.json"
        if op["doc"] is not None:
            doc.write_text(json.dumps(op["doc"]))
        runs.append([arg.replace("{doc}", str(doc)) for arg in op["args"]])
    runs.sort(key=lambda argv: (argv[0] == "gerbe", argv[0] != "fm"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SYMPY_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    assert len(runs) == 12 and runs[0][0] == "fm"
    assert json.loads(done.stdout) == [[argv[0], argv[0] == "gerbe"] for argv in runs]


ROOT_PROBE = """
import json, sys
import ellfib
root = sorted(name for name in sys.modules if name.startswith("ellfib."))
import ellfib.cohomology.engine
print(json.dumps([root, sorted(set(json.loads(sys.argv[1])) & set(sys.modules))]))
"""


def test_the_package_root_loads_nothing():
    # each public name has one import path, its submodule
    stacks = ["ellfib.bundles", "ellfib.transform", "ellfib.spectral", "ellfib.fibration",
              "ellfib.serialize", "sympy"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", ROOT_PROBE, json.dumps(stacks)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == [[], []]


VERB_PROBE = """
import contextlib, io, json, sys
import ellfib.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ellfib.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""
# what each verb must not load: the layers it never calls
UNUSED_LAYERS = {
    "fm": ("ellfib.cohomology", "ellfib.fibration", "ellfib.linalg", "ellfib.spectral", "sympy"),
    "psi": ("ellfib.cohomology", "ellfib.fibration", "ellfib.linalg", "ellfib.spectral", "sympy"),
    "invariants": ("ellfib.fibration", "ellfib.spectral", "sympy"),
}


@pytest.mark.parametrize("verb", sorted(UNUSED_LAYERS))
def test_each_verb_loads_only_its_layer(tmp_path, verb):
    # one fresh process per verb, on the verb's operation of a benchmark seed
    kodaira_text = (ROOT / "src/ellfib/cohomology/presets/kodaira.json").read_text()
    (op,) = next(unit for unit in gen.cli_inputs(0, kodaira_text) if unit[0]["verb"] == verb)
    doc = tmp_path / "doc.json"
    if op["doc"] is not None:
        doc.write_text(json.dumps(op["doc"]))
    argv = [arg.replace("{doc}", str(doc)) for arg in op["args"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", VERB_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    code, loaded = json.loads(done.stdout)
    assert code == op["expect"]["code"]
    assert "ellfib.transform" in loaded
    assert [name for name in loaded if name.startswith(UNUSED_LAYERS[verb])] == []


# -- invariants and ring validation ----------------------------------------


def test_invariants_kunneth_json(capsys):
    code, out, _ = run(
        capsys, "invariants", "--preset", "kodaira", "--a", "0", "--b", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"e": 0, "g": 0, "d": 0, "dprime": 0, "h": 0, "f": 0}
    assert payload["hodge"] == [
        [1, 3, 3, 1],
        [2, 6, 6, 2],
        [2, 6, 6, 2],
        [1, 3, 3, 1],
    ]
    assert payload["betti"] == [1, 5, 11, 14, 11, 5, 1]
    assert payload["consistency"] == []
    assert payload["flags"] == []


def test_invariants_table_output(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        "--preset",
        "kodaira",
        "--a",
        "0",
        "--b",
        "0",
        "--out",
        "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring: kodaira   mode: generic"
    assert lines[1] == "ranks: e=0 g=0 d=0 dprime=0 h=0 f=0"
    assert "  1 6 6 1" in lines
    assert "betti: 1 5 11 14 11 5 1" in lines
    assert "consistency: ok" in lines


def test_invariants_writes_a_consistency_violation_in_both_outputs(capsys, monkeypatch):
    violation = "duality fails: b0 = 1 but b6 = 2"
    monkeypatch.setattr(engine, "consistency_report", lambda diamond, betti: (violation,))
    argv = ["invariants", "--preset", "kodaira", "--a", "0", "--b", "0", "--out"]
    assert run(capsys, *argv, "table") == (1, (
        "ring: kodaira   mode: generic\n"
        "ranks: e=0 g=0 d=0 dprime=0 h=0 f=0\n"
        "hodge numbers by total degree (decreasing q):\n"
        "  1\n  3 2\n  3 6 2\n  1 6 6 1\n  2 6 3\n  2 3\n  1\n"
        "betti: 1 5 11 14 11 5 1\n"
        "consistency violations:\n"
        f"  {violation}\n"
    ), "")
    payload = {
        "ranks": {"e": 0, "g": 0, "d": 0, "dprime": 0, "h": 0, "f": 0},
        "hodge": [[1, 3, 3, 1], [2, 6, 6, 2], [2, 6, 6, 2], [1, 3, 3, 1]],
        "betti": [1, 5, 11, 14, 11, 5, 1],
        "consistency": [violation],
        "flags": [],
    }
    json_out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert run(capsys, *argv, "json") == (1, json_out, "")


def test_invariants_synthetic_twist(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        "--preset",
        "kodaira",
        "--a",
        "0,1,0,0",
        "--b",
        "0,0,0,1",
        "--synthetic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"]["e"] == 1
    assert payload["ranks"]["g"] == 1
    assert payload["betti"] == [1, 3, 5, 6, 5, 3, 1]
    assert payload["consistency"] == []


def test_invariants_flags_inconsistent_synthetic_coupling(capsys):
    code, out, _ = run(
        capsys,
        "invariants",
        "--preset",
        "kodaira",
        "--a",
        "0",
        "--b",
        "0,1,0,1",
        "--synthetic",
    )
    assert code == 1
    payload = json.loads(out)
    assert any("degeneration bound" in line for line in payload["consistency"])


def test_invariants_gaussian_matches_generic(capsys):
    args = ["invariants", "--preset", "torus4", "--a", "0,1,0,0,0,0", "--b", "0"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--mode", "gaussian")
    assert code1 == code2 == 0
    assert json.loads(out1)["hodge"] == json.loads(out2)["hodge"]


def test_invariants_rejects_bad_vectors(capsys):
    code, _, err = run(
        capsys, "invariants", "--preset", "kodaira", "--a", "1,2", "--b", "0"
    )
    assert code == 2
    assert "4 entries" in err
    code, _, err = run(
        capsys, "invariants", "--preset", "kodaira", "--a", "1,x,0,0", "--b", "0"
    )
    assert code == 2


@pytest.mark.parametrize("entry", ["1e3", "1.5", "1/0"])
def test_invariants_rejects_non_grammar_entries(capsys, entry):
    code, out, err = run(
        capsys, "invariants", "--preset", "kodaira", "--a", f"{entry},0,0,0", "--b", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --a: bad rational") and err.count("\n") == 1


def test_invariants_rejects_nonzero_conjugate_part_without_synthetic(capsys):
    code, _, err = run(
        capsys, "invariants", "--preset", "kodaira", "--a", "0", "--b", "0,0,0,1"
    )
    assert code == 1
    assert "error:" in err


def test_unknown_preset(capsys):
    code, _, err = run(capsys, "invariants", "--preset", "nope", "--a", "0", "--b", "0")
    assert code == 2
    assert "unknown preset" in err


def test_ring_from_file(tmp_path, capsys):
    path = write(tmp_path, "ring.json", ring_to_dict(load_preset("kodaira")))
    code, out, _ = run(
        capsys, "invariants", "--preset", f"file:{path}", "--a", "0", "--b", "0"
    )
    assert code == 0
    assert json.loads(out)["betti"] == [1, 5, 11, 14, 11, 5, 1]
    # a file: ring gives the bytes of its preset, zero and twisted classes alike
    for name, a, b in [
        ("kodaira", "0", "0"),
        ("torus4", "0", "0"),
        ("k3", "0", "0"),
        ("kodaira", "0,1,0,0", "0,0,1/2,0"),
    ]:
        path = write(tmp_path, f"{name}.json", ring_to_dict(load_preset(name)))
        for out_format in ("json", "table"):
            args = ["--a", a, "--b", b, "--out", out_format]
            from_file = run(capsys, "invariants", "--preset", f"file:{path}", *args)
            assert from_file == run(capsys, "invariants", "--preset", name, *args)


def test_validate_ring_presets(capsys):
    for name in ("kodaira", "torus4", "k3"):
        code, out, _ = run(capsys, "validate-ring", "--preset", name)
        assert code == 0
        assert json.loads(out) == {"name": name, "valid": True, "violations": []}


def test_validate_ring_reports_broken_file(tmp_path, capsys):
    payload = ring_to_dict(load_preset("kodaira"))
    # break graded commutativity: odd x odd must anticommute
    payload["products"]["f1"]["F1"] = {"A": "1"}
    payload["products"]["F1"]["f1"] = {"A": "1"}
    path = write(tmp_path, "broken.json", payload)
    code, out, _ = run(capsys, "validate-ring", "--preset", f"file:{path}")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any("commutativity" in line for line in report["violations"])


def test_validate_ring_rejects_malformed_sections(tmp_path, capsys):
    payload = ring_to_dict(load_preset("kodaira"))
    payload["products"] = [1, 2]
    path = write(tmp_path, "malformed.json", payload)
    code, out, err = run(capsys, "validate-ring", "--preset", f"file:{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "coeff",
    [0.1, True, "1e3", "1.5", " 2", "1e10000000"],
    ids=["float", "bool", "exponent", "decimal", "space", "huge-exponent"],
)
def test_invariants_rejects_inexact_ring_coefficient(tmp_path, capsys, coeff):
    payload = ring_to_dict(load_preset("kodaira"))
    x = min(payload["products"])
    y = min(payload["products"][x])
    z = min(payload["products"][x][y])
    payload["products"][x][y][z] = coeff
    path = write(tmp_path, "inexact.json", payload)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "invariants", "--preset", f"file:{path}", "--a", "0", "--b", "0"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# -- mutated ring documents ------------------------------------------------


KODAIRA_DOC = ring_to_dict(load_preset("kodaira"))
JUNK = [None, True, 0, 1.5, "x", "", [], [1, 2], {}, {"x": 1}]
# a fresh copy per draw, so that no mutation reaches JUNK itself
FRESH_JUNK = st.sampled_from(JUNK).map(copy.deepcopy)
BAD_LABELS = [1, None, "", [], {}, 2.5, True, "F1"]
BAD_COEFFS = [
    0.1, 1.0, True, False, None, [], {}, "abc", "1/0", "",
    10**40, -(10**40), "123456789012345678901234567890/7",
]
BAD_KEYS = ["0,3", "3,0", "-1,0", "2,-1", "a,b", "1", "1,1,1", " 1,1", ""]
BAD_DEGREES = ["5", "-1", "x", "", "1.5"]
# coefficient tables: path, and how many label keys lead to a vector
TABLES = [
    (("products",), 2), (("conjugation",), 1), (("ident",), 1), (("derham", "products"), 2),
]


def _walk(node, keys):
    """The node at keys below node, or None where the path is broken."""
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _pick(data, node):
    if not isinstance(node, dict) or not node:
        return None
    return data.draw(st.sampled_from(sorted(node)))


def _mutate(data, doc):
    kind = data.draw(
        st.sampled_from(["delete", "retype", "label", "coefficient", "key"])
    )
    if kind in ("delete", "retype"):
        path = data.draw(st.sampled_from(
            [(k,) for k in KODAIRA_DOC] + [("derham", "basis"), ("derham", "products")]
        ))
        parent = _walk(doc, path[:-1])
        if isinstance(parent, dict) and path[-1] in parent:
            if kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(FRESH_JUNK)
    elif kind == "label":
        bases = _walk(doc, data.draw(st.sampled_from([("bigraded",), ("derham", "basis")])))
        labels = _walk(bases, [_pick(data, bases)])
        if isinstance(labels, list) and labels:
            index = data.draw(st.integers(0, len(labels) - 1))
            labels[index] = data.draw(st.sampled_from(BAD_LABELS))
    elif kind == "coefficient":
        path, depth = data.draw(st.sampled_from(TABLES))
        vec = _walk(doc, path)
        for _ in range(depth):
            vec = _walk(vec, [_pick(data, vec)])
        if isinstance(vec, dict) and vec:
            vec[_pick(data, vec)] = data.draw(st.sampled_from(BAD_COEFFS))
    else:
        where, keys = data.draw(st.sampled_from(
            [(("bigraded",), BAD_KEYS), (("derham", "basis"), BAD_DEGREES)]
        ))
        bases = _walk(doc, where)
        if isinstance(bases, dict):
            bases[data.draw(st.sampled_from(keys))] = data.draw(
                st.sampled_from([["extra"], ["F1"], []])
            )


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_mutated_ring_files_exit_cleanly(tmp_path_factory, data):
    doc = copy.deepcopy(KODAIRA_DOC)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = tmp_path_factory.mktemp("ring") / "ring.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (
        ["validate-ring", "--preset", f"file:{path}"],
        ["invariants", "--preset", f"file:{path}", "--a", "0", "--b", "0"],
    ):
        code, out, err = _run_quietly(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")


# -- mutated --in documents ------------------------------------------------


KODAIRA_TEXT = (ROOT / "src/ellfib/cohomology/presets/kodaira.json").read_text()
# every operation of the benchmark's cli mix that reads a document; seeds
# 0-3 cover each verb's exit-0 and exit-1 inputs and the file: ring
DOC_OPS = [
    op
    for seed in range(4)
    for unit in gen.cli_inputs(seed, KODAIRA_TEXT)[: len(gen.CLI_VERBS)]
    for op in unit
    if op["doc"] is not None
]
RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
NON_GRAMMAR = ["1e3", "-2e-1", "1.5", "2.", " 2", "1e10000000", "1/-2", "+", ""]
BAD_NAMES = ["zz", "zz,yy", "zz/s", "", "v0x0,v0x0"]


def _nodes(node, path=()):
    """(path, value) for every node below node, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _descriptor_exponents(data, doc):
    gerbe, nerve = doc.get("gerbe"), doc.get("nerve")
    overlaps = nerve.get("overlaps") if isinstance(nerve, dict) else None
    if not isinstance(gerbe, dict) or not isinstance(overlaps, list):
        return
    # both orientations of every overlap the (possibly mutated) nerve lists
    keys = [
        ",".join(map(str, o[::step]))
        for o in overlaps if isinstance(o, list) for step in (1, -1)
    ]
    if not keys:
        return
    pair = st.sampled_from(keys)
    exponent = st.one_of(st.integers(-3, 3), FRESH_JUNK, st.sampled_from(["1", 10**30]))
    gerbe["descriptors"] = data.draw(
        st.dictionaries(pair, st.dictionaries(pair, exponent, max_size=3), max_size=3)
    )


def _mutate_document(data, doc):
    kind = data.draw(st.sampled_from(
        ["delete", "retype", "rational", "zero-denominator", "arity", "label", "key",
         "descriptor"]
    ))
    if kind == "descriptor":
        _descriptor_exponents(data, doc)
        return
    rational = lambda v: isinstance(v, str) and RATIONAL_TEXT.fullmatch(v)
    wanted = {
        "delete": lambda path, v: isinstance(_at(doc, path[:-1]), dict),
        "retype": lambda path, v: True,
        "rational": lambda path, v: rational(v),
        "zero-denominator": lambda path, v: rational(v),
        "arity": lambda path, v: (
            isinstance(v, list) and path[-2:-1] in (("overlaps",), ("triples",))
        ),
        "label": lambda path, v: isinstance(v, str) and not rational(v),
        "key": lambda path, v: isinstance(v, dict) and v,
    }[kind]
    choices = [path for path, value in _nodes(doc) if wanted(path, value)]
    if not choices:
        return
    path = data.draw(st.sampled_from(choices))
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = data.draw(FRESH_JUNK)
    elif kind == "rational":
        parent[key] = data.draw(st.sampled_from(NON_GRAMMAR))
    elif kind == "zero-denominator":
        parent[key] = value.partition("/")[0] + "/0"
    elif kind == "arity":
        parent[key] = data.draw(st.sampled_from([value[:-1], value + value[:1], value + ["zz"]]))
    elif kind == "label":
        parent[key] = data.draw(st.sampled_from(BAD_NAMES))
    else:
        old = data.draw(st.sampled_from(sorted(value, key=str)))
        value[data.draw(st.sampled_from(BAD_NAMES))] = value.pop(old)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_mutated_documents_exit_cleanly_on_every_verb(tmp_path_factory, data):
    op = data.draw(st.sampled_from(DOC_OPS))
    doc = copy.deepcopy(op["doc"])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_document(data, doc)
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [arg.replace("{doc}", str(path)) for arg in op["args"]]
    start = time.perf_counter()
    code, out, err = _run_quietly(argv)
    assert time.perf_counter() - start < 5.0, argv[0]
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# -- plumbing --------------------------------------------------------------


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "fm", "--in", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "fm", "--in", str(bad))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00bad", b"[" * 100_000],
    ids=["not-utf8", "deeply-nested"],
)
@pytest.mark.parametrize(
    "verb",
    [("fm", "--in", "{}"), ("validate-ring", "--preset", "file:{}")],
    ids=["in", "file-ring"],
)
def test_unreadable_json_is_a_schema_error(tmp_path, capsys, content, verb):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *(arg.format(path) for arg in verb))
    assert_schema_error(code, out, err, "invalid JSON")


@pytest.mark.parametrize(
    "verb",
    [("fm", "--in", "{}"), ("validate-ring", "--preset", "file:{}")],
    ids=["in", "file-ring"],
)
def test_an_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys, verb):
    # json.load raises a plain ValueError on a bare integer of more than 4300 digits
    path = tmp_path / "doc.json"
    path.write_text('{"blocks": [{"x": {"u": "0", "v": "0"}, "n": 1' + "0" * 5000 + "}]}", encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(path) for arg in verb))
    assert_schema_error(code, out, err, "invalid JSON")


@pytest.mark.parametrize(
    "verb",
    [("fm", "--in", "{}"), ("validate-ring", "--preset", "file:{}")],
    ids=["in", "file-ring"],
)
def test_the_digit_limit_error_names_the_file_and_the_limit(tmp_path, capsys, verb):
    # the interpreter's own text advises a call a command-line user cannot make
    path = tmp_path / "doc.json"
    path.write_text('{"n": 1' + "0" * sys.get_int_max_str_digits() + "}", encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(path) for arg in verb))
    assert_schema_error(code, out, err, f"error: {path}: ", f" {sys.get_int_max_str_digits()} digits")
    assert "set_int_max_str_digits" not in err


def test_a_key_given_twice_is_a_schema_error(tmp_path, capsys):
    doc = cocycle_doc(pt("1/2"), ORIGIN, ORIGIN)
    text = json.dumps(doc)
    first = json.dumps({"c1,c2": doc["cocycle"]["lambda"]["c1,c2"]})[1:-1]
    assert '"1/2"' in first and text.count(first) == 1
    # the second value, (0, 0), would make the cocycle a coboundary
    path = tmp_path / "twice.json"
    path.write_text(text.replace(first, f'{first}, {first.replace("1/2", "0")}'), encoding="utf-8")
    code, out, err = run(capsys, "coboundary", "--in", str(path))
    assert_schema_error(code, out, err, "'c1,c2'", "twice")


def test_a_repeated_key_in_a_large_object_is_found_in_linear_time(tmp_path, capsys):
    # the repeat is the last key, so a per-key count would scan all 100 000 keys for each one
    keys = [f"k{i}" for i in range(100_000)] + ["k99999"]
    path = tmp_path / "wide.json"
    path.write_text("{" + ", ".join(f'"{k}": 0' for k in keys) + "}", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "fm", "--in", str(path))
    assert time.perf_counter() - start < 5.0
    assert_schema_error(code, out, err, "'k99999'", "twice")


def test_verb_required():
    with pytest.raises(SystemExit):
        main([])


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    infile = write(tmp_path, "bundle.json", bundle_json(make_bundle([(3, ORIGIN)])))
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "fm", "--in", infile)
        assert code == 0
        outputs.add(out)
    for _ in range(2):
        code, out, _ = run(
            capsys, "invariants", "--preset", "k3", "--a", "0", "--b", "0"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 2


# -- renaming charts -------------------------------------------------------

# (family, size) of the gerbe documents below, nine charts at most
RENAMED_GERBES = [("planar", 3), ("periodic", 3), ("complete", 4), ("complete", 5), ("complete", 6)]
# the parts of a document each verb reads
VERB_PARTS = {
    "gerbe": ["nerve", "gerbe"],
    "cocycle-check": ["nerve", "cocycle"],
    "coboundary": ["nerve", "cocycle"],
    "classify": ["nerve", "cocycle", "local"],
}


def _odd(charts) -> bool:
    """Whether charts lists its sorted self in an odd permutation."""
    return sum(x > y for x, y in combinations(charts, 2)) % 2 == 1


def _renamed(doc: dict, name: dict) -> dict:
    """doc with each chart c called name[c]; every key keeps its charts' order."""
    rename = lambda key: ",".join(name[c] for c in key.split(","))
    out = {"nerve": renamed_nerve(doc["nerve"], name)}
    for part, tables in (("gerbe", ("a", "c")), ("cocycle", ("lambda",))):
        if part in doc:
            out[part] = {t: {rename(k): v for k, v in doc[part][t].items()} for t in tables}
    if "local" in doc:
        out["local"] = {}
        for k, point in doc["local"].items():
            chart, sample = k.split("/")
            out["local"][f"{name[chart]}/{sample}"] = point
    return out


def _moved(table: dict, name: dict, invert) -> dict:
    """A table keyed by sorted charts "i,j,..", read on the renamed nerve: each
    value under its renamed sorted key, through invert where the renaming
    lists that key's charts in an odd order."""
    out = {}
    for text, value in table.items():
        charts = [name[c] for c in text.split(",")]
        out[",".join(sorted(charts))] = invert(value) if _odd(charts) else value
    return out


def _inverse(q: str) -> str:
    return str(1 / Fraction(q))


def _negative(p: dict) -> dict:
    return {x: str(-Fraction(p[x]) % 1) for x in "uv"}


def _difference(p: dict, q: dict) -> tuple:
    return tuple((Fraction(p[x]) - Fraction(q[x])) % 1 for x in "uv")


def _is_witness(witness: dict, alpha: dict) -> bool:
    """Whether beta_ij beta_jk / beta_ik = alpha_ijk on every sorted triple i,j,k."""
    beta = {key: Fraction(q) for key, q in witness.items()}
    for key, q in alpha.items():
        i, j, k = key.split(",")
        if beta[f"{i},{j}"] * beta[f"{j},{k}"] / beta[f"{i},{k}"] != Fraction(q):
            return False
    return True


def _violations(report: dict) -> dict:
    """A cocycle-check report's defects: sample -> "i,j,k" -> defect."""
    table = {}
    for v in report["violations"]:
        table.setdefault(v["sample"], {})[",".join(v["triple"])] = v["defect"]
    return table


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gerbe=st.sampled_from(RENAMED_GERBES),
    seed=st.integers(0, 2**16),
    broken=st.booleans(),
    numbers=st.lists(st.integers(1, 120), min_size=9, max_size=9, unique=True),
)
# c0..c3 -> c1, c2, c3, c10: the c keys c1,c2,c10 and c1,c3,c10 list their charts in an odd order
@example(gerbe=("complete", 4), seed=0, broken=False, numbers=[1, 2, 3, 10, 4, 5, 6, 7, 8])
def test_verdicts_do_not_depend_on_the_names_of_the_charts(
    tmp_path_factory, gerbe, seed, broken, numbers
):
    rng = random.Random(seed)
    gerbe_doc, _ = gen.gerbe_doc(rng, *gerbe, broken, False)
    doc, _ = gen.cocycle_doc(rng, 3, rng.random() < 0.5, rng.choice((1, 2)), broken)
    charts, labels = doc["nerve"]["charts"], doc["nerve"]["samples"]["charts"]
    value = {s: gen.point_json(*gen.rand_torsion(rng)) for s in labels[charts[0]]}
    doc["local"] = {f"{c}/{s}": value[s] for c in charts for s in labels[c]}
    if broken:
        doc["local"][f"{rng.choice(charts)}/{labels[charts[0]][0]}"] = gen.point_json(0, 0)
    path = tmp_path_factory.mktemp("renamed") / "doc.json"

    def outputs(doc: dict, verbs) -> tuple[dict, dict, dict]:
        """The renaming, and verb -> parsed stdout on doc and on doc renamed,
        each verb given the parts of doc it reads; the exit codes agree."""
        name = {c: f"c{n}" for c, n in zip(doc["nerve"]["charts"], numbers)}
        runs = []
        for given in (doc, _renamed(doc, name)):
            runs.append({})
            for verb in verbs:
                parts = {part: given[part] for part in VERB_PARTS[verb]}
                path.write_text(json.dumps(parts), encoding="utf-8")
                runs[-1][verb] = _run_quietly([verb, "--in", str(path)])
        for verb in verbs:
            (code, out, _), (renamed_code, renamed_out, _) = (run[verb] for run in runs)
            assert renamed_code == code in (0, 1), verb
        return name, *(
            {verb: json.loads(out) if out else None for verb, (_, out, _) in run.items()}
            for run in runs
        )

    name, before, after = outputs(gerbe_doc, ["gerbe"])
    report, renamed = before["gerbe"], after["gerbe"]
    assert renamed["cocycle_ok"] == report["cocycle_ok"]
    assert renamed["gluable"] == report["gluable"]
    assert renamed["alpha"] == _moved(report["alpha"], name, _inverse)
    flip = lambda check: {"value": _inverse(check["value"]), "ok": check["ok"]}
    assert renamed["tetrahedra"] == _moved(report["tetrahedra"], name, flip)
    if report["gluable"]:
        assert _is_witness(_moved(report["witness"], name, _inverse), renamed["alpha"])
        assert _is_witness(renamed["witness"], renamed["alpha"])

    name, before, after = outputs(doc, ["cocycle-check", "coboundary", "classify"])
    assert _violations(after["cocycle-check"]) == {
        s: _moved(table, name, _negative)
        for s, table in _violations(before["cocycle-check"]).items()
    }
    mu, renamed_mu = before["coboundary"]["mu"], after["coboundary"]["mu"]
    if mu is not None:
        # each component is anchored at its smallest node, so compare differences
        for pair, per_sample in doc["cocycle"]["lambda"].items():
            i, j = pair.split(",")
            for s in per_sample:
                step = _difference(renamed_mu[f"{name[j]}/{s}"], renamed_mu[f"{name[i]}/{s}"])
                assert step == _difference(mu[f"{j}/{s}"], mu[f"{i}/{s}"])
    assert after["classify"] == before["classify"]
