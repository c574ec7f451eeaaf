"""Tests of the benchmark's oracles and span recorder against ellfib.

Each oracle must accept the program's real result and reject a result
with one fact changed; the recorder must leave results unchanged and
restore every name it rebound.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from tracing import Recorder, Summary  # noqa: E402

import ellfib.spectral  # noqa: E402
from ellfib.fibration import Nerve, gerbe_alpha  # noqa: E402
from ellfib.torus import TorusPoint  # noqa: E402


def run(runner_cls, op):
    return runner_cls.__new__(runner_cls).run(op)


def test_roundtrip_oracle():
    op = gen.moduli_op(2, 3, 1)
    report = ellfib.spectral.round_trip_verify(Nerve.single_chart(), 2, 3)
    assert oracles.check_roundtrip(op, report) == []
    assert oracles.check_roundtrip(op, replace(report, bundles_checked=53))
    assert oracles.check_roundtrip(op, replace(report, bijective=False))


def gerbe_report(doc):
    a = {tuple(k.split(",")): Fraction(v) for k, v in doc["gerbe"]["a"].items()}
    c = {tuple(k.split(",")): Fraction(v) for k, v in doc["gerbe"]["c"].items()}
    nerve = Nerve(*worker._nerve_args(doc["nerve"]))
    from ellfib.fibration import GerbeData

    return gerbe_alpha(nerve, GerbeData(nerve, a, c))


def test_gerbe_oracle_accepts_real_verdicts_and_rejects_altered_ones():
    rng = random.Random(11)
    for family, size in (("planar", 3), ("periodic", 3), ("complete", 5)):
        for perturb in (False, True):
            doc, expect = gen.gerbe_doc(rng, family, size, perturb, hostile=family == "planar")
            report = gerbe_report(doc)
            assert oracles.check_gerbe(doc, expect, report) == [], (family, perturb)
            flipped = replace(report, gluable=not report.gluable)
            assert oracles.check_gerbe(doc, expect, flipped)
    doc, expect = gen.gerbe_doc(rng, "complete", 5, False, False)
    report = gerbe_report(doc)
    (key, value), *rest = report.witness
    bent = replace(report, witness=((key, value * 2), *rest))
    assert any("witness" in p for p in oracles.check_gerbe(doc, expect, bent))


def test_cocycle_oracle():
    rng = random.Random(12)
    for perturb in (False, True):
        doc, expect = gen.cocycle_doc(rng, 3, True, 3, perturb)
        elapsed, problems, _ = run(worker.GerbeRunner, {"kind": "cocycle", "doc": doc, "expect": expect})
        assert problems == [], perturb
    doc, expect = gen.cocycle_doc(rng, 3, False, 2, False)
    from ellfib.fibration import TranslationCocycle, check_cocycle, coboundary_solve

    nerve = Nerve(*worker._nerve_args(doc["nerve"]))
    cocycle = TranslationCocycle({
        tuple(k.split(",")): {s: worker._point(p) for s, p in per.items()}
        for k, per in doc["cocycle"]["lambda"].items()
    })
    report, mu = check_cocycle(nerve, cocycle), coboundary_solve(nerve, cocycle)
    assert oracles.check_cocycle(doc, expect, report, mu) == []
    node = next(iter(mu))
    moved = dict(mu)
    moved[node] = mu[node] + TorusPoint(Fraction(1, 2), 0)
    assert oracles.check_cocycle(doc, expect, report, moved)
    assert oracles.check_cocycle(doc, expect, report, None)


def test_invariants_oracle():
    from ellfib.cohomology.engine import full_invariants
    from ellfib.cohomology.fields import MODES
    from ellfib.cohomology.ring import load_preset

    op = {"preset": "kodaira", "a": ["1", "0", "0", "0"], "b": ["0", "1", "0", "0"]}
    ring = load_preset("kodaira")
    a, b = [Fraction(x) for x in op["a"]], [Fraction(x) for x in op["b"]]
    generic = full_invariants(ring, a, b, MODES["generic"])
    gaussian = full_invariants(ring, a, b, MODES["gaussian"])
    assert oracles.check_invariants(op, generic, gaussian) == []
    broken = replace(generic, betti=(1, 4, 11, 14, 11, 5, 1))
    assert oracles.check_invariants(op, broken)
    other = replace(gaussian, profile=replace(gaussian.profile, d=gaussian.profile.d + 1))
    assert "generic and gaussian modes disagree" in oracles.check_invariants(op, generic, other)


@pytest.mark.xfail(
    strict=False,
    reason="finding of the invariants oracle: gaussian mode loses ranks at tau = i on this "
    "torus4 class and neither mode raises a specialization flag",
)
def test_modes_agree_on_a_torus4_class_special_at_tau_i():
    from ellfib.cohomology.engine import full_invariants
    from ellfib.cohomology.fields import MODES
    from ellfib.cohomology.ring import load_preset

    op = {"preset": "torus4", "a": ["0", "1/2", "0", "0", "2", "0"],
          "b": ["2", "0", "-1", "1", "0", "0"]}
    ring = load_preset("torus4")
    a, b = [Fraction(x) for x in op["a"]], [Fraction(x) for x in op["b"]]
    generic = full_invariants(ring, a, b, MODES["generic"])
    gaussian = full_invariants(ring, a, b, MODES["gaussian"])
    assert oracles.check_invariants(op, gaussian, generic) == []


def test_cli_oracle():
    op = {"verb": "fm", "expect": {"code": 0}}
    assert oracles.check_cli(op, 0, b"x\n", b"", (0, b"x\n"), b"x\n") == []
    assert oracles.check_cli(op, 1, b"x\n", b"", (1, b"x\n"), None)
    assert oracles.check_cli(op, 0, b"y\n", b"", (0, b"x\n"), None)
    assert oracles.check_cli(op, 0, b"x\n", b"", (0, b"x\n"), b"y\n")
    assert oracles.check_cli(op, 0, b"x\n", b"Traceback (most", (0, b"x\n"), None)


def test_recorder_keeps_results_and_restores_names():
    original = ellfib.spectral.round_trip_verify
    plain = run(worker.ModuliRunner, gen.moduli_op(2, 3, 4))
    doc, expect = gen.gerbe_doc(random.Random(3), "complete", 5, True, True)
    recorder = Recorder()
    recorder.install()
    try:
        assert ellfib.spectral.round_trip_verify is not original
        traced = run(worker.ModuliRunner, gen.moduli_op(2, 3, 4))
        gerbe = run(worker.GerbeRunner, {"kind": "gerbe", "doc": doc, "expect": expect})
    finally:
        recorder.uninstall()
    assert ellfib.spectral.round_trip_verify is original
    assert (plain[1], plain[2]) == (traced[1], traced[2]) == ([], 99)
    assert gerbe[1] == []
    summary = Summary()
    summary.add(recorder)
    assert summary.calls_of("spectral.round_trip_verify") == 1
    assert summary.calls_of("spectral.beta_map") == 99
    for name in summary.calls:
        assert 0 <= summary.self_s(name) <= summary.total_s(name)
    assert summary.counters["torus.points_built"] > 0
    assert 0 < summary.distinct_share("fibration.factorint") <= 1
    assert 0 < summary.distinct_share("linalg.integer_diagonalize") <= 1


def test_recorder_dump_round_trips(tmp_path):
    recorder = Recorder()
    recorder.install()
    try:
        run(worker.ModuliRunner, gen.moduli_op(1, 2, 1))
    finally:
        recorder.uninstall()
    recorder.dump(tmp_path / "spans.json")
    loaded = Recorder.load(tmp_path / "spans.json")
    first, second = Summary(), Summary()
    first.add(recorder)
    second.add(loaded)
    assert first.calls == second.calls and first.total_ns == second.total_ns
    assert first.self_ns == second.self_ns and first.counters == second.counters
    assert first.keys == second.keys
