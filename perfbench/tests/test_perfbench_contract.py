"""BENCHMARK.json agrees with what the benchmark prints; no checkout, no result."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracing import Summary  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.RUNNERS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_per_layer_names_and_units_match_the_traced_run():
    printed = worker.per_layer(Summary(), 0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in printed.items()
    }


def test_end_to_end_names_and_units_match_the_plain_run():
    m = worker.Measurement()
    m.latencies, m.fixed, m.weight = [0.001, 0.002, 0.003], [0.002], 3
    printed = worker.end_to_end(worker.ModuliRunner(HERE.parent, 0, HERE), m)
    printed["setup_s"] = (1.0, "s")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()
    }
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_an_ellfib_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


class FailingRunner(worker.Runner):
    """The fixed case fails its oracle; `fail_all` makes every operation raise."""

    fail_all = False

    def make_inputs(self):
        return [[{"kind": "fixed", "fixed": True}], [{"kind": "plain"}], [{"kind": "plain"}]]

    def run(self, op):
        if self.fail_all:
            raise ValueError("broken")
        return 0.001, ["fixed case is wrong"] if op.get("fixed") else [], 1


def test_a_failing_fixed_case_is_counted_not_crashed():
    runner = FailingRunner(HERE.parent, 0, HERE)
    m = worker.measure(runner, passes=2)
    assert (m.attempted, m.failed) == (6, 2)
    printed = worker.end_to_end(runner, m)
    assert "fixed_case_ms" not in printed and "p50_ms" in printed


def test_every_operation_failing_leaves_only_peak_rss():
    runner = FailingRunner(HERE.parent, 0, HERE)
    runner.fail_all = True
    m = worker.measure(runner, passes=1)
    assert (m.attempted, m.failed) == (3, 3)
    assert set(worker.end_to_end(runner, m)) == {"peak_rss_mb"}


def test_gauge_samples_inside_a_long_unit_and_scales_by_the_mean():
    times = iter([0.002, 0.004, 0.004, 0.004, 0.004, 0.004, 0.004, 0.004])
    gauge = worker.SpeedGauge(lambda: next(times), 0.001, every_s=0.0, sample_every_s=0.05)
    before = gauge.read()
    with gauge.sampling():
        time.sleep(0.13)
    gauge.read()
    assert len(gauge.readings) >= 4  # the timer probed during the unit
    assert gauge.scale(before) == pytest.approx(0.25)  # readings before `before` do not count
