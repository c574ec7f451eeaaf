"""One workload in one fresh process: generate, run, check, report.

run.py starts this file as a child process, so the workload's peak RSS
is its own.  The operations run as a closed loop with one client: each
starts when the previous one returns.  A run makes its inputs once (see
gen.py) and passes over them, in a new seeded order each pass, for the
time it is given; each operation's latency is the median of its runs,
scaled to the reference host speed (see measure() and SpeedGauge).

With --trace 1 the passes run plain for half the time (to warm the
process), then one pass runs with the span recorder installed and one
plain; per-layer numbers come from the traced pass, and
trace.overhead_share compares it with the plain one.  The last stdout
line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
import oracles
from tracing import Recorder, Summary

HERE = Path(__file__).resolve().parent

# The machines this runs on execute the same code up to 2x slower for
# seconds to minutes at a time (other tenants), which no run of a few
# tens of seconds can average out.  So every latency is also scaled to a
# reference host speed: measured seconds times a reference time over the
# time of a probe, a fixed piece of work that runs no ellfib code, timed
# right before and after the operation.  In-process operations use
# speed_probe() (Fraction sums, a dict, a sort); cold processes use
# cold_start_probe() (a fresh interpreter importing standard-library
# modules), because the time of a cold start follows the host's speed
# for starting processes, which a compute loop tracks poorly.  The
# reference times are the probes' times on the 2-core machine the
# benchmark was built on when that machine ran at full speed, so scaled
# values read as seconds there.  Program changes move the scaled values
# as they move the measured ones.
PROBE_REFERENCE_S = 0.0013
PROBE_EVERY_S = 0.05
PROBE_SAMPLE_EVERY_S = 0.2
COLD_REFERENCE_S = 0.22
COLD_PROBE_EVERY_S = 0.1  # below any cold process: each gets a reference start right after it
COLD_REFERENCE_CODE = (
    "import argparse, ast, asyncio, concurrent.futures, csv, dataclasses, decimal, difflib, "
    "email.mime.multipart, fractions, http.server, inspect, json, logging.handlers, "
    "multiprocessing.pool, pydoc, statistics, tarfile, typing, unittest, urllib.request, "
    "xml.dom.minidom, zipfile"
)


def speed_probe() -> float:
    """Seconds for a fixed piece of standard-library work.

    The collector is off while it runs, so the objects ellfib leaves on
    the heap do not bill their collections to the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i, 7 + i % 5)
        table = {(i, i % 7): i * i for i in range(1500)}
        sorted(table.items(), reverse=True)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def cold_start_probe() -> float:
    """Seconds for an isolated interpreter to start and import COLD_REFERENCE_CODE."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", COLD_REFERENCE_CODE], check=True)
    return perf_counter() - t0


class SpeedGauge:
    """Probe times: read() between units, and samples taken during them.

    read() probes when every_s has passed since the last probe.  While
    sampling() is active (around one unit), a SIGALRM timer also probes
    every sample_every_s seconds in the middle of whatever runs, so an
    operation that takes seconds is scaled by the host's speed over its
    whole length, not at its two ends only.  A unit shorter than
    sample_every_s is never interrupted.
    """

    def __init__(self, probe=speed_probe, reference_s=PROBE_REFERENCE_S,
                 every_s=PROBE_EVERY_S, sample_every_s: float | None = PROBE_SAMPLE_EVERY_S):
        self.probe, self.reference_s = probe, reference_s
        self.every_s, self.sample_every_s = every_s, sample_every_s
        self.readings: list[float] = []
        self._take()

    def _take(self, *_signal) -> None:
        self.readings.append(self.probe())
        self.at = perf_counter()

    def read(self) -> int:
        """Probe if one is due; the index of the latest reading."""
        if perf_counter() - self.at >= self.every_s:
            self._take()
        return len(self.readings) - 1

    def scale(self, since: int) -> float:
        """Factor from measured to reference seconds for work since reading `since`.

        The mean of the readings from `since` on: a run's time is the
        sum of its moments, so the mean probe time follows its speed.
        """
        return self.reference_s / statistics.fmean(self.readings[since:])

    @contextlib.contextmanager
    def sampling(self):
        if self.sample_every_s is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.sample_every_s, self.sample_every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quantile(values, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# -- adapters from generated JSON to ellfib objects --------------------------


def _point(p):
    from ellfib.torus import TorusPoint

    return TorusPoint(Fraction(p["u"]), Fraction(p["v"]))


def _nerve_args(doc: dict):
    samples = doc["samples"]
    return (
        doc["charts"],
        [tuple(e) for e in doc["overlaps"]],
        [tuple(t) for t in doc["triples"]],
        samples["charts"],
        {tuple(k.split(",")): v for k, v in samples["overlaps"].items()},
        {tuple(k.split(",")): v for k, v in samples["triples"].items()},
    )


# -- runners: one per workload ------------------------------------------------


class Runner:
    """units: the run's inputs (see gen.py); run(op) -> (seconds, problems, weight)."""

    weight_name = "operations"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root, self.seed, self.scratch = root, seed, scratch
        self.units = self.make_inputs()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def gauge(self) -> SpeedGauge:
        return SpeedGauge()


class ModuliRunner(Runner):
    weight_name = "objects"

    def make_inputs(self):
        return gen.moduli_inputs()

    def warm_up(self):
        self.run(gen.moduli_op(2, 3, 1))

    def run(self, op):
        from ellfib.fibration import Nerve
        from ellfib.spectral import round_trip_verify

        labels = gen.sample_labels(op["samples"])
        t0 = perf_counter()
        report = round_trip_verify(Nerve.single_chart("c", labels), op["n"], op["torsion"])
        elapsed = perf_counter() - t0
        return elapsed, oracles.check_roundtrip(op, report), (
            report.sections_checked + report.bundles_checked
        )


class GerbeRunner(Runner):
    def make_inputs(self):
        return gen.gerbe_inputs(self.seed)

    def warm_up(self):
        import random

        doc, expect = gen.gerbe_doc(random.Random("warm"), "complete", 5, True, True)
        self.run({"kind": "gerbe", "doc": doc, "expect": expect})

    def run(self, op):
        from ellfib.fibration import (
            GerbeData, Nerve, TranslationCocycle, check_cocycle, coboundary_solve, gerbe_alpha,
        )

        doc = op["doc"]
        nerve_args = _nerve_args(doc["nerve"])
        if op["kind"] == "gerbe":
            a = {tuple(k.split(",")): Fraction(v) for k, v in doc["gerbe"]["a"].items()}
            c = {tuple(k.split(",")): Fraction(v) for k, v in doc["gerbe"]["c"].items()}
            t0 = perf_counter()
            nerve = Nerve(*nerve_args)
            report = gerbe_alpha(nerve, GerbeData(nerve, a, c))
            elapsed = perf_counter() - t0
            return elapsed, oracles.check_gerbe(doc, op["expect"], report), 1
        values = {
            tuple(k.split(",")): {s: _point(p) for s, p in per.items()}
            for k, per in doc["cocycle"]["lambda"].items()
        }
        t0 = perf_counter()
        nerve = Nerve(*nerve_args)
        cocycle = TranslationCocycle(values)
        report = check_cocycle(nerve, cocycle)
        mu = coboundary_solve(nerve, cocycle)
        elapsed = perf_counter() - t0
        return elapsed, oracles.check_cocycle(doc, op["expect"], report, mu), 1


class InvariantsRunner(Runner):
    def __init__(self, *args):
        super().__init__(*args)
        self.last = {}  # class key -> result of its first mode

    def make_inputs(self):
        return gen.invariants_inputs(self.seed)

    def warm_up(self):
        from ellfib.cohomology.ring import PRESET_NAMES, load_preset

        for name in PRESET_NAMES:
            load_preset(name)
        self.run(gen.invariants_fixed_case())

    def run(self, op):
        from ellfib.cohomology.engine import full_invariants
        from ellfib.cohomology.fields import MODES
        from ellfib.cohomology.ring import load_preset, ring_validate

        ring = load_preset(op["preset"])
        if op["kind"] == "validate":
            t0 = perf_counter()
            violations = ring_validate(ring)
            return perf_counter() - t0, oracles.check_validate(op, violations), 1
        a = [Fraction(x) for x in op["a"]]
        b = [Fraction(x) for x in op["b"]]
        t0 = perf_counter()
        result = full_invariants(ring, a, b, MODES[op["mode"]], synthetic=op["synthetic"])
        elapsed = perf_counter() - t0
        key = (op["preset"], tuple(op["a"]), tuple(op["b"]), op["synthetic"])
        partner = self.last.pop(key, None)
        if partner is None and not op.get("fixed"):
            self.last[key] = result
        return elapsed, oracles.check_invariants(op, result, partner), 1


# What the installed `ellfib` console script runs: import the module (from
# its bytecode cache) and call main() on sys.argv.
CONSOLE_SCRIPT = "import sys; from ellfib.cli import main; sys.exit(main())"


class CliRunner(Runner):
    """Cold `ellfib` processes, one at a time, as the console script starts them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.env = child_env(self.root)
        self.argv = {}  # id(op) -> argument list with the document path
        self.reference = {}  # id(op) -> (code, stdout) of in-process main
        self.earlier = {}  # id(op) -> stdout of the first cold run
        self.inprocess_s = []
        self.trace_dir = None  # set for the traced round: spans per process
        self.traced_processes = 0
        self.bytes_in = self.bytes_out = 0
        self.peak_kb = 0  # largest ru_maxrss of an untraced cold process
        self.ops = list({id(op): op for (op,) in self.units}.values())
        for n, op in enumerate(self.ops):
            path = self.scratch / f"doc{n}.json"
            if op["doc"] is not None:
                path.write_text(json.dumps(op["doc"], indent=1))
            self.argv[id(op)] = [arg.replace("{doc}", str(path)) for arg in op["args"]]

    def make_inputs(self):
        kodaira = self.root / "src/ellfib/cohomology/presets/kodaira.json"
        return gen.cli_inputs(self.seed, kodaira.read_text())

    def warm_up(self):
        from ellfib.cli import main

        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(self.argv[id(op)])
            self.inprocess_s.append(perf_counter() - t0)
            self.reference[id(op)] = (code, out.getvalue().encode())
        self._cold(self.ops[-1])

    def _cold(self, op):
        """One cold process: (seconds, exit code, stdout, stderr).

        The process is reaped with wait4 so that its own peak RSS is
        read; the reference starts of the gauge are not counted.
        """
        argv = self.argv[id(op)]
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        else:
            spans = self.trace_dir / f"p{self.traced_processes}.json"
            self.traced_processes += 1
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans), *argv]
        with open(self.scratch / "stdout", "w+b") as out, open(self.scratch / "stderr", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if self.trace_dir is None:
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return elapsed, proc.returncode, stdout, stderr

    def run(self, op):
        elapsed, code, stdout, stderr = self._cold(op)
        if self.trace_dir is not None:
            path = next((a for a in self.argv[id(op)] if a.endswith(".json")), None)
            self.bytes_in += os.path.getsize(path.removeprefix("file:")) if path else 0
            self.bytes_out += len(stdout)
        problems = oracles.check_cli(
            op, code, stdout, stderr, self.reference[id(op)], self.earlier.get(id(op)),
        )
        self.earlier.setdefault(id(op), stdout)
        return elapsed, problems, 1

    def peak_rss_kb(self):
        return self.peak_kb

    def gauge(self) -> SpeedGauge:
        return SpeedGauge(cold_start_probe, COLD_REFERENCE_S, COLD_PROBE_EVERY_S, None)


RUNNERS = {
    "moduli": ModuliRunner,
    "gerbe": GerbeRunner,
    "invariants": InvariantsRunner,
    "cli": CliRunner,
}


# -- measurement ---------------------------------------------------------------


class Measurement:
    """Each distinct operation's latency; failures count every run.

    latencies are medians of runs scaled to the reference host speed;
    raw_latencies are medians of the same runs as measured, for the report.
    """

    def __init__(self):
        self.latencies, self.raw_latencies, self.fixed = [], [], []
        self.weight = 0  # work of the distinct operations (objects on moduli)
        self.work_done = 0  # work of every run, repeats included
        self.attempted = self.failed = 0
        self.passes = 0
        self.probes: list[float] = []
        self.problems: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def measure(runner: Runner, budget_s: float | None = None, passes: int | None = None):
    """Passes over the runner's inputs; each operation's median run.

    The first pass always completes, so every input is measured; then
    passes go on until budget_s is spent (stopping mid-pass), or until
    `passes` passes have run.  Each run is scaled by the gauge's
    readings from the one before its unit to the one after it (see
    SpeedGauge).  The median, not the fastest run: the fastest of
    several scaled runs would favour runs whose probes happened to be
    slow, more so the more runs an operation gets.
    """
    m = Measurement()
    runs: dict[int, tuple] = {}  # id(op) -> (scaled runs, measured runs, weight, fixed)
    gauge = runner.gauge()
    start = perf_counter()
    while passes is None or m.passes < passes:
        for unit in gen.pass_order(runner.seed, m.passes, runner.units):
            if passes is None and m.passes and perf_counter() - start > budget_s:
                break
            before = gauge.read()
            done = []
            with gauge.sampling():
                for op in unit:
                    m.attempted += 1
                    try:
                        elapsed, problems, weight = runner.run(op)
                    except Exception as exc:  # an unexpected raise counts as a failed operation
                        problems = [f"{op['kind']} raised {exc!r}"]
                    if problems:
                        m.failed += 1
                        m.problems.extend(problems)
                        continue
                    m.work_done += weight
                    done.append((op, elapsed, weight))
            gauge.read()
            scale = gauge.scale(before)
            for op, elapsed, weight in done:
                entry = runs.setdefault(id(op), ([], [], weight, op.get("fixed", False)))
                entry[0].append(elapsed * scale)
                entry[1].append(elapsed)
        m.passes += 1
        if passes is None and perf_counter() - start > budget_s:
            break
    m.probes = gauge.readings
    for scaled, measured, weight, fixed in runs.values():
        m.latencies.append(statistics.median(scaled))
        m.raw_latencies.append(statistics.median(measured))
        m.weight += weight
        if fixed:
            m.fixed.append(m.latencies[-1])
    return m


def end_to_end(runner: Runner, m: Measurement) -> dict:
    """The metrics as (value, unit); a latency metric with no passing run is left out."""
    out = {}
    if m.latencies:
        ms = [x * 1000 for x in m.latencies]
        out["p50_ms"] = (statistics.median(ms), "ms")
        out["p75_ms"] = (quantile(ms, 0.75), "ms")
        out["p90_ms"] = (quantile(ms, 0.90), "ms")
        out["throughput_per_s"] = (m.weight / m.busy_s, "1/s")
    if m.fixed:
        out["fixed_case_ms"] = (min(m.fixed) * 1000, "ms")
    out["peak_rss_mb"] = (runner.peak_rss_kb() / 1024, "MB")
    return out


# -- traced run ------------------------------------------------------------------


def import_times(root: Path, repeats: int = 3) -> tuple[float, float]:
    """Median fresh `import ellfib.cli` time, and its sympy part (-X importtime)."""
    env = child_env(root)
    code = "import time; t = time.perf_counter(); import ellfib.cli; print(time.perf_counter() - t)"
    whole, sympy_part = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        whole.append(float(proc.stdout))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ellfib.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "sympy":
                sympy_part.append(int(fields[1]) / 1e6)
    return statistics.median(whole), statistics.median(sympy_part) if sympy_part else 0.0


LAYER_CALLS_TOTAL = (
    "bundles.make_bundle", "bundles.graded", "bundles.split_bundle",
    "transform.fm_transform", "transform.psi_transform", "transform.make_skyscraper",
    "cohomology.ring.mult_matrix", "cohomology.ring.dr_mult_matrix",
    "cohomology.ring.to_derham",
)
LAYER_TOTAL = (
    "spectral.beta_map", "spectral.gamma_map", "fibration.Nerve",
    "fibration.Nerve.tetrahedra", "fibration.check_cocycle", "fibration.coboundary_solve",
    "linalg.solve_gf2", "cohomology.char_to_eta", "cohomology.synthetic_eta",
    "cohomology.ring_validate",
)
LAYER_SELF = (
    "spectral.enumerate_cycles", "spectral.enumerate_bundles", "spectral.round_trip_verify",
    "fibration.validate_gerbe", "fibration.gerbe_alpha", "cohomology.borel_hodge",
    "cohomology.structure_maps", "cohomology.leray_betti",
)


def per_layer(summary: Summary, objects: int, *, import_s=0.0, sympy_s=0.0,
              inprocess_ms=0.0, bytes_in=0, bytes_out=0, overhead=0.0) -> dict:
    """Every per-layer metric as (value, unit); 0 where a layer is not entered."""
    out = {}
    for name in LAYER_CALLS_TOTAL:
        out[f"{name}.calls"] = (summary.calls_of(name), "count")
        out[f"{name}.total_s"] = (summary.total_s(name), "s")
    for name in LAYER_TOTAL:
        out[f"{name}.total_s"] = (summary.total_s(name), "s")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (summary.self_s(name), "s")
    for name in ("fibration.factorint", "linalg.integer_diagonalize"):
        out[f"{name}.calls"] = (summary.calls_of(name), "count")
        out[f"{name}.total_s"] = (summary.total_s(name), "s")
        out[f"{name}.distinct_share"] = (summary.distinct_share(name), "ratio")
    out["linalg.solve_integer.calls"] = (summary.calls_of("linalg.solve_integer"), "count")
    for dom in ("fraction", "poly2", "gauss"):
        name = f"linalg.exact_rank.{dom}"
        out[f"{name}.calls"] = (summary.calls_of(name), "count")
        out[f"{name}.total_s"] = (summary.total_s(name), "s")
        out[f"{name}.cells"] = (summary.counters.get(f"{name}.cells", 0), "count")
    for group in ("serialize.parse", "serialize.emit"):
        out[f"{group}.total_s"] = (summary.group_ns.get(group, 0) / 1e9, "s")
    out["torus.points_built"] = (summary.counters.get("torus.points_built", 0), "count")
    transforms = summary.calls_of("transform.fm_transform") + summary.calls_of(
        "transform.psi_transform"
    )
    out["spectral.transforms_per_object"] = (transforms / objects if objects else 0.0, "ratio")
    out["cli.import_s"] = (import_s, "s")
    out["cli.import_sympy_s"] = (sympy_s, "s")
    out["cli.inprocess_ms"] = (inprocess_ms, "ms")
    out["serialize.bytes_in"] = (bytes_in, "bytes")
    out["serialize.bytes_out"] = (bytes_out, "bytes")
    out["trace.overhead_share"] = (overhead, "ratio")
    return out


def traced_run(runner: Runner, seconds: float, workload: str, trace_dir: Path):
    """Plain passes for half the time, one pass traced, one plain.

    The first plain passes only warm the process (a fresh heap makes the
    first pass slower); each traced or plain pass runs every input once,
    and the overhead compares the two.
    """
    first = measure(runner, budget_s=seconds / 2)
    recorder = Recorder()
    summary = Summary()
    if isinstance(runner, CliRunner):
        runner.trace_dir = trace_dir / "cli"
        shutil.rmtree(runner.trace_dir, ignore_errors=True)
        runner.trace_dir.mkdir(parents=True)
    recorder.install()
    try:
        traced = measure(runner, passes=1)
    finally:
        recorder.uninstall()
    if isinstance(runner, CliRunner):
        runner.trace_dir = None
    plain = measure(runner, passes=1)
    recorder.dump(trace_dir / f"spans-{workload}.json")
    summary.add(recorder)
    if isinstance(runner, CliRunner):
        for path in sorted((trace_dir / "cli").glob("*.json")):
            summary.add(Recorder.load(path))
    import_s, sympy_s = import_times(runner.root)
    cli = {}
    if isinstance(runner, CliRunner):
        cli = {
            "inprocess_ms": statistics.median(runner.inprocess_s) * 1000,
            "bytes_in": runner.bytes_in,
            "bytes_out": runner.bytes_out,
        }
    metrics = per_layer(
        summary,
        traced.work_done if isinstance(runner, ModuliRunner) else 0,
        import_s=import_s,
        sympy_s=sympy_s,
        overhead=traced.busy_s / plain.busy_s - 1 if plain.busy_s else 0.0,
        **cli,
    )
    return [first, traced, plain], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/ellfib")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    import ellfib

    if Path(ellfib.__file__).resolve().parent != root / "src" / "ellfib":
        print(f"error: ellfib imported from {ellfib.__file__}, not {root}/src", file=sys.stderr)
        return 2
    scratch = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = RUNNERS[args.workload](root, args.seed, scratch)
    warm_problems = []
    try:
        runner.warm_up()
    except Exception as exc:  # the measured passes count the operations that fail
        warm_problems.append(f"warm-up raised {exc!r}")
    if args.trace:
        runs, metrics = traced_run(runner, args.seconds, args.workload, scratch.parent / "trace")
    else:
        runs = [measure(runner, budget_s=args.seconds)]
        metrics = end_to_end(runner, runs[0])
    raw_ms = [x * 1000 for x in runs[0].raw_latencies]
    measured = {"probe_ms": statistics.median(runs[0].probes) * 1000}
    if raw_ms:
        measured.update(p50_ms=statistics.median(raw_ms), p90_ms=quantile(raw_ms, 0.90))
    result = {
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "problems": (warm_problems + [p for m in runs for p in m.problems])[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": {
            "operations": len(runs[0].latencies),
            "fixed_case": len(runs[0].fixed),
            "passes": runs[0].passes,
            runner.weight_name: runs[0].weight,
        },
        "inputs_sha256": gen.inputs_digest(runner.units),
        "measured": measured,
    }
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
