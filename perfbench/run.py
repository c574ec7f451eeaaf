"""ellfib benchmark: one seeded workload, checked by oracles, as metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/ellfib; nothing is built
or installed, the package is imported from src.  Workloads:

  moduli      round_trip_verify over a fixed set of (n, torsion, samples)
  gerbe       gerbe_alpha on grid and complete nerves, and cocycle documents
  invariants  full_invariants in both modes on the three presets
  cli         cold `ellfib` processes covering all twelve verbs
  all         the four above in turn (not used by BENCHMARK.json)

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics from a traced run.  Every line but the last is a
readable report naming each metric as WORKLOAD.METRIC with its unit and
sample count; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import COLD_REFERENCE_S, child_env, cold_start_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("moduli", "gerbe", "invariants", "cli")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 165
SETUP_CODE = (
    "import ellfib.cli\n"
    "from ellfib.cohomology.ring import PRESET_NAMES, load_preset\n"
    "for name in PRESET_NAMES:\n"
    "    load_preset(name)\n"
)


def checkout_problem() -> str | None:
    needed = [ROOT / "src/ellfib/cli.py"] + [
        ROOT / f"src/ellfib/cohomology/presets/{name}.json"
        for name in ("kodaira", "torus4", "k3")
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"not an ellfib checkout, missing {', '.join(missing)}" if missing else None


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ellfib.cli imported and the presets loaded.

    Returns each start's time scaled to the reference host speed, and
    as measured.  One untimed start first writes the bytecode caches an
    installed package would already have.  The timed starts alternate
    with reference starts (worker.cold_start_probe), and each is scaled
    by COLD_REFERENCE_S over the mean of the two around it.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    before = cold_start_probe()
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        elapsed = perf_counter() - t0
        after = cold_start_probe()
        measured.append(elapsed)
        scaled.append(elapsed * 2 * COLD_REFERENCE_S / (before + after))
        before = after
    return scaled, measured


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--root", str(ROOT),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = child_env(ROOT)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    prefix = args.workload == "all"
    metrics, attempted, failed = {}, 0, 0
    if not args.trace:
        setup, measured = setup_seconds(env)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print(f"setup_s = {metrics['setup_s']['value']:.4f} s (median of {len(setup)} starts; "
              f"as measured, before scaling to the reference speed: {statistics.median(measured):.4f} s)")
    for workload in workloads:
        try:
            result = run_worker(workload, args.seed, args.seconds, args.trace, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        samples = ", ".join(f"{k} {v}" for k, v in result["samples"].items())
        measured = ", ".join(f"{k} {v:.6g}" for k, v in result["measured"].items())
        print(f"{workload}: inputs sha256 {result['inputs_sha256']}; samples: {samples}")
        print(f"  as measured, before scaling to the reference speed: {measured}")
        for name, metric in result["metrics"].items():
            print(f"  {workload}.{name} = {metric['value']:.6g} {metric['unit']}")
            metrics[f"{workload}.{name}" if prefix else name] = metric
        share = result["failed"] / result["attempted"]
        print(f"  {workload}.failed_share = {share:.6g} ({result['failed']} of {result['attempted']})")
        for line in result["problems"]:
            print(f"  problem: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
