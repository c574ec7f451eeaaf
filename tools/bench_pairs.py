"""Alternating parent/change runs of one benchmark workload, summarized.

    python3 tools/bench_pairs.py WORKLOAD PARENT_REV PR

Extracts PARENT_REV (any git revision of this repository) with
`git archive` into .bench_build/parent-<sha>/, and the working tree's
tracked files, as `git stash create` records them (HEAD when the tree is
clean), into .bench_build/change-<sha>/; untracked files are left out,
so a new file must be `git add`ed first.  Both sides thus run from paths
of the same length.  It then runs

    perfbench/run.py --workload WORKLOAD --seed N --seconds 20

ten times in each checkout, in pairs: pair i uses seed i on both sides,
and the side that runs first alternates (the parent in even pairs, the
change in odd ones), so drift in the host's speed does not favour one
side.

The summary is written to BENCH_<PR>.json at the repository root, under
the workload's name; workloads already in the file are kept, so one file
collects all four.  For each end-to-end metric of BENCHMARK.json it
holds every run of both sides, both medians, each side's quartile
distance, the number of pairs the change won (ties count for neither)
and the change's relative worsening against the metric's bound; for the
workload, the operations attempted and failed on each side and their
share.  A run that exits nonzero, outlasts RUN_TIMEOUT_S or whose last
line is no report is recorded as failed, with the reason on stderr, and
the pairs go on.

Standard library only.  perfbench/ is read, never written: each run
keeps its scratch files under .bench_build/ of the checkout that ran it.
"""

from __future__ import annotations

import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 20
RUN_TIMEOUT_S = 600


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def parent_checkout(rev: str) -> tuple[str, Path]:
    """The full sha of rev and a checkout of its committed files."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    return sha, _extract(sha, "parent")


def change_checkout() -> tuple[str, Path]:
    """The sha of the working tree's tracked files as a commit, and a checkout of them."""
    sha = _git("stash", "create") or _git("rev-parse", "--verify", "HEAD^{commit}")
    return sha, _extract(sha, "change")


def _extract(sha: str, side: str) -> Path:
    """The committed files of sha under .bench_build/<side>-<sha12>/, extracted once."""
    dest = ROOT / ".bench_build" / f"{side}-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True
        ).stdout
        dest.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """The last line of one run.py report, or None when the run failed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS),
    ]
    # a session of its own, so a timeout also ends the worker run.py started
    proc = subprocess.Popen(
        cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _failed(checkout, seed, f"no report within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        return _failed(checkout, seed, f"exit code {proc.returncode}")
    last = (out.strip().splitlines() or [""])[-1]
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict) or not {"attempted", "failed", "metrics"} <= report.keys():
        return _failed(checkout, seed, f"last line is no report: {last[:200]!r}")
    return report


def _failed(checkout: Path, seed: int, reason: str) -> None:
    print(f"run failed in {checkout} with seed {seed}: {reason}", file=sys.stderr)
    return None


def quartile_distance(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(spec: dict, runs: dict[str, list[dict | None]]) -> dict:
    """Per-metric medians, spreads and pair wins; per-side operation counts."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if p and c and name in p["metrics"] and name in c["metrics"]
        ]
        if len(pairs) < 2:
            metrics[name] = {"unit": metric["unit"], "pairs": len(pairs)}
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        worse = (c_med - p_med if lower else p_med - c_med) / p_med if p_med else 0.0
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "pairs": len(pairs),
            "parent_median": p_med,
            "change_median": c_med,
            "parent_quartile_distance": quartile_distance(parent),
            "change_quartile_distance": quartile_distance(change),
            "change_wins": wins,
            "change_worse_by": worse,
            "within_bound": worse <= metric["bound"],
            "parent_runs": parent,
            "change_runs": change,
        }
    counts = {}
    for side, side_runs in runs.items():
        done = [r for r in side_runs if r]
        attempted, failed = sum(r["attempted"] for r in done), sum(r["failed"] for r in done)
        counts[side] = {
            "runs": len(side_runs),
            "runs_failed": len(side_runs) - len(done),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else None,
        }
    return {"operations": counts, "metrics": metrics}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    workload, rev, pr = argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    sha, parent_root = parent_checkout(rev)
    change_sha, change_root = change_checkout()
    sides = {"parent": parent_root, "change": change_root}
    runs: dict[str, list[dict | None]] = {"parent": [], "change": []}
    order = []
    for seed in range(1, PAIRS + 1):
        first = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        order.append(first[0])
        for side in first:
            result = run_once(sides[side], workload, seed)
            runs[side].append(result)
            print(f"pair {seed} {side}: "
                  + ("failed" if result is None else f"{result['failed']} of "
                     f"{result['attempted']} operations failed"), file=sys.stderr)
    out = ROOT / f"BENCH_{int(pr)}.json"
    record = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    record["workloads"][workload] = {
        "parent": sha,
        "change": change_sha,
        "seconds": SECONDS,
        "seeds": list(range(1, PAIRS + 1)),
        "first": order,
        **summarize(spec, runs),
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
