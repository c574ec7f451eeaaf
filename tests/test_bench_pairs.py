"""tools/bench_pairs.py records a bad run as failed and keeps the pairs it has.

Each test runs a stub perfbench/run.py in a checkout under tmp_path; the
workload name picks what the stub does.  The last test extracts both sides'
checkouts from a git repository under tmp_path.
"""

import json
import subprocess
import time
from pathlib import Path

import pytest

import bench_pairs

STUB = '''
import json, subprocess, sys, time
from pathlib import Path

workload = sys.argv[sys.argv.index("--workload") + 1]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if workload == "hang":
    # a worker of its own that holds stdout open, as run.py's worker does
    worker = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    Path("worker.pid").write_text(str(worker.pid))
    time.sleep(60)
elif workload == "garbage":
    print("progress line")
    print("not a report")
elif workload == "list":
    print(json.dumps([1, 2]))
elif workload == "crash":
    print("boom", file=sys.stderr)
    sys.exit(3)
else:
    print("progress line")
    print(json.dumps({
        "correct": seed == 0,
        "attempted": 100,
        "failed": seed,
        "metrics": {"p50_ms": {"value": 1.0 + seed, "unit": "ms"}},
    }))
'''

SPEC = {"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    return tmp_path


def running(pid: int) -> bool:
    """pid names a live process, not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_a_run_past_the_timeout_fails_and_leaves_no_process(checkout, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 1.0)
    start = time.perf_counter()
    assert bench_pairs.run_once(checkout, "hang", 1) is None
    # the stub and its worker sleep for 60 s; both are killed at the timeout
    assert time.perf_counter() - start < 10
    assert "no report within 1.0 s" in capsys.readouterr().err
    worker = int((checkout / "worker.pid").read_text())
    deadline = time.monotonic() + 2
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(worker)


@pytest.mark.parametrize("workload", ["garbage", "list"])
def test_a_last_line_that_is_no_report_fails(checkout, capsys, workload):
    assert bench_pairs.run_once(checkout, workload, 1) is None
    assert "last line is no report" in capsys.readouterr().err


def test_a_nonzero_exit_fails_with_its_stderr(checkout, capsys):
    assert bench_pairs.run_once(checkout, "crash", 1) is None
    err = capsys.readouterr().err
    assert "boom" in err and "exit code 3" in err


def test_a_report_is_read_from_the_last_line(checkout):
    report = bench_pairs.run_once(checkout, "ok", 2)
    assert report["attempted"] == 100 and report["failed"] == 2
    assert report["metrics"]["p50_ms"]["value"] == 3.0


def test_summary_skips_failed_runs_and_gives_each_side_its_failed_share(checkout):
    ok = [bench_pairs.run_once(checkout, "ok", seed) for seed in range(3)]
    runs = {"parent": [ok[0], None, ok[2]], "change": ok}
    summary = json.loads(json.dumps(bench_pairs.summarize(SPEC, runs)))
    assert summary["operations"]["parent"] == {
        "runs": 3, "runs_failed": 1, "attempted": 200, "failed": 2, "failed_share": 0.01,
    }
    assert summary["operations"]["change"]["failed_share"] == 3 / 300
    p50 = summary["metrics"]["p50_ms"]
    # the pair whose parent run failed drops out
    assert p50["pairs"] == 2
    assert p50["parent_runs"] == p50["change_runs"] == [1.0, 3.0]
    assert p50["change_wins"] == 0 and p50["within_bound"]
    no_runs = bench_pairs.summarize(SPEC, {"parent": [None], "change": [None]})
    assert no_runs["operations"]["parent"]["failed_share"] is None
    assert no_runs["metrics"]["p50_ms"] == {"unit": "ms", "pairs": 0}


def test_the_change_side_runs_an_extracted_checkout_of_the_working_tree(tmp_path, monkeypatch):
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.org")
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=repo, capture_output=True, text=True, check=True
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stub")
    head = git("rev-parse", "HEAD")
    (repo / "perfbench" / "run.py").write_text(STUB + "# edited\n")
    (repo / "untracked.py").write_text("")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    sha, change = bench_pairs.change_checkout()
    # the uncommitted edit is in the checkout; an untracked file is not
    assert sha != head and change == repo / ".bench_build" / f"change-{sha[:12]}"
    assert (change / "perfbench" / "run.py").read_text().endswith("# edited\n")
    assert not (change / "untracked.py").exists()
    _, parent = bench_pairs.parent_checkout("HEAD")
    assert len(str(parent)) == len(str(change))
    assert (parent / "perfbench" / "run.py").read_text() == STUB
    # a clean tree runs its HEAD
    git("commit", "-q", "-am", "edit")
    assert bench_pairs.change_checkout()[0] == git("rev-parse", "HEAD")


def test_an_unchanged_dirty_tree_keeps_one_change_checkout(tmp_path, monkeypatch):
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.org")
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=repo, capture_output=True, text=True, check=True
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stub")
    (repo / "perfbench" / "run.py").write_text(STUB + "# edited\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    archives = []
    run = subprocess.run

    def counted(cmd, *args, **kwargs):
        if cmd[:2] == ["git", "archive"]:
            archives.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(bench_pairs.subprocess, "run", counted)
    first = bench_pairs.change_checkout()
    # a stash commit made a second later would carry another date
    time.sleep(1.1)
    assert bench_pairs.change_checkout() == first
    assert len(archives) == 1
    # an edit gives another sha
    (repo / "perfbench" / "run.py").write_text(STUB + "# edited twice\n")
    assert bench_pairs.change_checkout()[0] != first[0]
