"""Record one benchmark point: every workload of perfbench/run.py, run as a black box.

    python3 bench/point.py --out BENCH_<n>.json [--root DIR] [--seconds S]
                           [--against REV [--pairs N]]

For each workload that ROOT/BENCHMARK.json declares, this runs
``python3 perfbench/run.py --workload W --seconds S`` in the checkout
ROOT (default: this repository), unchanged and untraced, and reads
the result JSON from the last line of its stdout, then times one tier-1 run,
``python -m pytest -q -p no:cacheprovider`` in ROOT with ``PYTHONPATH=src``.
Every run is made with bytecode caching off: PYTHONDONTWRITEBYTECODE set, and
the ``__pycache__`` directories under ROOT's ``src/`` and ``perfbench/``
removed first, so that a point times the source and not bytecode left by an
earlier run.  It appends one point to OUT: the checkout's commit (``-dirty``
when its working tree differs from it), a digest of its ``src/`` tree, the
Python version, the CPU count, whether bytecode caching was off
(PYTHONDONTWRITEBYTECODE set and no ``__pycache__`` under ``src/``), each
workload's metrics, and the tier-1 seconds with its passed and failed counts
(errors count as failed).  It exits 1 when a workload is incorrect or a tier-1
test fails.  A point never replaces an earlier one; compare points only when
they were taken on the same machine.

``--against REV`` makes the point a paired comparison.  REV is checked out
with ``git worktree add --detach`` into a temporary directory (local only, no
fetch), which is removed again on every exit.  Each workload then runs N times
(``--pairs``, default 10) in each tree, alternating which tree goes first.  The
point's ``workloads`` then hold ROOT's medians, and its ``against`` key holds
REV's commit and ``src/`` digest and, per workload and metric, both medians,
REV's interquartile range and in how many pairs ROOT did better, in the
direction BENCHMARK.json gives.  The tier-1 run stays one run of ROOT, and
an incorrect workload in either tree gives exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent.parent


def commit(root: Path) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_digest(root: Path) -> str:
    """sha256 over the paths and bytes of the .py files under src/, in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(root: Path, workload: str, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"point.py: {workload} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


@contextlib.contextmanager
def worktree(root: Path, rev: str) -> Iterator[Path]:
    """A detached checkout of ``rev`` in a temporary directory, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="point-against-"))
    tree = tmp / "tree"
    git = ["git", "-C", str(root), "worktree"]
    try:
        proc = subprocess.run(git + ["add", "--detach", str(tree), rev], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"point.py: cannot check out {rev}: {proc.stderr.strip()}")
        yield tree
    finally:
        subprocess.run(git + ["remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(git + ["prune"], capture_output=True)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def run_pairs(trees: list[Path], workload: str, seconds: float, pairs: int) -> list[list[dict]]:
    """``pairs`` runs of the workload in each tree; the first tree leads in even pairs."""
    runs: list[list[dict]] = [[] for _ in trees]
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(run_workload(trees[side], workload, seconds))
    return runs


def summarize(runs: list[dict]) -> dict:
    """Several runs of one workload as one: all correct, summed counts, median metrics."""
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: statistics.median(r["metrics"][name] for r in runs)
                        for name in runs[0]["metrics"]}}


def compare(base: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both medians, the base's [q1, q3] and the pairs the change did better in."""
    out = {}
    for name in change[0]["metrics"]:
        b = [r["metrics"][name] for r in base]
        c = [r["metrics"][name] for r in change]
        sign = -1 if better.get(name) == "higher" else 1
        out[name] = {"base_median": statistics.median(b), "change_median": statistics.median(c),
                     "base_iqr": quartiles(b),
                     "change_wins": sum(sign * (y - x) < 0 for x, y in zip(b, c))}
    return out


def run_against(root: Path, rev: str, workloads: list[str], seconds: float, pairs: int,
                better: dict[str, str]) -> tuple[dict, dict]:
    """Each workload ``pairs`` times in a worktree of ``rev`` and in ``root``, alternating.

    Returns root's workloads, as medians, and the ``against`` record: rev's
    commit and digest and, per workload, rev's correctness and the comparison.
    """
    with worktree(root, rev) as base:
        against = {"rev": rev, "commit": commit(base), "src_sha256": src_digest(base), "pairs": pairs}
        paired = {name: run_pairs([base, root], name, seconds, pairs) for name in workloads}
    against["workloads"] = {
        name: {"correct": all(r["correct"] for r in base_runs),
               "failed": sum(r["failed"] for r in base_runs),
               "metrics": compare(base_runs, change_runs, better)}
        for name, (base_runs, change_runs) in paired.items()
    }
    return {name: summarize(change_runs) for name, (_, change_runs) in paired.items()}, against


def run_tier1(root: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH="src"))
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1: some test failed; anything else: no usable run
        raise SystemExit(f"point.py: tier-1 pytest exited {proc.returncode}: {proc.stdout[-500:]}")
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"seconds": seconds, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--pairs", type=int)
    args = parser.parse_args(argv)
    if args.pairs is not None and (args.against is None or args.pairs < 1):
        parser.error("--pairs needs --against and must be at least 1")
    root = args.root.resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in declared["workloads"]]
    if args.against is not None:
        # a terminated run still removes its worktree
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    for cache in [p for top in ("src", "perfbench") for p in (root / top).rglob("__pycache__")]:
        shutil.rmtree(cache)
    point = {
        "commit": commit(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "no_bytecode_cache": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
        and not any((root / "src").rglob("__pycache__")),
        "seconds": seconds,
    }
    if args.against is None:
        point["workloads"] = {name: run_workload(root, name, seconds) for name in workloads}
    else:
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        point["workloads"], point["against"] = run_against(
            root, args.against, workloads, seconds, args.pairs or 10, better)
    point["tier1"] = run_tier1(root)
    points = json.loads(args.out.read_text())["points"] if args.out.exists() else []
    args.out.write_text(json.dumps({"points": points + [point]}, indent=2) + "\n")
    sides = [point["workloads"], point.get("against", {}).get("workloads", {})]
    correct = all(w["correct"] for side in sides for w in side.values())
    return 0 if correct and point["tier1"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
