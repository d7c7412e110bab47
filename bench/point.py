"""Record one benchmark point: every workload of perfbench/run.py, run as a black box.

    python3 bench/point.py --out BENCH_<n>.json [--root DIR] [--seconds S]

For each workload that ROOT/BENCHMARK.json declares, this runs
``python3 perfbench/run.py --workload W --seconds S`` in the checkout
ROOT (default: this repository), unchanged and untraced, and reads
the result JSON from the last line of its stdout, then times one tier-1 run,
``python -m pytest -q -p no:cacheprovider`` in ROOT with ``PYTHONPATH=src``.
It appends one point to OUT: the checkout's commit (``-dirty`` when its
working tree differs from it), a digest of its ``src/`` tree, the Python
version, the CPU count, whether bytecode caching was off (PYTHONDONTWRITEBYTECODE
set and no ``__pycache__`` under ``src/`` to read from), each workload's
metrics, and the tier-1 seconds with its passed and failed counts (errors
count as failed).  It exits 1 when a workload is incorrect or a tier-1 test
fails.  A point never replaces an earlier one; compare points only when they
were taken on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

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
    args = parser.parse_args(argv)
    root = args.root.resolve()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    point = {
        "commit": commit(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "no_bytecode_cache": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
        and not any((root / "src").rglob("__pycache__")),
        "seconds": seconds,
        "workloads": {w["name"]: run_workload(root, w["name"], seconds)
                      for w in declared["workloads"]},
        "tier1": run_tier1(root),
    }
    points = json.loads(args.out.read_text())["points"] if args.out.exists() else []
    args.out.write_text(json.dumps({"points": points + [point]}, indent=2) + "\n")
    correct = all(w["correct"] for w in point["workloads"].values())
    return 0 if correct and point["tier1"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
