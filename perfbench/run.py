"""Benchmark for polygv: three workloads, end-to-end times, outside-in trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run it from the repository root.  Load is a closed loop with one client:
this process starts one polygv child at a time and starts the next job
only when the last has ended, for about ``--seconds``.  Children
import polygv from ``src/`` and inherit ``POLYGV_THREADS`` untouched, so
they measure what a user gets by default.  Wall time and peak memory
(``ru_maxrss`` from ``wait4``) are measured per child.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs; a traced job runs ``perfbench/child.py``, which
wraps polygv's public functions from outside (see ``tracer.py``), and the
per-layer metrics come from its span summaries.  Either way every output
is checked against an independent route (``checks.py``); a wrong output or
a crash counts in ``failed``.  The last line of stdout is the result JSON;
the lines above it record the environment and the detail.  ``--all``
rewrites ``BENCHMARK.json`` from ``spec.py``, then runs every workload in
both modes and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import child
import spec
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
POLYGV = [sys.executable, "-c", "import sys; from polygv.cli import main; sys.exit(main())"]
IMPORT = [sys.executable, "-c", "import polygv"]
SETUP_REPEATS = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


@dataclass
class Call:
    code: int
    wall: float
    rss_mb: float
    out: bytes
    err: bytes


@dataclass
class Job:
    walls: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)

    def ops(self, attempted: int, failed: int, problems: list[str]) -> None:
        """Record operations; any problem fails at least one of them."""
        self.attempted += attempted
        self.failed += min(attempted, max(failed, 1 if problems else 0))
        self.problems += problems


class Runner:
    """Starts children one at a time in the checkout, with ``src`` on the path."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference: dict[str, bytes] = {}

    def run(self, argv: list[str]) -> Call:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())

    def polygv(self, args: list[str], trace_file: Path | None) -> Call:
        if trace_file is None:
            return self.run(POLYGV + args)
        return self.run([sys.executable, str(HERE / "child.py"), "--trace", str(trace_file), "cli", *args])

    def same_as_before(self, key: str, out: bytes) -> list[str]:
        """Problems if ``out`` differs from the first output seen for ``key``."""
        first = self.reference.setdefault(key, out)
        return [] if first == out else [f"{key}: output differs from an earlier identical call"]


def _load_summary(path: Path | None) -> list[dict]:
    """The trace summary a traced child left, removed so the next child cannot reuse it."""
    if path is None:
        return []
    try:
        return [json.loads(path.read_text())]
    except (OSError, ValueError):
        return []
    finally:
        path.unlink(missing_ok=True)


# -- workloads ---------------------------------------------------------------------


class VerifyFull:
    """``polygv verify --suite all --grid full``; every check must PASS."""

    ARGS = ["verify", "--suite", "all", "--grid", "full"]
    MIN_CHECKS = 28
    seed_note = "the seed has no effect on verify-full: its inputs are fixed"

    def __init__(self, runner: Runner, rng: random.Random):
        self.runner = runner

    def job(self, trace_file: Path | None) -> Job:
        job = Job()
        call = self.runner.polygv(self.ARGS, trace_file)
        job.walls.append(call.wall)
        job.rss_mb.append(call.rss_mb)
        job.summaries += _load_summary(trace_file)
        lines = call.out.decode(errors="replace").splitlines()
        results = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        passed = sum(1 for line in results if line.startswith("PASS"))
        checked = max(len(results), self.MIN_CHECKS)
        problems = [line for line in results if not line.startswith("PASS")]
        if len(results) < self.MIN_CHECKS:
            problems.append(f"verify printed {len(results)} check lines, expected at least {self.MIN_CHECKS}")
        want_tail = f"checks={len(results)} passed={len(results)} failed=0"
        if call.code != 0 or not lines or not lines[-1].endswith(want_tail):
            problems.append(f"verify: exit {call.code}, last line {lines[-1:]!r}")
        problems += self.runner.same_as_before("verify", call.out)
        job.ops(checked, checked - passed, problems)
        return job


class ExplicitStretch:
    """One child runs the three large explicit-complex items, in seed order."""

    seed_note = "the seed orders the items"

    def __init__(self, runner: Runner, rng: random.Random):
        self.runner = runner
        self.order = list(child.STRETCH_ITEMS)
        rng.shuffle(self.order)
        self.ops = [name for item in self.order for name, _ in child.STRETCH_ITEMS[item]]
        self.seed_note = f"the seed orders the items: {','.join(self.order)}"

    def job(self, trace_file: Path | None) -> Job:
        job = Job()
        argv = [sys.executable, str(HERE / "child.py")]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        call = self.runner.run(argv + ["stretch", ",".join(self.order)])
        job.walls.append(call.wall)
        job.rss_mb.append(call.rss_mb)
        job.summaries += _load_summary(trace_file)
        reported = {}
        for line in call.out.decode(errors="replace").splitlines():
            try:
                obj = json.loads(line)
                reported[obj["op"]] = obj
            except (ValueError, KeyError, TypeError):
                pass
        problems = []
        for op in self.ops:
            if op not in reported:
                problems.append(f"{op}: no result (exit {call.code})")
            elif not reported[op]["ok"]:
                problems.append(f"{op}: {reported[op]['note']}")
        if call.code != 0 and not problems:
            problems.append(f"stretch: exit {call.code}")
        job.ops(len(self.ops), len(problems), problems)
        return job


DIAMOND = (1, 6, 9, 2)
CYCLIC = (4, 10)
Q = (1, 6, 9)
RAY = (1, 6, 7, 30)


class CliCalls:
    """One job is one round of the seven-call mix, in an order the seed shuffles."""

    def __init__(self, runner: Runner, rng: random.Random):
        self.runner = runner
        self.rng = rng
        k, d, n, a = DIAMOND
        self.diamond_path = runner.work / "diamond.json"
        rel = str(self.diamond_path.relative_to(ROOT))
        self.calls = {
            "construct-diamond": (["construct", "--family", "diamond", "--k", str(k), "--d", str(d),
                                   "--n", str(n), "--a", str(a)],
                                  lambda out: checks.check_diamond_json(out, *DIAMOND)),
            "construct-cyclic": (["construct", "--family", "cyclic", "--K", str(CYCLIC[0]), "--m", str(CYCLIC[1])],
                                 lambda out: checks.check_cyclic_json(out, *CYCLIC)),
            "fvec": (["fvec", "--in", rel], lambda out: checks.check_fvec(out, self.diamond)),
            "gvec": (["gvec", "--in", rel], lambda out: checks.check_gvec(out, self.diamond, *DIAMOND)),
            "q-report": (["q-report", "--k", str(Q[0]), "--d", str(Q[1]), "--n", str(Q[2]), "--format", "json"],
                         lambda out: checks.check_q_report(out, *Q)),
            "ray": (["ray", "--k", str(RAY[0]), "--d", str(RAY[1]), "--n-from", str(RAY[2]), "--n-to", str(RAY[3])],
                    lambda out: checks.check_ray(out, *RAY)),
            "stackedness": (["stackedness", "--k", str(Q[0]), "--d", str(Q[1]), "--n", str(Q[2])],
                            lambda out: checks.check_stackedness(out, Q[1], Q[2])),
        }
        # the input file of fvec and gvec, made once by the program itself
        first = runner.polygv(self.calls["construct-diamond"][0], None)
        self.diamond = first.out.decode()
        problems = self._problems("construct-diamond", first)
        if problems:
            raise RuntimeError("cannot make the cli-calls input: " + "; ".join(problems))
        self.diamond_path.write_bytes(first.out)
        self.seed_note = "the seed shuffles the order of the calls in every round"

    def _problems(self, key: str, call: Call) -> list[str]:
        if call.code != 0:
            return [f"{key}: exit {call.code}: {call.err.decode(errors='replace')[-200:]}"]
        try:
            problems = self.calls[key][1](call.out.decode())
        except Exception as exc:  # malformed output is a failed call, not a crash
            problems = [f"{key}: unreadable output ({type(exc).__name__}: {exc})"]
        return problems + self.runner.same_as_before(key, call.out)

    def job(self, trace_file: Path | None) -> Job:
        job = Job()
        order = list(self.calls)
        self.rng.shuffle(order)
        for key in order:
            call = self.runner.polygv(self.calls[key][0], trace_file)
            job.walls.append(call.wall)
            job.rss_mb.append(call.rss_mb)
            job.summaries += _load_summary(trace_file)
            job.ops(1, 0, self._problems(key, call))
        return job


WORKLOAD_TYPES = {"verify-full": VerifyFull, "explicit-stretch": ExplicitStretch, "cli-calls": CliCalls}


# -- statistics -----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its label.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies, and the
    maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of n={n} (under {TAIL_BEYOND + 1} samples)"
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of n={n}"


# -- environment --------------------------------------------------------------------


def parse_importtime(stderr: str) -> dict[str, tuple[int, float]]:
    """module -> (depth, cumulative seconds) from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        out[name.strip()] = (depth, int(cumulative) / 1e6)
    return out


def import_breakdown(runner: Runner) -> dict:
    """Cumulative import seconds of polygv's modules and of networkx, medians of a few probes."""
    probes = []
    for _ in range(IMPORT_PROBES):
        call = runner.run([sys.executable, "-X", "importtime", "-c", "import polygv.cli"])
        if call.code != 0:
            raise RuntimeError("import polygv.cli failed: " + call.err.decode(errors="replace")[-300:])
        probes.append(parse_importtime(call.err.decode(errors="replace")))
    names = [name for name in probes[0] if name.startswith("polygv") or name == "networkx"]
    breakdown = {name: statistics.median(p.get(name, (0, 0.0))[1] for p in probes) for name in names}
    # `import polygv.cli` shows two top-level entries: the package, then the CLI module
    cli_import = statistics.median(sum(s for name, (depth, s) in p.items()
                                       if depth == 0 and name.startswith("polygv")) for p in probes)
    return {"modules_s": breakdown, "cli_import_s": cli_import, "networkx_s": breakdown.get("networkx", 0.0)}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, workload: str, imports: dict) -> dict:
    threads = os.environ.get("POLYGV_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "POLYGV_THREADS": threads if threads is not None else f"unset (the CPU count, {os.cpu_count()})",
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "import_breakdown_s": {k: round(v, 6) for k, v in imports["modules_s"].items()},
    }


# -- one run --------------------------------------------------------------------------


def setup(runner: Runner) -> tuple[list[float], dict]:
    """Warm the bytecode cache, time interpreter start plus ``import polygv``, probe imports."""
    probe = runner.run([sys.executable, "-c", "import polygv; print(polygv.__file__)"])
    where = probe.out.decode().strip()
    if probe.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"polygv does not import from {SRC}: {probe.err.decode(errors='replace')[-300:]}")
    return [runner.run(IMPORT).wall for _ in range(SETUP_REPEATS)], import_breakdown(runner)


def measure(name: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    setup_times, imports = setup(runner)
    workload = WORKLOAD_TYPES[name](runner, random.Random(seed))
    plain: list[Job] = []
    traced: list[Job] = []
    start = time.perf_counter()
    while True:
        # one more set-up sample per job, so setup_s spans the whole run
        setup_times.append(runner.run(IMPORT).wall)
        plain.append(workload.job(None))
        if trace:
            trace_file = runner.work / f"trace-{len(traced)}"
            traced.append(workload.job(trace_file))
        # go on while the next round is expected to end, to within half a
        # round, inside the window, so a run lasts about `seconds`
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain) > seconds:
            break
    setup_s = statistics.median(setup_times)
    jobs = plain + traced
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    problems = [p for j in jobs for p in j.problems]
    calls = [w for j in plain for w in j.walls]
    lines = [f"note: {workload.seed_note}"]
    detail: dict = {}
    if not trace:
        tail_ms, tail_label = tail([w * 1000 for w in calls])
        values = {
            "setup_s": (setup_s, f"median of {len(setup_times)} starts of `python3 -c 'import polygv'`"),
            "wall_s": (statistics.median(sum(j.walls) for j in plain), f"median of {len(plain)} jobs"),
            "peak_rss_mb": (statistics.median(max(j.rss_mb) for j in plain),
                            f"median over {len(plain)} jobs of the largest child ru_maxrss"),
            "call_p50_ms": (statistics.median(calls) * 1000, f"median of n={len(calls)} child calls"),
            "call_tail_ms": (tail_ms, tail_label),
            "calls_per_s": (len(calls) / sum(calls), f"{len(calls)} calls over {sum(calls):.3f} s of calls"),
        }
        declared = spec.END_TO_END
    else:
        values, detail = layer_values(plain, traced, setup_s, imports)
        values["fail_ratio"] = (failed / attempted if attempted else 1.0, f"{failed} of {attempted} operations")
        declared = spec.PER_LAYER
    for p in problems[:20]:
        lines.append(f"FAILED {p}")
    for metric, (unit, *_) in declared.items():
        value, how = values.get(metric, (0.0, "not measured on this workload"))
        lines.append(f"metric {metric} = {value:.6g} {unit} ({how})")
    metrics = {m: {"value": values[m][0] if m in values else 0.0, "unit": u[0]} for m, u in declared.items()}
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines, "detail": detail,
            "env": environment(seed, name, imports)}


def layer_values(plain: list[Job], traced: list[Job], setup_s: float, imports: dict):
    per_job = [tracer.layer_metrics(tracer.merge(j.summaries)) for j in traced if j.summaries]
    if not per_job:
        raise RuntimeError("no traced job left a trace summary")
    names = sorted({name for m in per_job for name in m})
    # times are medians over jobs; counts and ratios must repeat, so the first job's stand
    layer = {name: statistics.median(m.get(name, 0.0) for m in per_job) if name.endswith(".s")
             else per_job[0].get(name, 0) for name in names}
    unsteady = [n for n in names if not n.endswith(".s") and len({m.get(n) for m in per_job}) > 1]
    job_ms = [s["job_s"] * 1000 for j in traced for s in j.summaries]
    plain_calls = [w for j in plain for w in j.walls]
    values = {}
    for name, (unit, _) in spec.PER_LAYER.items():
        if name in layer:
            how = f"median of {len(per_job)} traced jobs" if name.endswith(".s") else "per traced job"
            values[name] = (layer[name], how)
    first = traced[0].summaries[0]
    values.update({
        "cli.import_s": (imports["cli_import_s"], f"-X importtime, median of {IMPORT_PROBES} probes"),
        "cli.import.networkx_s": (imports["networkx_s"], f"-X importtime, median of {IMPORT_PROBES} probes"),
        "cli.main_ms": (statistics.median(job_ms), f"time of the entry call in the child, median of {len(job_ms)}"),
        "cli.startup_share": (setup_s / statistics.median(plain_calls), "setup_s / median untraced call"),
        "verify.threads": (first["verify_threads"], "verify.thread_count() in the child"),
        "trace.overhead": (statistics.median(sum(j.walls) for j in traced) / statistics.median(sum(j.walls) for j in plain),
                           f"median traced job / median untraced job, {len(traced)} and {len(plain)} jobs"),
    })
    detail = {name: v for name, v in layer.items() if name not in spec.PER_LAYER}
    merged = tracer.merge(traced[0].summaries)
    top = sorted(merged["self_s"].items(), key=lambda kv: -kv[1])[:15]
    detail["top_self_s"] = [(n, round(s, 6), merged["calls"][n], round(merged["incl_s"][n], 6)) for n, s in top]
    if unsteady:
        detail["unsteady_counts"] = unsteady
    return values, detail


def print_result(result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["lines"]:
        print(line)
    for name, value in sorted(result["detail"].items()):
        if name == "top_self_s":
            print("detail top self time (name, self s, calls, inclusive s):")
            for row in value:
                print(f"  {row[0]:48s} {row[1]:10.4f} {row[2]:8d} {row[3]:10.4f}")
        else:
            print(f"detail {name} = {value if isinstance(value, list) else format(value, '.6g')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="write BENCHMARK.json, then run every workload untraced and traced")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give either --workload or --all")
    if not (SRC / "polygv" / "__init__.py").is_file():
        print(f"run.py: no polygv sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        if not args.all:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), runner)
            print_result(result)
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        correct = True
        for name in WORKLOAD_TYPES:
            for trace in (False, True):
                result = measure(name, args.seed, args.seconds, trace, runner)
                print(f"== {name} trace={int(trace)} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                print_result(result)
                correct = correct and result["correct"]
        return 0 if correct else 1
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
