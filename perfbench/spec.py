"""The benchmark's contract: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --all``; the self-tests check that the two agree.
"""

from __future__ import annotations

WORKLOADS = {
    "verify-full": "polygv verify --suite all --grid full, the run users make: many small complexes, "
                   "specs rebuilt again and again, the verify thread pool and the networkx VF2 check",
    "explicit-stretch": "a few large complexes each built once (C(9,18), Q(3,12,16) diamonds, the "
                        "(2,10,14) stackedness family): face closure dominates, caching built complexes cannot help",
    "cli-calls": "a fixed mix of seven desk-size CLI calls one at a time: start-up and import dominate, "
                 "the control for complex-engine changes",
}

# name -> (unit, better, bound); bound is the share of the parent's median.
# Times get the widest bound: on a shared 2-CPU machine the verify thread
# pool turns CPU steal into run-to-run swings of 10-20% in verify-full.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "call_p50_ms": ("ms", "lower", 0.25),
    "call_tail_ms": ("ms", "lower", 0.25),
    "calls_per_s": ("1/s", "higher", 0.25),
}

# name -> (unit, better).  Only metrics every workload exercises: a time that
# reads 0 on every run of a workload is refused, so the breakdowns of one
# workload (verify suites and checks, ops, route C, cube graph) are printed
# as detail lines instead.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import.networkx_s": ("s", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.startup_share": ("ratio", "lower"),
    "verify.threads": ("count", "lower"),
    "verify.checks": ("count", "higher"),
    "complexes.faces.s": ("s", "lower"),
    "complexes.faces.count": ("count", "lower"),
    "complexes.init.s": ("s", "lower"),
    "complexes.init.calls": ("count", "lower"),
    "complexes.f_vector.s": ("s", "lower"),
    "complexes.ops.calls": ("count", "lower"),
    "constructions.cyclic.s": ("s", "lower"),
    "constructions.mw.s": ("s", "lower"),
    "constructions.lex.s": ("s", "lower"),
    "constructions.diamond.s": ("s", "lower"),
    "constructions.builds": ("count", "lower"),
    "constructions.repeat_share": ("ratio", "lower"),
    "constructions.cyclic.repeat_share": ("ratio", "lower"),
    "constructions.mw.repeat_share": ("ratio", "lower"),
    "constructions.lex.repeat_share": ("ratio", "lower"),
    "constructions.diamond.repeat_share": ("ratio", "lower"),
    "constructions.block_scans": ("count", "lower"),
    "constructions.cyclic_is_face.calls": ("count", "lower"),
    "constructions.gale_yield": ("ratio", "higher"),
    "qvectors.s": ("s", "lower"),
    "qvectors.calls": ("count", "lower"),
    "qvectors.route_c.calls": ("count", "lower"),
    "stackedness.oracle.s": ("s", "lower"),
    "stackedness.predicted.s": ("s", "lower"),
    "stackedness.cube_graph.calls": ("count", "lower"),
    "vectors.s": ("s", "lower"),
    "vectors.calls": ("count", "lower"),
    "vectors.mchoose.calls": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

RUN_SECONDS = 30


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }
