"""One benchmark job in its own process, optionally traced.

    python3 perfbench/child.py [--trace FILE] cli ARG...
    python3 perfbench/child.py [--trace FILE] stretch ORDER

``cli`` runs ``polygv.cli.main(ARG...)`` exactly as the ``polygv`` command
does.  ``stretch`` runs the explicit-stretch items in ORDER (comma-separated
item names) and prints one JSON line per item: its name, whether its output
matched the independent route, and a note.  With ``--trace`` the public API
is wrapped before the job runs, and the span summary is written to FILE
after it ends; the job's own output is left unchanged.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import checks
import tracer

STRETCH_CYCLIC = (9, 18)
STRETCH_Q = (3, 12, 16)
STRETCH_STACK = (2, 10, 14)


def _cyclic() -> list[str]:
    from polygv import constructions as cons

    K, m = STRETCH_CYCLIC
    counts = list(cons.cyclic_facets(K, m).f_vector().counts)
    if checks.g_vector(checks.h_vector(counts, K)) != checks.neighborly_g(K, m):
        return [f"C({K},{m}): g-vector differs from mchoose(m-K-1, i)"]
    return []


def _gsc() -> list[str]:
    from polygv import qvectors as qv

    spec = qv.QSpec(*STRETCH_Q)
    got = qv.gsc_q_from_complexes(spec)
    if got != qv.gsc_q_closed(spec) or list(got.entries) != checks.gsc_q(*STRETCH_Q):
        return [f"gsc_q_from_complexes{STRETCH_Q} differs from the closed form"]
    return []


def _stack(a: int):
    def run() -> list[str]:
        from polygv import constructions as cons
        from polygv import stackedness as st

        k, d, n = STRETCH_STACK
        dia = cons.diamond_boundary(cons.DiamondSpec(k, d, n, a))
        problems = []
        if {cf.vertices for cf in st.predicted_missing_faces(k, d, n, a)} != set(st.brute_missing_faces(dia, k + 2)):
            problems.append(f"stackedness a={a}: predicted missing faces differ from brute force")
        if {cf.vertices for cf in st.predicted_stacked_facets(k, d, n, a)} != set(st.oracle_stacked_facets(dia, d, k)):
            problems.append(f"stackedness a={a}: predicted stacked facets differ from the oracle")
        return problems

    return run


STRETCH_ITEMS = {
    "cyclic": [("cyclic", _cyclic)],
    "gsc": [("gsc", _gsc)],
    "stack": [(f"stack.a{a}", _stack(a)) for a in range(1, STRETCH_STACK[2] - STRETCH_STACK[1] + 2)],
}


def run_stretch(order: list[str]) -> int:
    for item in order:
        for name, fn in STRETCH_ITEMS[item]:
            try:
                problems = fn()
            except Exception:  # a failing operation is counted, not fatal
                problems = ["exception: " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
            print(json.dumps({"op": name, "ok": not problems, "note": "; ".join(problems)}), flush=True)
    return 0


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tr = tracer.Tracer() if trace_out else None
    if tr:
        tracer.instrument(tr)
    ready = time.perf_counter()
    if kind == "cli":
        from polygv.cli import main as polygv_main

        code = polygv_main(rest)
    else:
        code = run_stretch(rest[0].split(","))
    sys.stdout.flush()
    done = time.perf_counter()
    if tr:
        from polygv import verify

        summary = tracer.summarize(tr)
        summary.update(setup_s=ready - start, job_s=done - ready,
                       verify_threads=verify.thread_count.__wrapped__())
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
