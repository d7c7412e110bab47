"""Batch command-line front end.

Subcommands: construct, fvec, gvec, q-report, ray, stackedness, verify.
Data goes to stdout (or --out), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 parameter errors.  Output is
deterministic: identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from types import ModuleType
from typing import Callable, Iterable, Sequence


def _lazy(name: str) -> ModuleType:
    """``polygv.<name>``, registered in ``sys.modules``; its body runs on first attribute access.

    A subcommand thus runs only the modules it calls.  Functions are looked up
    as module attributes (``qv.gc_q_closed``), so a patched or wrapped
    function is the one called.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


vec = _lazy("vectors")
cx = _lazy("complexes")
cons = _lazy("constructions")
qv = _lazy("qvectors")
st = _lazy("stackedness")
verify = _lazy("verify")

# verify.SUITES, spelled out so that `--suite` choices do not run verify.py
SUITES = ("transforms", "constructions", "qvectors", "stackedness")


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _json_loads(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise ValueError("JSON input is nested too deeply") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- construct ---------------------------------------------------------------


def _build_complex(args: argparse.Namespace) -> cx.SimplicialComplex:
    fam = args.family
    if fam == "cyclic":
        _require(args, "K", "m")
        return cons.cyclic_facets(args.K, args.m)
    if fam == "mw":
        _require(args, "K", "D", "N")
        return cons.mw_boundary(cons.MWSpec(args.K, args.D, args.N))
    if fam == "lex":
        _require(args, "a")
        if args.base == "cyclic":
            _require(args, "K", "m")
            return cons.lex_subdivision(cons.CyclicSpec(args.K, args.m), args.a)
        _require(args, "K", "D", "N")
        return cons.lex_subdivision(cons.MWSpec(args.K, args.D, args.N), args.a)
    # argparse's choices leave only "diamond"
    _require(args, "k", "d", "n", "a")
    return cons.diamond_boundary(cons.DiamondSpec(args.k, args.d, args.n, args.a))


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"family {args.family!r} needs {', '.join(missing)}")


def cmd_construct(args: argparse.Namespace) -> int:
    complex_ = _build_complex(args)
    _emit(complex_.to_json(), args.out)
    return 0


# -- fvec / gvec ---------------------------------------------------------------


def cmd_fvec(args: argparse.Namespace) -> int:
    complex_ = cx.SimplicialComplex.from_json_obj(_json_loads(_read_input(args.infile)))
    fv = complex_.f_vector()
    obj = {"dim": fv.dim, "counts": list(fv.counts)}
    if args.format == "table":
        lines = [f"f_{i - 1} = {c}" for i, c in enumerate(fv.counts)]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "csv":
        idx = ",".join(str(i - 1) for i in range(len(fv.counts)))
        val = ",".join(str(c) for c in fv.counts)
        _emit(f"i,{idx}\nf_i,{val}\n", args.out)
    else:
        _emit(_json_dumps(obj), args.out)
    return 0


def _cubical_input(text: str) -> tuple[int, vec.FVector]:
    obj = _json_loads(text)
    if not isinstance(obj, dict):
        raise ValueError("cubical input must be a JSON object with 'd' and 'f' or 'facets'")
    if "facets" in obj:
        complex_ = cx.SimplicialComplex.from_json_obj(obj)
        fv = complex_.f_vector()
        if fv.dim < 0:
            raise ValueError("cubical 'facets' input has no vertex, so d = 0; d must be positive")
        return fv.dim + 1, fv
    for key in ("d", "f"):
        if key not in obj:
            raise ValueError(f"cubical input needs {key!r} (or 'facets')")
    d, f = obj["d"], obj["f"]
    if type(d) is not int or d < 1:
        raise ValueError(f"cubical dimension d must be a positive integer, got {d!r}")
    if not isinstance(f, list) or not all(type(x) is int and x >= 0 for x in f):
        raise ValueError(f"cubical 'f' must be a list of non-negative integers, got {f!r}")
    if len(f) != d:
        raise ValueError(f"cubical f-vector for d={d} needs {d} entries f_0..f_{d-1}")
    return d, vec.FVector(d - 1, (1, *f))


def cmd_gvec(args: argparse.Namespace) -> int:
    text = _read_input(args.infile)
    if args.kind == "simplicial":
        complex_ = cx.SimplicialComplex.from_json_obj(_json_loads(text))
        fv = complex_.f_vector()
        D = fv.dim + 1
        h = vec.f_to_h(fv, D)
        g = vec.h_to_g(h)
        obj = {
            "kind": "simplicial",
            "D": D,
            "f": list(fv.counts),
            "h": list(h.entries),
            "g": list(g.entries),
            "dehn_sommerville": vec.check_simplicial_DS(h),
        }
    else:
        d, fv = _cubical_input(text)
        hsc = vec.f_to_hsc(fv, d)
        hc = vec.hsc_to_hc(hsc, d)
        gsc = vec.hsc_to_gsc(hsc)
        gc = vec.hc_to_gc(hc)
        obj = {
            "kind": "cubical-from-f",
            "d": d,
            "f": list(fv.counts[1:]),
            "hsc": list(hsc.entries),
            "hc": list(hc.entries),
            "gsc": list(gsc.entries),
            "gc": list(gc.entries),
            "dehn_sommerville": vec.check_cubical_DS(hc),
        }
    if args.format == "table":
        lines = [f"{key} = {value}" for key, value in obj.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dumps(obj), args.out)
    return 0


# -- q-report -------------------------------------------------------------------


def _check_printable(spec: qv.QSpec, row: Callable[[qv.QSpec], Iterable[int]]) -> None:
    """Reject a spec, before the slow routes run, when str() refuses an entry of ``row(spec)``.

    An n of at least the bit length of 10^limit is rejected without computing
    the row, since 2^n then has more digits than the limit.
    """
    # Python 3.10 before 3.10.7 has no limit and no getter
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = 10**limit
    if limit and (spec.n >= top.bit_length() or max(map(abs, row(spec))) >= top):
        raise ValueError(
            f"n={spec.n} is too large to print: an entry has more than {limit} digits, "
            f"the interpreter's int-to-str limit"
        )


def _q_report_row(spec: qv.QSpec) -> list[int]:
    """Entries that bound every integer q-report prints: g^c, and g^sc through index k.

    g^sc_{k+1} = sum_a 2^(n-a) mchoose(n-d-a+1, k) is below g^sc_k, and later
    g^sc entries are 0, so the slow sum is never needed.
    """
    gsc_head = [2**spec.n * vec.mchoose(spec.n - spec.d, i) for i in range(spec.k + 1)]
    return list(qv.gc_q_closed(spec).entries) + gsc_head


def _ray_row(spec: qv.QSpec) -> tuple[int, ...]:
    """The integers a ray row prints: the g^c tail."""
    return qv.gc_q_closed(spec).entries[1:]


def cmd_q_report(args: argparse.Namespace) -> int:
    spec = qv.QSpec(args.k, args.d, args.n)
    _check_printable(spec, _q_report_row)
    # (vector, route, how, entries): route A, then route B, of each vector
    routes = [
        ("gsc", "A", "diamond sum", qv.gsc_q_from_diamonds(spec).entries),
        ("gsc", "B", "closed form", qv.gsc_q_closed(spec).entries),
        ("gc", "A", "from gsc", qv.gc_q_via_gsc(spec).entries),
        ("gc", "B", "closed form", qv.gc_q_closed(spec).entries),
    ]
    obj: dict = {"k": spec.k, "d": spec.d, "n": spec.n}
    table = [f"Q(k={spec.k}, d={spec.d}, n={spec.n})"]
    csv = ["k,d,n,vector,route,entries"]
    agree = []
    for vector, route, how, entries in routes:
        obj[f"{vector}_route_{route.lower()}"] = list(entries)
        table.append(f"{f'{vector:<3} route {route} ({how}):':<28}{entries}")
        csv.append(f"{spec.k},{spec.d},{spec.n},{vector},{route},{' '.join(map(str, entries))}")
        if route == "B":
            agree.append(obj[f"{vector}_route_a"] == list(entries))
            obj[f"{vector}_routes_agree"] = agree[-1]
            table.append(f"{f'{vector:<3} routes agree:':<28}{agree[-1]}")
    lines = {"table": table, "csv": csv}.get(args.format)
    _emit("\n".join(lines) + "\n" if lines else _json_dumps(obj), args.out)
    if not all(agree):
        print("q-report: routes disagree", file=sys.stderr)
        return 1
    return 0


# -- ray -------------------------------------------------------------------------


def cmd_ray(args: argparse.Namespace) -> int:
    if args.n_to < args.n_from:
        raise ValueError("--n-to must be at least --n-from")
    qv.QSpec(args.k, args.d, args.n_from)  # the first row's parameter error, if any
    # the largest entries come with the largest n, so a failure shows at once
    for n in range(args.n_to, args.n_from - 1, -1):
        spec = qv.QSpec(args.k, args.d, n)
        _check_printable(spec, _ray_row)
        a, b = qv.gc_q_via_gsc(spec), qv.gc_q_closed(spec)
        if a != b:
            print(f"polygv: gc routes disagree for {spec}: {a} vs {b}", file=sys.stderr)
            return 1
    rows = qv.ray_convergence_report(args.k, args.d, range(args.n_from, args.n_to + 1))
    for row in rows:
        if row.normalized is None:
            print(
                f"ray: n={row.n} has zero normalizer, row emitted unnormalized",
                file=sys.stderr,
            )
    _emit("\n".join(qv.ray_csv_lines(rows)) + "\n", args.out)
    return 0


# -- stackedness -------------------------------------------------------------------


def _stack_report(spec: cons.DiamondSpec, dia: cx.SimplicialComplex) -> dict:
    k, d, n, a = spec.k, spec.d, spec.n, spec.a
    predicted_missing = st.predicted_missing_faces(k, d, n, a)
    brute = st.brute_missing_faces(dia, k + 2)
    predicted_facets = st.predicted_stacked_facets(k, d, n, a)
    oracle = st.oracle_stacked_facets(dia, d, k)
    return {
        "a": a,
        "predicted_missing": [
            {"face": cf.labels(), "type": cf.tag} for cf in predicted_missing
        ],
        "brute_missing": [[cx.label_str(v) for v in sorted(f)] for f in brute],
        "missing_agree": {cf.vertices for cf in predicted_missing} == set(brute),
        "predicted_stacked_facets": [
            {"face": cf.labels(), "type": cf.tag} for cf in predicted_facets
        ],
        "oracle_stacked_facets": [[cx.label_str(v) for v in sorted(f)] for f in oracle],
        "facets_agree": {cf.vertices for cf in predicted_facets} == set(oracle),
    }


def cmd_stackedness(args: argparse.Namespace) -> int:
    stream = ((spec, dia) for spec, _, _, dia in cons.diamonds(args.k, args.d, args.n))
    if args.a is not None:
        cons.DiamondSpec(args.k, args.d, args.n, args.a)  # a bad index is an input error
        stream = [next(item for item in stream if item[0].a == args.a)]
    diamonds = [_stack_report(spec, dia) for spec, dia in stream]
    obj: dict = {"k": args.k, "d": args.d, "n": args.n, "diamonds": diamonds}
    if args.n > args.d:
        obj["witness"] = st.incompatibility_witness(args.k, args.d, args.n).to_json_obj()
    else:
        obj["witness"] = None
        print("stackedness: n == d leaves a single diamond, no witness", file=sys.stderr)
    _emit(_json_dumps(obj), args.out)
    witness = obj["witness"]
    agree = all(d["missing_agree"] and d["facets_agree"] for d in diamonds)
    return 0 if agree and (witness is None or witness["face_type_in_b"] == st.UNCLASSIFIED) else 1


# -- verify ------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name} ({r.detail})")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"verify: suite={args.suite} grid={args.grid} "
        f"checks={len(results)} passed={len(results) - failed} failed={failed}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygv",
        description="Exact combinatorics of cubical g-vectors and their polytope families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a boundary complex or subdivision")
    p.add_argument("--family", required=True, choices=["cyclic", "mw", "lex", "diamond"])
    p.add_argument("--base", choices=["cyclic", "mw"], default="mw",
                   help="base family for --family lex")
    p.add_argument("--K", type=int, help="cyclic factor dimension")
    p.add_argument("--m", type=int, help="cyclic vertex count")
    p.add_argument("--D", type=int, help="MW polytope dimension")
    p.add_argument("--N", type=int, help="MW vertex count")
    p.add_argument("--k", type=int, help="diamond parameter k")
    p.add_argument("--d", type=int, help="diamond parameter d")
    p.add_argument("--n", type=int, help="diamond parameter n")
    p.add_argument("--a", type=int, help="lexicographic index")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("fvec", help="f-vector of a complex JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_fvec)

    p = sub.add_parser("gvec", help="h/g vectors from a complex or an f-vector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=["simplicial", "cubical-from-f"], default="simplicial")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_gvec)

    p = sub.add_parser("q-report", help="short and long cubical g-vectors, both routes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_q_report)

    p = sub.add_parser("ray", help="normalized g-vector rows along increasing n (CSV)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-from", dest="n_from", type=int, required=True)
    p.add_argument("--n-to", dest="n_to", type=int, required=True)
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_ray)

    p = sub.add_parser("stackedness", help="missing faces, stacked facets, and the witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_stackedness)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    # one grid; the flag stays so that `--grid full` keeps working
    p.add_argument("--grid", choices=["full"], default="full")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"polygv: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
