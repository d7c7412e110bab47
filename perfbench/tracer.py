"""Outside-in tracer for polygv: wraps public functions, keeps spans in memory.

Nothing under ``src/`` is edited.  ``instrument(tracer)`` replaces every
public module-level function of the traced modules, and the public methods
and properties of ``SimplicialComplex``, by a wrapper.  It then rebinds
every name in the ``polygv`` package that referred to an original,
including values of module-level dicts such as ``verify.SUITES``.

Most wrappers record a span (id, parent id, name, start, end).  The parent
is the innermost open span of the same thread; work that ``verify.grid_map``
hands to its pool threads is parented to the ``grid_map`` span.  Hot
helpers are only counted, because timing them would distort the run.
Counters are ``itertools.count`` objects: ``next`` is one C call, so no
increment is lost when the verify thread pool calls a helper concurrently.

``summarize`` turns spans into per-name calls, inclusive time and self time
(a span's duration minus the part of it that its child spans cover);
``layer_metrics`` folds a summary into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from math import comb

MODULES = ("vectors", "complexes", "constructions", "qvectors", "stackedness", "verify", "cli")

# Each runs 10^5 times or more in a verify run: count it, never time it.
COUNT_ONLY = frozenset({
    "constructions.block_decomposition",
    "constructions.cyclic_is_face",
    "vectors.mchoose",
    # vertex-label helpers, called per vertex of every subset scanned
    "complexes.cvert",
    "complexes.tvert",
    "complexes.plain",
    "complexes.label_str",
    "complexes.parse_label",
    # cheap accessors, called per facet or per subset
    "complexes.SimplicialComplex.vertices",
    "complexes.SimplicialComplex.dim",
    "complexes.SimplicialComplex.is_face",
})

FAMILIES = {
    "constructions.cyclic_facets": "cyclic",
    "constructions.mw_boundary": "mw",
    "constructions.lex_subdivision": "lex",
    "constructions.diamond_boundary": "diamond",
}


class Tracer:
    """In-memory span and counter store; safe to call from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, itertools.count] = {}
        self.build_keys: dict[str, list] = defaultdict(list)
        self.face_counts: list[int] = []
        self.gale: list[tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread, 0 at top level."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def timed(self, name: str, fn):
        spans, clock, ids, stack_of = self.spans, self.clock, self._ids, self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return functools.wraps(fn)(wrapper)

    def counted(self, name: str, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def adopted(self, fn, parent: int):
        """``fn`` for another thread: spans it opens there get ``parent`` as parent."""
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                return fn(*args, **kwargs)
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper


# -- instrumentation -----------------------------------------------------------


def _wrap_function(tracer: Tracer, name: str, fn):
    if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
        # a generator's body runs after the call returns, so a span would miss it
        return tracer.counted(name, fn)
    if name == "verify.grid_map":
        # the span is open when adopted() reads it as the pool threads' parent
        run = tracer.timed(name, lambda f, items: fn(tracer.adopted(f, tracer.current()), items))
        return functools.wraps(fn)(run)
    timed = tracer.timed(name, fn)
    if name not in FAMILIES:
        return timed
    keys = tracer.build_keys[FAMILIES[name]]
    signature = inspect.signature(fn)

    def build(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        keys.append(bound.args)  # list.append is atomic under the pool threads
        result = timed(*args, **kwargs)
        if name == "constructions.cyclic_facets":
            K, m = bound.args
            tracer.gale.append((len(result.facets), comb(m, K)))
        return result

    return functools.wraps(fn)(build)


def _wrap_property(tracer: Tracer, name: str, prop: property) -> property:
    getter = prop.fget
    if name != "complexes.SimplicialComplex.faces":
        return property(_wrap_function(tracer, name, getter), doc=prop.__doc__)
    timed = tracer.timed(name, getter)
    sizes = tracer.face_counts

    def faces(self):
        fresh = self._faces is None
        out = timed(self)
        if fresh:
            sizes.append(len(out))
        return out

    return property(functools.wraps(getter)(faces), doc=prop.__doc__)


def instrument(tracer: Tracer) -> None:
    """Wrap the public API of every traced polygv module, recording into ``tracer``."""
    import polygv  # noqa: F401  (loads every module but the CLI)
    import polygv.cli  # noqa: F401

    replaced = {}
    for short in MODULES:
        module = sys.modules[f"polygv.{short}"]
        for attr, value in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                replaced[value] = _wrap_function(tracer, f"{short}.{attr}", value)

    cls = sys.modules["polygv.complexes"].SimplicialComplex
    for attr, value in list(vars(cls).items()):
        name = f"complexes.SimplicialComplex.{attr}"
        if isinstance(value, property):
            setattr(cls, attr, _wrap_property(tracer, name, value))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(_wrap_function(tracer, name, value.__func__)))
        elif inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
            setattr(cls, attr, _wrap_function(tracer, name, value))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "polygv" and not mod_name.startswith("polygv."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in replaced:
                        value[key] = replaced[item]


# -- summaries -------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self seconds, and the counters; JSON-ready.

    Reads each counter once (reading advances it), so call it once per run.
    """
    children = defaultdict(list)
    for _sid, parent, _name, start, end in tracer.spans:
        children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in tracer.spans:
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += (end - start) - covered(children.get(sid, ()), start, end)
    return {
        "calls": dict(calls),
        "incl_s": dict(incl),
        "self_s": dict(self_s),
        "counts": {name: next(c) for name, c in tracer.counters.items()},
        "builds": {b: [len(keys), len(set(keys))] for b, keys in tracer.build_keys.items()},
        "faces_count": sum(tracer.face_counts),
        "gale": [sum(f for f, _ in tracer.gale), sum(c for _, c in tracer.gale)],
    }


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries, such as the calls of one cli-calls round."""
    out = {"calls": defaultdict(int), "incl_s": defaultdict(float), "self_s": defaultdict(float),
           "counts": defaultdict(int), "builds": {}, "faces_count": 0, "gale": [0, 0]}
    for s in summaries:
        for key in ("calls", "incl_s", "self_s", "counts"):
            for name, v in s[key].items():
                out[key][name] += v
        for b, (calls, distinct) in s["builds"].items():
            # separate processes share no builds, so distinct keys add up
            c0, d0 = out["builds"].get(b, (0, 0))
            out["builds"][b] = [c0 + calls, d0 + distinct]
        out["faces_count"] += s["faces_count"]
        out["gale"] = [out["gale"][0] + s["gale"][0], out["gale"][1] + s["gale"][1]]
    return out


OPS = ("link", "star", "antistar", "join", "contract_edge", "relabel")
CUBE_GRAPH = ("stackedness.cube_graph_face_check", "stackedness.cube_subgraph_images",
              "stackedness.cube_face_count")
SUITE_NAMES = ("transforms", "constructions", "qvectors", "stackedness")


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metrics from a summary.

    ``.s`` metrics are self seconds, except ``verify.suite.*``,
    ``verify.check.*``, ``verify.grid_map.s`` and ``qvectors.route_c.s``,
    which are inclusive: they time a whole unit of work.
    """
    self_s, incl, calls, counts = s["self_s"], s["incl_s"], s["calls"], s["counts"]

    def selfs(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def layer(prefix: str, key: dict) -> float:
        return sum(v for n, v in key.items() if n.startswith(prefix + "."))

    cx = "complexes.SimplicialComplex."
    out = {
        "complexes.faces.s": selfs(cx + "faces"),
        "complexes.faces.count": s["faces_count"],
        "complexes.init.s": selfs(cx + "__init__"),
        "complexes.init.calls": calls.get(cx + "__init__", 0),
        "complexes.f_vector.s": selfs(cx + "f_vector"),
        "complexes.ops.s": selfs(*(cx + op for op in OPS)),
        "complexes.ops.calls": sum(calls.get(cx + op, 0) for op in OPS),
        "constructions.cyclic.s": selfs("constructions.cyclic_facets"),
        "constructions.mw.s": selfs("constructions.mw_boundary"),
        "constructions.lex.s": selfs("constructions.lex_subdivision", "constructions.lex_mw_via_cyclic"),
        "constructions.diamond.s": selfs("constructions.diamond_boundary"),
        "constructions.block_scans": counts.get("constructions.block_decomposition", 0),
        "constructions.cyclic_is_face.calls": counts.get("constructions.cyclic_is_face", 0),
        "qvectors.s": layer("qvectors", self_s),
        "qvectors.calls": layer("qvectors", calls),
        "qvectors.route_c.s": incl.get("qvectors.gsc_q_from_complexes", 0.0),
        "qvectors.route_c.calls": calls.get("qvectors.gsc_q_from_complexes", 0),
        "stackedness.oracle.s": selfs("stackedness.oracle_stacked_facets", "stackedness.brute_missing_faces"),
        "stackedness.predicted.s": selfs("stackedness.predicted_missing_faces", "stackedness.predicted_stacked_facets"),
        "stackedness.cube_graph.s": selfs(*CUBE_GRAPH),
        "stackedness.cube_graph.calls": sum(calls.get(n, 0) for n in CUBE_GRAPH),
        "vectors.s": layer("vectors", self_s),
        "vectors.calls": layer("vectors", calls),
        "vectors.mchoose.calls": counts.get("vectors.mchoose", 0),
        "verify.grid_map.s": incl.get("verify.grid_map", 0.0),
    }
    builds = s["builds"]
    total_calls = sum(c for c, _ in builds.values())
    total_distinct = sum(d for _, d in builds.values())
    out["constructions.builds"] = total_calls
    out["constructions.repeat_share"] = _share(total_calls - total_distinct, total_calls)
    for b in FAMILIES.values():
        c, d = builds.get(b, (0, 0))
        out[f"constructions.{b}.repeat_share"] = _share(c - d, c)
    facets, subsets = s["gale"]
    out["constructions.gale_yield"] = _share(facets, subsets)
    for suite in SUITE_NAMES:
        out[f"verify.suite.{suite}.s"] = incl.get(f"verify.suite_{suite}", 0.0)
    for name, v in incl.items():
        if name.startswith("verify.check_"):
            out[f"verify.check.{name[len('verify.check_'):]}.s"] = v
    out["verify.checks"] = sum(1 for name in incl if name.startswith("verify.check_"))
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
