"""Verification suites: every module invariant, each on its own fixed grid.

Each check is registered by the ``check`` decorator under its suite
(transforms, constructions, qvectors, stackedness) with one or more result
names.  ``CHECKS`` keeps the checks in definition order, which is the output
order, and ``SUITES`` is derived from it.  A check's body gets one
``CheckResult`` per result name and tallies into it through ``expect`` and
``raises`` only, so one comparison is one case, every case count is computed
and every failure is kept.  A body that raises records the exception as one
failure on each of its results instead of ending the run.  The CLI turns the
results into pass/fail lines and an exit code.

A check registered with ``per_diamond=True`` takes one ``Diamond`` of
``diamond_grid()`` at a time.  All such checks of a run share one walk, so
each grid diamond is built once per run.  The walk and the plain checks share
nothing, so a run that selects both kinds, such as ``run_suite("all")``, runs
its plain checks in one forked child while it walks, where ``os.fork`` exists,
and merges their results in registry order.  Work done in that child, a
tracer's spans included, stays in the child.
"""

from __future__ import annotations

import functools
import marshal
import os
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import BinaryIO, Callable, Iterator, Sequence

from . import complexes as cx
from . import constructions as cons
from . import qvectors as qv
from . import stackedness as st
from . import vectors as vec

__all__ = [
    "CHECKS",
    "CheckResult",
    "SUITES",
    "check",
    "run_suite",
]


class CheckResult:
    """One named result and its tally: the cases run and every failure seen."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def detail(self) -> str:
        if not self.failures:
            return f"{self.cases} cases"
        return f"{len(self.failures)} of {self.cases} cases failed: " + "; ".join(self.failures[:4])

    def expect(self, cond: bool, what: str) -> None:
        """One case; ``what`` names the failure if ``cond`` is false."""
        self.cases += 1
        if not cond:
            self.failures.append(what)

    def raises(self, fn: Callable[[], object], what: str) -> None:
        """One case: ``fn()`` must raise ValueError; ``what`` names the failure if it does not."""
        try:
            fn()
            raised = False
        except ValueError:
            raised = True
        self.expect(raised, what)


# (suite, result names) -> check, in definition order.  Each value is also the
# module attribute of its name; perfbench/tracer.py rebinds both to one timed
# wrapper.  A traced run times the plain checks only when they run in its own
# process: alone (transforms, qvectors) or where os.fork does not exist.  Beside
# a walk they run in a forked child, whose spans the tracer never sees, and the
# per-diamond bodies run inside the walk, untimed.
_Key = tuple[str, tuple[str, ...]]  # (suite, result names)
CHECKS: dict[_Key, Callable[[], CheckResult | list[CheckResult]]] = {}
# The body of each check registered with per_diamond=True, by the same key.
_PER_DIAMOND: dict[_Key, Callable[..., None]] = {}


def _fail(results: list[CheckResult], exc: Exception) -> None:
    for r in results:
        r.expect(False, f"raised {type(exc).__name__}: {exc}")


def check(suite: str, *names: str, per_diamond: bool = False):
    """Register the decorated body as a check of ``suite`` with one result per name.

    The body takes one ``CheckResult`` per name; with ``per_diamond`` it takes
    a ``Diamond`` first and gets each diamond of ``diamond_grid()`` in turn.
    The registered check takes no argument and returns its result, or its
    list of results when it has several names.  If the body raises, each
    result keeps what it counted and fails once more, naming the exception.
    """
    key = (suite, tuple(f"{suite}: {name}" for name in names))

    def register(body: Callable[..., None]):
        @functools.wraps(body)
        def run():
            if per_diamond:
                results = _run([key])
            else:
                results = [CheckResult(name) for name in key[1]]
                try:
                    body(*results)
                except Exception as exc:
                    _fail(results, exc)
            return results if len(results) > 1 else results[0]

        CHECKS[key] = run
        if per_diamond:
            _PER_DIAMOND[key] = body
        return run

    return register


# The Q-polytope grid k <= Q_K, 2k+2 <= d <= Q_D, d <= n <= Q_N, shared by
# every check that walks Q-specs, cubes or witnesses.
Q_K, Q_D, Q_N = 3, 10, 14


def thread_count() -> int:
    """Threads per process the suites run on: always 1, every check is a plain loop.

    A run that selects per-diamond and plain checks runs the plain ones in a
    second, forked process, on one thread too.  ``perfbench/child.py`` reports
    this value as ``verify.threads``.
    """
    return 1


# --------------------------------------------------------------------------
# shared grids
# --------------------------------------------------------------------------


def mw_specs(K_max: int, D_max: int, N_max: int) -> list[cons.MWSpec]:
    out = []
    for K in range(2, K_max + 1):
        for D in range(K, D_max + 1):
            for N in range(D + 1, N_max + 1):
                out.append(cons.MWSpec(K, D, N))
    return out


def q_specs() -> list[qv.QSpec]:
    out = []
    for k in range(1, Q_K + 1):
        for d in range(2 * k + 2, Q_D + 1):
            for n in range(d, Q_N + 1):
                out.append(qv.QSpec(k, d, n))
    return out


def blind_specs() -> list[tuple[int, int]]:
    """Every (d, k) with d <= 12, k <= d/2."""
    return [(d, k) for d in range(2, 13) for k in range(1, d // 2 + 1)]


class Diamond(vec.Record):
    """One diamond of the walk and what it shares with its layer."""

    __slots__ = ("spec", "rim", "ball", "cyclic_lex", "dia", "previous", "h_lk")
    spec: cons.DiamondSpec
    rim: cx.SimplicialComplex
    ball: cx.SimplicialComplex
    cyclic_lex: cx.SimplicialComplex  # Lex_a of the base's cyclic factor
    dia: cx.SimplicialComplex
    previous: tuple[cx.SimplicialComplex, ...]  # the diamonds of (k, d, n-1), a = 1, 2, ...
    h_lk: tuple[int, ...]  # the h-vector of the link of c1 in the layer's a = 1 rim


def diamond_grid() -> Iterator[Diamond]:
    """Every diamond of the grid k <= 3, 2k+2 <= d <= 10, d <= n <= 12.

    For each (k, d) the layers n = d, d+1, ... are streamed in order: one rim,
    one push chain on the base, one on its cyclic factor and one rim link per
    layer, each diamond capped once.  The contraction of (k, d, n, a) lands on
    (k, d, n-1, a-1), so only the previous layer's diamonds are kept.
    """
    for k in range(1, 4):
        for d in range(2 * k + 2, 11):
            previous: tuple[cx.SimplicialComplex, ...] = ()
            for n in range(d, 13):
                layer = []
                base = cons.DiamondSpec(k, d, n, 1).base
                cyclic = cons.lex_subdivisions(cons.CyclicSpec(base.K, base.c_count))
                for (spec, rim, ball, dia), (_, cyclic_lex) in zip(
                    cons.diamonds(k, d, n), cyclic, strict=True
                ):
                    if spec.a == 1:
                        h_lk = vec.f_to_h(rim.link([cx.cvert(1)]).f_vector(), d - 3).entries
                    yield Diamond(spec, rim, ball, cyclic_lex, dia, previous, h_lk)
                    layer.append(dia)
                previous = tuple(layer)


# --------------------------------------------------------------------------
# transforms suite
# --------------------------------------------------------------------------


@check("transforms", "named examples")
def check_transform_named_examples(r: CheckResult) -> None:
    expect = r.expect

    expect(vec.mchoose(0, 0) == 1, "mchoose(0,0)")
    expect(vec.mchoose(0, 3) == 0, "mchoose(0,3)")
    expect(vec.mchoose(3, 2) == 6, "mchoose(3,2)")

    h = vec.f_to_h(vec.FVector(2, (1, 4, 6, 4)), 3)
    expect(h.entries == (1, 1, 1, 1), "h of simplex boundary")
    expect(vec.f_to_h(vec.FVector(0, (1, 2)), 1).entries == (1, 1), "h of two points")
    h47 = vec.f_to_h(vec.FVector(3, (1, 7, 21, 28, 14)), 4)
    expect(h47.entries == (1, 3, 6, 3, 1), "h of C(4,7)")
    expect(vec.h_to_g(h).entries == (1, 0), "g of simplex boundary")
    expect(vec.h_to_g(h47).entries == (1, 2, 3), "g of C(4,7)")
    expect(vec.check_simplicial_DS(h47), "DS C(4,7)")
    expect(not vec.check_simplicial_DS(vec.HVector(3, (1, 2, 1, 1))), "DS non-palindrome")
    expect(vec.check_simplicial_DS(vec.HVector(3, (1, 1, 1, 1))), "DS palindrome")

    hsc3 = vec.f_to_hsc(vec.FVector(2, (1, 8, 12, 6)), 3)
    expect(hsc3.entries == (8, 8, 8), "hsc of 3-cube")
    expect(vec.f_to_hsc(vec.FVector(1, (1, 4, 4)), 2).entries == (4, 4), "hsc of square")
    hsc4 = vec.f_to_hsc(vec.FVector(3, (1, 16, 32, 24, 8)), 4)
    expect(hsc4.entries == (16, 16, 16, 16), "hsc of 4-cube")

    hc3 = vec.hsc_to_hc(hsc3, 3)
    expect(hc3.entries == (4, 4, 4, 4), "hc of 3-cube")
    expect(vec.hc_to_gc(hc3).entries == (4, 0), "gc of 3-cube")
    gsc = vec.ShortCubicalG(6, (512, 1536, 1088))
    expect(vec.gc_from_gsc(gsc, 6).entries == (32, 448, 1088, 0), "gc from gsc at d=6")
    hc2 = vec.hsc_to_hc(vec.f_to_hsc(vec.FVector(1, (1, 4, 4)), 2), 2)
    expect(hc2.entries == (2, 2, 2), "hc of square")

    for bad in (
        lambda: vec.f_to_h(vec.FVector(2, (1, 4, 6, 4)), 4),
        lambda: vec.f_to_hsc(vec.FVector(2, (1, 8, 12, 6)), 4),
        lambda: vec.mchoose(-1, 0),
    ):
        r.raises(bad, "expected ValueError")


@check("transforms", "sum of h equals facet count")
def check_sum_h_equals_top(r: CheckResult) -> None:
    for spec in mw_specs(5, 6, 9):
        fv = cons.mw_boundary(spec).f_vector()
        h = vec.f_to_h(fv, spec.D)
        r.expect(sum(h.entries) == fv.counts[-1], f"sum h != top f at {spec}")


@check("transforms", "palindromic h/g round trip")
def check_palindromic_roundtrip(r: CheckResult) -> None:
    for D in range(1, 7):
        for tail in product(range(0, 4), repeat=D // 2):
            g = vec.GVector((1,) + tail)
            h = vec.h_from_g_palindromic(g, D)
            at = f"D={D} g={g.entries}"
            r.expect(vec.check_simplicial_DS(h), f"reflection not palindromic {at}")
            r.expect(vec.h_to_g(h) == g, f"roundtrip failed {at}")


@check("transforms", "cubical DS on cube boundaries")
def check_cubical_ds_cubes(r: CheckResult) -> None:
    for d in range(2, Q_D + 1):
        counts = (1,) + tuple(comb(d, j) * 2 ** (d - j) for j in range(d))
        hc = vec.hsc_to_hc(vec.f_to_hsc(vec.FVector(d - 1, counts), d), d)
        gc = vec.hc_to_gc(hc)
        r.expect(vec.check_cubical_DS(hc), f"cubical DS fails for the {d}-cube")
        r.expect(gc.entries == (2 ** (d - 1),) + (0,) * (d // 2), f"gc of the {d}-cube is {gc.entries}")


@check("transforms", "short/long g re-substitution")
def check_resubstitution(r: CheckResult) -> None:
    for spec in q_specs():
        gsc = qv.gsc_q_closed(spec)
        gc = vec.gc_from_gsc(gsc, spec.d)
        r.expect(vec.gsc_gc_consistent(gsc, gc), f"resubstitution fails for {spec}")
    # arbitrary vectors: the inversion is algebraic, not family-specific
    for d in (4, 5, 6, 7):
        for tail in product(range(-2, 3), repeat=(d - 1) // 2):
            gsc = vec.ShortCubicalG(d, (7,) + tail)
            gc = vec.gc_from_gsc(gsc, d)
            r.expect(vec.gsc_gc_consistent(gsc, gc), f"resubstitution fails for arbitrary d={d} {gsc.entries}")


@check("transforms", "multichoose recurrence")
def check_mchoose_recurrence(r: CheckResult) -> None:
    for m in range(1, 20):
        for i in range(1, 20):
            r.expect(
                vec.mchoose(m, i) == vec.mchoose(m - 1, i) + vec.mchoose(m, i - 1),
                f"recurrence fails at ({m},{i})",
            )
    for k in range(1, 10):
        r.expect(vec.mchoose(0, k) == 0, f"mchoose(0,{k})")


# --------------------------------------------------------------------------
# constructions suite (includes the complex-engine invariants)
# --------------------------------------------------------------------------


@check("constructions", "named examples")
def check_construction_named_examples(r: CheckResult) -> None:
    expect = r.expect

    pent = cons.cyclic_facets(2, 5)
    want = {frozenset({cx.cvert(a), cx.cvert(b)}) for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]}
    expect(pent.facets == frozenset(want), "pentagon facets")
    expect(pent.f_vector().counts == (1, 5, 5), "pentagon f-vector")

    c47 = cons.cyclic_facets(4, 7)
    expect(len(c47.facets) == 14, "C(4,7) facet count")
    expect(c47.f_vector().counts == (1, 7, 21, 28, 14), "C(4,7) f-vector")
    expect(c47.euler_characteristic() == 1 + (-1) ** 3, "C(4,7) Euler")

    c46 = cons.cyclic_facets(4, 6)
    expect(frozenset(map(cx.cvert, (1, 2, 4, 5))) in c46.facets, "{1,2,4,5} facet of C(4,6)")

    expect(not cons.cyclic_is_face({2, 4}, 2, 6), "{2,4} non-face of C(2,6)")
    expect(cons.cyclic_is_face({1, 6}, 2, 6), "{1,6} face of C(2,6)")
    expect(cons.cyclic_is_face({2, 3}, 2, 6), "{2,3} face of C(2,6)")
    r.raises(lambda: cons.cyclic_is_face({1, 2, 3}, 2, 6), "oversized subset accepted")

    mw = cons.mw_boundary(cons.MWSpec(2, 4, 7))
    expect(len(mw.vertices) == 7, "MW(2,4,7) vertex count")
    expect(len(mw.facets) == 11, "MW(2,4,7) facet count")
    expect(mw.f_vector().counts == (1, 7, 18, 22, 11), "MW(2,4,7) f-vector")
    h = vec.f_to_h(mw.f_vector(), 4)
    expect(h.entries == (1, 3, 3, 3, 1), "MW(2,4,7) h-vector")
    expect(vec.h_to_g(h).entries == (1, 2, 0), "MW(2,4,7) g-vector")
    g348 = vec.h_to_g(vec.f_to_h(cons.mw_boundary(cons.MWSpec(3, 4, 8)).f_vector(), 4))
    expect(g348.entries == (1, 3, 0), "MW(3,4,8) g-vector")

    lex1 = cons.lex_subdivision(cons.CyclicSpec(2, 5), 1)
    expect(
        lex1.facets
        == frozenset(
            frozenset(map(cx.cvert, t)) for t in [(1, 2, 3), (1, 3, 4), (1, 4, 5)]
        ),
        "Lex_1 of the pentagon",
    )
    lex2 = cons.lex_subdivision(cons.CyclicSpec(2, 5), 2)
    expect(
        lex2.facets
        == frozenset(
            frozenset(map(cx.cvert, t)) for t in [(1, 2, 5), (2, 3, 4), (2, 4, 5)]
        ),
        "Lex_2 of the pentagon",
    )

    for a, want_g in [(1, (1, 3, 3)), (2, (1, 3, 2)), (4, (1, 3, 0))]:
        dia = cons.diamond_boundary(cons.DiamondSpec(1, 6, 9, a))
        got = vec.h_to_g(vec.f_to_h(dia.f_vector(), 5))
        expect(got.entries == want_g, f"g of diamond a={a} at (1,6,9)")
        expect(cons.diamond_g_closed(1, 6, 9, a).entries == want_g, f"closed g a={a}")

    tetra = cx.simplex_boundary([cx.plain(i) for i in range(1, 5)])
    lk = tetra.link([cx.plain(1)])
    expect(lk == cx.simplex_boundary([cx.plain(i) for i in range(2, 5)]), "vertex link in a 3-simplex boundary")

    s0a = cx.SimplicialComplex([[cx.plain(1)], [cx.plain(2)]])
    s0b = cx.SimplicialComplex([[cx.plain(3)], [cx.plain(4)]])
    square = s0a.join(s0b)
    expect(len(square.facets) == 4 and square.dim == 1, "join of two 0-spheres")
    cone = cx.SimplicialComplex([[cx.plain(9)]]).join(pent)
    expect(len(cone.facets) == 5 and cone.dim == 2, "cone over the pentagon")
    r.raises(lambda: pent.join(pent), "join with shared vertices accepted")

    cyc4 = cx.SimplicialComplex(
        [[cx.plain(1), cx.plain(2)], [cx.plain(2), cx.plain(3)], [cx.plain(3), cx.plain(4)], [cx.plain(4), cx.plain(1)]]
    )
    tri = cyc4.contract_edge(cx.plain(1), cx.plain(2))
    expect(len(tri.facets) == 3 and tri.dim == 1, "contract 4-cycle to triangle")
    r.raises(
        lambda: cyc4.contract_edge(cx.plain(1), cx.plain(3)), "contraction of a non-edge accepted"
    )


@check("constructions", "Gale face criterion vs downward closure")
def check_gale_crosscheck(r: CheckResult) -> None:
    """Every subset of size <= K of C(K, m), K <= 6, m <= 12."""
    for K in range(1, 7):
        for m in range(K + 1, 13):
            cyclic = cons.cyclic_facets(K, m)
            for size in range(0, K + 1):
                for S in combinations(range(1, m + 1), size):
                    agree = cyclic.is_face(cx.cvert(i) for i in S) == cons.cyclic_is_face(S, K, m)
                    # 13599 cases: format the message only for a mismatch
                    r.expect(agree, "" if agree else f"criterion mismatch K={K} m={m} S={S}")


@check("constructions", "MW closed-form g and DS")
def check_mw_closed_form(r: CheckResult) -> None:
    for spec in mw_specs(5, 8, 12):
        at = str(spec)
        b = cons.mw_boundary(spec)
        r.expect(b.is_pure() and b.dim == spec.D - 1, f"{at}: not a pure (D-1)-complex")
        r.expect(b.euler_characteristic() == 1 + (-1) ** (spec.D - 1), f"{at}: Euler relation fails")
        h = vec.f_to_h(b.f_vector(), spec.D)
        r.expect(vec.check_simplicial_DS(h), f"{at}: Dehn-Sommerville fails")
        r.expect(vec.h_to_g(h) == cons.mw_g_closed(spec), f"{at}: enumerated g differs from closed form")


@check("constructions", "vertex link is the lower MW polytope")
def check_mw_vertex_link(r: CheckResult) -> None:
    """MW(2k, D, N) for k <= 2, D <= 7, N <= 11."""
    for k in (1, 2):
        for D in range(2 * k, 8):
            for N in range(D + 1, 12):
                spec = cons.MWSpec(2 * k, D, N)
                link = cons.mw_boundary(spec).link([cx.cvert(1)])
                shifted = link.relabel(
                    {cx.cvert(i): cx.cvert(i - 1) for i in range(2, spec.c_count + 1)}
                )
                small = cons.mw_boundary(cons.MWSpec(2 * k - 1, D - 1, N - 1))
                r.expect(shifted == small, f"vertex-link reduction fails at (2k={2*k}, D={D}, N={N})")


def _plus_t(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of A(t) + t*B(t), from those of A and B, constant term first."""
    out = list(a) + [0] * (len(b) + 1 - len(a))
    for j, v in enumerate(b, 1):
        out[j] += v
    return tuple(out)


def _expect_lex(r: CheckResult, diamond: Diamond) -> None:
    """Both routes give the same ball, and the ball has the rim as its boundary."""
    base, rim, ball, at = diamond.spec.base, diamond.rim, diamond.ball, str(diamond.spec)
    r.expect(
        ball == cons.lex_mw_from_cyclic(base, diamond.cyclic_lex),
        f"{at}: cyclic-factor route differs from push/pull route",
    )
    r.expect(ball.is_pure() and ball.dim == base.D, f"{at}: subdivision is not pure of the base dimension")
    r.expect(set(ball.vertices) == set(rim.vertices), f"{at}: subdivision does not use every vertex")
    r.expect(cons.ball_boundary(ball) == rim, f"{at}: subdivision boundary differs from the base boundary")


def _expect_relations(r: CheckResult, diamond: Diamond) -> None:
    """The diamond is the ball capped by the apex cone over its rim: f(D) = f(B) + t*f(R)."""
    spec, dia, at = diamond.spec, diamond.dia, str(diamond.spec)
    r.expect(dia.is_pure() and dia.dim == spec.d - 2, f"{at}: boundary not a pure (d-2)-complex")
    r.expect(dia.euler_characteristic() == 1 + (-1) ** (spec.d - 2), f"{at}: Euler relation fails")
    fd = dia.f_vector()
    r.expect(
        fd.counts == _plus_t(diamond.ball.f_vector().counts, diamond.rim.f_vector().counts),
        f"{at}: f-polynomial relation fails",
    )
    got = vec.h_to_g(vec.f_to_h(fd, spec.d - 1))
    r.expect(
        got == cons.diamond_g_closed(spec.k, spec.d, spec.n, spec.a),
        f"{at}: enumerated g differs from closed form",
    )


def _expect_contraction(r: CheckResult, diamond: Diamond) -> None:
    """Contract {c1, apex}.

    At a = 1 the link condition fails and the contraction must refuse.
    Otherwise it must land on the previous layer's diamond at a-1, with
    h(D) = h(D/e) + t*h_lk.
    """
    spec, dia, at = diamond.spec, diamond.dia, str(diamond.spec)
    if spec.a == 1:
        try:
            dia.contract_edge(cx.cvert(1), cx.APEX)
            refused = False
        except cx.LinkConditionError:
            refused = True
        r.expect(refused, f"{at}: contraction succeeded where the link condition fails")
        return
    contracted = dia.contract_edge(cx.cvert(1), cx.APEX)
    m = spec.base.c_count
    relabeled = contracted.relabel(
        {cx.cvert(1): cx.APEX, **{cx.cvert(i): cx.cvert(i - 1) for i in range(2, m + 1)}}
    )
    r.expect(relabeled == diamond.previous[spec.a - 2], f"{at}: contraction is not the previous diamond")
    h_dia = vec.f_to_h(dia.f_vector(), spec.d - 1).entries
    h_con = vec.f_to_h(contracted.f_vector(), spec.d - 1).entries
    r.expect(h_dia == _plus_t(h_con, diamond.h_lk), f"{at}: h-polynomial contraction relation fails")


@check(
    "constructions",
    "lexicographic subdivisions (both routes)",
    "diamond f-relation and closed-form g",
    "edge contraction onto the previous diamond",
    per_diamond=True,
)
def check_diamond_grid(diamond: Diamond, lex: CheckResult, rel: CheckResult, con: CheckResult) -> None:
    """Lex subdivisions, diamond relations and contractions, each with its own result."""
    _expect_lex(lex, diamond)
    _expect_relations(rel, diamond)
    _expect_contraction(con, diamond)


@check("constructions", "join multiplies f-polynomials")
def check_join_f_polynomial(r: CheckResult) -> None:
    pent = cons.cyclic_facets(2, 5)
    tetra = cx.simplex_boundary([cx.tvert(i) for i in range(1, 5)])
    edge = cx.SimplicialComplex([[cx.plain(1), cx.plain(2)]])
    s0 = cx.SimplicialComplex([[cx.plain(3)], [cx.plain(4)]])
    for a, b in [(pent, tetra), (pent, edge), (tetra, s0), (edge, s0)]:
        joined = a.join(b)
        pa, pb = a.f_vector().counts, b.f_vector().counts
        prod = [0] * (len(pa) + len(pb) - 1)
        for i, va in enumerate(pa):
            for j, vb in enumerate(pb):
                prod[i + j] += va * vb
        got = list(joined.f_vector().counts)
        got += [0] * (len(prod) - len(got))
        r.expect(got == prod, "join f-polynomial product fails")


@check("constructions", "removing a facet never adds faces")
def check_face_monotonicity(r: CheckResult) -> None:
    complexes = [
        cons.mw_boundary(cons.MWSpec(2, 4, 7)),
        cons.cyclic_facets(2, 6),
        cons.cyclic_facets(3, 6),
    ]
    for c in complexes:
        base_counts = c.f_vector().counts
        for facet in c.canonical_facets():
            rest = [f for f in c.facets if f != frozenset(facet)]
            small_counts = cx.SimplicialComplex(rest).f_vector().counts
            r.expect(
                all(lo <= hi for lo, hi in zip(small_counts, base_counts)),
                "face count grew after removing a facet",
            )


# --------------------------------------------------------------------------
# qvectors suite
# --------------------------------------------------------------------------


@check("qvectors", "named examples")
def check_q_named_examples(r: CheckResult) -> None:
    expect = r.expect

    hist = qv.vertex_figure_histogram(9, 6)
    expect(hist == {1: 256, 2: 128, 3: 64, 4: 64}, "histogram (9,6)")
    expect(qv.vertex_figure_histogram(6, 6) == {1: 64}, "histogram n=d")

    expect(qv.gsc_q(qv.QSpec(1, 6, 9)).entries == (512, 1536, 1088), "gsc (1,6,9)")
    expect(qv.gsc_q(qv.QSpec(1, 6, 6)).entries == (64, 0, 0), "gsc (1,6,6)")
    expect(qv.gsc_q(qv.QSpec(2, 6, 9)).entries == (512, 1536, 3072), "gsc (2,6,9)")

    expect(qv.gc_q(qv.QSpec(1, 6, 9)).entries == (32, 448, 1088, 0), "gc (1,6,9)")
    expect(qv.gc_q(qv.QSpec(1, 6, 6)).entries == (32, 0, 0, 0), "gc (1,6,6)")
    expect(qv.gc_q(qv.QSpec(1, 8, 10)).entries == (128, 768, 1280, 0, 0), "gc (1,8,10)")

    for (k, m, expected) in [(1, 0, 0), (1, 3, 17)]:
        identity = qv.binomial_identity_check(k, m)
        expect(identity.equal and identity.left == expected, f"identity ({k},{m})")
    expect(qv.binomial_identity_check(3, 5).equal, "identity (3,5)")

    rows = qv.ray_convergence_report(1, 6, [30])
    row = rows[0]
    expect(row.normalized is not None and row.normalized[1] >= Fraction(95, 100), "ray (1,6,30) dominant mass")
    expect(all(x <= Fraction(5, 100) for i, x in enumerate(row.normalized) if i != 1), "ray (1,6,30) small mass")
    expect(row.dominant_index == 2, "ray (1,6,30) dominant index")
    degenerate = qv.ray_convergence_report(1, 6, [6])[0]
    expect(degenerate.normalized is None and degenerate.dominant_index is None, "ray degenerate row flagged")
    expect(qv.ray_convergence_report(2, 8, [40])[0].dominant_index == 3, "ray (2,8,40) dominant index")

    expect(qv.blind_blind_gc(6, 2).entries[1:] == (48, 16, 0), "elementary (6,2)")
    expect(qv.blind_blind_gc(4, 1).entries[1:] == (8, 0), "elementary (4,1)")
    expect(qv.blind_blind_gc(12, 5).entries[5] == 2**7, "elementary (12,5) at k")


@check("qvectors", "route agreement and cubical DS")
def check_q_routes(r: CheckResult) -> None:
    for spec in q_specs():
        gsc, gc = qv.gsc_q_closed(spec), qv.gc_q_closed(spec)
        hsc = qv.full_hsc_q(spec)
        hc = vec.hsc_to_hc(hsc, spec.d)
        at = str(spec)
        r.expect(qv.gsc_q_from_diamonds(spec) == gsc, f"{at}: gsc routes disagree")
        r.expect(qv.gc_q_via_gsc(spec) == gc, f"{at}: gc routes disagree")
        r.expect(spec.d < 2 * spec.k + 4 or gc.entries[spec.k + 2] == 0, f"{at}: g^c_(k+2) is nonzero")
        r.expect(vec.hsc_to_gsc(hsc) == gsc, f"{at}: full h^sc disagrees with gsc")
        r.expect(vec.check_cubical_DS(hc), f"{at}: cubical DS fails")
        r.expect(vec.hc_to_gc(hc) == gc, f"{at}: full h^c disagrees with gc")


@check("qvectors", "explicit-complex route")
def check_q_route_c(r: CheckResult) -> None:
    for d in (4, 6):
        for n in range(d, d + 4):
            spec = qv.QSpec(1, d, n)
            r.expect(
                qv.gsc_q_from_complexes(spec) == qv.gsc_q_closed(spec),
                f"{spec}: complex route disagrees with closed form",
            )


@check("qvectors", "vertex-figure histogram")
def check_histogram(r: CheckResult) -> None:
    for d in range(2, Q_D + 1):
        for n in range(d, Q_N + 1):
            at = f"histogram ({n},{d})"
            hist = qv.vertex_figure_histogram(n, d)
            r.expect(sum(hist.values()) == 2**n, f"{at} does not partition 2^n")
            for a, count in hist.items():
                want = 2**d if a == n - d + 1 else 2 ** (n - a)
                r.expect(count == want, f"{at} wrong count at a={a}")
            r.expect(qv.vertex_figure_histogram_brute(n, d) == hist, f"{at} differs from enumeration")


@check("qvectors", "closing binomial identity")
def check_binomial_identity(r: CheckResult) -> None:
    """Exhaustive for k <= 6, m <= 30."""
    for k in range(1, 7):
        for m in range(0, 31):
            r.expect(qv.binomial_identity_check(k, m).equal, f"identity fails at (k={k}, m={m})")


@check("qvectors", "dominant ray coordinate is monotone")
def check_ray_monotonic(r: CheckResult) -> None:
    for k, d in [(1, 6), (1, 8), (2, 8), (2, 10), (3, 10)]:
        values = [row.normalized[k] for row in qv.ray_convergence_report(k, d, range(d + 1, d + 25))]
        at = f"(k={k}, d={d})"
        r.expect(all(a <= b for a, b in zip(values, values[1:])), f"dominant coordinate not monotone for {at}")
        r.expect(not values or values[-1] <= 1, f"dominant coordinate exceeds 1 for {at}")


@check("qvectors", "elementary cubical family")
def check_blind_blind(r: CheckResult) -> None:
    for d, k in blind_specs():
        gc = qv.blind_blind_gc(d, k).entries
        at = f"elementary ({d},{k})"
        r.expect(gc[k] == 2 ** (d - k), f"{at}: wrong value at index k")
        r.expect(all(gc[i] == 0 for i in range(k + 1, d // 2 + 1)), f"{at}: tail not zero")
        r.expect(gc[0] == 2 ** (d - 1), f"{at}: wrong constant term")


@check("qvectors", "g^c_2 nonnegative across families")
def check_clbc(r: CheckResult) -> None:
    """Every Q-spec of the grid, then every elementary (d, k) of check_blind_blind.

    A case is a vector long enough to have a g^c_2 entry.
    """
    items = [(f"Q(k={s.k},d={s.d},n={s.n})", qv.gc_q(s)) for s in q_specs()]
    items += [(f"blind_blind(d={d},k={k})", qv.blind_blind_gc(d, k)) for d, k in blind_specs()]
    for name, gc in items:
        if len(gc.entries) > 2:
            r.expect(gc.entries[2] >= 0, f"{name}: g^c_2 = {gc.entries[2]}")


# --------------------------------------------------------------------------
# stackedness suite
# --------------------------------------------------------------------------


@check("stackedness", "named examples")
def check_stack_named_examples(r: CheckResult) -> None:
    expect = r.expect

    def cset(*idx: int) -> frozenset:
        return frozenset(cx.cvert(i) for i in idx)

    miss1 = st.predicted_missing_faces(1, 6, 9, 1)
    want1 = {
        (st.MISSING_1, cset(1, 3) | {cx.APEX}),
        (st.MISSING_1, cset(1, 4) | {cx.APEX}),
        (st.MISSING_1, cset(1, 5) | {cx.APEX}),
        (st.MISSING_2, cset(2, 4)),
        (st.MISSING_2, cset(2, 5)),
        (st.MISSING_2, cset(3, 5)),
    }
    expect({(cf.tag, cf.vertices) for cf in miss1} == want1, "missing faces (1,6,9,a=1)")

    miss2 = st.predicted_missing_faces(1, 6, 9, 2)
    want2 = {
        (st.MISSING_1, cset(2, 4) | {cx.APEX}),
        (st.MISSING_1, cset(2, 5) | {cx.APEX}),
        (st.MISSING_2, cset(1, 3)),
        (st.MISSING_2, cset(1, 4)),
        (st.MISSING_2, cset(1, 5)),
        (st.MISSING_2, cset(3, 5)),
    }
    expect({(cf.tag, cf.vertices) for cf in miss2} == want2, "missing faces (1,6,9,a=2)")

    tset = frozenset(cx.tvert(j) for j in (1, 2, 3))
    fac2 = st.predicted_stacked_facets(1, 6, 9, 2)
    want_f2 = {
        (st.FACET_I, cset(1, 2) | {cx.APEX} | tset),
        (st.FACET_I, cset(2, 3) | {cx.APEX} | tset),
        (st.FACET_I, cset(3, 4) | {cx.APEX} | tset),
        (st.FACET_I, cset(4, 5) | {cx.APEX} | tset),
        (st.FACET_II, cset(2, 3, 4) | tset),
        (st.FACET_II, cset(2, 4, 5) | tset),
    }
    expect({(cf.tag, cf.vertices) for cf in fac2} == want_f2, "stacked facets (1,6,9,a=2)")
    fac1 = st.predicted_stacked_facets(1, 6, 9, 1)
    expect(len(fac1) == 7, "stacked facet count (1,6,9,a=1)")
    expect(all(len(cf.vertices) == 6 for cf in fac1 + fac2), "facet arity d")

    dia = cons.diamond_boundary(cons.DiamondSpec(1, 6, 9, 2))
    oracle = st.oracle_stacked_facets(dia, 6, 1)
    expect(len(oracle) == 6, "oracle facet count (1,6,9,a=2)")
    brute = st.brute_missing_faces(dia, 3)
    expect(len(brute) == 6, "brute missing count (1,6,9,a=2)")

    tetra = cx.simplex_boundary([cx.plain(i) for i in range(1, 5)])
    expect(st.brute_missing_faces(tetra, 3) == [], "simplex boundary has no small missing faces")
    cyc4 = cx.SimplicialComplex(
        [[cx.plain(1), cx.plain(2)], [cx.plain(2), cx.plain(3)], [cx.plain(3), cx.plain(4)], [cx.plain(4), cx.plain(1)]]
    )
    expect(
        st.brute_missing_faces(cyc4, 2)
        == [frozenset({cx.plain(1), cx.plain(3)}), frozenset({cx.plain(2), cx.plain(4)})],
        "diagonals of the 4-cycle",
    )

    w = st.incompatibility_witness(1, 6, 9)
    expect(w.sigma == "+" + "-" * 8 and w.a == 1 and w.b == 4, "witness indices (1,6,9)")
    expect(w.face == cset(1, 2, 3) | tset, "witness face (1,6,9)")
    expect(w.face_type_in_a == st.FACET_II and w.face_type_in_b == st.UNCLASSIFIED, "witness tags")
    expect(st.incompatibility_witness(2, 8, 12) is not None, "witness (2,8,12)")
    r.raises(lambda: st.incompatibility_witness(1, 6, 6), "witness produced with n=d")


@check("stackedness", "predicted vs brute missing faces", "predicted vs oracle stacked facets", per_diamond=True)
def check_stack_grid(diamond: Diamond, miss: CheckResult, fac: CheckResult) -> None:
    """Missing faces and stacked facets of the walk's k = 1 diamonds with d in (6, 8), n <= d+4.

    A diamond's predicted missing faces are computed once and read by both
    checks, which each get their own result.
    """
    k, d, n, a = diamond.spec.k, diamond.spec.d, diamond.spec.n, diamond.spec.a
    if k != 1 or d not in (6, 8) or n > d + 4:
        return
    dia = diamond.dia
    at = f"(k={k}, d={d}, n={n}, a={a})"
    missing = {cf.vertices for cf in st.predicted_missing_faces(k, d, n, a)}
    brute = set(st.brute_missing_faces(dia, k + 2))
    miss.expect(missing == brute, f"missing faces differ at {at}")
    miss.expect(all(len(f) > k for f in brute), f"neighborliness violated at {at}")
    predicted = {cf.vertices for cf in st.predicted_stacked_facets(k, d, n, a)}
    oracle = set(st.oracle_stacked_facets(dia, d, k))
    fac.expect(predicted == oracle, f"stacked facets differ at {at}")
    fac.expect(
        not any(m <= facet for facet in predicted for m in missing),
        f"facet contains a missing face at {at}",
    )
    # a boundary face lies in an oracle facet when its facet does
    fac.expect(
        all(any(facet <= o for o in oracle) for facet in dia.facets),
        f"boundary face not covered at {at}",
    )


@check("stackedness", "incompatibility witness on the grid")
def check_stack_witness(r: CheckResult) -> None:
    for k in (1, 2):
        for d in range(2 * k + 4, Q_D + 1):
            for n in range(d + 1, Q_N + 1):
                w = st.incompatibility_witness(k, d, n)
                r.expect(
                    w.a < w.b and w.face_type_in_a == st.FACET_II and w.face_type_in_b == st.UNCLASSIFIED,
                    f"witness invalid at (k={k}, d={d}, n={n})",
                )


@check("stackedness", "cube subgraphs are faces")
def check_cube_graph(r: CheckResult) -> None:
    for n, m in [(3, 2), (4, 2), (4, 3)]:
        r.expect(st.cube_graph_face_check(n, m), f"cube graph check fails at ({n},{m})")
        r.expect(
            len(st.cube_subgraph_images(n, m)) == st.cube_face_count(n, m),
            f"subcube image count differs at ({n},{m})",
        )


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


SUITES: tuple[str, ...] = tuple(dict.fromkeys(suite for suite, _ in CHECKS))


def _walk(walked: dict[_Key, list[CheckResult]]) -> None:
    """Feed one walk of ``diamond_grid()`` to the per-diamond checks of ``walked``.

    A per-diamond body that raises fails as a plain check does and gets no
    further diamond; if the walk itself raises, every body still running fails.
    """
    live = list(walked)
    try:
        for diamond in diamond_grid() if live else ():
            for key in list(live):
                try:
                    _PER_DIAMOND[key](diamond, *walked[key])
                except Exception as exc:
                    _fail(walked[key], exc)
                    live.remove(key)
    except Exception as exc:
        for key in live:
            _fail(walked[key], exc)


def _plain(keys: list[_Key]) -> list[CheckResult]:
    results: list[CheckResult] = []
    for key in keys:
        out = CHECKS[key]()
        results += out if len(key[1]) > 1 else [out]
    return results


def _fork_plain(keys: list[_Key]) -> tuple[int, BinaryIO]:
    """Fork a child that runs the plain checks of ``keys``; its pid and the pipe it writes.

    The child sends one marshalled list of (name, cases, failures) and leaves
    through ``os._exit``, so it never flushes the parent's stdio buffers, runs
    atexit hooks or returns into the caller.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:
        os.close(read)
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps([(r.name, r.cases, r.failures) for r in _plain(keys)]))
        code = 0
    finally:
        os._exit(code)


def _tallies(keys: list[_Key], payload: bytes, status: int) -> list[CheckResult]:
    """The results a child sent; if it died or sent a short payload, each fails once."""
    names = [name for key in keys for name in key[1]]
    results = [CheckResult(name) for name in names]
    try:
        sent = marshal.loads(payload) if status == 0 else ()
        if [name for name, _, _ in sent] == names:
            for r, (_, cases, failures) in zip(results, sent):
                r.cases, r.failures = cases, failures
            return results
    except (EOFError, ValueError, TypeError):
        pass
    for r in results:
        r.expect(False, f"plain-check process ended with wait status {status} after {len(payload)} bytes")
    return results


def _run(keys: list[_Key]) -> list[CheckResult]:
    """The results of the checks of ``keys``, in order; the per-diamond ones share one walk.

    When ``keys`` holds both kinds and ``os.fork`` exists, the plain checks run
    in one forked child while this process walks.  The pipe is read to its end
    before the child is reaped, so no payload size can deadlock.  The child is
    reaped on every path: if the walk is interrupted, the pipe closes first and
    the child ends once its checks are done, its write failing or not.
    """
    walked = {key: [CheckResult(name) for name in key[1]] for key in keys if key in _PER_DIAMOND}
    plain = [key for key in keys if key not in walked]
    if walked and plain and hasattr(os, "fork"):
        pid, pipe = _fork_plain(plain)
        try:
            with pipe:
                _walk(walked)
                payload = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        done = _tallies(plain, payload, status)
    else:
        _walk(walked)
        done = _plain(plain)
    rest = iter(done)
    results: list[CheckResult] = []
    for key in keys:
        results += walked[key] if key in walked else [next(rest) for _ in key[1]]
    return results


def run_suite(name: str) -> list[CheckResult]:
    """Run every check of suite ``name`` ("all" for every suite), in registry order."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _run([key for key in CHECKS if name in ("all", key[0])])
