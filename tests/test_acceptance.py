"""Acceptance gate: one test per criterion, each at its stated grid and
exact-equality tolerance, printing a pass/fail line (visible with pytest -s)."""

import time
from fractions import Fraction

from polygv import cli
from polygv import complexes as cx
from polygv import constructions as cons
from polygv import qvectors as qv
from polygv import stackedness as st
from polygv import vectors as vec
from polygv import verify
from polygv.verify import (
    check_binomial_identity,
    check_cube_graph,
    check_gale_crosscheck,
    check_mw_closed_form,
    check_mw_vertex_link,
    check_q_routes,
    check_stack_grid,
    check_stack_witness,
)


def _report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert passed, f"criterion {num}: {desc} {detail}"


def test_criterion_01_transform_suite():
    start = time.perf_counter()
    ok = True
    simplex = cx.simplex_boundary([cx.plain(i) for i in range(1, 5)])
    h1 = vec.f_to_h(simplex.f_vector(), 3)
    ok &= h1.entries == (1, 1, 1, 1)
    c47 = cons.cyclic_facets(4, 7)
    h2 = vec.f_to_h(c47.f_vector(), 4)
    ok &= h2.entries == (1, 3, 6, 3, 1)
    ok &= vec.h_to_g(h1).entries == (1, 0)
    ok &= vec.h_to_g(h2).entries == (1, 2, 3)
    cube_f = vec.FVector(2, (1, 8, 12, 6))
    hc = vec.hsc_to_hc(vec.f_to_hsc(cube_f, 3), 3)
    ok &= hc.entries == (4, 4, 4, 4)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "transform suite on the simplex, C(4,7), and the 3-cube", ok, f"{elapsed:.3f}s")


def test_criterion_02_mw_closed_form():
    r = check_mw_closed_form()
    _report(2, "MW g closed form and Dehn-Sommerville, K<=5 D<=8 N<=12", r.passed, r.detail)


def test_criterion_03_vertex_link_reduction():
    r = check_mw_vertex_link()
    _report(3, "vertex link is the lower MW polytope, k<=2 D<=7 N<=11", r.passed, r.detail)


def test_criterion_04_lex_routes_commute():
    failures = []
    tested = 0
    specs = []
    for k in (1, 2):
        for d in range(2 * k + 2, 9):
            for n in range(d, 11):
                specs.append(cons.MWSpec(2 * k, d - 2, n - 1))
    specs += [cons.MWSpec(3, 4, 8), cons.MWSpec(5, 6, 10), cons.MWSpec(3, 3, 8)]
    for spec in specs:
        for a in range(1, cons.lex_range(spec) + 1):
            tested += 1
            cyclic_lex = cons.lex_subdivision(cons.CyclicSpec(spec.K, spec.c_count), a)
            if cons.lex_subdivision(spec, a) != cons.lex_mw_from_cyclic(spec, cyclic_lex):
                failures.append((spec, a))
    _report(4, "lexicographic subdivision routes agree on the grid", not failures,
            f"{tested} cases")


def test_criterion_05_diamond_g():
    failures = []
    tested = 0
    for d in (4, 6):
        for n in range(d, 11):
            for a in range(1, n - d + 2):
                tested += 1
                dia = cons.diamond_boundary(cons.DiamondSpec(1, d, n, a))
                got = vec.h_to_g(vec.f_to_h(dia.f_vector(), d - 1))
                if got != cons.diamond_g_closed(1, d, n, a):
                    failures.append((d, n, a))
    named = (
        cons.diamond_g_closed(1, 6, 9, 1).entries == (1, 3, 3)
        and cons.diamond_g_closed(1, 6, 9, 2).entries == (1, 3, 2)
        and cons.diamond_g_closed(1, 6, 9, 4).entries == (1, 3, 0)
    )
    _report(5, "diamond g from explicit complexes equals closed forms, k=1 d in {4,6} n<=10",
            not failures and named, f"{tested} cases")


def test_criterion_06_q_routes():
    r = check_q_routes()
    named = qv.gc_q(qv.QSpec(1, 6, 9)).entries == (32, 448, 1088, 0)
    zero_ok = all(
        qv.gc_q_closed(qv.QSpec(k, d, n)).entries[k + 2] == 0
        for k in range(1, 4)
        for d in range(2 * k + 4, 11)
        for n in range(d, 15)
    )
    _report(6, "gsc/gc route agreement k<=3 d<=10 n<=14, named values, g^c_(k+2)=0",
            r.passed and named and zero_ok, r.detail)


def test_criterion_07_binomial_identity():
    r = check_binomial_identity()
    named = (
        qv.binomial_identity_check(1, 0).left == 0
        and qv.binomial_identity_check(1, 0).equal
        and qv.binomial_identity_check(1, 3).left == 17
        and qv.binomial_identity_check(1, 3).equal
    )
    _report(7, "closing binomial identity, k<=6 m<=30 exhaustive", r.passed and named, r.detail)


def test_criterion_08_ray_convergence():
    row = qv.ray_convergence_report(1, 6, [30])[0]
    threshold = (
        row.normalized is not None
        and row.normalized[1] >= Fraction(95, 100)
        and all(x <= Fraction(5, 100) for i, x in enumerate(row.normalized) if i != 1)
    )
    dominant = all(
        qv.ray_convergence_report(k, d, [d + 24])[0].dominant_index == k + 1
        for k, d in [(1, 6), (2, 8), (2, 10)]
    )
    _report(8, "normalized ray at desk scale: thresholds and dominant index k+1",
            threshold and dominant)


def test_criterion_09_missing_faces_and_stacked_facets():
    r1, r2 = check_stack_grid()
    named_missing = {cf.vertices for cf in st.predicted_missing_faces(1, 6, 9, 2)} == {
        frozenset({cx.APEX, cx.cvert(2), cx.cvert(4)}),
        frozenset({cx.APEX, cx.cvert(2), cx.cvert(5)}),
        frozenset({cx.cvert(1), cx.cvert(3)}),
        frozenset({cx.cvert(1), cx.cvert(4)}),
        frozenset({cx.cvert(1), cx.cvert(5)}),
        frozenset({cx.cvert(3), cx.cvert(5)}),
    }
    named_facets = len(st.predicted_stacked_facets(1, 6, 9, 2)) == 6
    _report(9, "predicted vs oracle missing faces and stacked facets, k=1 d in {6,8} n<=d+4",
            r1.passed and r2.passed and named_missing and named_facets,
            f"{r1.detail}; {r2.detail}")


def test_criterion_10_incompatibility_witness():
    r = check_stack_witness()
    exit_code = cli.main(["verify", "--suite", "stackedness"])
    _report(10, "incompatibility witness for every n>d>=2k+4, k<=2, exit-code checked",
            r.passed and exit_code == 0, r.detail)


def test_criterion_11_cube_graph_fact():
    r = check_cube_graph()
    _report(11, "m-cube subgraphs of the n-cube are faces, (3,2) (4,2) (4,3)", r.passed)


def test_criterion_12_elementary_family_and_clbc():
    stacked_ok = all(
        qv.blind_blind_gc(d, k).entries[k] == 2 ** (d - k)
        for d in range(2, 13)
        for k in range(1, d // 2 + 1)
    )
    r = verify.check_clbc()
    _report(12, "elementary cubical family g^c_k = 2^(d-k) and g^c_2 >= 0 scan",
            stacked_ok and r.passed, f"{r.cases} vectors scanned")


def test_gale_crosscheck_supporting_property():
    # module property backing criteria 2 and 9: exhaustive for K <= 6, m <= 12
    r = check_gale_crosscheck()
    assert r.passed, r.detail
