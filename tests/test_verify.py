"""Fault injection into the verify checks: a wrong answer at one spec must
fail exactly the check that reads it, and name that spec."""

from polygv import constructions as cons
from polygv import stackedness as st
from polygv import verify
from polygv.vectors import GVector

LEX, RELATIONS, CONTRACTION = (
    "constructions: lexicographic subdivisions (both routes)",
    "constructions: diamond f-relation and closed-form g",
    "constructions: edge contraction onto the previous diamond",
)
MISSING, FACETS = (
    "stackedness: predicted vs brute missing faces",
    "stackedness: predicted vs oracle stacked facets",
)


def _by_name(results, names=(LEX, RELATIONS, CONTRACTION)):
    assert [r.name for r in results] == list(names)
    return {r.name: r for r in results}


def test_wrong_closed_form_fails_only_the_relation_check(monkeypatch):
    bad = cons.DiamondSpec(2, 8, 11, 3)
    closed = cons.diamond_g_closed

    def wrong_at_one(k, d, n, a):
        g = closed(k, d, n, a)
        if (k, d, n, a) == (bad.k, bad.d, bad.n, bad.a):
            return GVector(g.entries[:-1] + (g.entries[-1] + 1,))
        return g

    monkeypatch.setattr(cons, "diamond_g_closed", wrong_at_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].passed and results[LEX].detail == "272 cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == "272 cases"
    assert not results[RELATIONS].passed
    assert results[RELATIONS].detail == f"{bad}: enumerated g differs from closed form"


def test_wrong_cyclic_route_fails_only_the_lex_check(monkeypatch):
    bad = cons.DiamondSpec(1, 6, 10, 4)
    bad_cyclic = cons.lex_subdivision(cons.CyclicSpec(bad.base.K, bad.base.c_count), bad.a)
    from_cyclic = cons.lex_mw_from_cyclic

    def wrong_at_one(spec, cyclic_lex):
        ball = from_cyclic(spec, cyclic_lex)
        if (spec, cyclic_lex) == (bad.base, bad_cyclic):
            return cons.SimplicialComplex(sorted(ball.facets, key=sorted)[1:])
        return ball

    monkeypatch.setattr(cons, "lex_mw_from_cyclic", wrong_at_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[RELATIONS].passed and results[RELATIONS].detail == "272 cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == "272 cases"
    assert not results[LEX].passed
    assert results[LEX].detail == f"{bad}: cyclic-factor route differs from push/pull route"


def test_dropped_oracle_facet_leaves_a_face_uncovered(monkeypatch):
    oracle = st.oracle_stacked_facets

    def drop_one(complex_, d, k):
        out = oracle(complex_, d, k)
        return out[1:] if len(complex_.vertices) == 9 and d == 6 else out

    monkeypatch.setattr(st, "oracle_stacked_facets", drop_one)
    results = _by_name(verify.check_stack_grid(), (MISSING, FACETS))
    assert results[MISSING].passed and results[MISSING].detail == "30 cases"
    r = results[FACETS]
    assert not r.passed
    assert "boundary face not covered at (k=1, d=6, n=9, a=1)" in r.detail


def test_dropped_missing_face_fails_only_the_missing_check(monkeypatch):
    predicted = st.predicted_missing_faces

    def drop_one(k, d, n, a):
        out = predicted(k, d, n, a)
        return out[1:] if (k, d, n, a) == (1, 6, 9, 2) else out

    monkeypatch.setattr(st, "predicted_missing_faces", drop_one)
    results = _by_name(verify.check_stack_grid(), (MISSING, FACETS))
    assert results[FACETS].passed and results[FACETS].detail == "30 cases"
    assert not results[MISSING].passed
    assert results[MISSING].detail == "missing faces differ at (k=1, d=6, n=9, a=2)"


def test_stack_grid_builds_one_rim_per_layer(monkeypatch):
    calls = []
    mw_boundary = cons.mw_boundary

    def counted(spec):
        calls.append(spec)
        return mw_boundary(spec)

    monkeypatch.setattr(cons, "mw_boundary", counted)
    results = verify.check_stack_grid()
    assert all(r.passed for r in results)
    # one per (d, n): d in (6, 8), n = d..d+4
    assert len(calls) == len(set(calls)) == 10
