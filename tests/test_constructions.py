from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as stn

from polygv import constructions as cons
from polygv.complexes import APEX, LinkConditionError, SimplicialComplex, cvert, tvert
from polygv.constructions import (
    CyclicSpec,
    DiamondSpec,
    MWSpec,
    _gale_masks,
    ball_boundary,
    cyclic_facets,
    cyclic_is_face,
    diamond_boundary,
    diamonds,
    lex_mw_from_cyclic,
    lex_range,
    lex_subdivision,
    lex_subdivisions,
    mw_boundary,
    mw_g_closed,
)
from polygv.qvectors import diamond_g_closed
from polygv.vectors import f_to_h, h_to_g, mchoose


def cface(*idx):
    return frozenset(cvert(i) for i in idx)


def blocks(positions):
    """Maximal runs of consecutive positions as (start, end), in order.

    The literal Gale-evenness reference that the facet generator and the
    one-pass face test are checked against.
    """
    out = []
    for p in sorted(set(positions)):
        if out and p == out[-1][1] + 1:
            out[-1] = (out[-1][0], p)
        else:
            out.append((p, p))
    return out


def inner_odd_count(positions, m):
    """Odd blocks that touch neither end of the line 1..m."""
    return sum(1 for s, e in blocks(positions) if s > 1 and e < m and (e - s) % 2 == 0)


# -- cyclic polytopes ---------------------------------------------------------


def test_pentagon_facets():
    pent = cyclic_facets(2, 5)
    assert pent.facets == {cface(1, 2), cface(2, 3), cface(3, 4), cface(4, 5), cface(1, 5)}


def test_c47_counts():
    c = cyclic_facets(4, 7)
    assert len(c.facets) == 14
    assert c.f_vector().counts == (1, 7, 21, 28, 14)
    assert c.euler_characteristic() == 1 + (-1) ** 3


def test_c46_contains_1245():
    assert cface(1, 2, 4, 5) in cyclic_facets(4, 6).facets


def test_gale_generator_matches_subset_filter():
    for m in range(2, 15):
        for K in range(1, m):
            want = [
                sum(1 << (p - 1) for p in S)
                for S in combinations(range(1, m + 1), K)
                if inner_odd_count(S, m) == 0
            ]
            assert list(_gale_masks(K, m)) == want, (K, m)


def test_cyclic_stretch_is_neighborly():
    K, m = 10, 20
    g = h_to_g(f_to_h(cyclic_facets(K, m).f_vector(), K))
    assert g.entries == tuple(mchoose(m - K - 1, i) for i in range(K // 2 + 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        CyclicSpec(3, 3)
    with pytest.raises(ValueError):
        MWSpec(0, 4, 7)
    with pytest.raises(ValueError):
        MWSpec(5, 4, 7)
    with pytest.raises(ValueError):
        MWSpec(2, 4, 4)
    with pytest.raises(ValueError):
        DiamondSpec(1, 3, 9, 1)
    with pytest.raises(ValueError):
        DiamondSpec(1, 6, 9, 5)


def test_block_decomposition():
    assert blocks({2, 3, 5, 7, 8, 9}) == [(2, 3), (5, 5), (7, 9)]
    assert inner_odd_count({2, 3, 5, 7, 8, 9}, 10) == 2
    assert blocks({1, 4, 7}) == [(1, 1), (4, 4), (7, 7)]


@pytest.mark.parametrize(
    "subset,K,m,want",
    [
        ({2, 4}, 2, 6, False),
        ({1, 6}, 2, 6, True),
        ({2, 3}, 2, 6, True),
        ({1, 5}, 2, 6, False),
        (set(), 2, 6, True),
    ],
)
def test_cyclic_is_face_examples(subset, K, m, want):
    assert cyclic_is_face(subset, K, m) is want


def test_cyclic_is_face_rejects_oversized():
    with pytest.raises(ValueError):
        cyclic_is_face({1, 2, 3}, 2, 6)


def test_cyclic_is_face_matches_block_rule():
    for m in range(2, 11):
        for K in range(1, m):
            for size in range(K + 1):
                for S in combinations(range(1, m + 1), size):
                    want = inner_odd_count(S, m) <= K - size
                    assert cyclic_is_face(S, K, m) is want, (K, m, S)


def test_cyclic_is_face_rejects_positions_outside_range():
    for bad, want in (({0, 2}, "positions (0, 2) outside 1..6"), ({2, 7}, "positions (2, 7) outside 1..6")):
        with pytest.raises(ValueError) as got:
            cyclic_is_face(bad, 2, 6)
        assert str(got.value) == want


# -- MW polytopes ---------------------------------------------------------------


def test_mw_348_g():
    g = h_to_g(f_to_h(mw_boundary(MWSpec(3, 4, 8)).f_vector(), 4))
    assert g.entries == (1, 3, 0)
    assert mw_g_closed(MWSpec(3, 4, 8)).entries == (1, 3, 0)


def test_mw_degenerate_k_equals_d_is_cyclic():
    # T shrinks to a point standing in for the last cyclic vertex
    mw = mw_boundary(MWSpec(3, 3, 8))
    cyc = cyclic_facets(3, 8)
    relabeled = mw.relabel({tvert(1): cvert(8)})
    assert relabeled == cyc


# -- lexicographic subdivisions ----------------------------------------------


def test_lex_pentagon_examples():
    assert lex_subdivision(CyclicSpec(2, 5), 1).facets == {
        cface(1, 2, 3),
        cface(1, 3, 4),
        cface(1, 4, 5),
    }
    assert lex_subdivision(CyclicSpec(2, 5), 2).facets == {
        cface(1, 2, 5),
        cface(2, 3, 4),
        cface(2, 4, 5),
    }


def test_lex_range_and_validation():
    assert lex_range(CyclicSpec(2, 5)) == 3
    assert lex_range(MWSpec(2, 4, 8)) == 4
    with pytest.raises(ValueError):
        lex_subdivision(CyclicSpec(2, 5), 4)
    with pytest.raises(ValueError):
        lex_subdivision(CyclicSpec(2, 5), 0)


def test_lex_last_index_is_single_pull_into_simplex():
    spec = CyclicSpec(2, 5)
    ball = lex_subdivision(spec, 3)
    # pushes strip c1, c2; the pull acts on the triangle c3 c4 c5
    assert cface(3, 4, 5) in ball.facets


def test_lex_is_subdivision_of_base():
    for spec, amax in [(CyclicSpec(2, 6), 4), (MWSpec(2, 4, 8), 4), (MWSpec(4, 5, 9), 4)]:
        rim = (
            cyclic_facets(spec.K, spec.m)
            if isinstance(spec, CyclicSpec)
            else mw_boundary(spec)
        )
        dim = spec.K if isinstance(spec, CyclicSpec) else spec.D
        for a in range(1, amax + 1):
            ball = lex_subdivision(spec, a)
            assert ball.is_pure() and ball.dim == dim
            assert set(ball.vertices) == set(rim.vertices)
            assert ball_boundary(ball) == rim


def test_lex_commute_small_grid():
    # the last three have odd K, off the diamond grid that verify walks
    for K, D, N in [(2, 4, 7), (2, 4, 8), (2, 5, 9), (4, 5, 9), (4, 6, 9), (3, 4, 8), (5, 6, 10), (3, 3, 8)]:
        spec = MWSpec(K, D, N)
        for a in range(1, lex_range(spec) + 1):
            cyclic_lex = lex_subdivision(CyclicSpec(spec.K, spec.c_count), a)
            assert lex_subdivision(spec, a) == lex_mw_from_cyclic(spec, cyclic_lex), (spec, a)


def _stream_specs():
    """Every cyclic spec with K <= 6, m <= 12 and every MW base of the full diamond grid."""
    out = [CyclicSpec(K, m) for K in range(1, 7) for m in range(K + 1, 13)]
    for k in range(1, 4):
        for d in range(2 * k + 2, 11):
            out.extend(DiamondSpec(k, d, n, 1).base for n in range(d, 13))
    return out


def test_lex_stream_matches_single_builds():
    cases = 0
    for spec in _stream_specs():
        amax = lex_range(spec)
        got = list(lex_subdivisions(spec))
        assert [a for a, _ in got] == list(range(1, amax + 1)), spec
        for a, ball in got:
            assert ball == lex_subdivision(spec, a) == SimplicialComplex(lex_reference(spec, a)), (spec, a)
            cases += 1
    assert cases == 523


def _glue_by_joins(c, x, t_labels):
    """The MW gluing as joins: simplex(T) * lk(x) together with boundary(T) * ast(x).

    The reference for the one gluing rule of the module, built from link,
    antistar and join instead of a rule on cells.  All three are written here
    on the facets of ``c``; the library only drops the non-maximal sets at the end.
    """
    T = frozenset(t_labels)
    link = {f - {x} for f in c.facets if x in f}
    antistar = {f - {x} for f in c.facets}  # some are not maximal; their joins are dropped
    through_x = {T | g for g in link}
    avoiding_x = {(T - {t}) | g for t in T for g in antistar}
    return SimplicialComplex(through_x | avoiding_x)


def test_gluing_matches_the_join_reference():
    """MW boundary and Lex_a of every MW base in the stream grid, plus K = 1 and K = D."""
    bases = [spec for spec in _stream_specs() if isinstance(spec, MWSpec)]
    cases = 0
    for spec in bases + [MWSpec(1, 3, 6), MWSpec(1, 4, 8), MWSpec(3, 3, 8)]:
        x, t_labels = cvert(spec.c_count), spec.t_labels
        assert _glue_by_joins(cyclic_facets(spec.K, spec.c_count), x, t_labels) == mw_boundary(spec), spec
        for a, cyclic_lex in lex_subdivisions(CyclicSpec(spec.K, spec.c_count)):
            assert _glue_by_joins(cyclic_lex, x, t_labels) == lex_mw_from_cyclic(spec, cyclic_lex), (spec, a)
            cases += 1
    assert len(bases) == 79 and cases == 272 + 3 + 4 + 5  # one per grid diamond, then the three extra specs


def test_lex_stream_runs_one_push_chain(monkeypatch):
    calls = []
    suffix = cons._suffix_facets
    monkeypatch.setattr(cons, "_suffix_facets", lambda spec, start: calls.append(start) or suffix(spec, start))
    spec = MWSpec(4, 8, 13)  # lex_range 5
    list(lex_subdivisions(spec))
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    lex_subdivision(spec, 3)
    assert calls == [0, 1, 2]


def test_lex_subdivision_builds_one_complex(monkeypatch):
    built = []

    class Counting(SimplicialComplex):
        __slots__ = ()

        @classmethod
        def _of(cls, labels, masks):
            built.append(1)
            return super()._of(labels, masks)

    monkeypatch.setattr(cons, "SimplicialComplex", Counting)
    lex_subdivision(MWSpec(2, 4, 9), 5)
    assert len(built) == 1


# -- diamonds --------------------------------------------------------------------


@pytest.mark.parametrize("a,want", [(1, (1, 3, 3)), (2, (1, 3, 2)), (4, (1, 3, 0))])
def test_diamond_g_at_169(a, want):
    dia = diamond_boundary(DiamondSpec(1, 6, 9, a))
    assert h_to_g(f_to_h(dia.f_vector(), 5)).entries == want
    assert diamond_g_closed(1, 6, 9, a).entries == want


def test_diamond_is_sphere():
    dia = diamond_boundary(DiamondSpec(1, 6, 9, 2))
    assert dia.is_pure() and dia.dim == 4
    assert len(dia.vertices) == 9
    assert dia.euler_characteristic() == 1 + (-1) ** 4


def test_diamond_g_closed_validates():
    with pytest.raises(ValueError):
        diamond_g_closed(1, 6, 9, 5)
    with pytest.raises(ValueError):
        diamond_g_closed(2, 5, 9, 1)  # d < 2k+2


def test_diamond_stream_matches_single_builds():
    cases = 0
    for k in range(1, 4):
        for d in range(2 * k + 2, 11):
            for n in range(d, 13):
                got = list(diamonds(k, d, n))
                assert [spec for spec, *_ in got] == [
                    DiamondSpec(k, d, n, a) for a in range(1, n - d + 2)
                ]
                for spec, rim, ball, dia in got:
                    assert rim is got[0][1]
                    assert rim == mw_boundary(spec.base)
                    assert ball == lex_subdivision(spec.base, spec.a)
                    assert dia == diamond_boundary(spec)
                    cases += 1
    assert cases == 272


def test_diamond_stream_validates():
    with pytest.raises(ValueError):
        next(diamonds(2, 5, 9))  # d < 2k+2
    with pytest.raises(ValueError):
        next(diamonds(1, 6, 5))  # n < d


# -- the mask engine against label-built references ------------------------------
#
# Every builder makes int facet masks; the references below are written on
# label sets only, straight from the rules in the module docstring.


def maximal(sets):
    sets = {frozenset(f) for f in sets}
    return {f for f in sets if not any(f < g for g in sets)}


def assert_matches(c, want):
    """``c`` round-trips through its label view, which holds the maximal sets of ``want``."""
    assert SimplicialComplex(c.facets) == c
    assert c.facets == (maximal(want) or {frozenset()})
    assert c.vertices == tuple(sorted(set().union(*c.facets)))


def suffix_reference(spec, start):
    """Label facets of the polytope on the vertex order with the first ``start`` dropped."""
    m = spec.m if isinstance(spec, CyclicSpec) else spec.c_count
    cells = {
        frozenset(cvert(p + start) for p in S)
        for S in combinations(range(1, m - start + 1), spec.K)
        if inner_odd_count(S, m - start) == 0
    }
    if isinstance(spec, CyclicSpec):
        return cells
    x, T = cvert(m), frozenset(spec.t_labels)
    return {T | (S - {x}) for S in cells if x in S} | {(T - {t}) | S for S in cells if x not in S for t in T}


def lex_reference(spec, a):
    """Push c1 .. c_(a-1), then pull c_a, on label sets."""
    cells, cur = [], suffix_reference(spec, 0)
    for s in range(1, a):
        nxt = suffix_reference(spec, s)
        cells += [F | {cvert(s)} for F in nxt - cur]
        cur = nxt
    return cells + [F | {cvert(a)} for F in cur if cvert(a) not in F]


def assert_operations_match(c, rng):
    """link, ball_boundary, relabel and contract_edge against their rules written on label sets."""
    facets = c.facets
    face = rng.choice(sorted(facets, key=sorted))
    face = frozenset(rng.sample(sorted(face), rng.randrange(len(face) + 1)))
    assert_matches(c.link(face), {f - face for f in facets if face <= f})
    ridges = Counter(f - {v} for f in facets for v in f)
    assert_matches(ball_boundary(c), {r for r, n in ridges.items() if n == 1})
    names = list(c.vertices)
    rng.shuffle(names)
    mapping = dict(zip(c.vertices, names))
    assert_matches(c.relabel(mapping), {frozenset(mapping[v] for v in f) for f in facets})
    edges = [sorted(f) for f in facets if len(f) > 1]
    if edges:
        u, v = rng.sample(rng.choice(edges), 2)
        try:
            contracted = c.contract_edge(u, v)
        except LinkConditionError:
            return
        assert_matches(contracted, {(f - {v}) | {u} if v in f else f for f in facets})


@settings(max_examples=30, deadline=None)
@given(stn.integers(1, 6), stn.integers(2, 10), stn.integers(1, 4), stn.integers(0, 3), stn.randoms())
def test_cyclic_mw_and_lex_masks_match_label_references(K, m, D_extra, N_extra, rng):
    specs = []
    if K < m:
        specs.append(CyclicSpec(K, m))
    specs.append(MWSpec(min(K, 5), min(K, 5) + D_extra - 1, min(K, 5) + D_extra + N_extra))
    for spec in specs:
        rim = cyclic_facets(spec.K, spec.m) if isinstance(spec, CyclicSpec) else mw_boundary(spec)
        assert_matches(rim, suffix_reference(spec, 0))
        assert_operations_match(rim, rng)
        for a, ball in lex_subdivisions(spec):
            assert_matches(ball, lex_reference(spec, a))
            assert_operations_match(ball, rng)
        if isinstance(spec, MWSpec):
            for a, cyclic_lex in lex_subdivisions(CyclicSpec(spec.K, spec.c_count)):
                assert_matches(lex_mw_from_cyclic(spec, cyclic_lex), lex_reference(spec, a))


@settings(max_examples=25, deadline=None)
@given(stn.integers(1, 2), stn.integers(0, 2), stn.integers(0, 3), stn.randoms())
def test_diamond_masks_match_label_references(k, d_extra, n_extra, rng):
    d = 2 * k + 2 + d_extra
    for spec, rim, ball, dia in diamonds(k, d, d + n_extra):
        base = spec.base
        rim_ref = suffix_reference(base, 0)
        assert_matches(rim, rim_ref)
        assert_matches(ball, lex_reference(base, spec.a))
        assert_matches(dia, set(lex_reference(base, spec.a)) | {f | {APEX} for f in rim_ref})
        assert_operations_match(dia, rng)


def test_glue_with_t1_one_bit_too_high_fails_the_mask_check(monkeypatch):
    """Negative control: T moved one bit up leaves x's bit empty and runs past the labels."""
    glue = cons._glue

    def one_too_high(c_cells, x, t_count):
        return [f >> x << (x + 1) | f & ((1 << x) - 1) for f in glue(c_cells, x, t_count)]

    monkeypatch.setattr(cons, "_glue", one_too_high)
    assert cyclic_facets(2, 6).facets == maximal(suffix_reference(CyclicSpec(2, 6), 0))
    with pytest.raises(ValueError, match=r"^a facet mask has bits past the 7 labels$"):
        mw_boundary(MWSpec(2, 4, 7))
