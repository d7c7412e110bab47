import json
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as stn

from polygv.complexes import (
    _LOW,
    APEX,
    LinkConditionError,
    SimplicialComplex,
    cvert,
    label_str,
    parse_label,
    plain,
    simplex_boundary,
    tvert,
)
from polygv.constructions import DiamondSpec, diamond_boundary, mw_boundary


def cyc(*pairs):
    return SimplicialComplex([[plain(a), plain(b)] for a, b in pairs])


FOUR_CYCLE = cyc((1, 2), (2, 3), (3, 4), (4, 1))
TETRA = simplex_boundary([plain(i) for i in range(1, 5)])


def test_label_order_and_strings():
    labels = [plain(1), tvert(2), cvert(10), cvert(2), APEX, tvert(1)]
    ordered = sorted(labels)
    assert [label_str(v) for v in ordered] == ["p", "c2", "c10", "t1", "t2", "u1"]
    for v in labels + [cvert(0), plain(1000)]:
        assert parse_label(label_str(v)) == v
    with pytest.raises(ValueError):
        parse_label("q3")


LABEL_TEXT = stn.text(max_size=6) | stn.from_regex(r"[pctu][0-9\u0663]{0,3}\n?", fullmatch=True)


@settings(max_examples=200)
@given(LABEL_TEXT)
@example("u01")
@example("u\u0663")
@example("u1\n")
@example("p\n")
def test_parse_label_accepts_only_what_label_str_writes(s):
    try:
        v = parse_label(s)
    except ValueError:
        return
    assert label_str(v) == s


def test_facets_are_maximalized():
    c = SimplicialComplex([[plain(1), plain(2)], [plain(1)], [plain(2), plain(1)]])
    assert c.facets == frozenset({frozenset({plain(1), plain(2)})})


def test_face_enumeration_simplex_boundary():
    assert TETRA.f_vector().counts == (1, 4, 6, 4)
    assert TETRA.dim == 2
    assert TETRA.is_pure()


def test_face_enumeration_pentagon():
    pent = cyc((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))
    assert pent.f_vector().counts == (1, 5, 5)


def test_empty_face_complex():
    point_boundary = simplex_boundary([plain(1)])
    assert point_boundary.dim == -1
    assert point_boundary.f_vector().counts == (1,)


def test_link_of_vertex_in_tetra():
    lk = TETRA.link([plain(1)])
    assert lk == simplex_boundary([plain(2), plain(3), plain(4)])


def test_link_requires_face():
    with pytest.raises(ValueError, match=r"^\['u1', 'u3'\] is not a face$"):
        FOUR_CYCLE.link([plain(1), plain(3)])
    with pytest.raises(ValueError, match=r"^\['u9'\] is not a face$"):
        FOUR_CYCLE.link([plain(9)])


def test_link_builds_no_closure():
    spec = DiamondSpec(1, 6, 9, 2)
    dia = diamond_boundary(spec)
    assert dia.link([APEX]) == mw_boundary(spec.base)
    assert dia._faces is None


def test_repr_counts_facets_without_the_label_view():
    dia = diamond_boundary(DiamondSpec(1, 6, 9, 2))
    assert repr(dia) == "SimplicialComplex(dim=4, vertices=9, facets=22)"
    assert "facets" not in dia._memos
    assert len(dia.facets) == 22


def test_contract_four_cycle_to_triangle():
    tri = FOUR_CYCLE.contract_edge(plain(1), plain(2))
    assert tri.dim == 1
    assert len(tri.facets) == 3
    assert plain(2) not in tri.vertices


def test_contract_rejects_non_edge():
    with pytest.raises(ValueError):
        FOUR_CYCLE.contract_edge(plain(1), plain(3))
    with pytest.raises(ValueError, match=r"\{u1, u1\} is not an edge of the complex"):
        FOUR_CYCLE.contract_edge(plain(1), plain(1))


def test_contract_rejects_link_condition_failure():
    # an extra vertex joined to both endpoints, but not to the edge itself
    c = SimplicialComplex(
        [
            [plain(1), plain(2), plain(3)],
            [plain(1), plain(2), plain(4)],
            [plain(1), plain(5)],
            [plain(2), plain(5)],
        ]
    )
    with pytest.raises(LinkConditionError):
        c.contract_edge(plain(1), plain(2))


def test_removing_a_facet_never_adds_faces():
    base = TETRA.f_vector().counts
    for facet in TETRA.canonical_facets():
        rest = SimplicialComplex([f for f in TETRA.facets if f != frozenset(facet)])
        counts = rest.f_vector().counts
        for i, c in enumerate(counts):
            assert c <= base[i]


def test_json_round_trip_and_determinism():
    mw_like = SimplicialComplex(
        [
            [APEX, cvert(1), tvert(1)],
            [cvert(1), cvert(2), tvert(1)],
            [APEX, cvert(2), tvert(1)],
        ]
    )
    text = mw_like.to_json()
    again = SimplicialComplex.from_json_obj(json.loads(text))
    assert again == mw_like
    assert again.to_json() == text
    obj = mw_like.to_json_obj()
    assert obj["vertices"] == ["p", "c1", "c2", "t1"]
    # facet list follows the label total order: apex first, then c, t, u
    assert obj["facets"] == [["p", "c1", "t1"], ["p", "c2", "t1"], ["c1", "c2", "t1"]]


ANY_LABEL = (
    stn.just(APEX)
    | stn.builds(cvert, stn.integers(0, 30))
    | stn.builds(tvert, stn.integers(0, 30))
    | stn.builds(plain, stn.integers(0, 30))
)


@given(stn.lists(stn.sets(ANY_LABEL, max_size=6), max_size=8))
def test_json_round_trip_of_random_complexes(facets):
    complex_ = SimplicialComplex(facets)
    text = complex_.to_json()
    again = SimplicialComplex.from_json_obj(json.loads(text))
    assert again == complex_
    assert again.to_json() == text


def test_relabel():
    shifted = FOUR_CYCLE.relabel({plain(i): plain(i + 10) for i in range(1, 5)})
    assert {label_str(v) for v in shifted.vertices} == {"u11", "u12", "u13", "u14"}


# -- the bitmask kernel against a frozenset closure written out here ----------

FACET_LISTS = stn.lists(stn.sets(stn.integers(1, 8), max_size=6), min_size=1, max_size=8)


def closure_of(facets):
    out = set()
    for f in facets:
        for r in range(len(f) + 1):
            out.update(map(frozenset, combinations(f, r)))
    return out


def link_of(closure, face):
    return {g - face for g in closure if face <= g}


@settings(max_examples=150)
@given(FACET_LISTS)
def test_kernel_matches_brute_closure(raw):
    facets = [frozenset(plain(i) for i in f) for f in raw]
    c = SimplicialComplex(facets)
    closure = closure_of(facets)
    assert c.facets == {f for f in closure if not any(f < g for g in closure)}
    top = max(len(f) for f in closure)
    assert c.f_vector().counts == tuple(
        sum(1 for f in closure if len(f) == s) for s in range(top + 1)
    )
    labels = [plain(i) for i in range(1, 10)]  # u9 is never a vertex
    for r in range(len(labels) + 1):
        for S in combinations(labels, r):
            assert c.is_face(S) == (frozenset(S) in closure), S


@settings(max_examples=150)
@given(FACET_LISTS, stn.data())
def test_link_condition_matches_definition(raw, data):
    facets = [frozenset(plain(i) for i in f) for f in raw]
    closure = closure_of(facets)
    edges = sorted(sorted(f) for f in closure if len(f) == 2)
    assume(edges)
    u, v = data.draw(stn.sampled_from(edges))
    if data.draw(stn.booleans()):
        u, v = v, u
    c = SimplicialComplex(facets)
    edge = frozenset((u, v))
    if link_of(closure, edge) == link_of(closure, {u}) & link_of(closure, {v}):
        contracted = c.contract_edge(u, v)
        assert v not in contracted.vertices
    else:
        with pytest.raises(LinkConditionError):
            c.contract_edge(u, v)


@settings(max_examples=150)
@given(FACET_LISTS, stn.data())
def test_link_matches_brute_closure(raw, data):
    facets = [frozenset(plain(i) for i in f) for f in raw]
    closure = closure_of(facets)
    c = SimplicialComplex(facets)
    if data.draw(stn.booleans()):
        face = data.draw(stn.sampled_from(sorted(closure, key=lambda g: (len(g), sorted(g)))))
    else:  # mostly non-faces; u9 is never a vertex
        face = frozenset(plain(i) for i in data.draw(stn.sets(stn.integers(1, 9), max_size=4)))
    if face in closure:
        link, want = c.link(face), link_of(closure, face)
        assert link.facets == {g for g in want if not any(g < h for h in want)}
        assert all(link.is_face(g) for g in want)
    else:
        with pytest.raises(ValueError):
            c.link(face)


# -- the same kernel past the low bits of the face map -------------------------

WIDE_FACET_LISTS = stn.lists(
    stn.sets(stn.integers(1, 20), min_size=1, max_size=6), min_size=1, max_size=8
)


@settings(max_examples=100)
@given(WIDE_FACET_LISTS, stn.data())
def test_face_map_matches_brute_closure_on_20_vertices(raw, data):
    # up to 20 vertices, so faces reach past the face map's low bits
    facets = [frozenset(plain(i) for i in f) for f in raw]
    c = SimplicialComplex(facets)
    closure = closure_of(facets)
    top = max(len(f) for f in closure)
    assert c.f_vector().counts == tuple(
        sum(1 for f in closure if len(f) == s) for s in range(top + 1)
    )
    labels = [plain(i) for i in range(1, 22)]  # u21 is never a vertex
    for f in closure:
        assert c.is_face(f), f
        for v in labels:
            if v not in f:
                assert c.is_face(f | {v}) == (f | {v} in closure), (f, v)
    edges = sorted(sorted(f) for f in closure if len(f) == 2)
    assume(edges)
    high = [e for e in edges if c.vertices.index(e[1]) >= _LOW]
    u, v = data.draw(stn.sampled_from(high or edges))
    if data.draw(stn.booleans()):
        u, v = v, u
    edge = frozenset((u, v))
    if link_of(closure, edge) == link_of(closure, {u}) & link_of(closure, {v}):
        assert v not in c.contract_edge(u, v).vertices
    else:
        with pytest.raises(LinkConditionError):
            c.contract_edge(u, v)


def test_link_condition_on_vertices_past_the_low_bits():
    # sixteen isolated vertices below a four-cycle u17..u20 and a triangle
    # u21 u22 u23: the four-cycle contracts, the triangle's edges do not
    pad = [[plain(i)] for i in range(1, 17)]
    cycle = [[plain(a), plain(b)] for a, b in [(17, 18), (18, 19), (19, 20), (20, 17)]]
    triangle = [[plain(a), plain(b)] for a, b in [(21, 22), (22, 23), (23, 21)]]
    c = SimplicialComplex(pad + cycle + triangle)
    assert c.vertices.index(plain(17)) >= _LOW
    assert c.f_vector().counts == (1, 23, 7)
    contracted = c.contract_edge(plain(17), plain(18))
    assert contracted.f_vector().counts == (1, 22, 6)
    with pytest.raises(LinkConditionError):
        c.contract_edge(plain(22), plain(23))
