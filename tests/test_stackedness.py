from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as stn

from polygv.complexes import APEX, SimplicialComplex, cvert, plain, simplex_boundary, tvert
from polygv.constructions import DiamondSpec, diamond_boundary, diamonds
from polygv.stackedness import (
    FACET_I,
    FACET_II,
    MISSING_1,
    MISSING_2,
    UNCLASSIFIED,
    brute_missing_faces,
    classify_face,
    cube_face_count,
    cube_graph_face_check,
    cube_subgraph_images,
    incompatibility_witness,
    oracle_stacked_facets,
    predicted_missing_faces,
    predicted_stacked_facets,
)
from test_complexes import FACET_LISTS, closure_of


def cset(*idx):
    return frozenset(cvert(i) for i in idx)


TSET = frozenset(tvert(j) for j in (1, 2, 3))


def test_missing_type1_count_is_isolated_sets_with_min_a():
    for a in range(1, 5):
        faces = predicted_missing_faces(1, 6, 9, a)
        type1 = [cf for cf in faces if cf.tag == MISSING_1]
        assert all(APEX in cf.vertices and min(cf.vertices & cset(*range(1, 6))) == cvert(a) for cf in type1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        predicted_missing_faces(1, 5, 9, 1)  # d < 2k+4
    with pytest.raises(ValueError):
        predicted_missing_faces(1, 6, 9, 5)  # a out of range


def test_brute_missing_trivial_cases():
    assert brute_missing_faces(simplex_boundary([plain(i) for i in range(1, 5)]), 3) == []
    cyc4 = SimplicialComplex(
        [[plain(1), plain(2)], [plain(2), plain(3)], [plain(3), plain(4)], [plain(4), plain(1)]]
    )
    assert brute_missing_faces(cyc4, 2) == [
        frozenset({plain(1), plain(3)}),
        frozenset({plain(2), plain(4)}),
    ]
    with pytest.raises(ValueError):
        brute_missing_faces(cyc4, 5)


def test_predicted_facets_169_a1_count():
    faces = predicted_stacked_facets(1, 6, 9, 1)
    assert len(faces) == 7
    assert sum(1 for cf in faces if cf.tag == FACET_II) == 3
    assert all(len(cf.vertices) == 6 for cf in faces)


def test_predicted_facets_come_sorted_by_type_then_vertices():
    # the generators emit these orders without sorting: stacked facets by
    # type, missing faces by size (type 2 first), each then by vertices; the
    # CLI prints them and the witness takes the first type II entry as the smallest
    for k in range(1, 4):
        for d in range(2 * k + 4, 13):
            for n in range(d, 17):
                for a in range(1, n - d + 2):
                    faces = predicted_stacked_facets(k, d, n, a)
                    assert faces == sorted(faces, key=lambda cf: (cf.tag, sorted(cf.vertices))), (k, d, n, a)
                    missing = predicted_missing_faces(k, d, n, a)
                    by_size = sorted(missing, key=lambda cf: (len(cf.vertices), sorted(cf.vertices)))
                    assert missing == by_size, (k, d, n, a)


def literal_oracle(complex_, d, k):
    """The stacked-facet criterion read literally, as the reference.

    Every d-subset of the vertices is scanned; it is kept when each of its
    subsets of size 1..k+2 lies in some facet.
    """
    support = complex_.vertices
    bit = {v: 1 << i for i, v in enumerate(support)}
    small = set()
    for f in complex_.facets:
        bits = [bit[v] for v in f]
        for size in range(1, k + 3):
            small.update(map(sum, combinations(bits, size)))
    out = []
    for S in combinations([1 << i for i in range(len(support))], d):
        if all(sum(sub) in small for size in range(1, k + 3) for sub in combinations(S, size)):
            out.append(frozenset(support[b.bit_length() - 1] for b in S))
    return sorted(out, key=sorted)


def test_oracle_equals_the_literal_scan_on_the_grid():
    # every diamond of k <= 3, 2k+4 <= d <= 10, n <= 12: 117 of them
    count = 0
    for k in range(1, 4):
        for d in range(2 * k + 4, 11):
            for n in range(d, 13):
                for spec, _, _, dia in diamonds(k, d, n):
                    count += 1
                    assert oracle_stacked_facets(dia, d, k) == literal_oracle(dia, d, k), spec
    assert count == 117


# -- both oracles off the diamonds, against literal definitions ---------------


@settings(max_examples=150)
@given(FACET_LISTS, stn.integers(0, 5))
def test_brute_missing_faces_matches_the_definition(raw, max_size):
    facets = [frozenset(plain(i) for i in f) for f in raw]
    c = SimplicialComplex(facets)
    if max_size > len(c.vertices):
        with pytest.raises(ValueError):
            brute_missing_faces(c, max_size)
        return
    closure = closure_of(facets)
    want = [
        frozenset(S)
        for size in range(1, max_size + 1)
        for S in combinations(c.vertices, size)
        if frozenset(S) not in closure and all(frozenset(S) - {v} in closure for v in S)
    ]
    assert brute_missing_faces(c, max_size) == want


@settings(max_examples=150)
@given(FACET_LISTS, stn.integers(0, 7), stn.integers(0, 3))
def test_oracle_matches_the_literal_scan_off_the_diamonds(raw, d, k):
    c = SimplicialComplex(frozenset(plain(i) for i in f) for f in raw)
    assert oracle_stacked_facets(c, d, k) == literal_oracle(c, d, k)


def test_oracle_rejects_subsets_with_missing_pairs():
    # {c1, c3} is a missing face of the a=2 diamond, so no oracle facet holds it
    dia = diamond_boundary(DiamondSpec(1, 6, 9, 2))
    facets = oracle_stacked_facets(dia, 6, 1)
    assert facets and all(not cset(1, 3) <= f for f in facets)


def test_classify_face():
    assert classify_face(cset(2, 4) | {APEX}, 1, 6, 9, 2) == MISSING_1
    assert classify_face(cset(1, 3), 1, 6, 9, 2) == MISSING_2
    assert classify_face(cset(1, 2) | {APEX} | TSET, 1, 6, 9, 2) == FACET_I
    assert classify_face(cset(2, 3, 4) | TSET, 1, 6, 9, 2) == FACET_II
    # same face, judged in another diamond
    assert classify_face(cset(1, 2, 3) | TSET, 1, 6, 9, 4) == UNCLASSIFIED
    # faces through x or with stray labels never classify
    assert classify_face(cset(2, 6), 1, 6, 9, 2) == UNCLASSIFIED
    assert classify_face({plain(1)} | cset(2, 4), 1, 6, 9, 2) == UNCLASSIFIED


def test_witness_169():
    w = incompatibility_witness(1, 6, 9)
    assert w.sigma == "+" + "-" * 8
    assert (w.a, w.b) == (1, 4)
    assert w.face == cset(1, 2, 3) | TSET
    assert w.face_type_in_a == FACET_II
    assert w.face_type_in_b == UNCLASSIFIED
    obj = w.to_json_obj()
    assert obj["face"] == ["c1", "c2", "c3", "t1", "t2", "t3"]
    assert set(obj) == {"k", "d", "n", "sigma", "a", "b", "face", "face_type_in_a", "face_type_in_b"}


def test_witness_2_8_12():
    w = incompatibility_witness(2, 8, 12)
    assert w.a < w.b
    assert w.face_type_in_a == FACET_II
    assert w.face_type_in_b == UNCLASSIFIED


def test_witness_degenerate():
    with pytest.raises(ValueError):
        incompatibility_witness(1, 6, 6)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
def test_cube_graph_face_check(n, m):
    assert cube_graph_face_check(n, m) is True


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, n + 1)])
def test_cube_subgraph_images_are_exactly_faces(n, m):
    images = cube_subgraph_images(n, m)
    assert len(images) == cube_face_count(n, m)


def test_cube_graph_range_guard():
    with pytest.raises(ValueError):
        cube_graph_face_check(5, 2)
    with pytest.raises(ValueError):
        cube_graph_face_check(3, 0)
