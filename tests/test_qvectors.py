from fractions import Fraction

import pytest
from hypothesis import given, strategies as stn

from polygv.qvectors import (
    QSpec,
    binomial_identity_check,
    blind_blind_gc,
    diamond_index_of_sign_vector,
    full_hsc_q,
    gc_q_closed,
    gsc_q_closed,
    gsc_q_from_complexes,
    ray_convergence_report,
    ray_csv_lines,
    vertex_figure_histogram,
    vertex_figure_histogram_brute,
)
from polygv.constructions import diamonds
from polygv.vectors import check_cubical_DS, f_to_h, hc_to_gc, hsc_to_gsc, hsc_to_hc


def test_qspec_validation():
    with pytest.raises(ValueError):
        QSpec(0, 6, 9)
    with pytest.raises(ValueError):
        QSpec(1, 3, 9)
    with pytest.raises(ValueError):
        QSpec(1, 6, 5)


def test_histogram_969():
    assert vertex_figure_histogram(9, 6) == {1: 256, 2: 128, 3: 64, 4: 64}


def test_histogram_degenerate():
    assert vertex_figure_histogram(6, 6) == {1: 64}


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 13) for d in range(1, n + 1)])
def test_histogram_matches_enumeration(n, d):
    closed = vertex_figure_histogram(n, d)
    assert sum(closed.values()) == 2**n
    brute = vertex_figure_histogram_brute(n, d)
    assert list(brute.items()) == list(closed.items()) == sorted(closed.items())


@pytest.mark.parametrize("n,d", [(5, 7), (3, 0), (-1, 1), (-1, -2)])
def test_brute_histogram_rejects_what_the_closed_form_rejects(n, d):
    for histogram in (vertex_figure_histogram, vertex_figure_histogram_brute):
        with pytest.raises(ValueError, match="histogram needs n >= d >= 1"):
            histogram(n, d)


def test_brute_histogram_stops_past_20_signs():
    assert sum(vertex_figure_histogram(21, 6).values()) == 2**21
    with pytest.raises(ValueError, match="brute histogram limited to n <= 20"):
        vertex_figure_histogram_brute(21, 6)


def test_sign_vector_index():
    assert diamond_index_of_sign_vector("+--------", 9, 6) == 1
    assert diamond_index_of_sign_vector("---------", 9, 6) == 4
    assert diamond_index_of_sign_vector("----+----", 9, 6) == 4  # capped
    with pytest.raises(ValueError):
        diamond_index_of_sign_vector("+-", 9, 6)


@pytest.mark.parametrize(
    "spec,want",
    [
        (QSpec(1, 6, 9), (512, 1536, 1088)),
        (QSpec(1, 6, 6), (64, 0, 0)),
        (QSpec(2, 6, 9), (512, 1536, 3072)),
    ],
)
def test_gsc_named_values(spec, want):
    assert gsc_q_closed(spec).entries == want


@pytest.mark.parametrize(
    "spec,want",
    [
        (QSpec(1, 6, 9), (32, 448, 1088, 0)),
        (QSpec(1, 6, 6), (32, 0, 0, 0)),
        (QSpec(1, 8, 10), (128, 768, 1280, 0, 0)),
    ],
)
def test_gc_named_values(spec, want):
    assert gc_q_closed(spec).entries == want


def test_route_c_stretch():
    spec = QSpec(3, 12, 16)
    assert gsc_q_from_complexes(spec) == gsc_q_closed(spec)


def test_full_hsc_pipeline():
    for spec in [QSpec(1, 6, 9), QSpec(2, 6, 10), QSpec(1, 7, 11), QSpec(2, 9, 12)]:
        hsc = full_hsc_q(spec)
        # all d entries, the reflected upper half included, from the explicit diamonds
        hist = vertex_figure_histogram(spec.n, spec.d)
        explicit = [0] * spec.d
        for dspec, _, _, dia in diamonds(spec.k, spec.d, spec.n):
            h = f_to_h(dia.f_vector(), spec.d - 1).entries
            explicit = [x + hist[dspec.a] * y for x, y in zip(explicit, h, strict=True)]
        assert list(hsc.entries) == explicit
        assert hsc_to_gsc(hsc) == gsc_q_closed(spec)
        hc = hsc_to_hc(hsc, spec.d)
        assert check_cubical_DS(hc)
        assert hc_to_gc(hc) == gc_q_closed(spec)


@pytest.mark.parametrize("k,m,left", [(1, 0, 0), (1, 3, 17)])
def test_binomial_identity_named(k, m, left):
    r = binomial_identity_check(k, m)
    assert r.equal
    assert r.left == left


@given(stn.integers(1, 8), stn.integers(0, 40))
def test_binomial_identity_property(k, m):
    assert binomial_identity_check(k, m).equal


@pytest.mark.parametrize("k,m", [(0, 3), (1, -1)])
def test_binomial_identity_validation(k, m):
    with pytest.raises(ValueError, match="identity check needs k >= 1 and m >= 0"):
        binomial_identity_check(k, m)


def test_binomial_identity_past_machine_width():
    r = binomial_identity_check(6, 100)
    assert r.equal
    assert r.left > 2**64


def test_ray_1_6_30():
    row = ray_convergence_report(1, 6, [30])[0]
    assert row.dominant_index == 2
    assert row.normalized[1] >= Fraction(95, 100)
    assert row.normalized[0] <= Fraction(5, 100)
    assert row.normalized[2] == 0


def test_ray_degenerate_row():
    row = ray_convergence_report(1, 6, [6])[0]
    assert row.normalized is None
    assert row.dominant_index is None
    assert row.gc == (0, 0, 0)


def test_ray_dominant_indices():
    assert ray_convergence_report(2, 8, [40])[0].dominant_index == 3
    assert ray_convergence_report(2, 8, [32])[0].dominant_index == 3
    assert ray_convergence_report(2, 10, [34])[0].dominant_index == 3


def test_ray_monotone_dominant():
    rows = ray_convergence_report(1, 6, range(7, 31))
    values = [r.normalized[1] for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1


def test_ray_csv_schema():
    lines = ray_csv_lines(ray_convergence_report(1, 6, [6, 9]))
    assert lines[0] == "k,d,n,gc_1,gc_2,gc_3,normalized_1,normalized_2,normalized_3,dominant_index"
    assert lines[1] == "1,6,6,0,0,0,,,,"
    row = lines[2].split(",")
    assert row[:6] == ["1", "6", "9", "448", "1088", "0"]
    assert row[-1] == "2"


@pytest.mark.parametrize(
    "d,k,want_tail",
    [(6, 2, (48, 16, 0)), (4, 1, (8, 0))],
)
def test_blind_blind_examples(d, k, want_tail):
    assert blind_blind_gc(d, k).entries[1:] == want_tail


def test_blind_blind_validation():
    with pytest.raises(ValueError):
        blind_blind_gc(6, 4)
    with pytest.raises(ValueError):
        blind_blind_gc(6, 0)
