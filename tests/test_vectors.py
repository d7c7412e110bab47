import importlib
import pickle
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as stn

from polygv.complexes import plain, simplex_boundary
from polygv.constructions import DiamondSpec, cyclic_facets
from polygv.qvectors import RayRow
from polygv.vectors import (
    CubicalG,
    CubicalH,
    FVector,
    GVector,
    HVector,
    Record,
    ShortCubicalG,
    ShortCubicalH,
    check_cubical_DS,
    check_simplicial_DS,
    f_to_h,
    f_to_hsc,
    gc_from_gsc,
    gsc_gc_consistent,
    h_from_g_palindromic,
    h_to_g,
    hc_to_gc,
    hsc_to_gsc,
    hsc_to_hc,
    mchoose,
)


@pytest.mark.parametrize(
    "m,i,want",
    [(0, 0, 1), (0, 3, 0), (3, 2, 6), (2, 1, 2), (1, 5, 1), (4, 0, 1)],
)
def test_mchoose_values(m, i, want):
    assert mchoose(m, i) == want


def test_mchoose_rejects_negative():
    with pytest.raises(ValueError):
        mchoose(-1, 2)
    with pytest.raises(ValueError):
        mchoose(2, -1)


@given(stn.integers(1, 40), stn.integers(1, 40))
def test_mchoose_pascal_recurrence(m, i):
    assert mchoose(m, i) == mchoose(m - 1, i) + mchoose(m, i - 1)


@pytest.mark.parametrize(
    "counts,D,want",
    [
        ((1, 4, 6, 4), 3, (1, 1, 1, 1)),
        ((1, 2), 1, (1, 1)),
        # f-vector of C(4,7), frozen from the Gale enumeration
        ((1, 7, 21, 28, 14), 4, (1, 3, 6, 3, 1)),
    ],
)
def test_f_to_h(counts, D, want):
    assert f_to_h(FVector(D - 1, counts), D).entries == want


def test_f_to_h_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        f_to_h(FVector(2, (1, 4, 6, 4)), 4)


def test_fvector_validation():
    with pytest.raises(ValueError):
        FVector(2, (1, 4, 6))  # wrong length
    with pytest.raises(ValueError):
        FVector(1, (0, 4, 4))  # f_{-1} must be 1
    with pytest.raises(ValueError):
        FVector(1, (1, -4, 4))


@pytest.mark.parametrize(
    "h,D,want",
    [
        ((1, 1, 1, 1), 3, (1, 0)),
        ((1, 3, 6, 3, 1), 4, (1, 2, 3)),
        ((1, 3, 3, 3, 1), 4, (1, 2, 0)),
    ],
)
def test_h_to_g(h, D, want):
    assert h_to_g(HVector(D, h)).entries == want


@pytest.mark.parametrize(
    "h,D,want",
    [
        ((1, 3, 6, 3, 1), 4, True),
        ((1, 2, 1, 1), 3, False),
        ((1, 1, 1, 1), 3, True),
    ],
)
def test_check_simplicial_ds(h, D, want):
    assert check_simplicial_DS(HVector(D, h)) is want


@given(stn.lists(stn.integers(0, 60), min_size=1, max_size=9))
def test_sum_h_equals_top_entry_for_any_vector(tail):
    # algebraic identity: evaluating h at t=1 kills every term except f_{D-1}
    D = len(tail)
    h = f_to_h(FVector(D - 1, (1, *tail)), D)
    assert sum(h.entries) == tail[-1]


@given(stn.integers(1, 10), stn.lists(stn.integers(0, 9), min_size=0, max_size=5))
def test_palindromic_round_trip(D, tail):
    g = GVector((1,) + tuple(tail[: D // 2]) + (0,) * max(0, D // 2 - len(tail)))
    h = h_from_g_palindromic(g, D)
    assert check_simplicial_DS(h)
    assert h_to_g(h) == g


@pytest.mark.parametrize(
    "counts,d,want",
    [
        ((1, 8, 12, 6), 3, (8, 8, 8)),
        ((1, 4, 4), 2, (4, 4)),
        ((1, 16, 32, 24, 8), 4, (16, 16, 16, 16)),
    ],
)
def test_f_to_hsc(counts, d, want):
    assert f_to_hsc(FVector(d - 1, counts), d).entries == want


def test_f_to_hsc_rejects_mismatch():
    with pytest.raises(ValueError):
        f_to_hsc(FVector(2, (1, 8, 12, 6)), 4)


def test_hsc_to_hc_rejects_mismatch():
    with pytest.raises(ValueError, match="short cubical h with d=3 does not match d=4"):
        hsc_to_hc(ShortCubicalH(3, (4, 8, 4)), 4)


def test_cubical_chain_cube():
    hsc = f_to_hsc(FVector(2, (1, 8, 12, 6)), 3)
    hc = hsc_to_hc(hsc, 3)
    assert hc.entries == (4, 4, 4, 4)
    assert check_cubical_DS(hc)
    assert hc_to_gc(hc).entries == (4, 0)


def test_transform_examples_take_under_a_second():
    """The simplex, C(4,7) and 3-cube transforms, their complexes built too, in under 1 s."""
    start = time.perf_counter()
    h1 = f_to_h(simplex_boundary([plain(i) for i in range(1, 5)]).f_vector(), 3)
    h2 = f_to_h(cyclic_facets(4, 7).f_vector(), 4)
    hc = hsc_to_hc(f_to_hsc(FVector(2, (1, 8, 12, 6)), 3), 3)
    got = (h1.entries, h2.entries, h_to_g(h1).entries, h_to_g(h2).entries, hc.entries)
    elapsed = time.perf_counter() - start
    assert got == ((1, 1, 1, 1), (1, 3, 6, 3, 1), (1, 0), (1, 2, 3), (4, 4, 4, 4))
    assert elapsed < 1.0


def test_cubical_chain_square():
    hc = hsc_to_hc(f_to_hsc(FVector(1, (1, 4, 4)), 2), 2)
    assert hc.entries == (2, 2, 2)


def test_gc_from_gsc_d6():
    gsc = ShortCubicalG(6, (512, 1536, 1088))
    assert gc_from_gsc(gsc, 6).entries == (32, 448, 1088, 0)


def test_gc_from_gsc_rejects_mismatch():
    with pytest.raises(ValueError):
        gc_from_gsc(ShortCubicalG(6, (512, 1536, 1088)), 5)


@given(
    stn.integers(4, 11),
    stn.lists(stn.integers(-50, 50), min_size=5, max_size=5),
)
def test_gsc_gc_resubstitution(d, raw):
    width = (d - 1) // 2 + 1
    gsc = ShortCubicalG(d, tuple(raw[:width]) + (0,) * max(0, width - len(raw)))
    gc = gc_from_gsc(gsc, d)
    assert gsc_gc_consistent(gsc, gc)


def test_gsc_gc_consistent_detects_corruption():
    gsc = ShortCubicalG(6, (512, 1536, 1088))
    gc = gc_from_gsc(gsc, 6)
    broken = CubicalG(6, (32, 448, 1089, 0))
    assert gsc_gc_consistent(gsc, gc)
    assert not gsc_gc_consistent(gsc, broken)
    # odd d: 40 = 2*17 + 6 and 12 = 6 + 6 hold, so only g^sc_2 = g^c_2 + g^c_3
    # rejects it, with g^c_3 = 7 - 12 + 40 - 2^5 = 3 read past floor(d/2)
    assert not gsc_gc_consistent(ShortCubicalG(5, (40, 12, 7)), CubicalG(5, (17, 6, 6)))
    # the same entries under another d: g^c of d = 7 also has four entries
    assert not gsc_gc_consistent(gsc, CubicalG(7, gc.entries))


@given(stn.data())
def test_gc_from_gsc_matches_the_alternating_sum(data):
    d = data.draw(stn.integers(1, 40))
    width = (d - 1) // 2 + 1
    gsc = data.draw(stn.lists(stn.integers(-(2**45), 2**45), min_size=width, max_size=width))
    # g^c_i = sum_{j=1..i} (-1)^(j-1) g^sc_(i-j) + (-1)^i 2^d for i >= 1
    want = [2 ** (d - 1)] + [
        sum((-1) ** (j - 1) * gsc[i - j] for j in range(1, i + 1)) + (-1) ** i * 2**d
        for i in range(1, d // 2 + 1)
    ]
    assert gc_from_gsc(ShortCubicalG(d, tuple(gsc)), d).entries == tuple(want)


@given(stn.lists(stn.integers(0, 10**6), min_size=1, max_size=14))
def test_f_to_h_and_f_to_hsc_match_the_double_sums(tail):
    counts = (1, *tail)
    D = len(tail)
    # h_j = sum_{i<=j} (-1)^(j-i) C(D-i, j-i) f_(i-1)
    h = [
        sum((-1) ** (j - i) * comb(D - i, j - i) * counts[i] for i in range(j + 1))
        for j in range(D + 1)
    ]
    assert f_to_h(FVector(D - 1, counts), D).entries == tuple(h)
    # h^sc_i = sum_{j<=i} (-1)^(i-j) C(d-1-j, i-j) 2^j f_j, with d = D
    hsc = [
        sum((-1) ** (i - j) * comb(D - 1 - j, i - j) * 2**j * counts[j + 1] for j in range(i + 1))
        for i in range(D)
    ]
    assert f_to_hsc(FVector(D - 1, counts), D).entries == tuple(hsc)


def test_vector_length_validation():
    with pytest.raises(ValueError):
        HVector(3, (1, 1, 1))
    with pytest.raises(ValueError):
        ShortCubicalG(6, (1, 2))
    with pytest.raises(ValueError):
        CubicalG(6, (1, 2, 3))
    with pytest.raises(ValueError, match="ShortCubicalH with d=3 needs 3 entries"):
        ShortCubicalH(3, (4, 8))
    with pytest.raises(ValueError, match="CubicalH with d=3 needs 4 entries"):
        CubicalH(3, (4, 4, 4))
    with pytest.raises(ValueError, match="g-vector of length 2 does not match D=4"):
        h_from_g_palindromic(GVector((1, 2)), 4)


# -- the Record contract: what callers rely on from every spec and vector ------


def test_record_equality_holds_only_within_one_class():
    assert HVector(3, (1, 1, 1, 1)) == HVector(3, (1, 1, 1, 1))
    assert HVector(3, (1, 1, 1, 1)) != HVector(3, (1, 2, 2, 1))
    assert HVector(3, (1, 1, 1, 1)) != CubicalH(3, (1, 1, 1, 1))


def test_record_hash_is_the_hash_of_its_field_tuple():
    assert hash(DiamondSpec(1, 6, 9, 2)) == hash((1, 6, 9, 2))
    assert hash(GVector((1, 2))) == hash(((1, 2),))


def test_record_fields_cannot_be_assigned_or_deleted():
    spec = DiamondSpec(1, 6, 9, 2)
    with pytest.raises(AttributeError):
        spec.a = 3
    with pytest.raises(AttributeError):
        del spec.a
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec == DiamondSpec(1, 6, 9, 2)


@pytest.mark.parametrize("values", [(3,), (3, (1, 1, 1, 1), 0), ()])
def test_record_takes_exactly_its_fields(values):
    with pytest.raises(TypeError):
        HVector(*values)


def test_record_repr_names_every_field():
    assert repr(DiamondSpec(1, 6, 9, 2)) == "DiamondSpec(k=1, d=6, n=9, a=2)"
    row = RayRow(1, 6, 7, (64, 64, 0), (Fraction(1, 2), Fraction(1, 2), Fraction(0)), 1)
    assert repr(row) == (
        "RayRow(k=1, d=6, n=7, gc=(64, 64, 0), "
        "normalized=(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)), dominant_index=1)"
    )


def test_record_survives_a_pickle_round_trip():
    for value in (DiamondSpec(1, 6, 9, 2), GVector((1, 2))):
        assert pickle.loads(pickle.dumps(value)) == value


def test_record_slots_list_the_annotated_fields_in_order():
    records = [
        cls
        for module in ("vectors", "complexes", "constructions", "qvectors", "stackedness")
        for cls in vars(importlib.import_module(f"polygv.{module}")).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == f"polygv.{module}"
    ]
    assert len(records) == 16  # Record itself and 15 values
    for cls in records:
        assert tuple(cls.__annotations__) == cls.__slots__, cls.__name__
