"""Cubical g-vector pipeline for the family Q(k, d, n).

Q(k, d, n) has 2^n vertices and is never materialized.  Every quantity is
routed through the vertex-figure histogram (how many vertices see each
diamond) and the diamond g-vectors, then into the short and long cubical
g-vectors.  Each quantity is computed by at least two independent routes
that must agree exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .constructions import diamond_g_closed, diamonds
from .vectors import (
    CubicalG,
    GVector,
    ShortCubicalG,
    ShortCubicalH,
    f_to_h,
    gc_from_gsc,
    h_from_g_palindromic,
    h_to_g,
    hsc_to_hc,
    mchoose,
)

__all__ = [
    "QSpec",
    "VertexFigureHistogram",
    "vertex_figure_histogram",
    "vertex_figure_histogram_brute",
    "diamond_index_of_sign_vector",
    "gsc_q_from_diamonds",
    "gsc_q_closed",
    "gsc_q_from_complexes",
    "gsc_q",
    "gc_q_via_gsc",
    "gc_q_closed",
    "gc_q",
    "full_hsc_q",
    "BinomialIdentityResult",
    "binomial_identity_check",
    "RayRow",
    "ray_convergence_report",
    "ray_csv_lines",
    "blind_blind_gc",
    "ClbcReport",
    "clbc_scan",
]


@dataclass(frozen=True)
class QSpec:
    """Parameters of the cubical d-polytope built over the (k, d, n) MW base."""

    k: int
    d: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("QSpec needs k >= 1")
        if not self.n >= self.d >= 2 * self.k + 2:
            raise ValueError(
                f"QSpec needs n >= d >= 2k+2, got k={self.k}, d={self.d}, n={self.n}"
            )


@dataclass(frozen=True)
class VertexFigureHistogram:
    """Count of vertices whose vertex figure is the a-th diamond, per a."""

    n: int
    d: int
    counts: tuple[tuple[int, int], ...]  # (a, count), ascending in a

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)


def vertex_figure_histogram(n: int, d: int) -> VertexFigureHistogram:
    """Closed counting: 2^(n-a) vertices for a <= n-d, and 2^d for a = n-d+1."""
    if not n >= d >= 1:
        raise ValueError(f"histogram needs n >= d >= 1, got n={n}, d={d}")
    counts = [(a, 2 ** (n - a)) for a in range(1, n - d + 1)]
    counts.append((n - d + 1, 2**d))
    return VertexFigureHistogram(n, d, tuple(counts))


def diamond_index_of_sign_vector(sigma: str, n: int, d: int) -> int:
    """Diamond index of a vertex: first plus position, capped at n-d+1."""
    if len(sigma) != n or any(ch not in "+-" for ch in sigma):
        raise ValueError(f"sigma must be a +/- string of length {n}")
    cap = n - d + 1
    for i, ch in enumerate(sigma, start=1):
        if ch == "+":
            return min(i, cap)
    return cap


def vertex_figure_histogram_brute(n: int, d: int) -> VertexFigureHistogram:
    """Histogram by enumerating all 2^n sign vectors; only sensible for n <= 20."""
    if n > 20:
        raise ValueError("brute histogram limited to n <= 20")
    tally: dict[int, int] = {}
    cap = n - d + 1
    # bit i is coordinate i + 1, so the lowest set bit gives the first plus
    # (0 when there is none); the cap folds in once per position, not per vector
    firsts = Counter((bits & -bits).bit_length() for bits in range(1 << n))
    for first, count in firsts.items():
        a = min(first or cap, cap)
        tally[a] = tally.get(a, 0) + count
    return VertexFigureHistogram(n, d, tuple(sorted(tally.items())))


# -- short cubical g-vector of Q, three routes ------------------------------


def gsc_q_from_diamonds(spec: QSpec) -> ShortCubicalG:
    """Route A: histogram-weighted sum of closed-form diamond g-vectors."""
    hist = vertex_figure_histogram(spec.n, spec.d)
    width = (spec.d - 1) // 2 + 1
    acc = [0] * width
    for a, count in hist.counts:
        g = diamond_g_closed(spec.k, spec.d, spec.n, a)
        for i in range(width):
            acc[i] += count * g.entries[i]
    return ShortCubicalG(spec.d, tuple(acc))


def gsc_q_closed(spec: QSpec) -> ShortCubicalG:
    """Route B: the fully summed closed form."""
    k, d, n = spec.k, spec.d, spec.n
    out = []
    for i in range((d - 1) // 2 + 1):
        if i <= k:
            out.append(2**n * mchoose(n - d, i))
        elif i == k + 1:
            out.append(
                sum(2 ** (n - a) * mchoose(n - d - a + 1, k) for a in range(1, n - d + 1))
            )
        else:
            out.append(0)
    return ShortCubicalG(spec.d, tuple(out))


def gsc_q_from_complexes(spec: QSpec) -> ShortCubicalG:
    """Route C: histogram-weighted g-vectors of explicitly enumerated diamonds.

    Materializes every diamond boundary, one at a time from a single diamond
    stream, so keep the spec small.
    """
    counts = vertex_figure_histogram(spec.n, spec.d).as_dict()
    width = (spec.d - 1) // 2 + 1
    acc = [0] * width
    for dspec, _, _, complex_ in diamonds(spec.k, spec.d, spec.n):
        count = counts[dspec.a]
        g = h_to_g(f_to_h(complex_.f_vector(), spec.d - 1))
        for i in range(width):
            acc[i] += count * g.entries[i]
    return ShortCubicalG(spec.d, tuple(acc))


def gsc_q(spec: QSpec) -> ShortCubicalG:
    """Short cubical g-vector, with the two cheap routes cross-checked."""
    a = gsc_q_from_diamonds(spec)
    b = gsc_q_closed(spec)
    if a != b:
        raise AssertionError(f"gsc routes disagree for {spec}: {a} vs {b}")
    return b


# -- long cubical g-vector of Q, two routes ----------------------------------


def gc_q_via_gsc(spec: QSpec) -> CubicalG:
    """Route A: invert the short/long relation on the closed-form gsc."""
    return gc_from_gsc(gsc_q_closed(spec), spec.d)


def gc_q_closed(spec: QSpec) -> CubicalG:
    """Route B: the alternating-sum closed form, zero past index k+1."""
    k, d, n = spec.k, spec.d, spec.n
    out = [2 ** (d - 1)]
    for i in range(1, d // 2 + 1):
        if i > k + 1:
            out.append(0)
        else:
            s = sum((-1) ** (j - 1) * mchoose(n - d, i - j) for j in range(1, i + 1))
            out.append(2**n * s + (-1) ** i * 2**d)
    return CubicalG(d, tuple(out))


def gc_q(spec: QSpec) -> CubicalG:
    """Long cubical g-vector, with both routes cross-checked."""
    a = gc_q_via_gsc(spec)
    b = gc_q_closed(spec)
    if a != b:
        raise AssertionError(f"gc routes disagree for {spec}: {a} vs {b}")
    return b


def full_hsc_q(spec: QSpec) -> ShortCubicalH:
    """Entire short cubical h-vector, using the palindromic diamond h-vectors.

    Diamond boundaries are polytope spheres, so their h-vectors are rebuilt
    from the closed-form g by reflection; the histogram-weighted sum then
    gives all d entries of h^sc, not just the g range.
    """
    hist = vertex_figure_histogram(spec.n, spec.d)
    acc = [0] * spec.d
    for a, count in hist.counts:
        g = diamond_g_closed(spec.k, spec.d, spec.n, a)
        h = h_from_g_palindromic(g, spec.d - 1)
        for i in range(spec.d):
            acc[i] += count * h.entries[i]
    return ShortCubicalH(spec.d, tuple(acc))


# -- the binomial identity ----------------------------------------------------


@dataclass(frozen=True)
class BinomialIdentityResult:
    left: int
    right: int

    @property
    def equal(self) -> bool:
        return self.left == self.right


def binomial_identity_check(k: int, m: int) -> BinomialIdentityResult:
    """Evaluate both sides of the closing identity behind g^c vanishing.

    left  = sum_{a=1..m} 2^(m-a) mchoose(m-a+1, k)
    right = (-1)^(k+1) + 2^m sum_{j=0..k} (-1)^j mchoose(m, k-j)
    """
    if k < 1 or m < 0:
        raise ValueError("identity check needs k >= 1 and m >= 0")
    left = sum(2 ** (m - a) * mchoose(m - a + 1, k) for a in range(1, m + 1))
    right = (-1) ** (k + 1) + 2**m * sum(
        (-1) ** j * mchoose(m, k - j) for j in range(k + 1)
    )
    return BinomialIdentityResult(left, right)


# -- ray convergence -----------------------------------------------------------


@dataclass(frozen=True)
class RayRow:
    """One report row: exact g^c tail and its normalization by 2^n mchoose(n-d, k)."""

    k: int
    d: int
    n: int
    gc: tuple[int, ...]  # g^c_1 .. g^c_{floor(d/2)}
    normalized: tuple[Fraction, ...] | None  # None when the denominator vanishes
    dominant_index: int | None  # 1-based position of the largest normalized entry


def ray_convergence_report(k: int, d: int, n_values: Iterable[int]) -> list[RayRow]:
    """Normalized g^c vectors along increasing n for fixed (k, d).

    Rows with n = d have a zero denominator; they are emitted unnormalized
    and flagged by normalized=None.
    """
    rows = []
    for n in sorted(set(n_values)):
        spec = QSpec(k, d, n)
        gc = gc_q(spec)
        tail = gc.entries[1:]
        denom = 2**n * mchoose(n - d, k)
        if denom == 0:
            rows.append(RayRow(k, d, n, tail, None, None))
            continue
        normalized = tuple(Fraction(v, denom) for v in tail)
        dominant = max(range(len(normalized)), key=lambda i: (normalized[i], -i)) + 1
        rows.append(RayRow(k, d, n, tail, normalized, dominant))
    return rows


def _decimal(x: Fraction) -> str:
    return f"{float(x):.6g}"


def ray_csv_lines(rows: list[RayRow]) -> list[str]:
    """CSV serialization: k,d,n, gc_1.., normalized_1.. (6 significant digits), dominant_index."""
    if not rows:
        return ["k,d,n,dominant_index"]
    width = len(rows[0].gc)
    header = (
        ["k", "d", "n"]
        + [f"gc_{i}" for i in range(1, width + 1)]
        + [f"normalized_{i}" for i in range(1, width + 1)]
        + ["dominant_index"]
    )
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r.k), str(r.d), str(r.n)]
        cells += [str(v) for v in r.gc]
        if r.normalized is None:
            cells += [""] * width + [""]
        else:
            cells += [_decimal(x) for x in r.normalized]
            cells += [str(r.dominant_index)]
        lines.append(",".join(cells))
    return lines


# -- the stacked cubical family and the lower-bound scan ----------------------


def blind_blind_gc(d: int, k: int) -> CubicalG:
    """Cubical g-vector of the k-elementary cubical d-polytope.

    g^c_i = sum_{j=1..k} 2^(d-j) C(j-1, i-1); in particular g^c_k = 2^(d-k)
    and everything past index k vanishes.
    """
    if not 1 <= k <= d // 2:
        raise ValueError(f"needs 1 <= k <= floor(d/2), got k={k}, d={d}")
    out = [2 ** (d - 1)]
    for i in range(1, d // 2 + 1):
        out.append(sum(2 ** (d - j) * comb(j - 1, i - 1) for j in range(1, k + 1)))
    return CubicalG(d, tuple(out))


@dataclass(frozen=True)
class ClbcReport:
    """Outcome of a g^c_2 >= 0 scan over a family of cubical g-vectors."""

    checked: int
    violations: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def clbc_scan(items: Iterable[tuple[str, CubicalG]]) -> ClbcReport:
    """Assert g^c_2 >= 0 across the family; collect any violations."""
    checked = 0
    violations = []
    for name, gc in items:
        if len(gc.entries) <= 2:  # too short to have a g^c_2 entry
            continue
        checked += 1
        if gc.entries[2] < 0:
            violations.append((name, gc.entries[2]))
    return ClbcReport(checked, tuple(violations))
