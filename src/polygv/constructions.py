"""Builders for the polytope families, as explicit boundary complexes.

Everything here is purely combinatorial.  Cyclic polytopes come from the
Gale evenness rule on an ordered vertex list.  Every McMullen-Walkup (MW)
object comes from one gluing rule, `_glue`, of a cyclic factor C and a
simplex factor T at the last C-vertex x, which the gluing swallows: applied
to the facets of C it gives the MW boundary, applied to Lex_a(C) it gives
Lex_a of the MW polytope.  Lexicographic subdivisions come from the
push/pull recursion on the first vertices; diamonds cap a lexicographic
subdivision with a cone over the base boundary.

The push/pull recursion relies on both families being closed under
deletion of the first vertex: C(K, m) minus its first vertex is C(K, m-1)
on the remaining order, and an MW polytope minus its first vertex is the
MW polytope with one vertex fewer.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import islice
from typing import Iterable, Iterator

from .complexes import APEX, Label, SimplicialComplex, cvert, tvert
from .vectors import GVector, Record, mchoose

__all__ = [
    "CyclicSpec",
    "MWSpec",
    "DiamondSpec",
    "cyclic_facets",
    "cyclic_is_face",
    "mw_boundary",
    "mw_g_closed",
    "lex_subdivision",
    "lex_subdivisions",
    "lex_mw_from_cyclic",
    "lex_range",
    "diamond_boundary",
    "diamonds",
    "ball_boundary",
]


class CyclicSpec(Record):
    """Cyclic K-polytope with m ordered vertices."""

    __slots__ = ("K", "m")
    K: int
    m: int

    def _check(self) -> None:
        if not 1 <= self.K < self.m:
            raise ValueError(f"cyclic spec needs 1 <= K < m, got K={self.K}, m={self.m}")


class MWSpec(Record):
    """MW polytope parameters: cyclic factor dimension K, polytope dimension D, N vertices.

    K = 1 is admitted beyond the usual 2 <= K range: the cyclic factor then
    degenerates to a segment (Gale evenness leaves only the two end
    vertices), which is exactly what the K = 2 vertex-figure reduction
    produces one level down.
    """

    __slots__ = ("K", "D", "N")
    K: int
    D: int
    N: int

    def _check(self) -> None:
        if not (1 <= self.K <= self.D < self.N):
            raise ValueError(
                f"MW spec needs 1 <= K <= D < N, got K={self.K}, D={self.D}, N={self.N}"
            )

    @property
    def c_count(self) -> int:
        """Number of cyclic-factor vertices, x included."""
        return self.N - self.D + self.K

    @property
    def t_count(self) -> int:
        return self.D - self.K + 1

    @property
    def t_labels(self) -> tuple[Label, ...]:
        """The simplex-factor vertices t1..t_(t_count)."""
        return tuple(tvert(j) for j in range(1, self.t_count + 1))


class DiamondSpec(Record):
    """The a-th lexicographic diamond over the MW base with parameters (k, d, n)."""

    __slots__ = ("k", "d", "n", "a")
    k: int
    d: int
    n: int
    a: int

    def _check(self) -> None:
        if self.k < 1:
            raise ValueError("diamond spec needs k >= 1")
        if not self.n >= self.d >= 2 * self.k + 2:
            raise ValueError(
                f"diamond spec needs n >= d >= 2k+2, got k={self.k}, d={self.d}, n={self.n}"
            )
        if not 1 <= self.a <= self.n - self.d + 1:
            raise ValueError(
                f"diamond index a={self.a} outside 1..{self.n - self.d + 1}"
            )

    @property
    def base(self) -> MWSpec:
        return MWSpec(2 * self.k, self.d - 2, self.n - 1)


@cache
def _gale_masks(K: int, m: int) -> tuple[int, ...]:
    """K-subsets of {1..m} whose inner blocks are all even (Gale evenness).

    Each is a mask, bit p - 1 for position p.  Built block by block instead
    of filtering all C(m, K) subsets.  A first block at 1 may have any
    length; every later block is inner and even, except a block ending at m,
    which closes the set.  Longer blocks are placed before shorter ones at
    the same start, so the subsets come out in lexicographic order, as from
    combinations().  Cached: the builders ask for the same few (K, m) often.
    """
    out: list[int] = []

    def place(prefix: int, start: int, left: int) -> None:
        # `left` more positions, none below `start`; position start - 1 is unused
        if left == 0:
            out.append(prefix)
            return
        for s in range(start, m - left + 1):
            for size in range(left - left % 2, 0, -2):
                place(prefix | ((1 << size) - 1) << (s - 1), s + size + 1, left - size)
        out.append(prefix | ((1 << left) - 1) << (m - left))

    for first in range(K, -1, -1):
        place((1 << first) - 1, first + 2, K - first)
    return tuple(out)


@cache
def _order(spec: CyclicSpec | MWSpec) -> tuple[Label, ...]:
    """The vertex order the family's masks read: c1, c2, ..., then t1, t2, ... (t1 on x's bit)."""
    if isinstance(spec, CyclicSpec):
        return tuple(map(cvert, range(1, spec.m + 1)))
    return tuple(map(cvert, range(1, spec.c_count))) + spec.t_labels


def _glue(c_cells: Iterable[int], x: int, t_count: int) -> list[int]:
    """The MW gluing rule: cells on the cyclic factor become cells of the MW object.

    A cell through the gluing vertex x, the top bit of the cyclic factor,
    takes all of T = t1..t_(t_count) in place of x, on bits x, x + 1, ...;
    any other cell takes each codimension-one face of T.
    """
    x_bit = 1 << x
    t_all = ((1 << t_count) - 1) << x
    t_ridges = [t_all ^ x_bit << j for j in range(t_count)]
    out = []
    for S in c_cells:
        if S & x_bit:
            out.append(S ^ x_bit | t_all)
        else:
            out.extend(S | ridge for ridge in t_ridges)
    return out


def _suffix_facets(spec: CyclicSpec | MWSpec, start: int) -> list[int]:
    """Facet masks of the polytope on the vertex order with the first `start` dropped."""
    m = spec.m if isinstance(spec, CyclicSpec) else spec.c_count
    cells = [f << start for f in _gale_masks(spec.K, m - start)]
    return cells if isinstance(spec, CyclicSpec) else _glue(cells, m - 1, spec.t_count)


def cyclic_facets(K: int, m: int) -> SimplicialComplex:
    """Boundary complex of the cyclic K-polytope with m vertices c1..cm."""
    return SimplicialComplex._of(_order(CyclicSpec(K, m)), _suffix_facets(CyclicSpec(K, m), 0))


def cyclic_is_face(subset: Iterable[int], K: int, m: int) -> bool:
    """Face test for C(K, m) by block counting.

    A subset of i <= K vertices spans a face exactly when it has at most
    K - i inner odd blocks.  Agrees with membership in the downward closure
    of the Gale facets.  The blocks are counted in one pass over the sorted
    positions.
    """
    pos = sorted(set(subset))
    if pos and not (1 <= pos[0] and pos[-1] <= m):
        raise ValueError(f"positions {tuple(pos)} outside 1..{m}")
    i = len(pos)
    if i > K:
        raise ValueError(f"subset of size {i} exceeds K={K}")
    # each inner odd block spends one of K - i; a block from 1 keeps s = 0
    budget, s, q = K - i, 0, 0
    for p in pos:
        if p - q > 1:  # q ends the block that began at s
            if s > 1 and not (q - s) & 1:
                budget -= 1
            s = p
        q = p
    if s > 1 and q < m and not (q - s) & 1:
        budget -= 1
    return budget >= 0


def mw_boundary(spec: MWSpec) -> SimplicialComplex:
    """Boundary complex of the MW polytope, a pure (D-1)-sphere on N vertices."""
    return SimplicialComplex._of(_order(spec), _suffix_facets(spec, 0))


def mw_g_closed(spec: MWSpec) -> GVector:
    """Closed-form g-vector: multichoose numbers up to floor(K/2), zero beyond."""
    kappa = spec.K // 2
    out = []
    for i in range(spec.D // 2 + 1):
        out.append(mchoose(spec.N - spec.D - 1, i) if i <= kappa else 0)
    return GVector(tuple(out))


# -- lexicographic subdivisions ------------------------------------------


def lex_range(spec: CyclicSpec | MWSpec) -> int:
    """Largest index a for which pushing/pulling still changes anything."""
    if isinstance(spec, CyclicSpec):
        return spec.m - spec.K
    return spec.N - spec.D


def _push_chain(spec: CyclicSpec | MWSpec) -> Iterator[tuple[int, int, list[int], set[int]]]:
    """One push chain: (a, the bit of v_a = c_a, pyramids of the pushes so far, current facets).

    Each push on the current polytope P with first vertex v and sub-polytope
    P' = P minus v contributes the pyramids from v over the facets of P'
    that are not facets of P, and moves on to P'.  The yielded list grows in
    place, so a consumer uses it before advancing the chain.
    """
    amax = lex_range(spec)
    pushed: list[int] = []
    cur = set(_suffix_facets(spec, 0))
    for a in range(1, amax + 1):
        v = 1 << (a - 1)
        yield a, v, pushed, cur
        if a < amax:
            nxt = set(_suffix_facets(spec, a))
            pushed.extend(F | v for F in nxt - cur)
            cur = nxt


def _pull(spec: CyclicSpec | MWSpec, v: int, pushed: list[int], cur: set[int]) -> SimplicialComplex:
    """Close the chain with a pull on v: the pyramids from v over the facets avoiding v."""
    return SimplicialComplex._of(_order(spec), pushed + [F | v for F in cur if not F & v])


def lex_subdivisions(spec: CyclicSpec | MWSpec) -> Iterator[tuple[int, SimplicialComplex]]:
    """Yield (a, Lex_a) for a = 1..lex_range(spec), all from one push chain."""
    for a, v, pushed, cur in _push_chain(spec):
        yield a, _pull(spec, v, pushed, cur)


def lex_subdivision(spec: CyclicSpec | MWSpec, a: int) -> SimplicialComplex:
    """The a-th lexicographic subdivision: push v_1..v_{a-1}, then pull v_a.

    The final pull on v_a contributes the pyramids from v_a over the facets
    of the current polytope that avoid v_a.  On a simplex the pull
    degenerates to the simplex itself, which ends the recursion at the top
    of the range.  Only Lex_a is built, not the subdivisions before it.
    """
    amax = lex_range(spec)
    if not 1 <= a <= amax:
        raise ValueError(f"lex index a={a} outside 1..{amax}")
    _, v, pushed, cur = next(islice(_push_chain(spec), a - 1, None))
    return _pull(spec, v, pushed, cur)


def lex_mw_from_cyclic(spec: MWSpec, cyclic_lex: SimplicialComplex) -> SimplicialComplex:
    """Lex_a of an MW polytope from ``cyclic_lex``, Lex_a of its cyclic factor C(K, c_count).

    The MW gluing rule that turns the facets of C into the MW boundary turns
    the cells of Lex_a(C) into the cells of Lex_a of the MW polytope.
    """
    cells = cyclic_lex._masks_over(_order(CyclicSpec(spec.K, spec.c_count)))
    return SimplicialComplex._of(_order(spec), _glue(cells, spec.c_count - 1, spec.t_count))


# -- diamonds ---------------------------------------------------------------


def _cap(ball: SimplicialComplex, rim: SimplicialComplex) -> SimplicialComplex:
    """The ball's facets plus the apex cone over its boundary `rim`; the apex sorts first, on bit 0."""
    cone = [f << 1 | 1 for f in rim._masks]
    cells = [f << 1 for f in ball._masks_over(rim.vertices)]
    return SimplicialComplex._of((APEX, *rim.vertices), cells + cone)


def diamond_boundary(spec: DiamondSpec) -> SimplicialComplex:
    """Boundary of the a-th lexicographic diamond: Lex_a(P) capped by the apex cone.

    Faces are those of the subdivision plus {apex} joined with every face of
    the base boundary; a pure (d-2)-sphere on n vertices.
    """
    base = spec.base
    return _cap(lex_subdivision(base, spec.a), mw_boundary(base))


def diamonds(
    k: int, d: int, n: int
) -> Iterator[tuple[DiamondSpec, SimplicialComplex, SimplicialComplex, SimplicialComplex]]:
    """Every diamond over the (k, d, n) base, a = 1..n-d+1: (spec, rim, ball, diamond).

    The rim (the MW base boundary) is built once and the balls come from one
    push chain, so a caller that needs every a pays for one build of each.
    """
    base = DiamondSpec(k, d, n, 1).base
    rim = mw_boundary(base)
    for a, ball in lex_subdivisions(base):
        yield DiamondSpec(k, d, n, a), rim, ball, _cap(ball, rim)


def ball_boundary(ball: SimplicialComplex) -> SimplicialComplex:
    """Boundary of a pure simplicial ball: closure of ridges lying in one facet."""
    bits = [1 << i for i in range(len(ball.vertices))]
    ridges = Counter(f ^ b for f in ball._masks for b in bits if f & b)
    return SimplicialComplex._of(ball.vertices, [r for r, c in ridges.items() if c == 1])
