"""Stackedness machinery for the diamonds: missing faces, stacked facets, witnesses.

The predicted face lists live purely on the cyclic factor's linear vertex
order (wraparound adjacency is never consecutive): missing faces are spaced
position sets and stacked facets are sets that pair up as (p, p+1), each
generated directly; these lists are the patterns' only encoding, and
`classify_face` looks a face up in them.  Both brute-force oracles read one
scan of the explicit diamond boundary's small minimal non-faces.  The
incompatibility witness reports one facet of a stacked triangulation with its
tag in the neighboring diamond; the claim, which its callers check, is that
the tag is UNCLASSIFIED, and that blocks any global cubical stacked
subdivision.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .complexes import APEX, Label, SimplicialComplex, cvert, label_str
from .constructions import DiamondSpec
from .qvectors import diamond_index_of_sign_vector
from .vectors import Record

__all__ = [
    "MISSING_1",
    "MISSING_2",
    "FACET_I",
    "FACET_II",
    "UNCLASSIFIED",
    "ClassifiedFace",
    "IncompatibilityWitness",
    "predicted_missing_faces",
    "brute_missing_faces",
    "predicted_stacked_facets",
    "oracle_stacked_facets",
    "classify_face",
    "incompatibility_witness",
    "cube_subgraph_images",
    "cube_graph_face_check",
    "cube_face_count",
]

MISSING_1 = "missing-1"
MISSING_2 = "missing-2"
FACET_I = "facet-I"
FACET_II = "facet-II"
UNCLASSIFIED = "unclassified"


class ClassifiedFace(Record):
    """A vertex subset of a diamond boundary together with its classification."""

    __slots__ = ("vertices", "tag")
    vertices: frozenset[Label]
    tag: str

    def labels(self) -> list[str]:
        return [label_str(v) for v in sorted(self.vertices)]


class IncompatibilityWitness(Record):
    """A sign vector, its diamond index a, the flipped neighbor's index b > a,
    and one stacked facet of the a-th diamond with its tags in both diamonds."""

    __slots__ = ("k", "d", "n", "sigma", "a", "b", "face", "face_type_in_a", "face_type_in_b")
    k: int
    d: int
    n: int
    sigma: str
    a: int
    b: int
    face: frozenset[Label]
    face_type_in_a: str
    face_type_in_b: str

    def to_json_obj(self) -> dict:
        obj = {name: getattr(self, name) for name in self.__slots__}
        obj["face"] = [label_str(v) for v in sorted(self.face)]
        return obj


def _layout(k: int, d: int, n: int, a: int) -> tuple[int, frozenset[Label]]:
    """The a-th diamond's cyclic vertex count m (x included) and its T labels.

    DiamondSpec rejects an index a outside 1..n-d+1.
    """
    if k < 1 or not n >= d >= 2 * k + 4:
        raise ValueError(f"needs k >= 1 and n >= d >= 2k+4, got k={k}, d={d}, n={n}")
    base = DiamondSpec(k, d, n, a).base
    return base.c_count, frozenset(base.t_labels)


def _spaced(r: int, top: int) -> Iterator[tuple[int, ...]]:
    """The r-subsets of positions 1..top with no two consecutive, in lex order."""
    for c in combinations(range(1, top - r + 2), r):
        yield tuple(p + j for j, p in enumerate(c))


def predicted_missing_faces(k: int, d: int, n: int, a: int) -> list[ClassifiedFace]:
    """Minimal non-faces of the a-th diamond, by the block characterization.

    Type 1 (size k+2): the apex plus k+1 isolated cyclic vertices below x
    with minimum exactly v_a.  Type 2 (size k+1): k+1 isolated cyclic
    vertices below x with minimum different from v_a.  Nothing else of size
    at most k+2 is missing.  Type 2 comes first; within a type the faces are
    in lex order of their sorted vertices, which is the lex order of S.
    """
    m, _ = _layout(k, d, n, a)
    type_1, type_2 = [], []
    for S in _spaced(k + 1, m - 1):
        verts = frozenset(cvert(i) for i in S)
        if S[0] == a:
            type_1.append(ClassifiedFace(verts | {APEX}, MISSING_1))
        else:
            type_2.append(ClassifiedFace(verts, MISSING_2))
    return type_2 + type_1


def _small_nonfaces(complex_: SimplicialComplex, max_size: int) -> tuple[int, ...]:
    """Bitmasks of the minimal non-faces with at most ``max_size`` vertices.

    A set is a minimal non-face exactly when it is not a face but dropping
    any one of its vertices leaves a face.  Dropping its last vertex leaves a
    face, so the scan grows faces one vertex at a time in vertex order and
    tests each grown set that is not a face by its other one-vertex drops.
    The scan stays on the complex, for the other oracle to read.
    """
    has = complex_._has
    count = len(complex_.vertices)

    def grow(face: int, bits: tuple[int, ...], start: int) -> Iterator[int]:
        for i in range(start, count):
            bit = 1 << i
            grown = face | bit
            if not has(grown):
                if all(has(grown ^ b) for b in bits):
                    yield grown
            elif len(bits) < max_size - 1:
                yield from grow(grown, bits + (bit,), i + 1)

    return complex_._memo((_small_nonfaces, max_size), lambda: tuple(grow(0, (), 0)))


def brute_missing_faces(
    complex_: SimplicialComplex, max_size: int
) -> list[frozenset[Label]]:
    """All inclusion-minimal non-faces of size <= max_size, by the scan above."""
    if max_size > len(complex_.vertices):
        raise ValueError(f"max_size {max_size} exceeds vertex count {len(complex_.vertices)}")
    out = [complex_._labels(m) for m in _small_nonfaces(complex_, max_size)]
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def predicted_stacked_facets(k: int, d: int, n: int, a: int) -> list[ClassifiedFace]:
    """Facets of the unique stacked triangulation of the a-th diamond.

    Type I: apex + a 2k-set of cyclic vertices below x in even blocks + all
    of T.  Type II: v_a + such a 2k-set lying entirely above v_a + all of T.
    Every facet has exactly d vertices.  A 2k-set in even blocks is k pairs
    (p, p+1), one for each p of a spaced k-set of starts below x - 1.  Type I
    comes first; within a type the facets are in lex order of their sorted
    vertices, which is the lex order of their starts.
    """
    m, tset = _layout(k, d, n, a)
    apex_t, va_t = tset | {APEX}, tset | {cvert(a)}
    type_i, type_ii = [], []
    for starts in _spaced(k, m - 2):
        pairs = frozenset(cvert(p + i) for p in starts for i in (0, 1))
        type_i.append(ClassifiedFace(pairs | apex_t, FACET_I))
        if starts[0] > a:
            type_ii.append(ClassifiedFace(pairs | va_t, FACET_II))
    return type_i + type_ii


def oracle_stacked_facets(
    complex_: SimplicialComplex, d: int, k: int
) -> list[frozenset[Label]]:
    """d-subsets of the diamond's vertices all of whose small subsets are faces.

    The criterion is literal: every subset of size <= k+2 must be a face of
    the boundary complex, so the set holds no minimal non-face that small.
    Candidates grow one vertex at a time in vertex order and stop at the
    first such non-face: adding v tests those whose last vertex is v.
    """
    support = complex_.vertices
    ending: list[list[int]] = [[] for _ in support]
    for m in _small_nonfaces(complex_, k + 2):
        ending[m.bit_length() - 1].append(m)
    found: list[int] = []

    def grow(chosen: int, size: int, start: int) -> None:
        if size == d:
            found.append(chosen)
            return
        for i in range(start, len(support) - d + size + 1):
            grown = chosen | 1 << i
            if all(m & ~grown for m in ending[i]):
                grow(grown, size + 1, i + 1)

    grow(0, 0, 0)
    return sorted(map(complex_._labels, found), key=sorted)


def classify_face(face: Iterable[Label], k: int, d: int, n: int, a: int) -> str:
    """The tag of the predicted face of D_a that equals ``face``, or UNCLASSIFIED.

    Stacked facets have d vertices and missing faces k+1 or k+2, with
    d >= 2k+4, so the face's size picks the one list that can hold it.
    """
    fs = frozenset(face)
    predicted = predicted_stacked_facets if len(fs) == d else predicted_missing_faces
    return next((cf.tag for cf in predicted(k, d, n, a) if cf.vertices == fs), UNCLASSIFIED)


def incompatibility_witness(k: int, d: int, n: int) -> IncompatibilityWitness:
    """Construct the witness blocking a compatible family of stacked triangulations.

    Takes the sign vector with a single leading plus (diamond index a = 1),
    flips that coordinate to land in the diamond with index b = n-d+1 > a,
    and picks D_a's lexicographically smallest type II facet, tag included:
    c1 … c(2k+1), that is v_a and the following 2k cyclic vertices, and all
    of T.  ``face_type_in_b`` is D_b's tag for the face, whatever it is; the
    claim, which the callers check, is that it is UNCLASSIFIED.
    """
    _layout(k, d, n, 1)  # checks k, d, n; the index a = 1 exists for every n >= d
    if n == d:
        raise ValueError("no diamond index a < n-d+1 exists when n == d")
    sigma = "+" + "-" * (n - 1)
    a = diamond_index_of_sign_vector(sigma, n, d)
    flipped = "-" + sigma[1:]
    b = diamond_index_of_sign_vector(flipped, n, d)
    picked = next(cf for cf in predicted_stacked_facets(k, d, n, a) if cf.tag == FACET_II)
    tag_b = classify_face(picked.vertices, k, d, n, b)
    return IncompatibilityWitness(k, d, n, sigma, a, b, picked.vertices, picked.tag, tag_b)


# -- the cube-graph rigidity fact ---------------------------------------------


@cache
def cube_subgraph_images(n: int, m: int) -> frozenset[frozenset[int]]:
    """Vertex sets of all subgraphs of the n-cube graph isomorphic to the m-cube graph.

    Backtracking over edge-preserving injections: the m-cube vertices are
    placed in the order 0..2^m-1, each vertex after 0 on a neighbour of the
    image of its lowest-numbered neighbour, and a candidate w is kept only if
    it is unused (bit w of ``used`` clear), adjacent to the images of all earlier
    neighbours and, the m-cube being vertex-transitive, above the image of 0.
    """
    size = 1 << m
    earlier = [sorted(v ^ (1 << i) for i in range(m) if v >> i & 1) for v in range(size)]
    image = [0] * size
    images: set[frozenset[int]] = set()

    def place(v: int, used: int) -> None:
        if v == size:
            images.add(frozenset(image))
            return
        if v == 0:
            candidates = range(1 << n)
        else:
            anchor = image[earlier[v][0]]
            candidates = (anchor ^ (1 << i) for i in range(n) if anchor ^ (1 << i) > image[0])
        for w in candidates:
            if not used >> w & 1 and all((w ^ image[u]).bit_count() == 1 for u in earlier[v]):
                image[v] = w
                place(v + 1, used | 1 << w)

    place(0, 0)
    return frozenset(images)


def cube_graph_face_check(n: int, m: int) -> bool:
    """True when every m-cube subgraph of the n-cube is the skeleton of an m-face.

    A vertex set spans an axis-aligned m-face exactly when the XOR offsets
    from any base vertex use only m coordinate bits.  Exhaustive search,
    restricted to n <= 4.
    """
    if not 1 <= m <= n <= 4:
        raise ValueError(f"search range limited to 1 <= m <= n <= 4, got ({n}, {m})")
    for image in cube_subgraph_images(n, m):
        base = min(image)
        mask = 0
        for v in image:
            mask |= v ^ base
        if mask.bit_count() != m:
            return False
    return True


def cube_face_count(n: int, m: int) -> int:
    """Number of m-faces of the n-cube."""
    return comb(n, m) * 2 ** (n - m)
