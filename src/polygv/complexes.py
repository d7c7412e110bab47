"""Simplicial complexes on labeled vertices.

A complex is stored by its maximal faces (facets), each an int bitmask over
the sorted vertex list (bit i stands for ``vertices[i]``); the builders make
masks directly, and labels appear only at I/O.  The full face set is the
downward closure, computed lazily and cached as a face map, split at bit
``_LOW``: the map takes the high part h to one int whose bit l is set
exactly when ``h << _LOW | l`` is a face.  Counting faces is then a
popcount per entry, and testing one is a dict lookup and a shift.  Vertex
labels form a totally ordered tagged family: the diamond apex, cyclic-factor
vertices c1, c2, ..., simplex-factor vertices t1, t2, ..., and plain
vertices u1, u2, ... for generic complexes, in that order.  Complexes are
immutable after construction; every operation returns a new value.
"""

from __future__ import annotations

import json
import re
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import Any, Callable, Iterable, Sequence

from .vectors import FVector

__all__ = [
    "Label",
    "APEX",
    "cvert",
    "tvert",
    "plain",
    "label_str",
    "parse_label",
    "LinkConditionError",
    "SimplicialComplex",
    "simplex_boundary",
]

# A label is (kind rank, index); the rank encodes apex < c < t < u so tuples
# sort in the required total order.
Label = tuple[int, int]

_KIND_APEX, _KIND_C, _KIND_T, _KIND_U = 0, 1, 2, 3
APEX: Label = (_KIND_APEX, 0)

# exactly what label_str writes: ASCII numerals, no leading zero, nothing after
_LABEL_RE = re.compile(r"p|[ctu](0|[1-9][0-9]*)")


def cvert(i: int) -> Label:
    """The i-th cyclic-factor vertex (1-based)."""
    return (_KIND_C, i)


def tvert(j: int) -> Label:
    """The j-th simplex-factor vertex (1-based)."""
    return (_KIND_T, j)


def plain(i: int) -> Label:
    """A generic vertex u<i>."""
    return (_KIND_U, i)


def label_str(v: Label) -> str:
    kind, idx = v
    if kind == _KIND_APEX:
        return "p"
    return "ctu"[kind - 1] + str(idx)


def parse_label(s: str) -> Label:
    if not _LABEL_RE.fullmatch(s):
        raise ValueError(f"bad vertex label {s!r}")
    if s == "p":
        return APEX
    kind = {"c": _KIND_C, "t": _KIND_T, "u": _KIND_U}[s[0]]
    return (kind, int(s[1:]))


# Low bits per face-map entry: an entry has at most 2^_LOW bits, so memory
# stays bounded for any vertex count, and a complex on at most _LOW vertices
# has a single entry.
_LOW = 12
_LOW_MASK = (1 << _LOW) - 1


@cache
def _down(low: int) -> int:
    """The down-set of a low mask: bit l is set exactly when l is a submask of ``low``."""
    down = 1
    while low:
        bit = low & -low
        down |= down << bit
        low ^= bit
    return down


def _size_rows() -> list[int]:
    """Row j has bit l set exactly when the low mask l has j bits, 0 <= j <= _LOW."""
    rows = [1]
    for i in range(_LOW):
        step = 1 << i
        rows = [r | (rows[j - 1] << step if j else 0) for j, r in enumerate(rows + [0])]
    return rows


_SIZE_ROWS = _size_rows()


class LinkConditionError(ValueError):
    """Raised when an edge contraction would not preserve the h-polynomial relation."""


class SimplicialComplex:
    """A finite simplicial complex given by its facet list.

    Facets are maximalized on construction (no facet contains another).  An
    empty facet list denotes the complex whose only face is the empty set,
    which is what a 0-simplex bounds.  The facets are held as int masks over
    ``vertices``, the sorted support; ``facets`` is their label view.
    """

    __slots__ = ("_vertices", "dim", "_masks", "_faces", "_memos")

    def __init__(self, facets: Iterable[Iterable[Label]]):
        sets = {frozenset(f) for f in facets}
        labels = sorted(set().union(*sets))
        bit = {v: 1 << i for i, v in enumerate(labels)}
        self._set(labels, [sum(bit[v] for v in f) for f in sets])

    @classmethod
    def _of(cls, labels: Sequence[Label], masks: Iterable[int]) -> "SimplicialComplex":
        """The complex of the maximal ``masks``; bit i stands for ``labels[i]``, which ascend."""
        return cls.__new__(cls)._set(labels, masks)

    def _set(self, labels: Sequence[Label], masks: Iterable[int]) -> "SimplicialComplex":
        sets = frozenset(masks) or frozenset((0,))
        support = reduce(or_, sets)
        if support >> len(labels):
            raise ValueError(f"a facet mask has bits past the {len(labels)} labels")
        missing = (1 << len(labels)) - 1 & ~support  # labels no facet uses, dropped from the top
        while missing:
            i = missing.bit_length() - 1
            labels, missing = labels[:i] + labels[i + 1 :], missing ^ 1 << i
            sets = frozenset(f >> 1 & -1 << i | f & ~(-1 << i) for f in sets)
        sizes = set(map(int.bit_count, sets))
        top = max(sizes)
        if len(sizes) > 1:
            # a set only ever lies strictly inside a larger one, so sets of the top size are
            # maximal; a smaller one mostly has a superset with one more vertex, tried first
            bits = [1 << i for i in range(len(labels))]
            sets = frozenset(f for f in sets if f.bit_count() == top or not (
                any(f | b in sets for b in bits if not f & b) or any(f & g == f != g for g in sets)))
        self._vertices: tuple[Label, ...] = tuple(labels)
        self.dim: int = top - 1
        self._masks: frozenset[int] = sets
        self._faces: dict[int, int] | None = None
        self._memos: dict = {}
        return self

    vertices = property(lambda self: self._vertices, doc="The sorted support, read-only.")

    def _memo(self, key: object, compute: Callable[[], Any]) -> Any:
        """``compute()``, kept on the complex under ``key``: complexes are immutable."""
        return self._memos[key] if key in self._memos else self._memos.setdefault(key, compute())

    @property
    def facets(self) -> frozenset[frozenset[Label]]:
        """The facets as vertex-label sets."""
        return self._memo("facets", lambda: frozenset(map(self._labels, self._masks)))

    def _labels(self, mask: int) -> frozenset[Label]:
        """The vertex set of a bitmask over ``vertices``."""
        return frozenset(v for i, v in enumerate(self._vertices) if mask >> i & 1)

    def _masks_over(self, labels: Sequence[Label], names: Sequence[Label] | None = None) -> Iterable[int]:
        """The facet masks over the ascending ``labels``, vertex i renamed ``names[i]`` if given."""
        names = self._vertices if names is None else tuple(names)
        if names == tuple(labels):
            return self._masks
        at = [1 << labels.index(v) for v in names]
        return [reduce(or_, (b for i, b in enumerate(at) if f >> i & 1), 0) for f in self._masks]

    def _mask(self, face: Iterable[Label]) -> int | None:
        """Bitmask of a vertex set, or None if a vertex is not in the complex."""
        bit, face = {v: 1 << i for i, v in enumerate(self._vertices)}, set(face)
        return sum(bit[v] for v in face) if face <= bit.keys() else None

    def _face_map(self) -> dict[int, int]:
        """High part h -> the bitmap of the low parts l with ``h << _LOW | l`` a face.

        Each facet contributes the down-set of its low part to the entry of
        every submask of its high part.
        """
        if self._faces is None:
            faces: dict[int, int] = {}
            for mask in self._masks:
                down, high = _down(mask & _LOW_MASK), mask >> _LOW
                sub = high
                while True:
                    faces[sub] = faces.get(sub, 0) | down
                    if not sub:
                        break
                    sub = (sub - 1) & high
            self._faces = faces
        return self._faces

    def _has(self, mask: int) -> bool:
        """Whether the vertex set with this bitmask is a face."""
        return bool((self._faces or self._face_map()).get(mask >> _LOW, 0) >> (mask & _LOW_MASK) & 1)

    def is_pure(self) -> bool:
        return len({f.bit_count() for f in self._masks}) == 1

    def is_face(self, face: Iterable[Label]) -> bool:
        mask = self._mask(face)
        return mask is not None and self._has(mask)

    def f_vector(self) -> FVector:
        def count() -> FVector:
            counts = [0] * (self.dim + 2)
            for high, row in self._face_map().items():
                base = high.bit_count()
                for j in range(min(_LOW, self.dim + 1 - base) + 1):
                    counts[base + j] += (row & _SIZE_ROWS[j]).bit_count()
            return FVector(self.dim, tuple(counts))

        return self._memo(FVector, count)

    def euler_characteristic(self) -> int:
        """Reduced-free Euler characteristic sum_i (-1)^i f_i."""
        fv = self.f_vector()
        return sum((-1) ** i * fv.counts[i + 1] for i in range(self.dim + 1))

    # -- elementary operations -------------------------------------------

    def link(self, face: Iterable[Label]) -> "SimplicialComplex":
        """Faces G disjoint from `face` with G union `face` in the complex."""
        fs = frozenset(face)
        mask = self._mask(fs)
        # `face` is a face exactly when some facet contains it
        rest = [] if mask is None else [f ^ mask for f in self._masks if f & mask == mask]
        if not rest:
            raise ValueError(f"{sorted(map(label_str, fs))} is not a face")
        return self._of(self._vertices, rest)

    def contract_edge(self, u: Label, v: Label) -> "SimplicialComplex":
        """Identify v with u along the edge {u, v}, keeping the label u.

        Requires the link condition lk_{uv} = lk_u intersect lk_v; without it
        the contraction would not preserve the h-polynomial bookkeeping, so
        the operation refuses instead of silently producing a non-sphere.
        """
        if u == v or not self.is_face((u, v)):
            raise ValueError(
                f"{{{label_str(u)}, {label_str(v)}}} is not an edge of the complex"
            )
        # lk_uv is always inside lk_u & lk_v; it misses a face exactly when
        # some face G has G + u and G + v as faces but not G + u + v (then u,
        # v are not in G).  Per high part h of G, the entry of h + x shifted
        # down by the low part of x marks the low parts l of G with G + x a
        # face, read only where l avoids u and v: the `free` low parts.
        bu, bv = self._mask([u]), self._mask([v])
        pair = bu | bv
        parts = [(x >> _LOW, x & _LOW_MASK) for x in (bu, bv, pair)]
        faces = self._face_map()
        free = _down(_LOW_MASK & ~pair)
        for h in faces:
            with_u, with_v, with_uv = (faces.get(h | xh, 0) >> xl for xh, xl in parts)
            if with_u & with_v & ~with_uv & free:
                raise LinkConditionError(
                    f"link condition fails at edge {{{label_str(u)}, {label_str(v)}}}"
                )
        return self._of(self._vertices, [f ^ bv | bu if f & bv else f for f in self._masks])

    def relabel(self, mapping: dict[Label, Label]) -> "SimplicialComplex":
        """Apply a vertex relabeling; labels not in the mapping are kept."""
        names = [mapping.get(v, v) for v in self._vertices]
        labels = sorted(set(names))
        return self._of(labels, self._masks_over(labels, names))

    # -- serialization -----------------------------------------------------

    def canonical_facets(self) -> list[tuple[Label, ...]]:
        return sorted(tuple(sorted(f)) for f in self.facets)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [label_str(v) for v in self._vertices],
            "facets": [[label_str(v) for v in f] for f in self.canonical_facets()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        if not isinstance(obj, dict):
            raise ValueError("complex JSON must be an object with a 'facets' list")
        if "facets" not in obj:
            raise ValueError("simplicial input needs a 'facets' list")
        facets = obj["facets"]
        if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(isinstance(s, str) for s in f) for f in facets
        ):
            raise ValueError("'facets' must be a list of lists of vertex label strings")
        return cls([parse_label(s) for s in f] for f in facets)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._masks == other._masks and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dim}, vertices={len(self._vertices)}, "
            f"facets={len(self._masks)})"
        )


def simplex_boundary(labels: Iterable[Label]) -> SimplicialComplex:
    """The boundary of the simplex on the given vertices.

    For a single vertex this is the complex containing only the empty face.
    """
    ls = tuple(labels)
    return SimplicialComplex(combinations(ls, len(ls) - 1))
