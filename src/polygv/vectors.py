"""Exact integer face-vector calculus: f/h/g transforms, simplicial and cubical.

All values are arbitrary-precision Python integers; no operation rounds.
Vectors carry their dimension context explicitly and transforms reject
mismatches instead of inferring, since off-by-one hazards between the
simplicial dimension D, the complex dimension d-1, and the cubical
dimension d are the main source of bugs in this calculus.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import attrgetter

__all__ = [
    "Record",
    "FVector",
    "HVector",
    "GVector",
    "ShortCubicalH",
    "CubicalH",
    "ShortCubicalG",
    "CubicalG",
    "mchoose",
    "f_to_h",
    "h_to_g",
    "h_from_g_palindromic",
    "check_simplicial_DS",
    "check_cubical_DS",
    "f_to_hsc",
    "hsc_to_hc",
    "hc_to_gc",
    "hsc_to_gsc",
    "gc_from_gsc",
    "gsc_gc_consistent",
]


def mchoose(m: int, i: int) -> int:
    """Multichoose number C(m+i-1, i): multisets of size i drawn from m types.

    Total on m >= 0, i >= 0; in particular mchoose(0, 0) == 1 and
    mchoose(0, i) == 0 for i >= 1.
    """
    if m < 0 or i < 0:
        raise ValueError(f"mchoose requires nonnegative arguments, got ({m}, {i})")
    if m == 0:
        return 1 if i == 0 else 0
    return comb(m + i - 1, i)


class Record:
    """An immutable value: positional fields, equal and hashed by value.

    A subclass lists its fields in order in ``__slots__`` and annotates each
    one.  ``__init__`` binds the values positionally, then ``_check`` rejects
    bad ones.  Two values are equal only within one class; the hash is that
    of the field tuple, and the repr reads ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # attrgetter of one name returns the bare value, not a 1-tuple
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._setters):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._setters)} fields, got {len(values)}"
            )
        for bind, value in zip(self._setters, values):
            bind(self, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError on bad field values; the base accepts any."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class FVector(Record):
    """Face counts (f_{-1}, f_0, ..., f_dim) of a (dim)-dimensional complex."""

    __slots__ = ("dim", "counts")
    dim: int
    counts: tuple[int, ...]

    def _check(self) -> None:
        if len(self.counts) != self.dim + 2:
            raise ValueError(
                f"FVector of dim {self.dim} needs {self.dim + 2} entries, got {len(self.counts)}"
            )
        if self.counts[0] != 1:
            raise ValueError("f_{-1} must be 1 for a nonempty complex")
        if any(c < 0 for c in self.counts):
            raise ValueError("face counts must be nonnegative")


class HVector(Record):
    """Simplicial h-vector (h_0, ..., h_D) of a (D-1)-complex."""

    __slots__ = ("D", "entries")
    D: int
    entries: tuple[int, ...]

    def _check(self) -> None:
        if len(self.entries) != self.D + 1:
            raise ValueError(
                f"HVector with D={self.D} needs {self.D + 1} entries, got {len(self.entries)}"
            )


class GVector(Record):
    """Simplicial g-vector (g_0, ..., g_{floor(D/2)})."""

    __slots__ = ("entries",)
    entries: tuple[int, ...]


class ShortCubicalH(Record):
    """Short cubical h-vector (h^sc_0, ..., h^sc_{d-1}) of a cubical (d-1)-complex."""

    __slots__ = ("d", "entries")
    d: int
    entries: tuple[int, ...]

    def _check(self) -> None:
        if len(self.entries) != self.d:
            raise ValueError(f"ShortCubicalH with d={self.d} needs {self.d} entries")


class CubicalH(Record):
    """Long cubical h-vector (h^c_0, ..., h^c_d), seeded by h^c_0 = 2^(d-1)."""

    __slots__ = ("d", "entries")
    d: int
    entries: tuple[int, ...]

    def _check(self) -> None:
        if len(self.entries) != self.d + 1:
            raise ValueError(f"CubicalH with d={self.d} needs {self.d + 1} entries")


class ShortCubicalG(Record):
    """Short cubical g-vector (g^sc_0, ..., g^sc_{floor((d-1)/2)})."""

    __slots__ = ("d", "entries")
    d: int
    entries: tuple[int, ...]

    def _check(self) -> None:
        want = (self.d - 1) // 2 + 1
        if len(self.entries) != want:
            raise ValueError(f"ShortCubicalG with d={self.d} needs {want} entries")


class CubicalG(Record):
    """Long cubical g-vector (g^c_0, ..., g^c_{floor(d/2)}), g^c_0 = 2^(d-1)."""

    __slots__ = ("d", "entries")
    d: int
    entries: tuple[int, ...]

    def _check(self) -> None:
        want = self.d // 2 + 1
        if len(self.entries) != want:
            raise ValueError(f"CubicalG with d={self.d} needs {want} entries")


def _expand(coeffs: tuple[int, ...], D: int) -> tuple[int, ...]:
    """Coefficients of sum_{i=0..D} c_i t^i (1-t)^(D-i), by Horner steps in (1-t).

    The partial sum P_i = P_{i-1} (1-t) + c_i t^i; multiplying by (1-t) is
    one pass of neighbour differences, so no binomial coefficient is formed.
    """
    out: list[int] = []
    for i in range(D + 1):
        top = coeffs[i] - out[-1] if out else coeffs[i]
        for j in range(i - 1, 0, -1):
            out[j] -= out[j - 1]
        out.append(top)
    return tuple(out)


def _differences(entries: tuple[int, ...], top: int) -> tuple[int, ...]:
    """e_0, e_1 - e_0, ..., e_top - e_(top-1)."""
    out = [entries[0]]
    for i in range(1, top + 1):
        out.append(entries[i] - entries[i - 1])
    return tuple(out)


def _unpair(seed: int, sums: tuple[int, ...]) -> tuple[int, ...]:
    """Invert pairwise sums: x_0 = seed and x_(i+1) = s_i - x_i."""
    out = [seed]
    for s in sums:
        out.append(s - out[-1])
    return tuple(out)


def f_to_h(f: FVector, D: int) -> HVector:
    """h(t) = sum_i f_(i-1) t^i (1-t)^(D-i), that is (1-t)^D f(t/(1-t)).

    Requires f.dim == D - 1.  The entries satisfy sum_j h_j = f_{D-1}.
    """
    if f.dim != D - 1:
        raise ValueError(f"f-vector of dim {f.dim} does not match D={D}")
    return HVector(D, _expand(f.counts, D))


def h_to_g(h: HVector) -> GVector:
    """Successive differences g_0 = h_0, g_i = h_i - h_{i-1}, up to floor(D/2)."""
    return GVector(_differences(h.entries, h.D // 2))


def h_from_g_palindromic(g: GVector, D: int) -> HVector:
    """Rebuild the full h-vector from g by cumulative sums plus reflection.

    Only valid for palindromic h (boundary complexes of simplicial polytopes).
    """
    if len(g.entries) != D // 2 + 1:
        raise ValueError(f"g-vector of length {len(g.entries)} does not match D={D}")
    half = list(accumulate(g.entries))
    return HVector(D, tuple(half + half[: (D + 1) // 2][::-1]))


def check_simplicial_DS(h: HVector) -> bool:
    """Dehn-Sommerville test: h_i == h_{D-i} for all i."""
    return h.entries == h.entries[::-1]


def check_cubical_DS(hc: CubicalH) -> bool:
    """Cubical Dehn-Sommerville test: h^c_i == h^c_{d-i} for all i."""
    return hc.entries == hc.entries[::-1]


def f_to_hsc(f: FVector, d: int) -> ShortCubicalH:
    """h^sc(t) = sum_j f_j (2t)^j (1-t)^(d-1-j) for a cubical (d-1)-complex.

    The f_{-1} entry is ignored; the sum runs over j >= 0.
    """
    if f.dim != d - 1:
        raise ValueError(f"f-vector of dim {f.dim} does not match cubical d={d}")
    coeffs = tuple(2**j * f_j for j, f_j in enumerate(f.counts[1:]))
    return ShortCubicalH(d, _expand(coeffs, d - 1))


def hsc_to_hc(hsc: ShortCubicalH, d: int) -> CubicalH:
    """Unroll h^sc_i = h^c_i + h^c_{i+1} from the seed h^c_0 = 2^(d-1)."""
    if hsc.d != d:
        raise ValueError(f"short cubical h with d={hsc.d} does not match d={d}")
    return CubicalH(d, _unpair(2 ** (d - 1), hsc.entries))


def hc_to_gc(hc: CubicalH) -> CubicalG:
    """g^c_0 = h^c_0, g^c_i = h^c_i - h^c_{i-1} up to floor(d/2)."""
    return CubicalG(hc.d, _differences(hc.entries, hc.d // 2))


def hsc_to_gsc(hsc: ShortCubicalH) -> ShortCubicalG:
    """g^sc_0 = h^sc_0, g^sc_i = h^sc_i - h^sc_{i-1} up to floor((d-1)/2)."""
    return ShortCubicalG(hsc.d, _differences(hsc.entries, (hsc.d - 1) // 2))


def _gc_chain(gsc: ShortCubicalG) -> tuple[int, ...]:
    """g^c_0, ..., g^c_(len(gsc.entries)), seeded by g^c_0 = 2^(d-1).

    g^sc_0 = 2 g^c_0 + g^c_1 reads g^sc_0 - 2^(d-1) = g^c_0 + g^c_1, so with
    g^sc_i = g^c_i + g^c_(i+1) the chain is one pairwise inversion.  For odd
    d it runs one entry past floor(d/2).
    """
    seed = 2 ** (gsc.d - 1)
    return _unpair(seed, (gsc.entries[0] - seed,) + gsc.entries[1:])


def gc_from_gsc(gsc: ShortCubicalG, d: int) -> CubicalG:
    """Invert the pairwise sums relating short and long cubical g-vectors."""
    if gsc.d != d:
        raise ValueError(f"short cubical g with d={gsc.d} does not match d={d}")
    return CubicalG(d, _gc_chain(gsc)[: d // 2 + 1])


def gsc_gc_consistent(gsc: ShortCubicalG, gc: CubicalG) -> bool:
    """Re-substitution check: g^sc_0 = 2 g^c_0 + g^c_1 and g^sc_i = g^c_i + g^c_{i+1}.

    For odd d the entry past floor(d/2) is read from gsc's own chain, so the
    identity is verified over the whole short range.
    """
    if gsc.d != gc.d:
        return False
    x = gc.entries + _gc_chain(gsc)[len(gc.entries) :]
    sums = [2 * x[0] + x[1]] + [x[i] + x[i + 1] for i in range(1, len(gsc.entries))]
    return tuple(sums) == gsc.entries
