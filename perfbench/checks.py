"""Independent routes the benchmark checks polygv's outputs against.

Standard library only: nothing here imports polygv, so a fault in the
program cannot also hide in its check.  Each ``check_*`` returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb


def mchoose(m: int, i: int) -> int:
    """Multisets of size i from m types."""
    if m == 0:
        return 1 if i == 0 else 0
    return comb(m + i - 1, i)


def f_vector(facets) -> list[int]:
    """(f_-1, f_0, ..., f_dim) of the downward closure of ``facets``."""
    faces = set()
    for facet in facets:
        facet = tuple(sorted(facet))
        for r in range(len(facet) + 1):
            faces.update(combinations(facet, r))
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == size) for size in range(top + 1)]


def h_vector(f: list[int], D: int) -> list[int]:
    """h_i = sum_j (-1)^(i-j) C(D-j, i-j) f_{j-1}, for a (D-1)-complex."""
    return [sum((-1) ** (i - j) * comb(D - j, i - j) * f[j] for j in range(i + 1)) for i in range(D + 1)]


def g_vector(h: list[int]) -> list[int]:
    return [h[0]] + [h[i] - h[i - 1] for i in range(1, (len(h) - 1) // 2 + 1)]


def neighborly_g(K: int, m: int) -> list[int]:
    """g-vector of the cyclic polytope C(K, m), which is neighborly."""
    return [mchoose(m - K - 1, i) for i in range(K // 2 + 1)]


def diamond_g(k: int, d: int, n: int, a: int) -> list[int]:
    return [mchoose(n - d, i) if i <= k else mchoose(n - d - a + 1, k) if i == k + 1 else 0
            for i in range((d - 1) // 2 + 1)]


def gsc_q(k: int, d: int, n: int) -> list[int]:
    """Short cubical g-vector of Q(k, d, n): sum over vertices of diamond g-vectors."""
    out = []
    for i in range((d - 1) // 2 + 1):
        if i <= k:
            out.append(2 ** n * mchoose(n - d, i))
        elif i == k + 1:
            out.append(sum(2 ** (n - a) * mchoose(n - d - a + 1, k) for a in range(1, n - d + 1)))
        else:
            out.append(0)
    return out


def gc_q(k: int, d: int, n: int) -> list[int]:
    out = [2 ** (d - 1)]
    for i in range(1, d // 2 + 1):
        s = sum((-1) ** (j - 1) * mchoose(n - d, i - j) for j in range(1, i + 1))
        out.append(2 ** n * s + (-1) ** i * 2 ** d if i <= k + 1 else 0)
    return out


def gale_even(positions, m: int) -> bool:
    """Gale evenness: every maximal run of consecutive positions strictly inside 1..m is even."""
    pos = sorted(positions)
    runs, start = [], 0
    for i in range(1, len(pos) + 1):
        if i == len(pos) or pos[i] != pos[i - 1] + 1:
            runs.append((pos[start], pos[i - 1]))
            start = i
    return all((hi - lo + 1) % 2 == 0 for lo, hi in runs if lo > 1 and hi < m)


# -- cli-calls --------------------------------------------------------------------


def check_diamond_json(text: str, k: int, d: int, n: int, a: int) -> list[str]:
    obj = json.loads(text)
    problems = []
    if obj["dim"] != d - 2 or len(obj["vertices"]) != n:
        problems.append("diamond: wrong dimension or vertex count")
    f = f_vector(obj["facets"])
    if g_vector(h_vector(f, d - 1)) != diamond_g(k, d, n, a):
        problems.append("diamond: g-vector differs from the closed form")
    return problems


def check_cyclic_json(text: str, K: int, m: int) -> list[str]:
    facets = [sorted(int(v[1:]) for v in f) for f in json.loads(text)["facets"]]
    want = {S for S in combinations(range(1, m + 1), K) if gale_even(S, m)}
    if {tuple(f) for f in facets} != want or len(facets) != len(want):
        return ["cyclic: facets are not the Gale-even K-subsets"]
    return []


def check_fvec(text: str, diamond_text: str) -> list[str]:
    f = f_vector(json.loads(diamond_text)["facets"])
    obj = json.loads(text)
    return [] if obj == {"dim": len(f) - 2, "counts": f} else ["fvec: counts differ from the closure"]


def check_gvec(text: str, diamond_text: str, k: int, d: int, n: int, a: int) -> list[str]:
    f = f_vector(json.loads(diamond_text)["facets"])
    h = h_vector(f, d - 1)
    obj = json.loads(text)
    want = {"kind": "simplicial", "D": d - 1, "f": f, "h": h, "g": diamond_g(k, d, n, a),
            "dehn_sommerville": h == h[::-1]}
    return [] if obj == want and obj["dehn_sommerville"] else ["gvec: vectors differ"]


def check_q_report(text: str, k: int, d: int, n: int) -> list[str]:
    obj = json.loads(text)
    problems = []
    if not (obj["gsc_route_a"] == obj["gsc_route_b"] == gsc_q(k, d, n)):
        problems.append("q-report: gsc differs")
    if not (obj["gc_route_a"] == obj["gc_route_b"] == gc_q(k, d, n)):
        problems.append("q-report: gc differs")
    if (k, d, n) == (1, 6, 9) and obj["gc_route_a"] != [32, 448, 1088, 0]:
        problems.append("q-report: gc differs from the pinned (32, 448, 1088, 0)")
    if not (obj["gsc_routes_agree"] and obj["gc_routes_agree"]):
        problems.append("q-report: routes disagree")
    return problems


def check_ray(text: str, k: int, d: int, n_from: int, n_to: int) -> list[str]:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[2]) for r in rows] != list(range(n_from, n_to + 1)):
        return ["ray: wrong rows"]
    width = d // 2
    for r in rows:
        n = int(r[2])
        gc = gc_q(k, d, n)[1:]
        if [int(x) for x in r[3:3 + width]] != gc:
            return [f"ray: gc differs at n={n}"]
        denom = 2 ** n * mchoose(n - d, k)
        if denom:
            norm = [Fraction(v, denom) for v in gc]
            if [float(x) for x in r[3 + width:3 + 2 * width]] != [float(f"{float(x):.6g}") for x in norm]:
                return [f"ray: normalized row differs at n={n}"]
    return []


def check_stackedness(text: str, d: int, n: int) -> list[str]:
    obj = json.loads(text)
    diamonds = obj["diamonds"]
    if [dia["a"] for dia in diamonds] != list(range(1, n - d + 2)):
        return ["stackedness: wrong diamond indices"]
    if not all(dia["missing_agree"] and dia["facets_agree"] for dia in diamonds):
        return ["stackedness: predicted and brute-force faces disagree"]
    if n > d and obj["witness"] is None:
        return ["stackedness: witness missing"]
    return []
