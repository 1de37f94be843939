"""Independent oracles and input generators for the benchmark.

Nothing here calls confspace: counts come from recurrences and closed
forms, tree structure is read straight off the canonical parent array, and
geometric checks recompute directions and gaps with plain numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# -- counting ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _total_partitions(n: int) -> tuple[int, int]:
    """(T(n), S(n)): OEIS A000311 and the sum over all set partitions of [n]
    of the product of T over the blocks.  S(n) = 2 T(n) for n >= 2, and
    splitting off the block holding element n gives
    S(n) = sum_k C(n-1, k-1) T(k) S(n-k)."""
    if n == 0:
        return 0, 1
    if n == 1:
        return 1, 1
    t = sum(
        math.comb(n - 1, k - 1) * _total_partitions(k)[0] * _total_partitions(n - k)[1]
        for k in range(1, n)
    )
    return t, 2 * t


def a000311(n: int) -> int:
    """Schroeder's fourth problem: total partitions of n labelled leaves."""
    return _total_partitions(n)[0]


def a001003(n: int) -> int:
    """Little Schroeder numbers, via Narayana numbers: sum_k N(n,k) 2^(k-1)."""
    if n == 0:
        return 1
    return sum(
        math.comb(n, k) * math.comb(n, k - 1) // n * 2 ** (k - 1)
        for k in range(1, n + 1)
    )


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def kirkman_cayley(k: int) -> tuple[int, ...]:
    """Faces of the k-th associahedron by dimension d = 0..k (OEIS A033282):
    dissections of a (k+3)-gon by j = k - d diagonals."""
    return tuple(
        math.comb(k, k - d) * math.comb(2 * k + 2 - d, k - d) // (k - d + 1)
        for d in range(k + 1)
    )


def tree_count(n: int, variant: str) -> int:
    if variant == "full":
        return 1 if n == 1 else 2 * a000311(n)
    if variant == "trunk":
        return a000311(n)
    return a001003(n - 1)


# -- tree structure from the parent array -----------------------------------------


def vertex_leaves(n: int, parent) -> dict[int, frozenset[int]]:
    """Leaf set over each internal (non-root, non-leaf) vertex."""
    over: dict[int, set[int]] = {}
    for leaf in range(1, n + 1):
        v = parent[leaf]
        while v > 0:
            over.setdefault(v, set()).add(leaf)
            v = parent[v]
    return {v: frozenset(s) for v, s in over.items()}


def clusters(n: int, parent) -> frozenset[frozenset[int]]:
    """Leaf sets over the internal vertices: the tree's nested collection."""
    return frozenset(vertex_leaves(n, parent).values())


def exclusions(sets, n: int) -> frozenset:
    """((i, j), k) with i, j inside a cluster that misses k."""
    out = set()
    for a in sets:
        for i in a:
            for j in a:
                if i != j:
                    for k in range(1, n + 1):
                        if k not in a:
                            out.add(((i, j), k))
    return frozenset(out)


def random_hierarchy(rng, n: int, codim: int) -> list[frozenset[int]]:
    """`codim` clusters of a random binary hierarchy on 1..n (full set allowed).

    Random agglomeration yields n - 1 nested clusters; any subset of a
    laminar family is laminar, so a random subset of the wanted size is a
    valid nested collection.
    """
    if not 0 <= codim <= max(n - 1, 0):
        raise ValueError("codim out of range")
    blocks = [frozenset([i]) for i in range(1, n + 1)]
    merged = []
    while len(blocks) > 1:
        a, b = sorted(rng.choice(len(blocks), size=2, replace=False), reverse=True)
        new = blocks.pop(a) | blocks.pop(b)
        blocks.append(new)
        merged.append(new)
    pick = rng.choice(len(merged), size=codim, replace=False) if codim else []
    return [merged[i] for i in sorted(pick)]


def random_planar_hierarchy(rng, n: int, codim: int) -> list[frozenset[int]]:
    """`codim` interval clusters of a random bracketing of 1..n, full set excluded."""
    if not 0 <= codim <= n - 2:
        raise ValueError("codim out of range")
    blocks = [(i, i) for i in range(1, n + 1)]
    merged = []
    while len(blocks) > 2:
        a = int(rng.integers(len(blocks) - 1))
        lo, hi = blocks[a][0], blocks[a + 1][1]
        blocks[a : a + 2] = [(lo, hi)]
        merged.append(frozenset(range(lo, hi + 1)))
    pick = rng.choice(len(merged), size=codim, replace=False) if codim else []
    return [merged[i] for i in sorted(pick)]


# -- configurations and geometry ------------------------------------------------------


def sample_config(rng, n: int, m: int) -> np.ndarray:
    """n points in R^m on a jittered grid, then scaled and shifted.

    Grid cells keep points apart without rejection sampling, so no draw is
    ever discarded.
    """
    side = 1
    while side**m < n:
        side += 1
    cells = rng.permutation(side**m)[:n]
    coords = np.stack(np.unravel_index(cells, (side,) * m), axis=1).astype(float)
    pts = (coords + 0.2 + 0.6 * rng.random((n, m))) * (2.0 / side) - 1.0
    scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return pts * scale + rng.normal(size=m)


def directions(x: np.ndarray) -> np.ndarray:
    """u[i, j] = (x_i - x_j) / |x_i - x_j| with zero rows on the diagonal."""
    diff = x[:, None, :] - x[None, :, :]
    norm = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(norm, 1.0)
    return diff / norm[:, :, None]


def direction_error(x: np.ndarray, u: dict) -> float:
    """Largest distance between u[(i, j)] and the direction from x_j to x_i."""
    ref = directions(np.asarray(x, dtype=float))
    return max(
        (float(np.linalg.norm(np.asarray(vec) - ref[i - 1, j - 1])) for (i, j), vec in u.items()),
        default=0.0,
    )


def _chart(v: float) -> float:
    return 1.0 if math.isinf(v) else v / (1.0 + v)


def ambient_gap(x1, u1, d1, x2, u2, d2) -> float:
    """Max-norm gap of two coordinate records; ratios in the chart r/(1+r)."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    require(x1.shape == x2.shape and u1.keys() == u2.keys() and d1.keys() == d2.keys(),
            "coordinate records have different index sets")
    out = float(np.abs(x1 - x2).max()) if x1.size else 0.0
    for key, vec in u1.items():
        out = max(out, float(np.linalg.norm(np.asarray(vec) - np.asarray(u2[key]))))
    for key, val in d1.items():
        out = max(out, abs(_chart(float(val)) - _chart(float(d2[key]))))
    return out


def stratum_gap(root1, configs1, scales1, root2, configs2, scales2) -> float:
    """Max-norm gap of two chart-domain records keyed by the same vertices."""
    require(configs1.keys() == configs2.keys() and scales1.keys() == scales2.keys(),
            "stratum records have different vertex sets")
    out = float(np.abs(np.asarray(root1) - np.asarray(root2)).max())
    for v, cfg in configs1.items():
        out = max(out, float(np.abs(np.asarray(cfg) - np.asarray(configs2[v])).max()))
    for v, val in scales1.items():
        out = max(out, abs(float(val) - float(scales2[v])))
    return out
