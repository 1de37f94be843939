"""Coordinates, membership, and charts for the compactified configuration space.

A point of the ambient space is a triple of coordinate families: positions
x_i in R^m, pairwise unit directions u_ij, and pairwise-relative distance
ratios d_ijk in [0, inf].  Open configurations embed through
lift_configuration; the compactification is characterized inside the ambient
space by the conditions that membership_canonical verifies.  Boundary points
are organized by trees: expand_chart / invert_chart realize the chart maps
between tree-indexed stratum data and ambient coordinates; one private kernel
evaluates the chart for a stack of scale factors (2^-k for `degenerate`) at once.

Index conventions: labels are 1-based, u_ij is the unit vector from x_j
toward x_i (direction of x_i - x_j), and d_ijk = |x_i - x_j| / |x_i - x_k|.
One relative tolerance governs unit-vector equality (Euclidean distance),
vanishing of ratios, and point coincidence (relative to the configuration
scale max(1, max_i |x_i|)).

Storage: a point keeps its coordinates as three dense frozen arrays, x of
shape (n, m), U of shape (n, n, m) with U[i-1, j-1] = u_ij and a zero
diagonal, and (ambient points only) D of shape (n, n, n) with
D[i-1, j-1, k-1] = d_ijk and NaN wherever i, j, k are not distinct.  Library
code reads the arrays, so relabelling a point is one index gather.  The
attributes u and d are read-only mappings over the same arrays, keyed by
label tuples in itertools.permutations order, for callers that think in
coordinates: u[(i, j)] is a frozen row, d[(i, j, k)] a Python float.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import trees
from .numerics import nonneg_dependent_rows, require_unit, row_dots, row_norms, sign_distinct

Pair = tuple[int, int]
Index3 = tuple[int, int, int]

DEFAULT_TOL = 1e-9


def ordered_triples(n: int):
    return itertools.permutations(range(1, n + 1), 3)


# -- extended ratio arithmetic ----------------------------------------------


def xr_mul(a: float, b: float) -> float:
    """Product on [0, inf] with the boundary convention 0 * inf = 1."""
    if (a == 0.0 and math.isinf(b)) or (math.isinf(a) and b == 0.0):
        return 1.0
    return a * b


def extended_product_residual(values: Sequence[float]) -> float:
    """How far a product of extended ratios is from 1.

    For all-finite nonzero entries this is |prod - 1|.  Degenerate entries
    are limits of telescoping products that are identically 1, so the only
    checkable constraint is that a zero entry is accompanied by an infinite
    one and vice versa.
    """
    return float(_extended_residuals(np.asarray(values, dtype=float).reshape(1, -1))[0])


def _extended_residuals(values: np.ndarray) -> np.ndarray:
    """extended_product_residual of every row of a (T, k) array."""
    zeros = (values == 0.0).any(axis=1)
    infs = np.isinf(values).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.abs(values.prod(axis=1) - 1.0)
    return np.where(zeros | infs, np.where(zeros & infs, 0.0, np.inf), finite)


def _rel_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative gap |a - b| / max(1, |a|, |b|); 0 or inf when a value is infinite."""
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.where(np.isinf(a) | np.isinf(b), np.where(a == b, 0.0, np.inf), rel)


# -- index tables --------------------------------------------------------------


def _index_table(tuples, r: int) -> np.ndarray:
    # one int at a time: a list of tuples would hold the whole table as objects
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.intp).reshape(-1, r)


def _getter(keys: tuple) -> Callable[[Mapping], tuple]:
    """Look up every key of a mapping in one C-level call."""
    if len(keys) == 1:
        (key,) = keys
        return lambda mapping: (mapping[key],)
    if not keys:
        return lambda mapping: ()
    return operator.itemgetter(*keys)


class _Tables(NamedTuple):
    """0-based index tuples over n labels, each in itertools enumeration order."""

    pairs: np.ndarray  # ordered pairs
    upairs: np.ndarray  # unordered pairs i < j
    triples: np.ndarray  # ordered triples
    subsets3: np.ndarray  # i < j < k
    reciprocal: np.ndarray  # (i, j, k) with j < k, both != i
    cyclic: np.ndarray  # (i, j, k) and (i, k, j) for each i < j < k
    pair_index: dict[Pair, Pair]  # 1-based key -> 0-based index, ordered pairs
    triple_index: dict[Index3, Index3]  # the same for ordered triples
    get_pairs: Callable[[Mapping], tuple]
    get_triples: Callable[[Mapping], tuple]


@functools.lru_cache(maxsize=32)
def _tables(n: int) -> _Tables:
    idx = range(n)
    pair_index = {(i + 1, j + 1): (i, j) for i, j in itertools.permutations(idx, 2)}
    triple_index = {
        (i + 1, j + 1, k + 1): (i, j, k) for i, j, k in itertools.permutations(idx, 3)
    }
    return _Tables(
        pairs=_index_table(pair_index.values(), 2),
        upairs=_index_table(itertools.combinations(idx, 2), 2),
        triples=_index_table(triple_index.values(), 3),
        subsets3=_index_table(itertools.combinations(idx, 3), 3),
        reciprocal=_index_table(
            (
                (i, j, k)
                for i in idx
                for j, k in itertools.combinations([t for t in idx if t != i], 2)
            ),
            3,
        ),
        cyclic=_index_table(
            (c for i, j, k in itertools.combinations(idx, 3) for c in ((i, j, k), (i, k, j))),
            3,
        ),
        pair_index=pair_index,
        triple_index=triple_index,
        get_pairs=_getter(tuple(pair_index)),
        get_triples=_getter(tuple(triple_index)),
    )


@functools.lru_cache(maxsize=32)
def _quads(n: int, ordered: bool) -> np.ndarray:
    """Ordered 4-tuples or 4-subsets of n labels, 0-based: they grow as n^4
    and only the cocycle and four-consistency checks read them."""
    tuples = itertools.permutations if ordered else itertools.combinations
    return _index_table(tuples(range(n), 4), 4)


# -- configurations ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Configuration:
    """An ordered tuple of pairwise-distinct points in R^m."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must form an (n, m) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        i, j = np.nonzero(np.arange(len(pts))[:, None] < np.arange(len(pts)))
        same = np.flatnonzero((pts[i] == pts[j]).all(axis=1))
        if same.size:
            raise ValueError(f"points {i[same[0]] + 1} and {j[same[0]] + 1} coincide")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def as_configuration(c, m: int | None = None) -> Configuration:
    if isinstance(c, Configuration):
        return c
    pts = np.asarray(c, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if m in (None, 1) else pts.reshape(1, -1)
    return Configuration(pts)


def normalize(c) -> Configuration:
    """Translate the centroid to the origin and scale the largest norm to 1."""
    cfg = as_configuration(c)
    pts = cfg.points - cfg.points.mean(axis=0)
    top = float(np.linalg.norm(pts, axis=1).max())
    if top > 0.0:
        pts = pts / top
    return Configuration(pts)


def config_scale(x: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(x, axis=1).max()))


# -- manifolds ---------------------------------------------------------------


@dataclass(frozen=True)
class Euclidean:
    """Flat R^m."""

    m: int


@dataclass(frozen=True)
class Sphere:
    """The unit d-sphere embedded in R^(d+1)."""

    dim: int

    @property
    def m(self) -> int:
        return self.dim + 1

    def on_manifold_residual(self, x: np.ndarray) -> float:
        return abs(float(np.linalg.norm(x)) - 1.0)

    def tangency_residual(self, u: np.ndarray, x: np.ndarray) -> float:
        return abs(float(np.dot(u, x)))


ManifoldDescriptor = Euclidean | Sphere


# -- points ------------------------------------------------------------------


class _Coordinates(Mapping):
    """Read-only mapping view of U or D under 1-based label tuples, in
    itertools.permutations order; any other key raises KeyError."""

    __slots__ = ("_array", "_index")

    def __init__(self, array: np.ndarray, index: dict):
        self._array = array
        self._index = index

    def __getitem__(self, key):
        value = self._array[self._index[key]]
        return value if isinstance(value, np.ndarray) else float(value)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, eq=False)
class _Record:
    """Positions x (n, m) and directions U (n, n, m), both frozen."""

    x: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    @property
    def u(self) -> Mapping[Pair, np.ndarray]:
        return _Coordinates(self.U, _tables(self.n).pair_index)


@dataclass(frozen=True, eq=False)
class SimplicialPoint(_Record):
    """Positions plus pairwise unit directions; no ratio coordinates."""


@dataclass(frozen=True, eq=False)
class AmbientPoint(_Record):
    """Candidate point of the compactification: positions, directions, ratios."""

    D: np.ndarray

    @property
    def d(self) -> Mapping[Index3, float]:
        return _Coordinates(self.D, _tables(self.n).triple_index)


def _trusted(x: np.ndarray, U: np.ndarray, D: np.ndarray | None = None):
    """A point (simplicial if D is None) over arrays gathered from a
    validated point: they pass validation unchanged, so they are only frozen."""
    for arr in (x, U, D):
        if arr is not None:
            arr.flags.writeable = False
    return SimplicialPoint(x, U) if D is None else AmbientPoint(x, U, D)


def _positions(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2:
        raise ValueError("x must be an (n, m) array")
    return _finite(pts)


def _finite(x: np.ndarray) -> np.ndarray:
    """A frozen copy of the positions of one point or a stack, checked finite."""
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    x = x.copy()
    x.flags.writeable = False
    return x


def _gather_directions(u: Mapping[Pair, np.ndarray], n: int, m: int) -> np.ndarray:
    """The direction mapping as a dense U, looked up in one call."""
    t = _tables(n)
    try:
        vals = t.get_pairs(u)
    except KeyError:
        i, j = next(key for key in t.pair_index if key not in u)
        raise ValueError(f"missing direction u[{i},{j}]") from None
    rows = None
    try:
        rows = np.array(vals, dtype=float) if vals else np.zeros((0, m))
    except ValueError:
        pass
    if rows is None or rows.shape[1:] != (m,):
        for i, j in t.pair_index:
            if np.shape(u[(i, j)]) != (m,):
                raise ValueError(f"direction u[{i},{j}] has wrong dimension")
        raise ValueError("directions must be numeric vectors")
    U = np.zeros((n, n, m))
    i, j = t.pairs.T
    U[i, j] = rows
    return U


def _unit_directions(U: np.ndarray) -> np.ndarray:
    """Check and renormalize every u_ij of one U or a stack, then freeze U."""
    t = _tables(U.shape[-2])
    i, j = t.pairs.T
    nrm = row_norms(U[..., i, j, :])
    dev = np.abs(nrm - 1.0)
    bad = np.flatnonzero(~(dev <= 1e-6))
    if bad.size:
        a, b = t.pairs[bad[0] % len(t.pairs)] + 1
        raise ValueError(f"u[{a},{b}] is not a unit vector (norm {nrm.flat[bad[0]]})")
    off = dev > 1e-12
    if off.any():
        *lead, p = np.nonzero(off)
        U[(*lead, i[p], j[p])] /= nrm[off][:, None]
    U.flags.writeable = False
    return U


def _ratios(D: np.ndarray) -> np.ndarray:
    """Check that every d_ijk of one D or a stack lies in [0, inf], then freeze D."""
    t = _tables(D.shape[-1])
    bad = np.flatnonzero(~(D[(..., *t.triples.T)] >= 0.0))
    if bad.size:
        i, j, k = t.triples[bad[0] % len(t.triples)] + 1
        raise ValueError(f"ratio d[{i},{j},{k}] must lie in [0, inf]")
    D.flags.writeable = False
    return D


def _checked(x: np.ndarray, U: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, ...]:
    """ambient_point's array check of one point or a stack, for coordinates
    computed here: x copied, all three frozen."""
    return _finite(x), _unit_directions(U), _ratios(D)


def ambient_point(x, u: Mapping[Pair, np.ndarray], d: Mapping[Index3, float]) -> AmbientPoint:
    """Validate index completeness, renormalize directions, freeze arrays."""
    pts = _positions(x)
    n, m = pts.shape
    U = _unit_directions(_gather_directions(u, n, m))
    t = _tables(n)
    try:
        vals = np.array(t.get_triples(d), dtype=float)
    except KeyError:
        i, j, k = next(key for key in t.triple_index if key not in d)
        raise ValueError(f"missing ratio d[{i},{j},{k}]") from None
    D = np.full((n, n, n), np.nan)
    D[tuple(t.triples.T)] = vals
    return AmbientPoint(pts, U, _ratios(D))


def lift_configuration(c) -> AmbientPoint:
    """Attach exact direction and ratio coordinates to an open configuration."""
    cfg = as_configuration(c)
    pts, n = cfg.points, cfg.n
    i, j = _tables(n).upairs.T
    # huge coordinates overflow to inf and NaN here; _checked rejects them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        U, nrm = _pair_directions(pts[i] - pts[j], n)
        zero = np.flatnonzero(nrm == 0.0)
        if zero.size:
            raise ValueError(f"points {i[zero[0]] + 1} and {j[zero[0]] + 1} coincide")
        dist = np.zeros((n, n))
        dist[i, j] = dist[j, i] = nrm
        D = np.full((n, n, n), np.nan)
        i, j, k = _tables(n).triples.T
        D[i, j, k] = dist[i, j] / dist[i, k]
    return AmbientPoint(*_checked(pts, U, D))


def _pair_directions(diff: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """U and the norms from the differences (..., pairs, m) of the pairs i < j
    (combinations order); u_ji is the negated u_ij, so a zero component keeps its sign."""
    i, j = _tables(n).upairs.T
    nrm = row_norms(diff)
    U = np.zeros((*diff.shape[:-2], n, n, diff.shape[-1]))
    u = diff / nrm[..., None]
    U[..., i, j, :] = u
    U[..., j, i, :] = -u
    return U, nrm


def _relabel(p: _Record, values: Sequence[int]):
    """x, U and D (None for a simplicial point) of p with label i carrying
    the data of label values[i-1]: one index gather each."""
    s = np.asarray(values, dtype=np.intp) - 1
    D = p.D[np.ix_(s, s, s)] if isinstance(p, AmbientPoint) else None
    return p.x[s], p.U[np.ix_(s, s)], D


def permute(sigma, p: _Record):
    """Relabel indices: entry i of the result carries the data of sigma(i).

    Works on ambient and simplicial points, returning the same kind.
    """
    values = tuple(sigma.values) if isinstance(sigma, trees.SetMap) else tuple(sigma)
    if sorted(values) != list(range(1, p.n + 1)):
        raise ValueError("sigma is not a permutation of the labels")
    return _trusted(*_relabel(p, values))


# -- law of sines ------------------------------------------------------------


def ratio_from_directions(u_ij, u_ji, u_jk, u_kj, u_ik, u_ki, tol: float = DEFAULT_TOL):
    """Recover d_ijk from the six directions among three indices, when possible.

    Returns the law-of-sines value when the three direction lines are
    distinct, 0.0 in the two-point-cluster case u_ik = u_jk != +-u_ij, and
    None when the directions are collinear and the ratio is unconstrained.
    """
    vecs = [require_unit(v, name)[None] for v, name in (
        (u_ij, "u_ij"), (u_ji, "u_ji"), (u_jk, "u_jk"),
        (u_kj, "u_kj"), (u_ik, "u_ik"), (u_ki, "u_ki"),
    )]
    val = float(_law_of_sines(*vecs, tol)[0])
    return None if math.isnan(val) else val


def _law_of_sines(u_ij, u_ji, u_jk, u_kj, u_ik, u_ki, tol: float) -> np.ndarray:
    """ratio_from_directions on (T, m) rows of directions; NaN marks None."""
    generic = (
        sign_distinct(u_ij, u_jk, tol)
        & sign_distinct(u_ij, u_ik, tol)
        & sign_distinct(u_jk, u_ik, tol)
    )
    # sin of the enclosed angle via an orthogonal rejection; this equals
    # sqrt(1 - (a.b)^2) but stays accurate for nearly parallel directions
    sin_k = row_norms(u_ki - row_dots(u_ki, u_kj)[:, None] * u_kj)
    sin_j = row_norms(u_ji - row_dots(u_ji, u_jk)[:, None] * u_jk)
    with np.errstate(divide="ignore", invalid="ignore"):
        sines = np.where(sin_j == 0.0, np.nan, sin_k / sin_j)
    cluster = (row_norms(u_ik - u_jk) <= tol) & sign_distinct(u_ij, u_ik, tol)
    return np.where(generic, sines, np.where(cluster, 0.0, np.nan))


# -- membership --------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    condition: str
    indices: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership check: empty violation list means pass."""

    violations: tuple[Violation, ...]
    max_residual: float

    @property
    def passed(self) -> bool:
        return not self.violations


# A check block: condition name (one for all rows, or one per row), 0-based
# index rows, residuals, and the bound they must not exceed (None: tol).
_Block = tuple[str | np.ndarray, np.ndarray, np.ndarray, float | np.ndarray | None]


def _verdict(blocks: Sequence[_Block], tol: float) -> Verdict:
    """Turn residual blocks into a verdict, keeping block and row order.

    max_residual is the largest residual over every row of every block.
    """
    violations: list[Violation] = []
    worst = 0.0
    for condition, index, residual, bound in blocks:
        if residual.size == 0:
            continue
        top = float(np.fmax.reduce(residual))
        if top > worst:
            worst = top
        bad = np.flatnonzero(residual > (tol if bound is None else bound))
        if not bad.size:
            continue
        names = [condition] * bad.size if isinstance(condition, str) else condition[bad].tolist()
        rows = (index[bad] + 1).tolist()
        for name, row, res in zip(names, rows, residual[bad].tolist()):
            violations.append(Violation(name, tuple(row), res))
    return Verdict(tuple(violations), worst)


def _distances(x: np.ndarray) -> np.ndarray:
    return row_norms(x[:, None, :] - x[None, :, :])


def _shared_blocks(
    prefixes: tuple[str, str],
    x: np.ndarray,
    U: np.ndarray,
    dist: np.ndarray,
    near: float,
    tol: float,
) -> tuple[_Block, _Block, _Block]:
    """The checks both variants make: direction consistency where points
    differ, antisymmetry, and triangle dependence, named with the variant's
    condition prefixes."""
    t = _tables(x.shape[0])
    i, j = t.pairs.T
    far = dist[i, j] > near
    i, j = i[far], j[far]
    expected = (x[i] - x[j]) / dist[i, j][:, None]
    direction = (f"{prefixes[0]}-direction", t.pairs[far], row_norms(U[i, j] - expected), None)
    i, j = t.upairs.T
    antisymmetry = (f"{prefixes[1]}-antisymmetry", t.upairs, row_norms(U[i, j] + U[j, i]), None)
    i, j, k = t.subsets3.T
    ok, res = nonneg_dependent_rows(np.stack([U[i, j], U[j, k], U[k, i]], axis=1), tol)
    res = np.where(ok, 0.0, np.maximum(res, tol * 2))
    dependence = (f"{prefixes[1]}-dependence", t.subsets3, res, None)
    return direction, antisymmetry, dependence


def _sphere_blocks(
    prefix: str, manifold: Sphere, x: np.ndarray, U: np.ndarray, dist: np.ndarray, near: float
) -> list[_Block]:
    """On-manifold clause for every point, tangency for every coincident pair."""
    t = _tables(x.shape[0])
    on = np.array([manifold.on_manifold_residual(row) for row in x])
    close = t.pairs[dist[t.pairs[:, 0], t.pairs[:, 1]] <= near]
    tangent = np.array([manifold.tangency_residual(U[i, j], x[i]) for i, j in close])
    return [
        (f"{prefix}-on-manifold", np.arange(len(x))[:, None], on, None),
        (f"{prefix}-tangency", close, tangent, None),
    ]


def _check_manifold(manifold: ManifoldDescriptor | None, m: int) -> ManifoldDescriptor:
    if manifold is None:
        return Euclidean(m)
    if isinstance(manifold, Sphere) and manifold.m != m:
        raise ValueError("sphere dimension does not match the point")
    return manifold


def membership_canonical(
    a: AmbientPoint, manifold: ManifoldDescriptor | None = None, tol: float = DEFAULT_TOL
) -> Verdict:
    """Verify the coordinate conditions characterizing the compactification.

    Checks, in order: consistency of u and d with the positions where points
    differ (condition 1), the law-of-sines determination of d and its
    vanishing on two-point clusters (condition 2), antisymmetry and
    non-negative dependence of direction triangles (condition 3), the
    extended-ratio product identities (condition 4), and for a sphere the
    on-manifold and tangency clauses (condition 5).

    Violations are reported in that order: 1-direction, then 1-ratio and
    1-ratio-vanishing interleaved by triple, 2-law-of-sines and
    2-cluster-zero interleaved by triple, 3-antisymmetry, 3-dependence,
    4-reciprocal, 4-cyclic, 4-cocycle, 5-on-manifold, 5-tangency.  Within a
    condition, indices follow itertools enumeration order (permutations for
    ordered tuples, combinations for subsets).  Each condition runs as one
    array kernel over the point's U and D, read through index tables cached
    per n.
    """
    manifold = _check_manifold(manifold, a.m)
    t = _tables(a.n)
    U, D = a.U, a.D
    i, j, k = t.triples.T
    d = D[i, j, k]
    dist = _distances(a.x)
    near = tol * config_scale(a.x)
    direction, antisymmetry, dependence = _shared_blocks(("1", "3"), a.x, U, dist, near, tol)

    # condition 1: ratios against positions where x_i and x_k differ
    keep = dist[i, k] > near
    dij, dik, dk = dist[i, j][keep], dist[i, k][keep], d[keep]
    apart = dij > near
    ratio = (
        np.where(apart, "1-ratio", "1-ratio-vanishing"),
        t.triples[keep],
        np.where(apart, _rel_diffs(dk, dij / dik), np.abs(dk)),
        None,
    )

    # condition 2: directions determine ratios away from collinearity
    val = _law_of_sines(U[i, j], U[j, i], U[j, k], U[k, j], U[i, k], U[k, i], tol)
    keep = ~np.isnan(val)
    val = val[keep]
    sines = (
        np.where(val != 0.0, "2-law-of-sines", "2-cluster-zero"),
        t.triples[keep],
        _rel_diffs(d[keep], val),
        None,
    )

    # condition 4: product identities for extended ratios
    perms4 = _quads(a.n, True)

    def products(table: np.ndarray, *slots: tuple[int, int, int]) -> np.ndarray:
        factors = [D[tuple(table[:, s] for s in slot)] for slot in slots]
        return _extended_residuals(np.stack(factors, axis=1))

    blocks = [
        direction, ratio, sines, antisymmetry, dependence,
        ("4-reciprocal", t.reciprocal, products(t.reciprocal, (0, 1, 2), (0, 2, 1)), None),
        ("4-cyclic", t.cyclic, products(t.cyclic, (0, 1, 2), (1, 2, 0), (2, 0, 1)), None),
        ("4-cocycle", perms4, products(perms4, (0, 1, 2), (0, 2, 3), (0, 3, 1)), None),
    ]
    # condition 5: submanifold clauses
    if isinstance(manifold, Sphere):
        blocks += _sphere_blocks("5", manifold, a.x, U, dist, near)
    return _verdict(blocks, tol)


# -- stratum classification ---------------------------------------------------


def stratum_tree(a: AmbientPoint, tol: float = DEFAULT_TOL) -> trees.FTree:
    """The tree of the stratum containing the point.

    Exclusions are read off vanishing ratios at the given tolerance; a trunk
    is added when all positions coincide relative to the configuration scale.
    Raises if the vanishing pattern violates the exclusion axioms, which
    signals a non-member point or an unsuitable tolerance.
    """
    rel = {((i, j), k) for i, j, k in (np.argwhere(a.D <= tol) + 1).tolist()}
    return trees.tree_from_exclusions(rel, a.n, _is_trunk(a.x, tol))


def _is_trunk(x: np.ndarray, tol: float) -> bool:
    """Whether all positions coincide relative to the configuration scale."""
    near = tol * config_scale(x)
    i, j = _tables(len(x)).upairs.T
    return bool((row_norms(x[i] - x[j]) <= near).all())


# -- stratum data and charts ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class StratumPoint:
    """Chart-domain data: per-vertex configurations plus scale parameters.

    root_config holds one point of R^m per root edge (pairwise distinct, in
    coincident-edge order); configs[v] holds the normalized configuration
    (centroid 0, max norm 1) assigned to internal vertex v, one row per edge
    of E(v); scales[v] in [0, r) is the expansion parameter of v.
    """

    tree: trees.FTree
    root_config: np.ndarray
    configs: dict[int, np.ndarray]
    scales: dict[int, float]

    def __post_init__(self):
        t = self.tree
        root = np.asarray(self.root_config, dtype=float)
        if root.shape[0] != len(t.children[0]):
            raise ValueError("root configuration size does not match root valence")
        m = root.shape[1] if root.ndim == 2 else 0
        if root.ndim != 2 or m < 1:
            raise ValueError("root configuration must be an (#v0, m) array")
        if not np.isfinite(root).all():
            raise ValueError("root configuration must be finite")
        q = _min_pairwise(root)
        if q == 0.0:
            raise ValueError("root configuration has coincident points")
        configs = {}
        for v in t.internal_vertices:
            if v not in self.configs:
                raise ValueError(f"missing configuration for vertex {v}")
            cfg = np.asarray(self.configs[v], dtype=float)
            if cfg.shape != (len(t.children[v]), m):
                raise ValueError(f"configuration at vertex {v} has wrong shape")
            if not np.isfinite(cfg).all():
                raise ValueError(f"configuration at vertex {v} must be finite")
            if float(np.linalg.norm(cfg.mean(axis=0))) > 1e-8:
                raise ValueError(f"configuration at vertex {v} is not centered")
            if abs(float(np.linalg.norm(cfg, axis=1).max()) - 1.0) > 1e-8:
                raise ValueError(f"configuration at vertex {v} is not max-norm 1")
            gap = _min_pairwise(cfg)
            if gap == 0.0:
                raise ValueError(f"configuration at vertex {v} has coincident points")
            q = min(q, gap)
            cfg = cfg.copy()
            cfg.flags.writeable = False
            configs[v] = cfg
        bound = _scale_bound(q)
        scales = {}
        for v in t.internal_vertices:
            if v not in self.scales:
                raise ValueError(f"missing scale for vertex {v}")
            tv = float(self.scales[v])
            if not 0.0 <= tv < bound + 1e-12:
                raise ValueError(
                    f"scale {tv} at vertex {v} outside [0, {bound})"
                )
            scales[v] = tv
        root = root.copy()
        root.flags.writeable = False
        object.__setattr__(self, "root_config", root)
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "scales", scales)

    @property
    def m(self) -> int:
        return self.root_config.shape[1]


def _min_pairwise(rows: np.ndarray) -> float:
    """Smallest distance between two rows (inf for fewer than two); NaN
    distances are skipped."""
    i, j = _tables(len(rows)).upairs.T
    return float(np.fmin.reduce(row_norms(rows[i] - rows[j]), initial=math.inf))


def scale_bound(tree: trees.FTree, root_config, configs) -> float:
    """Largest admissible scale parameter for the given stratum data."""
    rows = (root_config, *(configs[v] for v in tree.internal_vertices))
    return _scale_bound(min(_min_pairwise(np.asarray(r, dtype=float)) for r in rows))


def _scale_bound(q: float) -> float:
    """scale_bound from the smallest pairwise distance q in the stratum data."""
    if math.isinf(q):
        return 1.0
    third = q / 3.0
    return third / (1.0 + third)


def _expansion_positions(s: StratumPoint, factors: np.ndarray) -> np.ndarray:
    """P[k, v, i-1], the position of leaf i in the expansion of the subtree at
    vertex v with the scale at v set to 1 and the others times factors[k] (zero
    for leaves not under v).  Offsets are summed top down, in the rounding order
    of a walk to the leaf."""
    t = s.tree
    cfg = {0: s.root_config, **s.configs}
    scaled = {v: (tv * factors)[:, None, None] for v, tv in s.scales.items()}
    P = np.zeros((t.num_vertices, t.n, len(factors), s.m))
    for top in (0, *t.internal_vertices):
        pos = {top: np.zeros(s.m)}
        sv = {top: 1.0}
        stack = [top]
        leaves = P[top]
        while stack:
            w = stack.pop()
            rows = sv[w] * cfg[w] + pos[w]
            for idx, c in enumerate(t.children[w]):
                if c > t.n:
                    pos[c] = rows[..., idx, None, :]
                    sv[c] = sv[w] * scaled[c]
                    stack.append(c)
                else:
                    leaves[c - 1] = rows[..., idx, :]
    return P.transpose(2, 0, 1, 3)


def _join_tables(t: trees.FTree) -> tuple[np.ndarray, np.ndarray]:
    """The join of every leaf pair i < j (combinations order) and of every
    ordered leaf triple (permutations order), as vertex index arrays."""
    tab = _tables(t.n)
    masks, depth = trees._structure(t)
    ids = np.arange(t.n + 1, t.num_vertices)
    bits = np.array(masks[t.n + 1 :], dtype=object)[:, None] >> np.arange(1, t.n + 1)
    inside = (bits & 1).astype(bool)  # [v - n - 1, i - 1]: leaf i lies over vertex v
    # a pair's join is the deepest internal vertex over both leaves, which is
    # the last in canonical numbering, else the root
    i, j = tab.upairs.T
    pair_join = (ids[:, None] * (inside[:, i] & inside[:, j])).max(axis=0, initial=0)
    J = np.zeros((t.n, t.n), dtype=np.intp)
    J[i, j] = J[j, i] = pair_join
    # the join of three leaves is the shallowest of the pairwise joins
    i, j, k = tab.triples.T
    cand = np.stack([J[i, j], J[i, k], J[j, k]], axis=1)
    W = cand[np.arange(len(cand)), np.argmin(np.array(depth)[cand], axis=1)]
    return pair_join, W


def _expand(s: StratumPoint, factors: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The chart images of s with every scale times each of K factors in [0, 1]
    (so still admissible): checked, frozen stacks x, U and D with a leading K axis."""
    n = s.tree.n
    t = _tables(n)
    pair_join, triple_join = _join_tables(s.tree)
    P = _expansion_positions(s, np.asarray(factors, dtype=float))
    i, j = t.upairs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        U, nrm = _pair_directions(P[:, pair_join, i] - P[:, pair_join, j], n)
    if (nrm == 0.0).any():
        raise ValueError("cannot normalize a zero vector")
    i, j, k = t.triples.T
    w = triple_join
    Pi = P[:, w, i]
    num = row_norms(Pi - P[:, w, j])
    den = row_norms(Pi - P[:, w, k])
    D = np.full((len(P), n, n, n), np.nan)
    D[:, i, j, k] = np.divide(num, den, out=np.full(num.shape, math.inf), where=den > 0.0)
    return _checked(P[:, 0], U, D)


def expand_chart(s: StratumPoint) -> AmbientPoint:
    """Evaluate the chart map on stratum data.

    Positions follow the root-anchored expansion; each direction or ratio is
    read off the expansion of the subtree at the join of its indices, with
    the scale at the join reset to one.  With all scales positive the output
    equals lift_configuration of the expanded positions; with some scales
    zero it is the corresponding boundary point.
    """
    x, U, D = _expand(s, [1.0])
    return AmbientPoint(x[0], U[0], D[0])


def _cluster_centers(t: trees.FTree, masks: list[int], top: int, leaf_pos: dict[int, np.ndarray]):
    """Recursive child averages for every vertex under `top`: top and the
    internal vertices whose leaf set lies in top's, children before parents,
    which canonical numbering puts last."""
    centers = dict(leaf_pos)
    below = masks[top]
    for v in (*range(t.num_vertices - 1, t.n, -1), 0):
        if v == top or (v and masks[v] & below == masks[v]):
            centers[v] = np.mean([centers[c] for c in t.children[v]], axis=0)
    return centers


def invert_chart(T: trees.FTree, a: AmbientPoint, tol: float = DEFAULT_TOL) -> StratumPoint:
    """Recover stratum data from a point in the closed chart region of T.

    Root data come from recursive cluster averages of the positions; the
    configuration at an internal vertex is rebuilt from directions and
    ratios anchored at the two smallest representative leaves, then
    recentred and rescaled; the scale of a vertex is the ratio of its
    cluster extent to its parent's, measured in the parent's frame (the
    root's extent counts as 1).
    """
    if T.n != a.n:
        raise ValueError("tree and point have different index counts")
    observed = stratum_tree(a, tol)
    if not trees.leq(T, observed):
        raise ValueError("point lies outside the chart region of the tree")

    masks = trees._structure(T)[0]
    leaf_pos = {i: np.asarray(a.x[i - 1], dtype=float) for i in range(1, T.n + 1)}
    frames: dict[int, dict[int, np.ndarray]] = {0: _cluster_centers(T, masks, 0, leaf_pos)}
    for v in T.internal_vertices:
        labs = sorted(T.leaves_over[v])
        i0 = min(T.leaves_over[T.children[v][0]])
        k0 = min(T.leaves_over[T.children[v][1]])
        z = {i0: np.zeros(a.m)}
        for j in labs:
            if j == i0:
                continue
            length = 1.0 if j == k0 else a.D[i0 - 1, j - 1, k0 - 1]
            if math.isinf(length):
                raise ValueError("point lies outside the chart region of the tree")
            z[j] = length * a.U[j - 1, i0 - 1]
        frames[v] = _cluster_centers(T, masks, v, z)

    root_config = np.stack([frames[0][c] for c in T.children[0]])
    configs: dict[int, np.ndarray] = {}
    scales: dict[int, float] = {}
    for v in T.internal_vertices:
        frame = frames[v]
        rows = np.stack([frame[c] for c in T.children[v]]) - frame[v]
        extent = float(np.linalg.norm(rows, axis=1).max())
        if extent == 0.0:
            raise ValueError(f"cluster at vertex {v} is degenerate")
        configs[v] = rows / extent
        parent = T.parent[v]
        pframe = frames[parent]
        d_v = max(
            float(np.linalg.norm(pframe[c] - pframe[v])) for c in T.children[v]
        )
        if parent == 0:
            scales[v] = d_v
        else:
            d_p = max(
                float(np.linalg.norm(pframe[c] - pframe[parent]))
                for c in T.children[parent]
            )
            scales[v] = d_v / d_p
    return StratumPoint(T, root_config, configs, scales)


def stratum_sample(T: trees.FTree, m: int, seed: int) -> StratumPoint:
    """Deterministic pseudo-random stratum data with comfortable margins."""
    if m < 1:
        raise ValueError("ambient dimension must be at least 1")
    rng = np.random.default_rng(seed)
    margin = 0.1

    def draw(k: int) -> np.ndarray:
        for _ in range(10_000):
            pts = rng.uniform(-1.0, 1.0, size=(k, m))
            pts = pts - pts.mean(axis=0)
            top = float(np.linalg.norm(pts, axis=1).max())
            if top == 0.0:
                continue
            pts = pts / top
            if k == 1 or _min_pairwise(pts) >= margin:
                return pts
        raise RuntimeError("sampling failed to reach the separation margin")

    k0 = len(T.children[0])
    root = rng.normal(size=(1, m)) if k0 == 1 else draw(k0)
    configs = {v: draw(len(T.children[v])) for v in T.internal_vertices}
    bound = scale_bound(T, root, configs)
    scales = {v: float(rng.uniform(0.0, bound)) for v in T.internal_vertices}
    return StratumPoint(T, root, configs, scales)


# -- comparison helpers --------------------------------------------------------


def compactified_gap(a: float, b: float) -> float:
    """Distance of two ratios in the bounded chart r -> r/(1+r) of [0, inf]."""

    def chart(v: float) -> float:
        return 1.0 if math.isinf(v) else v / (1.0 + v)

    return abs(chart(a) - chart(b))


def ambient_distance(a: AmbientPoint, b: AmbientPoint) -> float:
    """Max-norm distance between coordinate families.

    Ratio coordinates are compared in the bounded chart of [0, inf], the
    topology in which degenerating families converge to boundary points.
    """
    if a.n != b.n or a.m != b.m:
        raise ValueError("points have different index sets")
    t = _tables(a.n)
    out = float(np.abs(a.x - b.x).max()) if a.n else 0.0
    i, j = t.pairs.T
    directions = row_norms(a.U[i, j] - b.U[i, j])
    i, j, k = t.triples.T
    with np.errstate(invalid="ignore"):
        ca, cb = (np.where(np.isinf(v), 1.0, v / (1.0 + v)) for v in (a.D[i, j, k], b.D[i, j, k]))
    return max(out, float(directions.max(initial=0.0)), float(np.abs(ca - cb).max(initial=0.0)))
