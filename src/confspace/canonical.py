"""Coordinates, membership, and charts for the compactified configuration space.

A point of the ambient space is a triple of coordinate families: positions
x_i in R^m, pairwise unit directions u_ij, and pairwise-relative distance
ratios d_ijk in [0, inf].  Open configurations embed through
lift_configuration; the compactification is characterized inside the ambient
space by the conditions that membership_canonical verifies; on a submanifold
of R^m the manifold descriptor (Euclidean, Sphere) adds its own clauses as
check blocks, and its dimension must match the point's.  Boundary points
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
coordinates: u[(i, j)] is a frozen row, d[(i, j, k)] a Python float.  A
view reads a key by arithmetic, label minus one (_Labels), and holds no
table of keys; the index tables the kernels gather along are built per n
from boolean masks (_Tables).  Only the checking readers make records, and
one builder (_record) sets the fields of every record and freezes its
arrays, for them and for pickle and copy alike; AmbientPoint and
SimplicialPoint cannot be called.

Stratum data is a dense record too: one frozen (E, m) array C with a row per
non-root edge (the root's rows first, then each internal vertex's children)
and a (V,) array S of scales; root_config is a view of C, and configs and
scales are read-only mappings over C and S keyed by internal vertex.  Every
table that depends only on a tree's shape (the row layout, sibling pairs,
joins, expansion paths, and invert_chart's frames, centre groups and
cluster masks) is built once into the tree's chart plan, held in a bounded
cache: a chart round trip reads its tree's plan seven times in a row, so a
small cache hits.  The plan is read off per-vertex facts: each vertex's root
path and its rows give the expansion paths, each block vertex's subtree and
height number the states and group the centres, its leaf set gives the
joins, frames and cluster masks, and each internal vertex's children give
the spans.  invert_chart decides whether a point lies in the tree's chart
region on those masks and the point's vanishing ratios; only a point it
refuses is classified, for stratum_tree's error message.
Each fact about stratum data is checked once, where the data comes in.  A
record built from mappings and one that invert_chart computes from a point
pass the same check (_check_stratum): the rows in one array pass, then the
scales against the bound of the rows' smallest sibling gap.  scale_bound
checks the rows the same way.  stratum_sample draws data that meets every
condition by construction, so it only computes the bound for its scales.
The chart kernels do not check their own output again: of ambient_point's
checks, only the unit check of the directions can fire on the image of
checked data, and it runs (_expand says why the others cannot).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import trees
from .numerics import _UNIT_EXACT, _UNIT_SLACK, _float, _float_array, nonneg_dependent_rows
from .numerics import require_unit, row_dots, row_norms, sign_distinct

Pair = tuple[int, int]
Index3 = tuple[int, int, int]

DEFAULT_TOL = 1e-9


# -- extended ratio arithmetic ----------------------------------------------


def _extended_residuals(factors: Sequence[np.ndarray]) -> np.ndarray:
    """How far the entrywise product of k length-T arrays of extended ratios is from 1.

    For all-finite nonzero entries this is |prod - 1|, multiplied left to
    right.  Degenerate entries are limits of telescoping products that are
    identically 1, so the only checkable constraint is that a zero entry is
    accompanied by an infinite one and vice versa.  The factors come as
    separate arrays because reducing a (T, k) array over its short rows
    costs several times more.
    """
    zeros = functools.reduce(np.logical_or, [f == 0.0 for f in factors])
    infs = functools.reduce(np.logical_or, [np.isinf(f) for f in factors])
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.abs(functools.reduce(np.multiply, factors) - 1.0)
    return np.where(zeros | infs, np.where(zeros & infs, 0.0, np.inf), finite)


def _rel_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative gap |a - b| / max(1, |a|, |b|); 0 or inf when a value is infinite."""
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.where(np.isinf(a) | np.isinf(b), np.where(a == b, 0.0, np.inf), rel)


# -- index tables --------------------------------------------------------------


class _Tables(NamedTuple):
    """0-based index tuples over n labels, each in itertools enumeration order.

    Each table is np.argwhere of a boolean mask over np.ogrid axes, which
    lists the index tuples that meet the mask in lexicographic order, the
    order itertools enumerates them in; cyclic interleaves subsets3 with its
    (0, 2, 1) column swap.  _cocycles and _quads are built the same way."""

    pairs: np.ndarray  # ordered pairs
    upairs: np.ndarray  # unordered pairs i < j
    triples: np.ndarray  # ordered triples
    subsets3: np.ndarray  # i < j < k
    reciprocal: np.ndarray  # (i, j, k) with j < k, both != i
    cyclic: np.ndarray  # (i, j, k) and (i, k, j) for each i < j < k


@functools.lru_cache(maxsize=32)
def _tables(n: int) -> _Tables:
    i, j = np.ogrid[:n, :n]
    a, b, c = np.ogrid[:n, :n, :n]
    subsets3 = np.argwhere((a < b) & (b < c))
    return _Tables(
        pairs=np.argwhere(i != j),
        upairs=np.argwhere(i < j),
        triples=np.argwhere((a != b) & (a != c) & (b != c)),
        subsets3=subsets3,
        reciprocal=np.argwhere((a != b) & (a != c) & (b < c)),
        cyclic=subsets3[:, [0, 1, 2, 0, 2, 1]].reshape(-1, 3),
    )


# The tables below grow as n^4, and one check reads each.


@functools.lru_cache(maxsize=32)
def _cocycles(n: int) -> np.ndarray:
    """(i, j, k, l) with j < k and j < l, all != i: the 4-cocycle rows."""
    i, j, k, l = np.ogrid[:n, :n, :n, :n]
    # the (i, j, k) and (i, j, l) conditions meet before the full grid is formed
    return np.argwhere((j != i) & (k > j) & (k != i) & ((l > j) & (l != i)) & (k != l))


@functools.lru_cache(maxsize=32)
def _quads(n: int) -> np.ndarray:
    """4-subsets i < j < k < l: the four-consistency rows."""
    i, j, k, l = np.ogrid[:n, :n, :n, :n]
    return np.argwhere((i < j) & (j < k) & (k < l))


class _Labels(Mapping):
    """The index of the u and d views: each tuple of r distinct labels in
    1..n, in itertools.permutations order, maps to its 0-based index tuple
    by arithmetic.  Labels compare by value, as dict keys do, so (1.0, 2)
    and (True, 2) find (1, 2); any other key raises KeyError."""

    def __init__(self, n: int, r: int):
        self.n, self.r, self._labels = n, r, frozenset(range(1, n + 1))

    def __getitem__(self, key) -> tuple[int, ...]:
        if (
            isinstance(key, tuple)
            and len(key) == self.r == len(set(key))
            and self._labels.issuperset(key)
        ):
            return tuple([int(i) - 1 for i in key])
        raise KeyError(key)

    def __iter__(self):
        return itertools.permutations(range(1, self.n + 1), self.r)

    def __len__(self) -> int:
        return math.perm(self.n, self.r)


# -- records -----------------------------------------------------------------


class _Frozen:
    """Base of the record classes.  Only the checking readers make records,
    and _record is the one code that fills one: the readers call it, and so
    do pickle and copy through __setstate__, so a copy is frozen too.  A
    class without a checking constructor cannot be called."""

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is made by its readers, not called")

    def __setstate__(self, state: dict):
        _record(self, **state)


def _record(record, **fields):
    """Set the fields of record (a record class, for a new one), freezing
    every array among them and any array it views.  A StratumPoint's
    root_config, configs and scales are set as views of its C and S, so pass
    it tree, C and S."""
    if isinstance(record, type):
        record = object.__new__(record)
    if isinstance(record, StratumPoint):
        plan = _chart_plan(fields["tree"])
        C, S = fields["C"], fields["S"]
        fields.update(
            root_config=C[: plan.counts[0]],
            configs=_Coordinates(C, plan.config_index),
            scales=_Coordinates(S, plan.scale_index),
        )
    for name, value in fields.items():
        arr = value
        while isinstance(arr, np.ndarray):
            arr.flags.writeable = False
            arr = arr.base
        object.__setattr__(record, name, value)
    return record


# -- configurations ----------------------------------------------------------


_POINTS_SHAPE = "points must form an (n, m) array"


@dataclass(frozen=True, eq=False)
class Configuration(_Frozen):
    """An ordered tuple of pairwise-distinct points in R^m."""

    points: np.ndarray

    def __post_init__(self):
        pts = _float_array(self.points, _POINTS_SHAPE)
        if pts.ndim != 2:
            raise ValueError(_POINTS_SHAPE)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        i, j = np.nonzero(np.arange(len(pts))[:, None] < np.arange(len(pts)))
        same = np.flatnonzero((pts[i] == pts[j]).all(axis=1))
        if same.size:
            raise ValueError(f"points {i[same[0]] + 1} and {j[same[0]] + 1} coincide")
        _record(self, points=pts.copy())

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def as_configuration(c) -> Configuration:
    if isinstance(c, Configuration):
        return c
    pts = _float_array(c, _POINTS_SHAPE)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return Configuration(pts)


def normalize(c) -> Configuration:
    """Translate the centroid to the origin and scale the largest norm to 1."""
    cfg = as_configuration(c)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = cfg.points - cfg.points.mean(axis=0)
        top = float(np.linalg.norm(pts, axis=1).max())
    if not math.isfinite(top):
        raise ValueError("the configuration's centroid or scale overflows")
    if top > 0.0:
        pts = pts / top
    return Configuration(pts)


def config_scale(x: np.ndarray) -> float:
    return max(1.0, float(_norms(x).max()))


# -- manifolds ---------------------------------------------------------------
# A descriptor is a submanifold of R^m that gives membership its own check
# blocks: blocks(...) for a point whose pairs closer than `near` coincide,
# frame_blocks(x, frames) for the (n, m) frames of a framed point.


@dataclass(frozen=True)
class Euclidean:
    """Flat R^m: it adds no check."""

    m: int

    def blocks(self, prefix: str, x, U, dist, near) -> list[_Block]:
        return []

    def frame_blocks(self, x, frames) -> list[_Block]:
        return []


@dataclass(frozen=True)
class Sphere:
    """The unit d-sphere embedded in R^(d+1)."""

    dim: int

    @property
    def m(self) -> int:
        return self.dim + 1

    def blocks(self, prefix: str, x, U, dist, near) -> list[_Block]:
        """on-manifold |x_i| - 1 for every point, and tangency <u_ij, x_i> for
        every coincident pair (residuals are absolute values)."""
        close = np.argwhere((dist <= near) & ~np.eye(len(x), dtype=bool))
        i, j = close.T
        return [
            (f"{prefix}-on-manifold", np.arange(len(x))[:, None], np.abs(row_norms(x) - 1.0), None),
            (f"{prefix}-tangency", close, np.abs(row_dots(U[i, j], x[i])), None),
        ]

    def frame_blocks(self, x, frames) -> list[_Block]:
        """frame-tangency <f_i, x_i> for every frame (absolute values)."""
        return [("frame-tangency", np.arange(len(x))[:, None], np.abs(row_dots(frames, x)), None)]


ManifoldDescriptor = Euclidean | Sphere


# -- points ------------------------------------------------------------------


class _Coordinates(Mapping):
    """Read-only mapping view of a dense array: U or D under 1-based label
    tuples in itertools.permutations order, a framed point's F under labels,
    or a stratum's rows and scales under internal vertices.  The index maps
    each key to what it reads (an index tuple, a row slice or a position);
    any other key raises KeyError.  For U and D the index is a _Labels,
    which computes the index tuple from the labels, so a view of any size
    holds and pickles no table of keys."""

    __slots__ = ("_array", "_index")

    def __init__(self, array: np.ndarray, index: Mapping):
        self._array, self._index = array, index

    def __getitem__(self, key):
        value = self._array[self._index[key]]
        return value if isinstance(value, np.ndarray) else float(value)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        # a chart plan's index is a read-only proxy, which does not pickle
        return _Coordinates, (
            self._array,
            self._index if isinstance(self._index, _Labels) else dict(self._index),
        )


@dataclass(frozen=True, eq=False, init=False)
class _Record(_Frozen):
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
        return _Coordinates(self.U, _Labels(self.n, 2))


@dataclass(frozen=True, eq=False, init=False)
class SimplicialPoint(_Record):
    """Positions plus pairwise unit directions; no ratio coordinates."""


@dataclass(frozen=True, eq=False, init=False)
class AmbientPoint(_Record):
    """Candidate point of the compactification: positions, directions, ratios."""

    D: np.ndarray

    @property
    def d(self) -> Mapping[Index3, float]:
        return _Coordinates(self.D, _Labels(self.n, 3))


def _positions(x) -> np.ndarray:
    pts = _float_array(x, "x must be an (n, m) array")
    if pts.ndim != 2:
        raise ValueError("x must be an (n, m) array")
    if not np.isfinite(pts).all():
        raise ValueError("x must be finite")
    return pts.copy()


def _cover(mapping: Mapping, n: int, field: str) -> list:
    """The values of the direction mapping u or the ratio mapping d at every
    ordered pair or triple of distinct labels in 1..n, in index order.  The
    keys must be exactly those: the first missing one raises, then the first
    key that is not one of them."""
    index, noun, tuple_ = (
        (_Labels(n, 2), "direction", "pair") if field == "u" else (_Labels(n, 3), "ratio", "triple")
    )
    try:
        vals = [mapping[key] for key in index]
    except KeyError:
        key = next(key for key in index if key not in mapping)
        raise ValueError(f"missing {noun} {field}[{','.join(map(str, key))}]") from None
    if len(mapping) != len(index):
        key = next(key for key in mapping if key not in index)
        raise ValueError(f"{field} key {key!r} is not a {tuple_} of distinct labels in 1..{n}")
    return vals


def _held(mapping: Mapping, r: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """The array under a u (r = 2) or d (r = 3) view of a point of this
    shape, which covers every key with checked values; None for any other
    mapping, which _cover reads key by key."""
    if (
        isinstance(mapping, _Coordinates)
        and isinstance(mapping._index, _Labels)
        and mapping._index.r == r
        and mapping._array.shape == shape
    ):
        return mapping._array
    return None


def _gather_directions(u: Mapping[Pair, np.ndarray], n: int, m: int) -> np.ndarray:
    """The direction mapping as a dense U, a new array that the caller may
    renormalise in place.  A record's U has zero diagonal blocks, as this
    one does."""
    held = _held(u, 2, (n, n, m))
    if held is not None:
        return held.copy()
    vals = _cover(u, n, "u")
    for (i, j), row in zip(_Labels(n, 2), vals):
        if np.shape(row) != (m,):
            raise ValueError(f"direction u[{i},{j}] has wrong dimension")
    U = np.zeros((n, n, m))
    if vals:
        U[tuple(_tables(n).pairs.T)] = _float_array(vals, "directions must be numeric vectors")
    return U


def _unit_directions(U: np.ndarray) -> np.ndarray:
    """Check and renormalize every u_ij of one U or a stack."""
    t = _tables(U.shape[-2])
    i, j = t.pairs.T
    # a huge entry overflows its norm to inf, which fails the unit check
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = row_norms(U[..., i, j, :])
    dev = np.abs(nrm - 1.0)
    bad = np.flatnonzero(~(dev <= _UNIT_SLACK))
    if bad.size:
        a, b = t.pairs[bad[0] % len(t.pairs)] + 1
        raise ValueError(f"u[{a},{b}] is not a unit vector (norm {nrm.flat[bad[0]]})")
    off = dev > _UNIT_EXACT
    if off.any():
        *lead, p = np.nonzero(off)
        U[(*lead, i[p], j[p])] /= nrm[off][:, None]
    return U


def ambient_point(x, u: Mapping[Pair, np.ndarray], d: Mapping[Index3, float]) -> AmbientPoint:
    """Validate index completeness, renormalize directions, freeze arrays."""
    pts = _positions(x)
    n, m = pts.shape
    U = _unit_directions(_gather_directions(u, n, m))
    t = _tables(n)
    held = _held(d, 3, (n, n, n))
    if held is not None:
        vals = held[tuple(t.triples.T)]
    else:
        vals = _float_array(_cover(d, n, "d"), "ratios must be numbers")
    bad = np.flatnonzero(~(vals >= 0.0))
    if bad.size:
        i, j, k = t.triples[bad[0]] + 1
        raise ValueError(f"ratio d[{i},{j},{k}] must lie in [0, inf]")
    D = np.full((n, n, n), np.nan)
    D[tuple(t.triples.T)] = vals
    return _record(AmbientPoint, x=pts, U=U, D=D)


def lift_configuration(c) -> AmbientPoint:
    """Attach exact direction and ratio coordinates to an open configuration."""
    cfg = as_configuration(c)
    pts, n = cfg.points, cfg.n
    i, j = _tables(n).upairs.T
    # huge coordinates overflow the norms to inf here, which is refused;
    # otherwise every ratio is of two positive finite norms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff = pts[i] - pts[j]
        nrm = row_norms(diff)
        zero = np.flatnonzero(nrm == 0.0)
        if zero.size:
            raise ValueError(f"points {i[zero[0]] + 1} and {j[zero[0]] + 1} coincide")
        if not np.isfinite(nrm).all():
            raise ValueError("the configuration's pairwise distances overflow")
        U = _pair_directions(diff, nrm, n)
        dist = np.zeros((n, n))
        dist[i, j] = dist[j, i] = nrm
        D = np.full((n, n, n), np.nan)
        i, j, k = _tables(n).triples.T
        D[i, j, k] = dist[i, j] / dist[i, k]
    return _record(AmbientPoint, x=pts, U=_unit_directions(U), D=D)


def _pair_directions(diff: np.ndarray, nrm: np.ndarray, n: int) -> np.ndarray:
    """U from the differences (..., pairs, m) of the pairs i < j (combinations
    order) and their norms; u_ji is the negated u_ij, so a zero component
    keeps its sign."""
    i, j = _tables(n).upairs.T
    U = np.zeros((*diff.shape[:-2], n, n, diff.shape[-1]))
    u = diff / nrm[..., None]
    U[..., i, j, :] = u
    U[..., j, i, :] = -u
    return U


def _relabel(p: _Record, values: Sequence[int]) -> dict:
    """The fields x, U and (ambient points only) D of p with label i carrying
    the data of label values[i-1]: one index gather each."""
    s = np.asarray(values, dtype=np.intp) - 1
    fields = {"x": p.x[s], "U": p.U[np.ix_(s, s)]}
    if isinstance(p, AmbientPoint):
        fields["D"] = p.D[np.ix_(s, s, s)]
    return fields


def permute(sigma, p: _Record):
    """Relabel indices: entry i of the result carries the data of sigma(i).

    Works on ambient and simplicial points, returning the same kind.
    """
    values = tuple(sigma.values) if isinstance(sigma, trees.SetMap) else tuple(sigma)
    if sorted(values) != list(range(1, p.n + 1)):
        raise ValueError("sigma is not a permutation of the labels")
    return _record(type(p), **_relabel(p, values))


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


# c·u of the condition-1 bound tol + c·u·κ: c = 4 units of double rounding u = 2^-53
_ROUNDING = 4.0 * 2.0**-53


def _shared_blocks(
    prefixes: tuple[str, str],
    x: np.ndarray,
    U: np.ndarray,
    dist: np.ndarray,
    scale: float,
    tol: float,
) -> tuple[_Block, _Block, _Block]:
    """The checks both variants make: direction consistency where points
    differ (bounded by tol + c·u·X/|x_i - x_j|, X the configuration scale),
    antisymmetry, and triangle dependence, named with the variant's
    condition prefixes."""
    t = _tables(x.shape[0])
    far = t.pairs[dist[tuple(t.pairs.T)] > tol * scale]
    i, j = far.T
    dij = dist[i, j]
    expected = (x[i] - x[j]) / dij[:, None]
    direction = (
        f"{prefixes[0]}-direction",
        far,
        row_norms(U[i, j] - expected),
        tol + _ROUNDING * scale / dij,
    )
    i, j = t.upairs.T
    antisymmetry = (f"{prefixes[1]}-antisymmetry", t.upairs, row_norms(U[i, j] + U[j, i]), None)
    i, j, k = t.subsets3.T
    ok, res = nonneg_dependent_rows(np.stack([U[i, j], U[j, k], U[k, i]], axis=1), tol)
    res = np.where(ok, 0.0, np.maximum(res, tol * 2))
    dependence = (f"{prefixes[1]}-dependence", t.subsets3, res, None)
    return direction, antisymmetry, dependence


def _check_manifold(manifold: ManifoldDescriptor | None, m: int) -> ManifoldDescriptor:
    """The descriptor a check of a point in R^m uses: flat R^m by default."""
    if manifold is None:
        return Euclidean(m)
    if manifold.m != m:
        raise ValueError(
            f"manifold embedding dimension {manifold.m} does not match the point dimension {m}"
        )
    return manifold


def membership_canonical(
    a: AmbientPoint, manifold: ManifoldDescriptor | None = None, tol: float = DEFAULT_TOL
) -> Verdict:
    """Verify the coordinate conditions characterizing the compactification.

    Checks, in order: consistency of u and d with the positions where points
    differ (condition 1), the law-of-sines determination of d and its
    vanishing on two-point clusters (condition 2), antisymmetry and
    non-negative dependence of direction triangles (condition 3), the
    extended-ratio product identities (condition 4), and the manifold's own
    clauses (condition 5: on-manifold and tangency for a sphere, none for R^m).

    Condition 1 compares numbers that were rounded where they were computed,
    so its rows are held to tol + c·u·κ instead of tol, with u = 2^-53, c = 4,
    X = config_scale(x) and κ the condition number of the row's comparison
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 1-3):
    κ = X / |x_i - x_j| for 1-direction (i, j), and, with
    q = |x_i - x_j| / |x_i - x_k|, κ = X (1 + q) / (|x_i - x_k| max(1, q))
    for 1-ratio and 1-ratio-vanishing (i, j, k).  Every other row is held to
    tol, and max_residual is the largest residual of any row.

    Violations are reported in that order: 1-direction, then 1-ratio and
    1-ratio-vanishing interleaved by triple, 2-law-of-sines and
    2-cluster-zero interleaved by triple, 3-antisymmetry, 3-dependence,
    4-reciprocal, 4-cyclic, 4-cocycle, 5-on-manifold, 5-tangency.  Within a
    condition, indices follow itertools enumeration order (permutations for
    ordered tuples, combinations for subsets).  4-reciprocal rows are the
    (i, j, k) with j < k, and 4-cocycle rows the (i, j, k, l) with j < k
    and j < l: both cycles of (j, k, l) about each base i, each once, since
    the rotations of a cycle multiply the same three ratios.  The reversed
    cycle multiplies the reciprocal ratios, but 4-reciprocal only bounds
    those within tol, so it is checked in its own right.  Each condition
    runs as one array kernel over the point's U and D, read through index
    tables cached per n.
    """
    return _verdict(_canonical_blocks(a, _check_manifold(manifold, a.m), tol), tol)


def _canonical_blocks(a: AmbientPoint, manifold: ManifoldDescriptor, tol: float) -> list[_Block]:
    """membership_canonical's check blocks, in its report order."""
    t = _tables(a.n)
    U, D = a.U, a.D
    i, j, k = t.triples.T
    d = D[i, j, k]
    dist = _distances(a.x)
    scale = config_scale(a.x)
    near = tol * scale
    direction, antisymmetry, dependence = _shared_blocks(("1", "3"), a.x, U, dist, scale, tol)

    # condition 1: ratios against positions where x_i and x_k differ
    keep = dist[i, k] > near
    dij, dik, dk = dist[i, j][keep], dist[i, k][keep], d[keep]
    apart = dij > near
    q = dij / dik
    ratio = (
        np.where(apart, "1-ratio", "1-ratio-vanishing"),
        t.triples[keep],
        np.where(apart, _rel_diffs(dk, q), np.abs(dk)),
        tol + _ROUNDING * scale * (1.0 + q) / (dik * np.maximum(1.0, q)),
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
    cocycles = _cocycles(a.n)

    def products(table: np.ndarray, *slots: tuple[int, int, int]) -> np.ndarray:
        return _extended_residuals([D[tuple(table[:, s] for s in slot)] for slot in slots])

    return [
        direction, ratio, sines, antisymmetry, dependence,
        ("4-reciprocal", t.reciprocal, products(t.reciprocal, (0, 1, 2), (0, 2, 1)), None),
        ("4-cyclic", t.cyclic, products(t.cyclic, (0, 1, 2), (1, 2, 0), (2, 0, 1)), None),
        ("4-cocycle", cocycles, products(cocycles, (0, 1, 2), (0, 2, 3), (0, 3, 1)), None),
        # condition 5: submanifold clauses
        *manifold.blocks("5", a.x, U, dist, near),
    ]


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
    return bool((_distances(x) <= tol * config_scale(x)).all())


# -- stratum data and charts ---------------------------------------------------


class _ChartPlan(NamedTuple):
    """The tables of one tree shape that the chart layer reads, all read-only.

    Rows: the stratum data of a tree is one (E, m) array with a row per
    non-root edge, in blocks: the root's children, then the children of each
    internal vertex in numbering order, each block in children order.
    States: a pair (top, v) of a block vertex top (the root or an internal
    vertex) and a vertex v of the subtree at top, numbered top by top, each
    subtree children before parents.  State (top, v) holds the position of v
    in the expansion of the subtree at top, or the cluster centre of v in the
    frame of top.

    Each table is read off one fact per vertex:
    - each vertex's root path and the rows along it: a state's path_rows are
      v's path cut below top, and its path_scales the block vertex over each
      of those rows but the first, whose scale (top's) counts as 1;
    - each block vertex's subtree, which numbers its states, and its height,
      which with the child count keys its centre group;
    - each block vertex's leaf set: the pair join is the deepest block over
      both leaves, the triple join of (x, y, z) the shallower of x's joins
      with y and z, the frames of v anchor at its lowest leaf i0 and the
      lowest leaf k0 of its second child, and the leaf sets of the internal
      vertices are the cluster masks invert_chart decides its region with;
    - each internal vertex's children: starts, counts, siblings and spans.
    The integer tables are views of one read-only buffer, filled from Python
    lists in one conversion; the joins and legs are gathered from its pair
    and state tables, and path_scales from path_rows.
    """

    starts: np.ndarray  # (B,) first row of each block
    counts: np.ndarray  # (B,) rows of each block
    inner: np.ndarray  # (B - 1,) first row of each internal block, counted from the first
    config_index: Mapping[int, slice]  # internal vertex -> its rows
    scale_index: Mapping[int, int]  # internal vertex -> its entry of a (V,) array
    siblings: np.ndarray  # (2, S) rows i < j of one block, block by block
    pair_join: np.ndarray  # join of every leaf pair i < j (combinations order)
    triple_join: np.ndarray  # join of every ordered leaf triple (permutations order)
    states: int  # number of states
    path_rows: np.ndarray  # (states, H + 1) the zero row E, then the rows from top down; E pads
    path_scales: np.ndarray  # (states, H + 1) the vertex whose scale multiplies in before each
    #   row: V (scale 1) before the first two and as padding
    leaf_states: np.ndarray  # (n,) states (root, i)
    legs: np.ndarray  # (2, P + 2T) states whose differences _expand measures: (join, i) and
    #   (join, j) of each leaf pair i < j, then of each triple (i, j, k), then (join, i) and
    #   (join, k) of each triple
    frames: np.ndarray  # (5, L) state (v, j), i0, j, k0 (0-based), j == k0: leaves j != i0 under v
    centres: tuple[tuple[np.ndarray, np.ndarray], ...]  # per height and child count k, lowest
    #   first: the states (g,) of block vertices and their children's states (g, k)
    root_states: np.ndarray  # (k0,) states (root, c) of the root's children
    spans: np.ndarray  # (2, 2(E - k0)) states whose differences invert_chart measures: (v, c)
    #   and (v, v) of each internal row, then (p, c) and (p, v), p the parent of v
    parent_block: np.ndarray  # (B - 1,) internal block of each parent; -1 for the root
    clusters: np.ndarray  # (n + B - 1, W) leaf-set masks (see _label_bits) of each leaf, then
    #   of each internal vertex


# A cluster mask holds one bit per label in words of _WORD bits, so that no
# sum of distinct bits overflows a word.
_WORD = np.iinfo(np.intp).bits - 1


@functools.lru_cache(maxsize=32)
def _label_bits(n: int) -> np.ndarray:
    """(n, W) the cluster mask of each single label: label i + 1 sets bit
    i % _WORD of word i // _WORD, W = ceil(n / _WORD)."""
    i = np.arange(n, dtype=np.intp)
    bits = np.zeros((n, -(-n // _WORD)), dtype=np.intp)
    bits[i, i // _WORD] = np.left_shift(np.intp(1), i % _WORD)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=32)
def _join_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the plan's joins are read: the flat positions in an (n, n)
    table of (i, j) for each leaf pair i < j, then (x, y) and (x, z) for
    each ordered triple (x, y, z); and the leaves of the legs, (2, P + 2T)."""
    tab = _tables(n)
    (i, j), (x, y, z) = tab.upairs.T, tab.triples.T
    at = np.concatenate([i * n + j, x * n + y, x * n + z])
    leaves = np.concatenate([tab.upairs.T, (x, y), (x, z)], axis=1)
    for arr in (at, leaves):
        arr.flags.writeable = False
    return at, leaves


@functools.lru_cache(maxsize=16)
def _chart_plan(t: trees.FTree) -> _ChartPlan:
    """The chart plan of a tree shape.  The cache is small: a chart round
    trip (a sample, three expansions, two inversions and one record built
    from mappings) reads its tree's plan seven times in a row and then moves
    on, and a plan takes about 12 KB at n = 6 and 67 KB at n = 12.  A round
    trip over many trees still builds one plan each, so the build walks each
    block's states once in Python and converts every list it makes in one
    call; per-call numpy overhead, not arithmetic, is its cost."""
    n, kids, nv, parent, over = t.n, t.children, t.num_vertices, t.parent, t.leaves_over
    internal = t.internal_vertices
    blocks = (0, *internal)
    counts = [len(kids[v]) for v in blocks]
    starts = list(itertools.accumulate(counts[:-1], initial=0))
    zero = starts[-1] + counts[-1]
    # top down: each vertex's depth and the rows along its root path, and
    # the block vertex over each row
    depth, rows, owner = [0] * nv, [()] * nv, []
    for v, first in zip(blocks, starts):
        d, above, below = depth[v] + 1, rows[v], kids[v]
        for r, c in enumerate(below, first):
            depth[c], rows[c] = d, above + (r,)
        owner += (v,) * len(below)
    # bottom up: each block vertex's height, and its subtree with itself last
    height, sub = [0] * nv, [(v,) for v in range(nv)]
    for v in reversed(blocks):
        below = kids[v]
        height[v] = 1 + max(map(height.__getitem__, below))
        sub[v] = sum(map(sub.__getitem__, below), ()) + (v,)
    width = height[0] + 1
    pad = (zero,) * width
    rows = [r + pad for r in rows]  # padded, so a cut at any depth fills a table row

    # Each block vertex top numbers its subtree as its states (top, v).  The
    # path of (top, v) is v's root path cut below top: the zero row, then the
    # rows below top.  J[i, j] ends as the deepest block over leaves i and j,
    # and S[b, i] is the state of leaf i in block b.
    sid: dict[int, list[int]] = {}  # top -> the state (top, v) of each vertex v, or -1
    groups: dict[tuple[int, int], list[int]] = {}
    family = {v: (v, *kids[v]) for v in internal}
    key = {v: (height[v], len(kids[v])) for v in internal}
    path_rows, frames, S = [], [], []
    J = [0] * (n * n)
    masks = [1 << i for i in range(n)]  # each leaf's leaf set, then each internal vertex's
    for b, top in enumerate(blocks):
        ids = sid[top] = [-1] * nv
        d = depth[top]
        for s, v in enumerate(sub[top], len(path_rows) // width):
            ids[v] = s
            path_rows += (zero, *rows[v][d : d + width - 1])
            if v > n:  # children come first; no output reads the root's own centre
                groups.setdefault(key[v], []).extend(map(ids.__getitem__, family[v]))
        S += ids[1 : n + 1]
        leaves = sorted(over[top])
        for i in leaves:
            for j in leaves:
                J[i * n + j - n - 1] = b
        if top:
            masks.append(sum(masks[i - 1] for i in leaves))
            i0, k0 = leaves[0], min(over[kids[top][1]])
            for j in leaves[1:]:
                frames += (ids[j], i0 - 1, j - 1, k0 - 1, j == k0)
    spans = [s for v in internal for c in kids[v] for s in (sid[v][c], sid[v][v])]
    spans += [s for v in internal for c in kids[v] for s in (sid[parent[v]][c], sid[parent[v]][v])]
    siblings = [
        r for a, k in zip(starts, counts) for pair in itertools.combinations(range(a, a + k), 2)
        for r in pair
    ]
    keys = sorted(groups)
    config_index = MappingProxyType(
        {v: slice(starts[q], starts[q] + counts[q]) for q, v in enumerate(internal, 1)}
    )
    words = range(0, n, _WORD)
    parts = (
        starts, counts, [x - starts[1] for x in starts[1:]], siblings, path_rows, owner + [nv],
        sid[0][1 : n + 1], frames, [sid[0][c] for c in kids[0]], spans,
        [parent[v] - n - 1 if parent[v] else -1 for v in internal], blocks, J, S,
        [(m >> w) & ((1 << _WORD) - 1) for m in masks for w in words],
        *map(groups.__getitem__, keys),
    )
    ends = list(itertools.accumulate(map(len, parts)))
    flat = np.fromiter(itertools.chain(*parts), np.intp, ends[-1])
    flat.flags.writeable = False
    (
        starts, counts, inner, siblings, path_rows, owner, leaf_states, frames, root_states,
        spans, parent_block, tops, J, S, masks, *groups,
    ) = (flat[a:b] for a, b in zip([0, *ends], ends))

    # the scale before each row but the first is that of the block vertex
    # over it, and V (scale 1) pads
    path_rows = path_rows.reshape(-1, width)
    path_scales = owner[path_rows]
    path_scales[:, 1] = nv
    # of three leaves x, y, z the join is the shallower of x's joins with y and z
    at, leaves = _join_slots(n)
    P, T = n * (n - 1) // 2, n * (n - 1) * (n - 2)
    joins = J[at]
    pb, tb = joins[:P], np.minimum(joins[P : P + T], joins[P + T :])
    legs = S.reshape(-1, n)[np.concatenate([pb, tb, tb]), leaves]
    pair_join, triple_join = tops[pb], tops[tb]
    for arr in (path_scales, pair_join, triple_join, legs):
        arr.flags.writeable = False
    return _ChartPlan(
        starts=starts,
        counts=counts,
        inner=inner,
        config_index=config_index,
        scale_index=MappingProxyType({v: v for v in internal}),
        siblings=siblings.reshape(-1, 2).T,
        pair_join=pair_join,
        triple_join=triple_join,
        states=len(path_rows),
        path_rows=path_rows,
        path_scales=path_scales,
        leaf_states=leaf_states,
        legs=legs,
        frames=frames.reshape(-1, 5).T,
        centres=tuple(
            (g[:, 0], g[:, 1:]) for g in (g.reshape(-1, k + 1) for (_, k), g in zip(keys, groups))
        ),
        root_states=root_states,
        spans=spans.reshape(-1, 2).T,
        parent_block=parent_block,
        clusters=masks.reshape(-1, len(words)),
    )


@dataclass(frozen=True, eq=False)
class StratumPoint(_Frozen):
    """Chart-domain data: per-vertex configurations plus scale parameters.

    root_config holds one point of R^m per root edge (pairwise distinct, in
    coincident-edge order); configs[v] holds the normalized configuration
    (centroid 0, max norm 1) assigned to internal vertex v, one row per edge
    of E(v); scales[v] in [0, r) is the expansion parameter of v.

    Storage: a dense record.  C is one frozen (E, m) array with a row per
    non-root edge, the root's rows first and then each internal vertex's
    children in children order; S is a frozen (V,) array with S[v] the scale
    of internal vertex v and 0 elsewhere.  root_config is a view of C's first
    rows; configs and scales are read-only mappings over C and S keyed by
    internal vertex.  The row layout, like every other tree-shape table the
    chart layer reads, comes from the tree's chart plan in a bounded cache.
    """

    tree: trees.FTree
    root_config: np.ndarray
    configs: Mapping[int, np.ndarray]
    scales: Mapping[int, float]
    C: np.ndarray = field(init=False, repr=False)
    S: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        plan = _chart_plan(self.tree)
        C = _config_rows(plan, self.tree, self.root_config, self.configs)
        S = _scale_values(plan, self.tree, C, self.scales)
        _check_stratum(plan, self.tree, C, S)
        _record(self, tree=self.tree, C=C, S=S)

    @property
    def m(self) -> int:
        return self.C.shape[1]


def _check_stratum(plan: _ChartPlan, t: trees.FTree, C: np.ndarray, S: np.ndarray) -> None:
    """The one check of stratum data: the rows C in one array pass, then the
    scales S against the bound of C's smallest sibling gap, in vertex order.
    StratumPoint runs it on the arrays it reads from mappings, and
    invert_chart on the arrays it computes from a point, which is outside
    input too.  stratum_sample does not run it: its draws meet every
    condition by construction.  The bound has a relative slack of 1e-12, so
    a scale that rounded up to the bound of the data it was computed from
    (an inverted chart point) still passes, but none that folds two rows
    together does."""
    bound = _scale_bound(_check_rows(plan, t, C))
    vals = S[t.n + 1 :]
    inside = (vals >= 0.0) & (vals < bound * (1 + 1e-12))
    if not inside.all():
        p = np.flatnonzero(~inside)[0]
        raise ValueError(f"scale {float(vals[p])} at vertex {t.n + 1 + p} outside [0, {bound})")


_ROOT_SHAPE = "root configuration must be an (#v0, m) array"


def _config_rows(plan: _ChartPlan, t: trees.FTree, root, configs) -> np.ndarray:
    """The rows C of the root and vertex configurations, in the plan's
    layout.  A missing, malformed or stray configuration raises after the
    blocks before it are checked, so the first bad vertex decides, the root
    first."""
    k0 = plan.counts[0]
    root = _float_array(root, _ROOT_SHAPE)
    if root.ndim and root.shape[0] != k0:
        raise ValueError("root configuration size does not match root valence")
    m = root.shape[1] if root.ndim == 2 else 0
    if root.ndim != 2 or m < 1:
        raise ValueError(_ROOT_SHAPE)
    if not isinstance(configs, Mapping):
        raise ValueError("configs must map internal vertices to configurations")
    body = []
    try:
        for v, k in zip(t.internal_vertices, plan.counts[1:]):
            if v not in configs:
                raise ValueError(f"missing configuration for vertex {v}")
            cfg = _float_array(configs[v], f"configuration at vertex {v} is not a numeric array")
            if cfg.shape != (k, m):
                raise ValueError(f"configuration at vertex {v} has wrong shape")
            body.append(cfg)
        if len(configs) != len(plan.config_index):
            key = next(key for key in configs if key not in plan.config_index)
            raise ValueError(f"configs key {key!r} is not an internal vertex")
    except ValueError:
        _check_rows(plan, t, np.concatenate([root, *body]))
        raise
    return np.concatenate([root, *body])


_ROW_FAULTS = ("must be finite", "is not centered", "is not max-norm 1", "has coincident points")


def _norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1) without its argument handling: the same
    sum of squares, which can round apart from row_norms."""
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _min_gap(rows: np.ndarray, i: np.ndarray, j: np.ndarray) -> float:
    """Smallest distance between rows i[p] and j[p] (inf for no pairs); NaN
    distances are skipped."""
    return float(np.fmin.reduce(row_norms(rows[i] - rows[j]), initial=math.inf))


def _check_rows(plan: _ChartPlan, t: trees.FTree, C: np.ndarray) -> float:
    """Check the blocks C holds, the first ones of the plan's layout: every
    row finite, each internal block centred with max norm 1, and no two
    sibling rows equal.  Returns the smallest sibling gap."""
    blocks = int(np.searchsorted(plan.starts, len(C)))
    finite = np.isfinite(C).all()
    i, j = plan.siblings
    if blocks < len(plan.starts):
        keep = j < plan.starts[blocks]
        i, j = i[keep], j[keep]
    inner = C[plan.counts[0] :]
    first = plan.inner[: blocks - 1]
    with np.errstate(invalid="ignore", over="ignore"):
        q = _min_gap(C, i, j)
        off = row_norms(np.add.reduceat(inner, first) / plan.counts[1:blocks, None]) > 1e-8
        wide = np.abs(np.maximum.reduceat(_norms(inner), first) - 1.0) > 1e-8
    if finite and q > 0.0 and not (off | wide).any():
        return q
    faults = np.zeros((blocks, 4), dtype=bool)
    faults[:, 0] = ~np.logical_and.reduceat(np.isfinite(C).all(axis=1), plan.starts[:blocks])
    faults[1:, 1], faults[1:, 2] = off, wide
    with np.errstate(invalid="ignore", over="ignore"):
        coincident = i[row_norms(C[i] - C[j]) == 0.0]
    faults[np.searchsorted(plan.starts, coincident, "right") - 1, 3] = True
    b = int(np.flatnonzero(faults.any(axis=1))[0])
    fault = _ROW_FAULTS[int(np.argmax(faults[b]))]
    if b == 0:
        raise ValueError(f"root configuration {fault}")
    raise ValueError(f"configuration at vertex {t.n + b} {fault}")


def _scale_values(plan: _ChartPlan, t: trees.FTree, C: np.ndarray, scales) -> np.ndarray:
    """The (V,) scale array of a scales mapping for the rows C.  The first
    fault (not a mapping, a missing scale or one that is not a number, where
    a number written as a string is not one, or a stray key) raises after
    _check_stratum has checked the rows and the scales before it, so the
    first bad datum decides, the rows first."""
    S = np.zeros(t.num_vertices)
    try:
        if not isinstance(scales, Mapping):
            raise ValueError("scales must map internal vertices to numbers")
        for v in t.internal_vertices:
            if v not in scales:
                raise ValueError(f"missing scale for vertex {v}")
            S[v] = _float(scales[v], f"scale at vertex {v} is not a number")
        if len(scales) != len(plan.scale_index):
            key = next(key for key in scales if key not in plan.scale_index)
            raise ValueError(f"scales key {key!r} is not an internal vertex")
    except ValueError:
        _check_stratum(plan, t, C, S)
        raise
    return S


def scale_bound(tree: trees.FTree, root_config, configs) -> float:
    """Largest admissible scale parameter for the given stratum data, which
    is checked as StratumPoint checks it, with the same messages."""
    plan = _chart_plan(tree)
    C = _config_rows(plan, tree, root_config, configs)
    return _scale_bound(_check_rows(plan, tree, C))


def _scale_bound(q: float) -> float:
    """scale_bound from the smallest pairwise distance q in the stratum data."""
    if math.isinf(q):
        return 1.0
    third = q / 3.0
    return third / (1.0 + third)


def _expansion_positions(
    plan: _ChartPlan, C: np.ndarray, S: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """pos[k, state (top, v)], the position of v in the expansion of the
    subtree at top of the rows C and scales S, with the scale at top set to 1
    and the others times factors[k].  Every state sums its path from top at
    once: the scale products and the offsets accumulate top down, in the
    rounding order of a walk to the leaf; a zero row and unit scales pad the
    shorter paths and leave their sums unchanged."""
    scaled = np.ones((len(factors), len(S) + 1))
    scaled[:, :-1] = factors[:, None] * S
    rows = np.zeros((len(C) + 1, C.shape[1]))
    rows[:-1] = C
    terms = np.cumprod(scaled[:, plan.path_scales], axis=-1)[..., None] * rows[plan.path_rows]
    return np.cumsum(terms, axis=-2)[..., -1, :]


def _expand(s: StratumPoint, factors: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The chart images of s with every scale times each of K factors in [0, 1]
    (so still admissible): stacks x, U and D with a leading K axis.

    s was checked when it was read, so of ambient_point's checks only the
    unit check of U runs here: the chart points of huge root rows overflow
    to a NaN or zero norm, which is named as the overflow of a pair norm
    when the check fails, and tiny differences can need renormalising.  The
    other two cannot fire.  x is finite: a finite root row plus terms of
    total norm below 1 cannot overflow.  Every D entry is a ratio of norms
    in [0, inf], unless a pair norm is NaN or inf, and the unit check
    rejects that first."""
    n = s.tree.n
    plan = _chart_plan(s.tree)
    pos = _expansion_positions(plan, s.C, s.S, np.asarray(factors, dtype=float))
    a, b = plan.legs
    P, T = len(plan.pair_join), len(plan.triple_join)
    # huge root rows overflow to inf and NaN here; the unit check below rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pos[:, a] - pos[:, b]
        nrm = row_norms(diff)
        if (nrm[:, :P] == 0.0).any():
            raise ValueError("cannot normalize a zero vector")
        U = _pair_directions(diff[:, :P], nrm[:, :P], n)
        num, den = nrm[:, P : P + T], nrm[:, P + T :]
        D = np.full((len(pos), n, n, n), np.nan)
        D[(slice(None), *_tables(n).triples.T)] = np.divide(
            num, den, out=np.full(num.shape, math.inf), where=den > 0.0
        )
    try:
        U = _unit_directions(U)
    except ValueError:
        if not np.isfinite(nrm[:, :P]).all():
            raise ValueError("the stratum's pairwise distances overflow") from None
        raise
    return pos[:, plan.leaf_states], U, D


def expand_chart(s: StratumPoint) -> AmbientPoint:
    """Evaluate the chart map on stratum data.

    Positions follow the root-anchored expansion; each direction or ratio is
    read off the expansion of the subtree at the join of its indices, with
    the scale at the join reset to one.  With all scales positive the output
    equals lift_configuration of the expanded positions; with some scales
    zero it is the corresponding boundary point.
    """
    x, U, D = _expand(s, [1.0])
    return _record(AmbientPoint, x=x[0], U=U[0], D=D[0])


def _in_region(plan: _ChartPlan, T: trees.FTree, a: AmbientPoint, tol: float) -> bool:
    """Whether the stratum tree of a at tol is a contraction of T, decided
    on arrays: True exactly when stratum_tree(a, tol) returns a tree t with
    leq(T, t), and builds no tree.

    V = D <= tol is the exclusion relation, V[i, j, k] for ((i, j), k); D is
    NaN off distinct triples, so no triple repeats a label.  The set of (i,
    k) is {i} + {j : V[i, j, k]}, a mask computed for every pair at once.
    The test: every mirror is present, and every set is one of T's clusters
    or a singleton.  It implies the other exclusion axioms, because two sets
    that hold i are then nested, as T's clusters are:
    - a conflict, ((i, j), k) with ((i, k), j), would give a set over i
      holding j but not k and one holding k but not j;
    - a break of transitivity, ((x, y), z) and ((w, x), y) without ((w, x),
      z), would give the set of (x, y), which holds w but not y, outside
      the set of (x, z), which holds y.
    So when the test passes, the sets of more than one label are exactly the
    clusters stratum_tree builds, and they are all T's; when it fails, one
    of them is not, or an axiom breaks and stratum_tree raises.  The trunk
    stratum_tree adds when all positions coincide is T's only if T has one,
    so that coincidence is computed only when T has none."""
    V = a.D <= tol
    if V.any():
        if (V != V.transpose(1, 0, 2)).any():
            return False
        bits = _label_bits(a.n)
        near = np.matmul(V.transpose(0, 2, 1), bits) | bits[:, None, :]  # the set of (i, k)
        if not (near[:, :, None, :] == plan.clusters).all(axis=-1).any(axis=-1).all():
            return False
    return a.n < 2 or T.has_trunk or not _is_trunk(a.x, tol)


def invert_chart(T: trees.FTree, a: AmbientPoint, tol: float = DEFAULT_TOL) -> StratumPoint:
    """Recover stratum data from a point in the closed chart region of T.

    Root data come from recursive cluster averages of the positions; the
    configuration at an internal vertex is rebuilt from directions and
    ratios anchored at the two smallest representative leaves, then
    recentred and rescaled; the scale of a vertex is the ratio of its
    cluster extent to its parent's, measured in the parent's frame (the
    root's extent counts as 1).  Every frame is one slice of a stack of
    states; cluster centres fill it one height at a time, grouped by child
    count, so each mean adds the same children in the same order.

    The point lies in the closed chart region when its stratum's tree is a
    contraction of T.  That is decided on arrays, from the vanishing ratios
    D <= tol and the cluster masks of T's plan (_in_region), without
    building the stratum's tree; only a point refused there is classified
    with stratum_tree, so that a pattern breaking an exclusion axiom raises
    stratum_tree's own error before the region's.
    """
    if T.n != a.n:
        raise ValueError("tree and point have different index counts")
    plan = _chart_plan(T)
    if not _in_region(plan, T, a, tol):
        stratum_tree(a, tol)  # a pattern that breaks an exclusion axiom raises its own error
        raise ValueError("point lies outside the chart region of the tree")
    Z = np.zeros((plan.states, a.m))
    Z[plan.leaf_states] = a.x
    state, i0, j, k0, unit = plan.frames
    length = np.where(unit, 1.0, a.D[i0, j, k0])
    if np.isinf(length).any():
        raise ValueError("point lies outside the chart region of the tree")
    Z[state] = length[:, None] * a.U[j, i0]
    for dst, src in plan.centres:
        Z[dst] = np.add.reduce(Z[src], axis=1) / src.shape[1]

    child, top = plan.spans
    diff = Z[child] - Z[top]
    half = len(diff) // 2
    rows = diff[:half]
    extent = np.maximum.reduceat(_norms(rows), plan.inner)
    if not extent.all():
        v = T.n + 1 + np.flatnonzero(extent == 0.0)[0]
        raise ValueError(f"cluster at vertex {v} is degenerate")
    # a vertex's extent in its parent's frame over the parent's own, both
    # rounded like the norm of one row
    norms = row_norms(diff)
    d_v = np.maximum.reduceat(norms[half:], plan.inner)
    d_p = np.append(np.maximum.reduceat(norms[:half], plan.inner), 1.0)[plan.parent_block]
    C = np.concatenate([Z[plan.root_states], rows / np.repeat(extent, plan.counts[1:])[:, None]])
    S = np.zeros(T.num_vertices)
    S[T.n + 1 :] = d_v / d_p
    _check_stratum(plan, T, C, S)
    return _record(StratumPoint, tree=T, C=C, S=S)


def stratum_sample(T: trees.FTree, m: int, seed: int) -> StratumPoint:
    """Deterministic pseudo-random stratum data with comfortable margins.

    The draws are not checked again: each internal block is centred with
    max norm 1 and its rows at least 0.1 apart, the root rows are apart
    too, and each scale is drawn from [0, bound), with bound computed from
    the rows as _check_stratum computes it."""
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
            if _min_gap(pts, *_tables(k).upairs.T) >= margin:
                return pts
        raise RuntimeError("sampling failed to reach the separation margin")

    k0 = len(T.children[0])
    root = rng.normal(size=(1, m)) if k0 == 1 else draw(k0)
    C = np.concatenate([root, *(draw(len(T.children[v])) for v in T.internal_vertices)])
    bound = _scale_bound(_min_gap(C, *_chart_plan(T).siblings))
    S = np.zeros(T.num_vertices)
    S[T.n + 1 :] = [float(rng.uniform(0.0, bound)) for _ in T.internal_vertices]
    return _record(StratumPoint, tree=T, C=C, S=S)


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
    # whole arrays: U's diagonal is zero in both, and D is NaN exactly off the
    # distinct triples, which fmax skips
    with np.errstate(invalid="ignore"):
        ca, cb = (np.where(np.isinf(v), 1.0, v / (1.0 + v)) for v in (a.D, b.D))
    gaps = (np.abs(a.x - b.x), row_norms(a.U - b.U), np.abs(ca - cb))
    return max(float(np.fmax.reduce(g, axis=None, initial=0.0)) for g in gaps)
