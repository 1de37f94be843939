"""Functoriality in the index set: projections, doubling maps, cosimplicial structure.

Points decorated with a unit tangent frame per index support maps that
change the index set: injective maps project coordinates, arbitrary maps act
contravariantly on framed direction points (duplicated indices string out
along the frame), and framed ratio points admit doubling maps whose ratio
data on the new cluster come from a compactified-interval parameter.
A framed point keeps its frames as one frozen (n, m) array F.  framed_point
is the only way to make one, and the one place frames are checked; every
map selects rows of F and does not check them again.  Projections of framed
points, pullback and the diagonal maps share one pullback (_pullback): it
checks the map's codomain against the point before it gathers anything, then
gathers x, U and D, gathers F, and sets the directions within each collapsed
fiber to plus or minus its frame.

Orientation convention for a collapsed pair created by a non-injective map:
u_ij is plus the inherited frame when i < j.  This is the unique
antisymmetric choice matching the composite identities for monotone maps;
no antisymmetric convention satisfies them for maps that reverse the order
inside a fiber (a swap on a collapsed pair would have to flip the sign),
which is why the composition law is stated for fiber-order-preserving maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import trees
from .canonical import (
    DEFAULT_TOL,
    AmbientPoint,
    Euclidean,
    ManifoldDescriptor,
    SimplicialPoint,
    Verdict,
    _Coordinates,
    _Frozen,
    _canonical_blocks,
    _check_manifold,
    _record,
    _relabel,
    _tables,
    _verdict,
    ambient_point,  # unused here; perfbench/selftest.py checks this binding site
    membership_canonical,
)
from .numerics import require_unit
from .simplicial import _simplicial_blocks


@dataclass(frozen=True, eq=False, init=False)
class FramedPoint(_Frozen):
    """An ambient or simplicial point with a unit tangent vector per index:
    F[i-1] is the frame at index i, and frames reads F keyed by 1..n."""

    point: AmbientPoint | SimplicialPoint
    F: np.ndarray

    @property
    def frames(self) -> Mapping[int, np.ndarray]:
        return _Coordinates(self.F, dict(zip(range(1, self.n + 1), range(self.n))))

    @property
    def n(self) -> int:
        return self.point.n

    @property
    def m(self) -> int:
        return self.point.m

    @property
    def is_ambient(self) -> bool:
        return isinstance(self.point, AmbientPoint)


def framed_point(point, frames) -> FramedPoint:
    """point with frames, a sequence in index order or a mapping keyed by
    1..n: the one place frames are checked."""
    if not isinstance(point, (AmbientPoint, SimplicialPoint)):
        raise ValueError("point must be an ambient or simplicial point")
    if not isinstance(frames, Mapping):
        try:
            frames = dict(enumerate(frames, 1))
        except TypeError:
            raise ValueError("'frames' must be a sequence or a mapping of frames") from None
    F = np.empty((point.n, point.m))
    for i in range(1, point.n + 1):
        if i not in frames:
            raise ValueError(f"missing frame at index {i}")
        vec = require_unit(frames[i], f"frame at {i}")
        if vec.shape != (point.m,):
            raise ValueError(f"frame at {i} has wrong dimension")
        F[i - 1] = vec
    if len(frames) != point.n:
        key = next(key for key in frames if key not in range(1, point.n + 1))
        raise ValueError(f"frames key {key!r} is not a label in 1..{point.n}")
    return _record(FramedPoint, point=point, F=F)


def membership_framed(
    fp: FramedPoint, manifold: ManifoldDescriptor | None = None, tol: float = DEFAULT_TOL
) -> Verdict:
    """Membership of the underlying point plus the manifold's frame clauses
    (frame-tangency for a sphere), reported after the point's."""
    manifold = _check_manifold(manifold, fp.m)
    blocks = (_canonical_blocks if fp.is_ambient else _simplicial_blocks)(fp.point, manifold, tol)
    return _verdict([*blocks, *manifold.frame_blocks(fp.point.x, fp.F)], tol)


# -- coordinate projections -----------------------------------------------------


def project_indices(sigma: trees.SetMap, p):
    """Select the coordinates along an injective index map.

    Works on ambient, simplicial, and framed points, returning the same
    kind; the stratum tree of the result is the pruned stratum tree of the
    input.
    """
    if not sigma.is_injective:
        raise ValueError("projection requires an injective index map")
    if isinstance(p, FramedPoint):
        fields, F = _pullback(sigma, p)
        return _record(FramedPoint, point=_record(type(p.point), **fields), F=F)
    if sigma.n != p.n:
        raise ValueError("index map codomain does not match the point")
    return _record(type(p), **_relabel(p, sigma.values))


# -- contravariant action on framed direction points ------------------------------


def pullback(sigma: trees.SetMap, fp: FramedPoint) -> FramedPoint:
    """Relabel a framed direction point along an arbitrary index map.

    Index j of the result carries the data of sigma(j); indices collapsed to
    a common target copy its frame, and the direction between two collapsed
    indices is that frame, oriented by index order (see the module note).
    """
    if fp.is_ambient:
        raise ValueError("pullback acts on framed direction points")
    fields, F = _pullback(sigma, fp)
    return _record(FramedPoint, point=_record(SimplicialPoint, **fields), F=F)


def _pullback(sigma: trees.SetMap, fp: FramedPoint) -> tuple[dict, np.ndarray]:
    """The fields x, U (and D) of fp's point and its frames F, index j
    carrying the data of sigma(j), after the codomain check.  Where indices
    a < b share a target, u_ab is +F[a] and u_ba is -F[a], the frame of that
    target."""
    if sigma.n != fp.n:
        raise ValueError("index map codomain does not match the point")
    values = np.asarray(sigma.values, dtype=np.intp)
    fields, F = _relabel(fp.point, values), fp.F[values - 1]
    a, b = np.nonzero(np.triu(values[:, None] == values[None, :], 1))
    fields["U"][a, b] = F[a]
    fields["U"][b, a] = -F[a]
    return fields, F


# -- doubling maps -----------------------------------------------------------------


def doubling_map(i: int, k: int, n: int) -> trees.SetMap:
    """The surjection {1..n+k} -> {1..n} collapsing {i..i+k} to i."""
    if not 1 <= i <= n or k < 1:
        raise ValueError("doubling needs 1 <= i <= n and k >= 1")
    values = []
    for j in range(1, n + k + 1):
        if j < i:
            values.append(j)
        elif j <= i + k:
            values.append(i)
        else:
            values.append(j - k)
    return trees.SetMap(n + k, n, tuple(values))


def section_of_doubling(i: int, k: int, n: int) -> trees.SetMap:
    """The injection {1..n} -> {1..n+k} keeping one copy of each index."""
    values = tuple(j if j <= i else j + k for j in range(1, n + 1))
    return trees.SetMap(n, n + k, values)


def _check_assoc_parameter(assoc: AmbientPoint, k: int, tol: float):
    if assoc.m != 1:
        raise ValueError("interval parameter must be one-dimensional")
    if assoc.n != k + 1:
        raise ValueError(f"interval parameter needs {k + 1} indices")
    r, s = _tables(assoc.n).pairs.T
    if (np.abs(assoc.U[r, s, 0] - np.where(r < s, -1.0, 1.0)) > tol).any():
        raise ValueError("interval parameter is not in increasing order")
    verdict = membership_canonical(assoc, Euclidean(1), tol)
    if not verdict.passed:
        raise ValueError("interval parameter fails membership")


def diagonal_map(
    fp: FramedPoint,
    i: int,
    k: int = 1,
    assoc: AmbientPoint | None = None,
    tol: float = DEFAULT_TOL,
) -> FramedPoint:
    """Replace index i by k+1 infinitesimal copies strung along its frame.

    Positions, directions, and frames transport along the collapsing index
    map; ratio coordinates are filled case by case: triples meeting the new
    cluster in at most one index copy the old ratio, mixed triples are
    pinned at 0, 1, or infinity by which two indices collapsed, and triples
    inside the cluster take the ratio data of the compactified-interval
    parameter `assoc` (k+1 ordered points on a line; for k = 1 the parameter
    is unique and may be omitted).  Projecting back along the section that
    keeps index i recovers the input exactly.
    """
    if not fp.is_ambient:
        raise ValueError("diagonal maps act on framed ambient points")
    n = fp.n
    sigma = doubling_map(i, k, n)
    if k >= 2:
        if assoc is None:
            raise ValueError("k >= 2 needs an interval parameter")
        _check_assoc_parameter(assoc, k, tol)
    fields, F = _pullback(sigma, fp)
    D = fields["D"]
    # triples with two indices in the new cluster i..i+k; the gather left
    # NaN there, and the cluster block itself is the interval parameter's
    cluster = slice(i - 1, i + k)
    inside = np.zeros(n + k, dtype=bool)
    inside[cluster] = True
    triples = _tables(n + k).triples
    ia, ib, ic = inside[triples].T
    for mask, value in ((ia & ib & ~ic, 0.0), (ib & ic & ~ia, 1.0), (ia & ic & ~ib, math.inf)):
        D[tuple(triples[mask].T)] = value
    if k >= 2:
        D[cluster, cluster, cluster] = assoc.D
    return _record(FramedPoint, point=_record(AmbientPoint, **fields), F=F)


# -- cosimplicial structure over the interval ---------------------------------------


def monotone_dual(sigma: Sequence[int], m: int) -> trees.SetMap:
    """The index map {1..m+2} -> {1..n+2} induced by a monotone map [n] -> [m].

    With simplex coordinates 0 = t_0 <= t_1 <= ... <= t_n <= t_(n+1) = 1 and
    vertices labelled by their number of ones, the linear extension of sigma
    on vertices reads coordinate j of the image off coordinate
    n + 1 - #{i : sigma(i) < m + 1 - j} of the source; the two boundary
    indices map to the boundary indices.
    """
    sigma = list(sigma)
    n = len(sigma) - 1
    if n < 0:
        raise ValueError("sigma must have at least one value")
    for a, b in zip(sigma, sigma[1:]):
        if b < a:
            raise ValueError("sigma is not monotone")
    if not (0 <= sigma[0] and sigma[-1] <= m):
        raise ValueError(f"sigma values must lie in 0..{m}")
    values = [1]
    for j in range(1, m + 1):
        count = sum(1 for v in sigma if v < m + 1 - j)
        values.append(n + 1 - count + 1)
    values.append(n + 2)
    return trees.SetMap(m + 2, n + 2, tuple(values))


def _check_interval_decoration(fp: FramedPoint, tol: float):
    p = fp.point
    if p.m != 1:
        raise ValueError("interval points are one-dimensional")
    if (
        abs(float(p.x[0, 0])) > tol
        or abs(float(p.x[-1, 0]) - 1.0) > tol
    ):
        raise ValueError("end points must sit at 0 and 1")
    if (
        abs(float(fp.F[0, 0]) - 1.0) > tol
        or abs(float(fp.F[-1, 0]) + 1.0) > tol
    ):
        raise ValueError("end frames must be +1 at 0 and -1 at 1")


def cosimplicial_map(
    fp: FramedPoint, sigma: Sequence[int], m: int, tol: float = DEFAULT_TOL
) -> FramedPoint:
    """Apply the structure map of a monotone map to a decorated interval point.

    The point has n+2 entries over [0,1] with the ends pinned at 0 and 1 and
    end frames +1 and -1; the result has m+2 entries and its interior
    positions transform exactly like the standard simplex coordinates.
    """
    if fp.is_ambient:
        raise ValueError("cosimplicial structure lives on direction points")
    _check_interval_decoration(fp, tol)
    n = len(sigma) - 1
    if fp.n != n + 2:
        raise ValueError("sigma length does not match the point")
    tau = monotone_dual(sigma, m)
    return pullback(tau, fp)
