"""The direction-only compactification: membership, classification, inversion.

Dropping the ratio coordinates leaves positions and pairwise unit directions.
The image of the open configuration space is cut out by antisymmetry, a
non-negative dependence condition on direction triangles, and a 12-term
consistency identity over four-index subsets; those checks, the tree
classification readable from direction coincidences, the discontinuous
inverse that rebuilds positions by intersecting rays, and the one-parameter
families that approximate boundary points all live here.  Such a family is
the chart map at scale eps: the inverse rebuilds each vertex's configuration
from the point's directions, and the chart layer's expansion kernel places
the leaves with every internal scale set to eps.

The consistency identity sums, over the straight 3-circuits of a sorted
four-index set modulo reversal, the signed product of the circuit's three
directions dotted against a probe v and the complementary circuit's three
dotted against a probe w.  Every term contains each of the six index pairs
exactly once, so all directions may enter with the smaller index first; the
sign of a circuit is the parity of its vertex sequence.  Each complement
circuit is another circuit of the table, entered in the same slot order, so
the complement products are the circuit products read through a fixed
involution _PI, and the identity is antisymmetric in its probes.  One kernel
(_four_consistency) sums it for all four callers: membership's check block
and the CLI's residual table gather the six pairs from U, and
four_consistency_residual reads its mapping through _direction_rows.  The
frozen table (circuit, complement, sign), validated by the empirical
calibration in calibrate_circuit_signs, is:

    +  1-2-3-4  | 2-4-1-3        -  2-1-3-4  | 1-4-2-3
    -  1-2-4-3  | 2-3-1-4        +  2-1-4-3  | 1-3-2-4
    -  1-3-2-4  | 2-1-4-3        +  2-3-1-4  | 1-2-4-3
    +  1-3-4-2  | 3-2-1-4        -  2-4-1-3  | 1-2-3-4
    +  1-4-2-3  | 2-1-3-4        +  3-1-2-4  | 1-4-3-2
    -  1-4-3-2  | 3-1-2-4        -  3-2-1-4  | 1-3-4-2
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import trees
from .canonical import (
    DEFAULT_TOL,
    AmbientPoint,
    Configuration,
    ManifoldDescriptor,
    SimplicialPoint,
    Verdict,
    _Block,
    _chart_plan,
    _check_manifold,
    _distances,
    _expansion_positions,
    _gather_directions,
    _is_trunk,
    _min_gap,
    _positions,
    _quads,
    _shared_blocks,
    _record,
    _tables,
    _unit_directions,
    _verdict,
    config_scale,
    lift_configuration,
    normalize,
)
from .numerics import (
    _float_array,
    nonneg_dependent,
    ray_intersection,
    require_unit,
    row_norms,
    sign_distinct,
)

Pair = tuple[int, int]


# -- points -------------------------------------------------------------------


def simplicial_point(x, u: Mapping[Pair, np.ndarray]) -> SimplicialPoint:
    pts = _positions(x)
    return _record(SimplicialPoint, x=pts, U=_unit_directions(_gather_directions(u, *pts.shape)))


def to_simplicial(a: AmbientPoint) -> SimplicialPoint:
    """Forget the ratio coordinates."""
    return _record(SimplicialPoint, x=a.x, U=a.U)


# -- dependence and consistency -------------------------------------------------


def three_dependent(u1, u2, u3, tol: float = DEFAULT_TOL) -> bool:
    """Whether three unit vectors admit a non-negative nontrivial dependence."""
    vecs = [require_unit(v, "direction") for v in (u1, u2, u3)]
    ok, _ = nonneg_dependent(vecs, tol)
    return ok


def _parity(seq: Sequence[int]) -> int:
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inv % 2 else 1


def _complement_path(path: tuple[int, ...]) -> tuple[int, ...]:
    """The path c-a-d-b through the pairs that a-b-c-d misses, from its smaller end."""
    a, b, c, d = path
    return (b, d, a, c) if b < c else (c, a, d, b)


def _circuit_table() -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    # permutations come in lexicographic order, so the table is sorted
    return tuple(
        (perm, _complement_path(perm), _parity(perm))
        for perm in itertools.permutations(range(4))
        if perm[0] < perm[3]
    )


_CIRCUITS = _circuit_table()
_EDGE_SLOT = {
    pair: slot for slot, pair in enumerate(itertools.combinations(range(4), 2))
}


def _edge_slots(path: tuple[int, ...]) -> tuple[int, int, int]:
    return tuple(_EDGE_SLOT[tuple(sorted(e))] for e in zip(path, path[1:]))


_QUAD_PAIRS = np.array(list(itertools.combinations(range(4), 2)))
_C_SLOTS = np.array([_edge_slots(p) for p, _, _ in _CIRCUITS])
_SIGNS = np.array([s for _, _, s in _CIRCUITS], dtype=float)
_ONES = np.ones(len(_CIRCUITS))
# Each complement circuit's slots are those of the circuit _PI names, in the
# same order, so its products are the circuit products read through _PI, bit
# for bit.  _PI is an involution without fixed points and _SIGNS[_PI] is
# -_SIGNS, so the identity is antisymmetric in its probes: swapping v and w
# negates every term.
_PI = np.array(
    [_C_SLOTS.tolist().index(list(_edge_slots(c))) for _, c, _ in _CIRCUITS], dtype=np.intp
)


@dataclass(frozen=True)
class Circuit3:
    """A straight 3-circuit on four indices, with its complement and sign.

    The vertex sequence is the canonical representative modulo reversal
    (first vertex smaller than last); the sign is the parity of the sequence
    as a permutation of the sorted index set.
    """

    vertices: tuple[int, int, int, int]
    complement: tuple[int, int, int, int]
    sign: int

    @property
    def edges(self) -> tuple[Pair, Pair, Pair]:
        return tuple(zip(self.vertices, self.vertices[1:]))

    @classmethod
    def all_on(cls, indices) -> tuple["Circuit3", ...]:
        idx = sorted(indices)
        if len(idx) != 4 or len(set(idx)) != 4:
            raise ValueError("circuits need four distinct indices")
        return tuple(
            cls(
                tuple(idx[p] for p in path),
                tuple(idx[p] for p in comp),
                sign,
            )
            for path, comp, sign in _CIRCUITS
        )


def _direction_rows(u: Mapping[Pair, np.ndarray], idx: Sequence[int], m: int) -> np.ndarray:
    """Stack u, where either orientation of a pair may stand, over the six
    index pairs (smaller index first) in slot order; each must have m entries."""
    rows = []
    for a, b in itertools.combinations(idx, 2):
        pair, sign = ((a, b), 1.0) if (a, b) in u else ((b, a), -1.0)
        if pair not in u:
            raise ValueError(f"missing direction for pair ({a},{b})")
        row = _float_array(u[pair], f"direction for pair {pair} is not numeric")
        if row.shape != (m,):
            raise ValueError(f"direction for pair {pair} has wrong dimension")
        rows.append(sign * row)
    return np.stack(rows)


def _circuit_products(dots: np.ndarray) -> np.ndarray:
    """The unsigned products (Q, 12, P) of each circuit's three directions on
    Q four-index subsets, from the six pair directions' dot products (slot
    order) with P probes, (Q, 6, P).  The complement circuits' products at
    the same probes are these read through _PI.  np.take gathers each
    factor, faster than one fancy index of all three, and they are
    multiplied in place in the order prod(axis=2) would take."""
    prod = np.take(dots, _C_SLOTS[:, 0], axis=1)
    for slots in _C_SLOTS.T[1:]:
        prod *= np.take(dots, slots, axis=1)
    return prod


def _four_consistency(prod_c: np.ndarray, prod_s: np.ndarray, form: str = "c,qcv,qcw->qvw"):
    """The identity's signed sums and sums of absolute terms, (Q, P, R) each,
    from the circuit products at P probes v, (Q, 12, P), and the complement
    circuits' products at R probes w, (Q, 12, R).  Given the form
    "c,qck,qck->qk", it sums the K probe pairs (v_k, w_k) that prod_c and
    prod_s hold in their last axes instead, to (Q, K).

    Both sums are three-operand einsums, weighted by the signs or by ones,
    which add the twelve terms one after another in circuit order whatever
    the shapes; a two-operand einsum switches to a vectorised order when the
    circuit axis is the only one left.  So a probe pair's sums have the same
    bits in either form."""
    res = np.einsum(form, _SIGNS, prod_c, prod_s)
    scale = np.einsum(form, _ONES, np.abs(prod_c), np.abs(prod_s))
    return res, scale


def four_consistency_residual(u: Mapping[Pair, np.ndarray], v, w) -> float:
    """Signed residual of the four-index consistency identity at probes (v, w).

    The sum runs over the twelve straight 3-circuits modulo reversal; each
    term multiplies the circuit's directions against v and the complementary
    circuit's against w, weighted by the circuit sign.  Directions enter
    with the smaller index first, which is sound because every term contains
    each of the six pairs exactly once.
    """
    idx = sorted({i for pair in u for i in pair})
    if len(idx) != 4:
        raise ValueError("four-consistency needs exactly four indices")
    v = require_unit(v, "v")
    w = require_unit(w, "w")
    if v.ndim != 1 or w.shape != v.shape:
        raise ValueError("probes v and w must be vectors of one dimension")
    rows = _direction_rows(u, idx, len(v))
    prod_c = _circuit_products((rows @ v)[None, :, None])
    res, _ = _four_consistency(prod_c, _circuit_products((rows @ w)[None, :, None])[:, _PI])
    return float(res[0, 0, 0])


def calibrate_circuit_signs(
    samples: int = 200, seed: int = 0, tol: float = 1e-8
) -> tuple[int, ...]:
    """Recover the circuit sign table empirically.

    Evaluates the unsigned circuit terms on random planar four-point
    configurations at random probes and extracts the null space of the
    sample matrix; a unique one-dimensional null space with entries of equal
    magnitude is required.  The global sign is fixed so the identity-order
    circuit gets +1.  Raises if the data do not pin the table down; fewer
    samples than circuits never do, as the reduced SVD then has no null vector.
    """
    if samples < len(_CIRCUITS):
        raise ValueError(
            f"fewer than {len(_CIRCUITS)} samples cannot pin the sign table (got {samples})"
        )
    rng = np.random.default_rng(seed)
    dv, dw = [], []
    for _ in range(samples):
        pts = rng.uniform(-1.0, 1.0, size=(4, 2))
        while _min_gap(pts, *_tables(4).upairs.T) < 0.1:
            pts = rng.uniform(-1.0, 1.0, size=(4, 2))
        urows = lift_configuration(pts).U[_QUAD_PAIRS[:, 0], _QUAD_PAIRS[:, 1]]
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        dv.append(urows @ v)
        dw.append(urows @ w)
    prod_c = _circuit_products(np.array(dv))
    mat = prod_c * _circuit_products(np.array(dw))[:, _PI]
    _, svals, vt = np.linalg.svd(mat, full_matrices=False)
    if svals[-1] > tol * svals[0]:
        raise ValueError("no vanishing sign combination found")
    if svals[-2] <= tol * svals[0]:
        raise ValueError("sign table is not unique on these samples")
    vec = vt[-1]
    top = np.abs(vec).max()
    if np.abs(np.abs(vec) - top).max() > 1e-6 * top:
        raise ValueError("null vector entries are not of equal magnitude")
    signs = np.sign(vec).astype(int)
    if signs[0] < 0:  # the first circuit is the identity order 1-2-3-4
        signs = -signs
    return tuple(int(s) for s in signs)


# -- membership ----------------------------------------------------------------


def membership_simplicial(
    p: SimplicialPoint, manifold: ManifoldDescriptor | None = None, tol: float = DEFAULT_TOL
) -> Verdict:
    """Verify the direction-only membership conditions.

    Checks macroscopic consistency of directions with distinct positions,
    antisymmetry, non-negative dependence on all triangles, the consistency
    identity on every four-index subset at all coordinate-basis probe pairs,
    and the manifold's own clauses (on-manifold and tangency for a sphere).

    Violations are reported in that order: S1-direction, S2-antisymmetry,
    S2-dependence, S3-four-consistency, S4-on-manifold, S4-tangency.  Within
    a condition, indices follow itertools enumeration order, and a
    four-consistency entry is the sorted quad followed by the probe axes
    (v, w), with w varying fastest.  The identity is antisymmetric in its
    probes, so only the rows v < w are summed: a diagonal row (v, v) holds
    exactly 0 and a mirror row (w, v) the residual and bound of its row
    (v, w).  At m = 1 the one probe pair is the diagonal, so S3 checks
    nothing there.  Each condition runs as one array kernel
    over the point's U, read through index tables cached per n; the first
    three are the same kernels as in membership_canonical, and S1-direction
    rows are held to 1-direction's bound tol + c·u·κ.
    """
    return _verdict(_simplicial_blocks(p, _check_manifold(manifold, p.m), tol), tol)


def _simplicial_blocks(
    p: SimplicialPoint, manifold: ManifoldDescriptor, tol: float
) -> list[_Block]:
    """membership_simplicial's check blocks, in its report order."""
    U = p.U
    dist = _distances(p.x)
    scale = config_scale(p.x)
    return [
        *_shared_blocks(("S1", "S2"), p.x, U, dist, scale, tol),
        _four_consistency_block(U, tol),
        *manifold.blocks("S4", p.x, U, dist, tol * scale),
    ]


def _basis_products(U: np.ndarray):
    """The 4-subsets of U's labels (0-based, combinations order) and their
    circuit products at the basis probes, (Q, 12, m).  With basis probes the
    complement products are the same rows' products read through _PI."""
    quads = _quads(U.shape[0])
    rows = U[quads[:, _QUAD_PAIRS[:, 0]], quads[:, _QUAD_PAIRS[:, 1]]]
    return quads, _circuit_products(rows)


def _basis_residuals(U: np.ndarray):
    """The 4-subsets of U's labels (0-based, combinations order) and the
    identity's signed and absolute sums at every basis probe pair, (Q, m, m)."""
    quads, prod_c = _basis_products(U)
    res, scale = _four_consistency(prod_c, prod_c[:, _PI])
    return quads, res, scale


@functools.lru_cache(maxsize=16)
def _probe_tables(n: int, m: int):
    """The S3 block's tables for n labels and m probe axes, read-only: its
    index rows (quad, v, w), the probe pairs v < w as two arrays, and for
    each of a quad's m² rows the column it reads from [0, |residual| at each
    pair v < w]: 0 on the diagonal, the pair's column at (v, w) and (w, v).
    The index is int16, a quarter of intp's size: it grows as n^4·m² and
    stays cached, and memory runs out long before a label reaches 2^15."""
    probes = np.array(list(itertools.product(range(m), repeat=2)), dtype=np.int16)
    quads = _quads(n).astype(np.int16)
    index = np.concatenate(
        [np.repeat(quads, m * m, axis=0), np.tile(probes, (len(quads), 1))], axis=1
    )
    v, w = np.triu_indices(m, 1)
    column = np.zeros((m, m), dtype=np.intp)
    column[v, w] = column[w, v] = np.arange(1, len(v) + 1)
    tables = (index, v, w, column.reshape(-1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _four_consistency_block(U: np.ndarray, tol: float):
    """The consistency identity on every 4-subset at every basis probe pair.

    Rows run over (quad, v, w) in that nesting; each residual is bounded by
    tol times the sum of the absolute terms (at least tol).  The identity is
    antisymmetric in its probes, so only the pairs v < w are summed: a
    diagonal row's residual is exactly 0 (each term cancels its _PI
    partner), and a mirror row (w, v) gets the residual and bound of its
    row (v, w), which it equals up to the rounding of the two sums.
    """
    index, v, w, column = _probe_tables(U.shape[0], U.shape[2])
    _, prod_c = _basis_products(U)
    pv, pw = prod_c[:, :, v], prod_c[:, _PI[:, None], w]
    del prod_c  # megabytes at n = 30, and not read again
    res, scale = _four_consistency(pv, pw, "c,qck,qck->qk")
    residual = np.zeros((len(res), len(v) + 1))
    residual[:, 1:] = np.abs(res)
    bound = np.full(residual.shape, tol)
    bound[:, 1:] = tol * np.maximum(1.0, scale)
    return (
        "S3-four-consistency",
        index,
        residual[:, column].reshape(-1),
        bound[:, column].reshape(-1),
    )


# -- classification --------------------------------------------------------------


def _exclusion_mask(U: np.ndarray, tol: float) -> np.ndarray:
    """Over the ordered triples (i, j, k) of _tables, whether the directions
    from k to i and to j agree while u_ij is not parallel to them, tested in
    one array pass."""
    i, j, k = _tables(len(U)).triples.T
    return (row_norms(U[i, k] - U[j, k]) <= tol) & sign_distinct(U[i, j], U[i, k], tol)


def _direction_exclusions(U: np.ndarray, tol: float):
    """The exclusions ((i, j), k) of U, 1-based, as a set."""
    hit = _exclusion_mask(U, tol)
    return {((a, b), c) for a, b, c in (_tables(len(U)).triples[hit] + 1).tolist()}


def stratum_tree_of_directions(p: SimplicialPoint, tol: float = DEFAULT_TOL) -> trees.FTree:
    """Classify a direction point by its coincidence pattern.

    Indices i and j exclude k when the directions from k to i and to j agree
    while the direction between i and j is not parallel to them; a trunk is
    added when all positions coincide.  Raises if the pattern violates the
    exclusion axioms at this tolerance.
    """
    rel = _direction_exclusions(p.U, tol)
    return trees.tree_from_exclusions(rel, p.n, _is_trunk(p.x, tol))


# -- reconstruction ---------------------------------------------------------------


def reconstruct_from_directions(
    u: Mapping[Pair, np.ndarray], tol: float = DEFAULT_TOL
) -> Configuration:
    """Rebuild a normalized configuration from a full direction matrix.

    Requires direction data with no exclusions.  When every direction is
    parallel to a common line, the indices are totally ordered along it and
    returned equally spaced (direction data cannot see the spacing).
    Otherwise the first two points anchor the scale and the remaining points
    are grown by intersecting rays from already-placed points, taking the
    smallest eligible index and the lexicographically smallest witnessing
    pair; intersections are least-squares and must have positive ray
    parameters.  The output satisfies lift_configuration(out).u == u up to
    tolerance, which fixes all orientation choices.
    """
    n = math.isqrt(len(u)) + 1  # isqrt(n(n - 1)) = n - 1
    if n < 2 or n * (n - 1) != len(u):
        raise ValueError("direction matrix does not cover labels 1..n")
    first = np.asarray(next(iter(u.values())))
    m = len(first) if first.ndim == 1 else 0
    return _reconstruct(_unit_directions(_gather_directions(u, n, m)), tol)


def _reconstruct(U: np.ndarray, tol: float) -> Configuration:
    """reconstruct_from_directions on a checked direction array U."""
    n, m = U.shape[0], U.shape[2]
    if _exclusion_mask(U, tol).any():
        raise ValueError("direction matrix has exclusions; not a single stratum")

    ref = U[0, 1]
    i, j = _tables(n).pairs.T
    if not sign_distinct(U[i, j], ref, tol).any():
        # all directions parallel: rank each label by the pairs pointing along ref
        rank = np.bincount(i[row_norms(U[i, j] - ref) <= tol], minlength=n)
        if sorted(rank.tolist()) != list(range(n)):
            raise ValueError("collinear directions do not totally order the labels")
        return normalize(rank[:, None] * ref)

    placed: dict[int, np.ndarray] = {0: np.zeros(m), 1: U[1, 0].copy()}
    # The rule below places a label with the anchor pair (0, 1) whenever that
    # pair can place it and every smaller label is placed, so one batched
    # solve places the labels 2, 3, ... up to the first one the pair cannot.
    s, t, points = ray_intersection(placed[0], U[2:, 0], placed[1], U[2:, 1])
    ok = sign_distinct(U[2:, 0], U[2:, 1], tol) & (s > tol) & (t > tol)
    stop = len(ok) if ok.all() else int(np.argmin(ok))
    placed.update(zip(range(2, 2 + stop), points[:stop]))
    while len(placed) < n:
        todo = sorted(set(range(n)) - set(placed))
        for k, i, j in itertools.product(todo, sorted(placed), sorted(placed)):
            if i != j and sign_distinct(U[k, i], U[k, j], tol):
                s, t, point = ray_intersection(placed[i], U[k, i], placed[j], U[k, j])
                if s > tol and t > tol:
                    placed[k] = point
                    break
        else:
            raise ValueError("no eligible ray intersection; directions are numerically collinear")
    return normalize(np.stack([placed[i] for i in range(n)]))


# -- approximating families --------------------------------------------------------


_EPS_FLOOR = 2.0**-43  # the smallest eps^levels of an approximating configuration


def approximating_configuration(
    p: SimplicialPoint, eps: float, tol: float = DEFAULT_TOL
) -> Configuration:
    """An open configuration whose directions approach the point as eps -> 0.

    The family is the chart map at scale eps on stratum data rebuilt from
    the point: classify it, rebuild each vertex's configuration from the
    directions among one representative leaf per child (a trunk's one root
    row is 0), and expand these rows with every internal scale set to eps,
    so each leaf sums the offsets along its root path with weight eps^depth.
    eps may exceed the rows' scale bound: no stratum record is made.

    The deepest offsets, eps^levels below the rows they are added to
    (levels counts the nested clusters under the first vertex that spreads
    its children; a trunk's zero row spreads none), must stay above
    _EPS_FLOOR = 2^-43, 1024 units of rounding u = 2^-53: otherwise the
    rounding of the unit-sized sums they are added to turns the deepest
    clusters' directions by more than about 1e-3, or makes their points
    coincide, and a ValueError naming eps is raised.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    t = stratum_tree_of_directions(p, tol)
    trunk = len(t.children[0]) == 1
    levels = max(map(t.depth, t.internal_vertices), default=0) - trunk
    if eps**levels < _EPS_FLOOR:
        raise ValueError(
            f"eps = {eps!r} puts the deepest of {levels} nested clusters at eps^{levels},"
            f" below the floor {_EPS_FLOOR:.3g} where rounding hides their offsets"
        )
    rows = []
    for v in (0, *t.internal_vertices):
        reps = [min(t.leaves_over[c]) - 1 for c in t.children[v]]
        if len(reps) == 1:
            rows.append(np.zeros((1, p.m)))
        else:
            rows.append(_reconstruct(p.U[np.ix_(reps, reps)], tol).points)
    S = np.zeros(t.num_vertices)
    S[t.n + 1 :] = eps
    plan = _chart_plan(t)
    pos = _expansion_positions(plan, np.concatenate(rows), S, np.ones(1))
    return Configuration(pos[0, plan.leaf_states])
