"""Shared sampling utilities and independent oracles for the test suite.

The oracles here deliberately use different mechanisms than the library:
counting recurrences, breadth-first set enumeration, polygon dissections,
and direct distance ratios.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

import confspace as cs
from confspace import jsonio
from confspace.canonical import _gather_directions
from confspace.numerics import ray_intersection, require_unit, row_norms, sign_distinct
from confspace.simplicial import _direction_exclusions


# -- sampling -------------------------------------------------------------------


def sample_config(rng, n, m, min_sep=0.25):
    """Uniform points in a box with a pairwise separation margin.

    On a line, n points pairwise min_sep apart span (n - 1) * min_sep, which
    must stay below the width 2 of [-1, 1); a margin that cannot fit raises
    before any draw, since no number of draws would meet it.
    """
    if m == 1 and (n - 1) * min_sep >= 2:
        raise ValueError(f"no {n} points on a line in [-1, 1) are {min_sep} apart (m = {m})")
    i, j = np.triu_indices(n, 1)
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(n, m))
        diff = pts[i] - pts[j]
        # a stacked matmul rounds like np.linalg.norm of each row
        dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
        if (dist >= min_sep).all():
            return pts


def min_direction_sine(pts):
    """Smallest sine among the direction angles of a triangle."""
    out = math.inf
    for (i, j), (k, l) in itertools.combinations(
        itertools.combinations(range(3), 2), 2
    ):
        a = pts[i] - pts[j]
        b = pts[k] - pts[l]
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        cross = 1.0 - float(np.dot(a, b)) ** 2
        out = min(out, math.sqrt(max(cross, 0.0)))
    return out


def sample_noncollinear_triple(rng, m, min_sine=1e-3):
    while True:
        pts = sample_config(rng, 3, m, min_sep=0.2)
        if min_direction_sine(pts) >= min_sine:
            return pts


def direction_error(u1, u2):
    return max(
        (float(np.linalg.norm(u1[k] - u2[k])) for k in u1), default=0.0
    )


def random_unit(rng, m):
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


def random_frames(rng, n, m):
    return [random_unit(rng, m) for _ in range(n)]


# -- counting oracles ---------------------------------------------------------------


def catalan(k: int) -> int:
    """Catalan numbers by the convolution recurrence."""
    c = [1]
    for i in range(k):
        c.append(sum(c[j] * c[i - j] for j in range(i + 1)))
    return c[k]


def set_partitions(items):
    """All set partitions of a list, as lists of lists."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for idx in range(len(part)):
            yield part[:idx] + [[head] + part[idx]] + part[idx + 1 :]
        yield [[head]] + part


@lru_cache(maxsize=None)
def total_partitions(n: int) -> int:
    """Hierarchies on n labelled leaves whose every block has size >= 2."""
    if n == 1:
        return 1
    total = 0
    for part in set_partitions(list(range(n))):
        if len(part) < 2:
            continue
        prod = 1
        for block in part:
            prod *= total_partitions(len(block))
        total += prod
    return total


def tree_count_oracle(n: int) -> int:
    """Independent count of all trees: hierarchies with or without the root set."""
    if n == 1:
        return 1
    return 2 * total_partitions(n)


def brute_nested_collections(n: int):
    """Breadth-first enumeration of nested collections, deduplicated by value."""
    subsets = [
        frozenset(c)
        for size in range(2, n + 1)
        for c in itertools.combinations(range(1, n + 1), size)
    ]

    def compatible(a, coll):
        return all((not a & b) or (a & b == a) or (a & b == b) for b in coll)

    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for coll in frontier:
            for a in subsets:
                if a not in coll and compatible(a, coll):
                    grown = coll | {a}
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    return seen


# -- reference tree builder and enumeration ------------------------------------------


@st.composite
def set_families(draw, max_n=7):
    """(n, a list of distinct leaf sets of size >= 2 over 1..n), n <= max_n."""
    n = draw(st.integers(1, max_n))
    if n < 2:
        return n, []
    raw = draw(st.lists(st.sets(st.integers(1, n), min_size=2, max_size=n), max_size=10))
    return n, list(dict.fromkeys(map(frozenset, raw)))


def laminar_part(family):
    """The sets of a family nested in or disjoint from every earlier kept set."""
    kept = []
    for a in family:
        if all(not a & b or a <= b or b <= a for b in kept):
            kept.append(a)
    return kept


def reference_tree_from_nested(sets, n):
    """Canonical tree of a nested family via frozensets and the public FTree.

    Each set hangs below its smallest strict superset and each leaf below
    its smallest containing set; internal vertices are numbered depth first
    with children ordered by minimal leaf label.  The public constructor
    then re-validates the array.
    """
    coll = {frozenset(a) for a in sets}
    parent_set = {}
    for a in coll:
        sups = [b for b in coll if a < b]
        parent_set[a] = min(sups, key=len) if sups else None
    leaf_home = {}
    for i in range(1, n + 1):
        homes = [a for a in coll if i in a]
        leaf_home[i] = min(homes, key=len) if homes else None

    kids_of = {None: []}
    for a in coll:
        kids_of[a] = []
    for a in coll:
        kids_of[parent_set[a]].append(("set", a))
    for i in range(1, n + 1):
        kids_of[leaf_home[i]].append(("leaf", i))

    parent = [-1] * (1 + n + len(coll))
    next_id = n + 1

    def visit(key, my_id):
        nonlocal next_id
        ordered = sorted(
            kids_of.get(key, []),
            key=lambda item: item[1] if item[0] == "leaf" else min(item[1]),
        )
        for kind, val in ordered:
            if kind == "leaf":
                parent[val] = my_id
            else:
                mine = next_id
                parent[mine] = my_id
                next_id += 1
                visit(val, mine)

    visit(None, 0)
    return cs.FTree(n, tuple(parent))


def reference_check_nested(sets, n):
    """The pairwise nested-set check over frozensets: a crossing pair is named
    in set iteration order."""
    out = set()
    for raw in sets:
        a = frozenset(raw)
        if len(a) < 2:
            raise ValueError(f"member set {sorted(a)} has fewer than two labels")
        if not a <= frozenset(range(1, n + 1)):
            raise ValueError(f"member set {sorted(a)} not within 1..{n}")
        out.add(a)
    for a, b in itertools.combinations(out, 2):
        inter = a & b
        if inter and inter != a and inter != b:
            raise ValueError(
                f"sets {sorted(a)} and {sorted(b)} are not nested"
            )
    return out


def _reference_check_exclusions(triples, n):
    rel = frozenset(triples)
    labels = frozenset(range(1, n + 1))
    for (i, j), k in rel:
        if len({i, j, k}) != 3 or not {i, j, k} <= labels:
            raise ValueError(f"bad exclusion triple (({i},{j}),{k})")
        if ((j, i), k) not in rel:
            raise ValueError(f"exclusion (({i},{j}),{k}) lacks its mirror")
        if ((i, k), j) in rel:
            raise ValueError(
                f"exclusions (({i},{j}),{k}) and (({i},{k}),{j}) conflict"
            )
    for (x, y), z in rel:
        for (w, x2), y2 in rel:
            if x2 == x and y2 == y and ((w, x), z) not in rel:
                raise ValueError(
                    f"exclusion relation not transitive at (({w},{x}),{z})"
                )
    return rel


def reference_tree_from_exclusions(triples, n, trunk=False):
    """tree_from_exclusions with a pairwise transitivity check over the
    relation, per-pair cluster sets and the pairwise nested-set check."""
    rel = _reference_check_exclusions(triples, n)
    sets = set()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i:
                continue
            a = {j for j in range(1, n + 1) if ((i, j), k) in rel}
            if a:
                sets.add(frozenset(a | {i}))
    if trunk and n >= 2:
        sets.add(frozenset(range(1, n + 1)))
    coll = reference_check_nested(sets, n)
    if n < 1:
        raise ValueError("a tree needs at least one leaf")
    return reference_tree_from_nested(coll, n)


def reference_nested_backtrack(candidates):
    """All compatible subfamilies of the candidate sets, in backtrack order."""
    compatible = [
        [not (a & b) or (a & b == a) or (a & b == b) for b in candidates]
        for a in candidates
    ]
    out = []
    stack = []

    def grow(start):
        out.append([candidates[i] for i in stack])
        for i in range(start, len(candidates)):
            if all(compatible[i][j] for j in stack):
                stack.append(i)
                grow(i + 1)
                stack.pop()

    grow(0)
    return out


def reference_enumerate_trees(n, variant="full"):
    """All trees with n leaves, in the library's documented order."""
    if variant == "planar":
        candidates = [
            frozenset(range(i, j + 1))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if not (i == 1 and j == n)
        ]
    else:
        candidates = [
            frozenset(c)
            for size in range(2, n + 1)
            for c in itertools.combinations(range(1, n + 1), size)
        ]
    candidates.sort(key=lambda a: (len(a), tuple(sorted(a))))
    if variant == "trunk":
        if n == 1:
            return [cs.corolla(1)]
        full = frozenset(range(1, n + 1))
        rest = [a for a in candidates if a != full]
        return [
            reference_tree_from_nested(coll + [full], n)
            for coll in reference_nested_backtrack(rest)
        ]
    return [
        reference_tree_from_nested(coll, n)
        for coll in reference_nested_backtrack(candidates)
    ]


def reference_face_poset(k):
    """Face poset of the k-th associahedron with covers found by contraction."""
    faces = tuple(reference_enumerate_trees(k + 2, "planar"))
    dims = tuple(k - cs.codim(t) for t in faces)
    index = {t: i for i, t in enumerate(faces)}
    covers = []
    for a, low in enumerate(faces):
        for v in low.internal_vertices:
            covers.append((a, index[cs.contract(low, [v])]))
    return cs.FacePoset(k, faces, dims, tuple(sorted(set(covers))))


def reference_covers(trees):
    """Covering pairs by testing codim and leq over all ordered pairs."""
    return [
        (i, j)
        for i, low in enumerate(trees)
        for j, high in enumerate(trees)
        if i != j and cs.codim(low) == cs.codim(high) + 1 and cs.leq(low, high)
    ]


# -- associahedron oracles -------------------------------------------------------------


def polygon_dissections(r: int):
    """Non-crossing diagonal sets of a convex r-gon, grouped by size."""
    diagonals = [
        (i, j)
        for i in range(1, r + 1)
        for j in range(i + 2, r + 1)
        if not (i == 1 and j == r)
    ]

    def crosses(d1, d2):
        i, j = d1
        k, l = d2
        return (i < k < j < l) or (k < i < l < j)

    by_size: dict[int, int] = {0: 1}
    chosen: list[tuple[int, int]] = []

    def grow(start):
        for idx in range(start, len(diagonals)):
            d = diagonals[idx]
            if all(not crosses(d, e) for e in chosen):
                chosen.append(d)
                by_size[len(chosen)] = by_size.get(len(chosen), 0) + 1
                grow(idx + 1)
                chosen.pop()

    grow(0)
    return by_size


def kirkman_cayley(r: int, k: int) -> int:
    """Closed form for k non-crossing diagonals of a convex r-gon."""
    return (
        math.comb(r - 3, k) * math.comb(r + k - 1, k) // (k + 1)
    )


# -- five-determine-six utility ---------------------------------------------------------


def solve_sixth_direction(u, missing, m):
    """Solve the four-consistency identity for one unknown direction.

    `u` carries the other five directions on a four-index set; returns a
    unit vector determined up to sign, with the sign resolved by
    non-negative dependence against the known directions.
    """
    idx = sorted({i for pair in u for i in pair} | set(missing))
    a, b = missing
    rows = []
    basis = np.eye(m)
    for p in range(m):
        for q in range(m):
            coef_v = 0.0
            coef_w = 0.0
            for circ in cs.Circuit3.all_on(idx):
                term = circ.sign
                hit_v = False
                hit_w = False
                for i, j in circ.edges:
                    i, j = min(i, j), max(i, j)
                    if (i, j) == (a, b):
                        hit_v = True
                        continue
                    term *= float(np.dot(_entry(u, i, j), basis[p]))
                for i, j in zip(circ.complement, circ.complement[1:]):
                    i, j = min(i, j), max(i, j)
                    if (i, j) == (a, b):
                        hit_w = True
                        continue
                    term *= float(np.dot(_entry(u, i, j), basis[q]))
                if hit_v:
                    coef_v += term
                else:
                    coef_w += term
            row = coef_v * basis[p] + coef_w * basis[q]
            rows.append(row)
    mat = np.stack(rows)
    _, _, vt = np.linalg.svd(mat)
    cand = vt[-1]
    cand = cand / np.linalg.norm(cand)
    # resolve the sign with a triangle through the missing pair
    other = [i for i in idx if i not in missing]
    k = other[0]
    for sign in (1.0, -1.0):
        if cs.three_dependent(sign * cand, _entry(u, b, k), _entry(u, k, a)):
            return sign * cand
    return cand


def _entry(u, i, j):
    if (i, j) in u:
        return u[(i, j)]
    return -u[(j, i)]


# -- per-tuple membership reference -------------------------------------------------------


def _rel_gap(a, b):
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _product_gap(values):
    zeros = any(v == 0.0 for v in values)
    infs = any(math.isinf(v) for v in values)
    if zeros or infs:
        return 0.0 if zeros and infs else math.inf
    return abs(math.prod(values) - 1.0)


def _apart(a, b, tol):
    return np.linalg.norm(a - b) > tol and np.linalg.norm(a + b) > tol


def _law_of_sines(u, i, j, k, tol):
    uij, uji, ujk, ukj, uik, uki = (
        u[p] for p in ((i, j), (j, i), (j, k), (k, j), (i, k), (k, i))
    )
    if _apart(uij, ujk, tol) and _apart(uij, uik, tol) and _apart(ujk, uik, tol):
        sin_k = np.linalg.norm(uki - np.dot(uki, ukj) * ukj)
        sin_j = np.linalg.norm(uji - np.dot(uji, ujk) * ujk)
        return None if sin_j == 0.0 else float(sin_k / sin_j)
    if np.linalg.norm(uik - ujk) <= tol and _apart(uij, uik, tol):
        return 0.0
    return None


def _dependence_gap(vectors, tol):
    a = np.stack(vectors)
    u_mat, s, _ = np.linalg.svd(a, full_matrices=True)
    s = np.concatenate([s, np.zeros(3 - len(s))])
    smax = max(float(s[0]), 1e-30)
    if s[-1] > tol * smax:
        return max(float(s[-1]) / smax, 2 * tol)
    if s[1] <= tol * smax:
        return 0.0 if any(np.dot(a[0], row) < 0 for row in a) else 1.0
    coeff = u_mat[:, -1]
    worst = float((coeff * np.sign(coeff[np.argmax(np.abs(coeff))])).min())
    return 0.0 if worst >= -tol else max(-worst, 2 * tol)


def reference_membership(point, tol=1e-9):
    """Membership by per-tuple loops, in the documented condition order.

    A point with ratio coordinates gets the canonical conditions, one
    without them the direction-only ones; Euclidean space only.  The
    4-cocycle rows are the (i, j, k, l) with j < k and j < l.  Returns
    ([(condition, indices, residual) for each violation], max residual).
    """
    n, m, x, u = point.n, point.m, point.x, point.u
    d = getattr(point, "d", None)
    checks = []
    labels = range(1, n + 1)
    near = tol * cs.canonical.config_scale(x)

    def dist(i, j):
        return float(np.linalg.norm(x[i - 1] - x[j - 1]))

    first, second = ("1", "3") if d is not None else ("S1", "S2")
    for i, j in itertools.permutations(labels, 2):
        if dist(i, j) > near:
            expected = (x[i - 1] - x[j - 1]) / dist(i, j)
            res = float(np.linalg.norm(u[(i, j)] - expected))
            checks.append((f"{first}-direction", (i, j), res, tol))
    if d is not None:
        for i, j, k in itertools.permutations(labels, 3):
            if dist(i, k) > near:
                if dist(i, j) > near:
                    res = _rel_gap(d[(i, j, k)], dist(i, j) / dist(i, k))
                    checks.append(("1-ratio", (i, j, k), res, tol))
                else:
                    checks.append(("1-ratio-vanishing", (i, j, k), abs(d[(i, j, k)]), tol))
        for i, j, k in itertools.permutations(labels, 3):
            val = _law_of_sines(u, i, j, k, tol)
            if val is not None:
                name = "2-law-of-sines" if val != 0.0 else "2-cluster-zero"
                checks.append((name, (i, j, k), _rel_gap(d[(i, j, k)], val), tol))
    for i, j in itertools.combinations(labels, 2):
        res = float(np.linalg.norm(u[(i, j)] + u[(j, i)]))
        checks.append((f"{second}-antisymmetry", (i, j), res, tol))
    for i, j, k in itertools.combinations(labels, 3):
        res = _dependence_gap((u[(i, j)], u[(j, k)], u[(k, i)]), tol)
        checks.append((f"{second}-dependence", (i, j, k), res, tol))
    if d is not None:
        for i in labels:
            for j, k in itertools.combinations([t for t in labels if t != i], 2):
                res = _product_gap([d[(i, j, k)], d[(i, k, j)]])
                checks.append(("4-reciprocal", (i, j, k), res, tol))
        for i, j, k in itertools.combinations(labels, 3):
            for a, b, c in ((i, j, k), (i, k, j)):
                res = _product_gap([d[(a, b, c)], d[(b, c, a)], d[(c, a, b)]])
                checks.append(("4-cyclic", (a, b, c), res, tol))
        for i, j, k, l in itertools.permutations(labels, 4):
            if j < min(k, l):
                res = _product_gap([d[(i, j, k)], d[(i, k, l)], d[(i, l, j)]])
                checks.append(("4-cocycle", (i, j, k, l), res, tol))
    else:
        for quad in itertools.combinations(labels, 4):
            circuits = cs.Circuit3.all_on(quad)
            for p, q in itertools.product(range(m), repeat=2):
                terms = [
                    c.sign
                    * math.prod(u[(min(e), max(e))][p] for e in c.edges)
                    * math.prod(u[(min(e), max(e))][q] for e in zip(c.complement, c.complement[1:]))
                    for c in circuits
                ]
                bound = tol * max(1.0, sum(abs(t) for t in terms))
                index = quad + (p + 1, q + 1)
                checks.append(("S3-four-consistency", index, abs(sum(terms)), bound))
    violations = [(c, idx, res) for c, idx, res, bound in checks if res > bound]
    return violations, max((res for _, _, res, _ in checks), default=0.0)


# -- per-step degeneration reference -------------------------------------------------------


def degenerate_csv(s, kmax):
    """The `degenerate` CSV, one public StratumPoint and expand_chart per step."""
    n, m = s.tree.n, s.m
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    triples = list(itertools.permutations(range(1, n + 1), 3))
    header = ["k", "factor"]
    header += [f"x_{i}_{c}" for i in range(1, n + 1) for c in range(m)]
    header += [f"u_{i}_{j}_{c}" for i, j in pairs for c in range(m)]
    header += [f"d_{i}_{j}_{k}" for i, j, k in triples]
    rows = []
    for k in range(kmax + 1):
        factor = 2.0 ** (-k)
        scales = {v: t * factor for v, t in s.scales.items()}
        a = cs.expand_chart(cs.StratumPoint(s.tree, s.root_config, s.configs, scales))
        row = [k, factor, *(float(v) for v in a.x.ravel())]
        row += [float(v) for key in pairs for v in a.u[key]]
        row += [a.d[key] for key in triples]
        rows.append(",".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in row))
    return "\n".join([",".join(header), *rows]) + "\n"


# -- the JSON codec as first written, one scalar at a time ------------------------------------


def reference_fmt(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {reference_fmt(v, indent + 1)}'
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(reference_fmt(v, indent) for v in seq) + "]"
        items = [f"{inner}{reference_fmt(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            raise ValueError("NaN is not serializable")
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)}")


def _reference_revive(obj):
    if isinstance(obj, list):
        return [_reference_revive(v) for v in obj]
    return {"inf": math.inf, "-inf": -math.inf}.get(obj, obj) if isinstance(obj, str) else obj


def _reference_pairs(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON object repeats key {key!r}")
        out[key] = _reference_revive(value)
    return out


def reference_loads(text: str):
    return _reference_revive(json.loads(text, object_pairs_hook=_reference_pairs))


def reference_label_keyed(data, field: str, arity: int, read) -> dict:
    """jsonio's label-keyed reader one entry at a time; `read` is a jsonio
    per-entry reader (`_number` or `_floats`)."""
    if not isinstance(data, dict):
        raise ValueError(f"field {field!r} must be a JSON object")
    out = {
        jsonio.labels_from_text(k, field, arity): read(v, f"{field}[{k}]") for k, v in data.items()
    }
    if len(out) != len(data):
        seen = {}
        for k in data:
            first = seen.setdefault(jsonio.labels_from_text(k, field, arity), k)
            if first != k:
                raise ValueError(f"field {field!r} names one index tuple twice, as {first!r} and {k!r}")
    return out


# -- dict-based coordinate references -------------------------------------------------------
#
# The library keeps coordinates as dense arrays; these rebuild the same points
# the way they were first written, one dict entry per pair or triple, and hand
# the dicts to the public validating constructors.


def _labels(n):
    return range(1, n + 1)


def reference_lift_dicts(pts):
    """The u and d dicts of an open configuration, one pair at a time."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    nrm, u = {}, {}
    for i in _labels(n):
        for j in range(i + 1, n + 1):
            diff = pts[i - 1] - pts[j - 1]
            nrm[(i, j)] = nrm[(j, i)] = float(np.linalg.norm(diff))
            u[(i, j)] = diff / nrm[(i, j)]
            u[(j, i)] = -u[(i, j)]
    d = {(i, j, k): nrm[(i, j)] / nrm[(i, k)] for i, j, k in itertools.permutations(_labels(n), 3)}
    return u, d


def reference_lift(pts):
    return cs.ambient_point(pts, *reference_lift_dicts(pts))


def reference_relabel(values, p):
    """permute / project_indices: label a carries the data of values[a-1]."""
    k = len(values)
    x = np.stack([p.x[v - 1] for v in values])
    u = {(a, b): p.u[(values[a - 1], values[b - 1])] for a, b in itertools.permutations(_labels(k), 2)}
    if not isinstance(p, cs.AmbientPoint):
        return cs.simplicial_point(x, u)
    d = {
        (a, b, c): p.d[(values[a - 1], values[b - 1], values[c - 1])]
        for a, b, c in itertools.permutations(_labels(k), 3)
    }
    return cs.ambient_point(x, u, d)


def _framed_directions(values, p, frame_of):
    u = {}
    for a, b in itertools.permutations(_labels(len(values)), 2):
        if values[a - 1] != values[b - 1]:
            u[(a, b)] = p.u[(values[a - 1], values[b - 1])]
        else:
            f = frame_of(values[a - 1])
            u[(a, b)] = f if a < b else -f
    return u


def reference_pullback(sigma, fp):
    values = sigma.values
    x = np.stack([fp.point.x[v - 1] for v in values])
    u = _framed_directions(values, fp.point, fp.frames.__getitem__)
    return cs.framed_point(cs.simplicial_point(x, u), [fp.frames[v] for v in values])


def reference_diagonal(fp, i, k=1, assoc=None):
    p = fp.point
    values = cs.doubling_map(i, k, p.n).values
    cluster = range(i, i + k + 1)
    x = np.stack([p.x[v - 1] for v in values])
    u = _framed_directions(values, p, fp.frames.__getitem__)
    d = {}
    for a, b, c in itertools.permutations(_labels(len(values)), 3):
        inside = (a in cluster, b in cluster, c in cluster)
        if sum(inside) <= 1:
            d[(a, b, c)] = p.d[(values[a - 1], values[b - 1], values[c - 1])]
        elif sum(inside) == 3:
            d[(a, b, c)] = assoc.d[(a - i + 1, b - i + 1, c - i + 1)]
        elif inside[0] and inside[1]:
            d[(a, b, c)] = 0.0
        elif inside[1] and inside[2]:
            d[(a, b, c)] = 1.0
        else:
            d[(a, b, c)] = math.inf
    return cs.framed_point(cs.ambient_point(x, u, d), [fp.frames[v] for v in values])


def reference_expand(s):
    """expand_chart with one subtree walk per vertex and one loop per pair and triple."""
    t = s.tree
    cfg = {0: s.root_config, **s.configs}
    tv = {0: 1.0, **s.scales}
    sub = {}
    for top in (0, *t.internal_vertices):
        pos, sv, stack = {top: np.zeros(s.m)}, {top: 1.0}, [top]
        while stack:
            w = stack.pop()
            for idx, c in enumerate(t.children[w]):
                pos[c] = sv[w] * cfg[w][idx] + pos[w]
                if c > t.n:
                    sv[c] = sv[w] * tv[c]
                    stack.append(c)
        sub[top] = pos
    x = np.stack([sub[0][i] for i in _labels(t.n)])
    u = {}
    for i in _labels(t.n):
        for j in range(i + 1, t.n + 1):
            diff = sub[cs.join(t, (i, j))][i] - sub[cs.join(t, (i, j))][j]
            u[(i, j)] = diff / float(np.linalg.norm(diff))
            u[(j, i)] = -u[(i, j)]
    d = {}
    for i, j, k in itertools.permutations(_labels(t.n), 3):
        w = cs.join(t, (i, j, k))
        num = math.sqrt(float((sub[w][i] - sub[w][j]) @ (sub[w][i] - sub[w][j])))
        den = math.sqrt(float((sub[w][i] - sub[w][k]) @ (sub[w][i] - sub[w][k])))
        d[(i, j, k)] = num / den if den > 0.0 else math.inf
    return cs.ambient_point(x, u, d)


# -- root-path tree structure references ---------------------------------------------------
#
# The library derives each tree's leaf sets, depths and joins from one pass of
# leaf-set bitmasks; these are the root-path and depth-sorted versions it
# replaced.


def reference_join(t, labels):
    """The deepest vertex common to the root paths of the named leaves."""
    paths = [t.root_path(i) for i in sorted(set(labels))]
    best = 0
    for level in range(min(len(p) for p in paths)):
        vs = {p[level] for p in paths}
        if len(vs) != 1:
            break
        best = vs.pop()
    return best


def reference_leaves_over(t):
    """Leaf sets by unions over children, deepest vertices first."""
    kids = [[] for _ in range(t.num_vertices)]
    for v in range(1, t.num_vertices):
        kids[t.parent[v]].append(v)
    over = [frozenset()] * t.num_vertices
    for v in sorted(range(t.num_vertices), key=t.depth, reverse=True):
        if 1 <= v <= t.n:
            over[v] = frozenset([v])
        else:
            over[v] = frozenset().union(*(over[w] for w in kids[v]))
    return tuple(over)


def reference_children(t):
    """Children sorted by their smallest leaf label."""
    over = reference_leaves_over(t)
    kids = [[] for _ in range(t.num_vertices)]
    for v in range(1, t.num_vertices):
        kids[t.parent[v]].append(v)
    return tuple(tuple(sorted(k, key=lambda w: min(over[w]))) for k in kids)


def reference_vertex_over(t, labels, over):
    """The deepest vertex whose leaf set (from `over`) equals `labels`, if any."""
    hits = [v for v, s in enumerate(over) if s == frozenset(labels)]
    return max(hits, key=t.depth, default=None)


def reference_join_tables(t):
    """The pair and triple join arrays of a tree's chart plan, one join per tuple."""
    pairs = itertools.combinations(range(1, t.n + 1), 2)
    triples = itertools.permutations(range(1, t.n + 1), 3)
    return (
        np.array([reference_join(t, p) for p in pairs], dtype=np.intp),
        np.array([reference_join(t, p) for p in triples], dtype=np.intp),
    )


def reference_invert(t, a):
    """invert_chart as a walk over per-vertex dicts, one frame per vertex, with
    cluster centres averaged in root-path depth order, deepest vertices first."""

    def centres(top, leaf_pos):
        out = dict(leaf_pos)
        order = sorted(
            (v for v in (0, *t.internal_vertices) if top in t.root_path(v)),
            key=t.depth,
            reverse=True,
        )
        for v in order:
            out[v] = np.mean([out[c] for c in t.children[v]], axis=0)
        return out

    frames = {0: centres(0, {i: a.x[i - 1] for i in _labels(t.n)})}
    for v in t.internal_vertices:
        i0 = min(t.leaves_over[t.children[v][0]])
        k0 = min(t.leaves_over[t.children[v][1]])
        z = {i0: np.zeros(a.m)}
        for j in sorted(t.leaves_over[v] - {i0}):
            length = 1.0 if j == k0 else a.D[i0 - 1, j - 1, k0 - 1]
            z[j] = length * a.U[j - 1, i0 - 1]
        frames[v] = centres(v, z)
    root = np.stack([frames[0][c] for c in t.children[0]])
    configs, scales = {}, {}
    for v in t.internal_vertices:
        frame = frames[v]
        rows = np.stack([frame[c] for c in t.children[v]]) - frame[v]
        configs[v] = rows / float(np.linalg.norm(rows, axis=1).max())
        parent = t.parent[v]
        pframe = frames[parent]
        d_v = max(float(np.linalg.norm(pframe[c] - pframe[v])) for c in t.children[v])
        if parent == 0:
            scales[v] = d_v
        else:
            d_p = max(float(np.linalg.norm(pframe[c] - pframe[parent])) for c in t.children[parent])
            scales[v] = d_v / d_p
    return cs.StratumPoint(t, root, configs, scales)


# -- per-pair direction reconstruction reference ------------------------------------------


def reference_reconstruct(u, tol=1e-9):
    """reconstruct_from_directions checking each pair of the mapping on its own."""
    idx = {i for pair in u for i in pair}
    n = max(idx)
    if idx != set(range(1, n + 1)):
        raise ValueError("direction matrix does not cover labels 1..n")
    for pair in itertools.permutations(range(1, n + 1), 2):
        if pair not in u:
            raise ValueError(f"missing direction for pair {pair}")
    u = {pair: require_unit(vec, f"u[{pair}]") for pair, vec in u.items()}
    m = len(next(iter(u.values())))
    if n == 1:
        return cs.Configuration(np.zeros((1, m)))
    U = _gather_directions(u, n, m)
    if _direction_exclusions(U, tol):
        raise ValueError("direction matrix has exclusions; not a single stratum")
    ref = U[0, 1]
    pairs = list(itertools.permutations(range(n), 2))
    i, j = np.array(pairs).T
    if not sign_distinct(U[i, j], ref, tol).any():
        rank = np.bincount(i[row_norms(U[i, j] - ref) <= tol], minlength=n)
        if sorted(rank.tolist()) != list(range(n)):
            raise ValueError("collinear directions do not totally order the labels")
        return cs.normalize(rank[:, None] * ref)
    placed = {1: np.zeros(m), 2: u[(2, 1)].copy()}
    while len(placed) < n:
        progress = False
        for k in sorted(set(range(1, n + 1)) - set(placed)):
            found = None
            for i in sorted(placed):
                for j in sorted(placed):
                    if j == i or not sign_distinct(u[(k, i)], u[(k, j)], tol):
                        continue
                    s, t, point = ray_intersection(placed[i], u[(k, i)], placed[j], u[(k, j)])
                    if s > tol and t > tol:
                        found = point
                        break
                if found is not None:
                    break
            if found is not None:
                placed[k] = found
                progress = True
                break
        if not progress:
            raise ValueError("no eligible ray intersection; directions are numerically collinear")
    return cs.normalize(np.stack([placed[i] for i in range(1, n + 1)]))
