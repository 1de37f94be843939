"""Rooted labelled trees and the contraction poset indexing degeneration strata.

A tree here is rooted, with leaves labelled 1..n.  Non-root internal vertices
must have at least two children (no bivalent vertices); the root may have any
valence.  Trees are stored in a canonical parent-array encoding: vertex 0 is
the root, vertices 1..n are the leaves (vertex id equals leaf label), and
internal vertices are numbered n+1, n+2, ... in depth-first order, visiting
the children of each vertex by increasing minimal leaf label.  Two labelled
trees are isomorphic iff their encodings are equal.

Three equivalent encodings are inter-convertible:

* the tree itself,
* the nested collection of leaf sets lying over internal vertices,
* the exclusion relation of triples ((i,j),k) recording that leaves i and j
  sit strictly below the deepest vertex joining them to k.

A univalent root (a "trunk") is visible to the nested-set encoding as the
full leaf set but invisible to the exclusion relation, so conversion from an
exclusion relation takes an explicit trunk flag.

Tree structure: beyond its parent array, a canonical tree is read through one
pass.  Canonical numbering puts every internal vertex after its parent, so
leaf sets (bitmasks with bit i for leaf i, or frozensets) are collected from
the last vertex up.  children, leaves_over and covering_pairs read the
result; only children and leaves_over are cached on a tree, and the chart
layer builds its per-tree plan (joins included) from those two.  join walks
one root path, up from the smallest named leaf until the cached leaves_over
holds every label; vertex_over is that join when its leaf set equals the
labels, and a depth is the length of a root path.

A parent array from outside the library, through FTree(n, parent) or tree
JSON, is read by one function, _from_parents: it accepts any vertex
numbering, checks the array, collects leaf-set bitmasks deepest vertex first
without recursion and builds the tree through _from_family, the canonical
builder.

Two builders make the canonical tree of a laminar family, and agree tree for
tree.  _from_family builds one tree in plain Python; every caller that
builds one tree at a time uses it: _from_parents, _laminar_tree (so
tree_from_nested, tree_from_exclusions and contract), relabel and prune.
_family_trees builds many in array form, a length-bucketed numpy pass per
chunk of families, and only enumerate_trees (so face_poset) calls it: there
thousands of families share each array call, while one tree through numpy
would cost more than the whole Python build of a small tree.

Nested sets and exclusion relations reach that builder through one check,
_laminar_tree: it builds the tree of a family of leaf-set bitmasks and
compares the built tree's leaf sets with the family, which agree exactly
when the family is laminar; only a family that is not laminar pays for a
search, for its first pair that is not nested in label order, and only
pairs with a set the built tree lacks can cross.
tree_from_nested checks each set and hands over its bitmask.  relabel and
prune skip the check and call the canonical builder directly (through
_family_tree): the image of a laminar family under a bijection is laminar,
and so is one cut by an injection's image and renumbered.  contract keeps
its rebuild through nested_collection and tree_from_nested, because the
trees contract command is the nested-set encoding's one route from the
command line.
tree_from_exclusions reads the relation in one pass: each triple is checked
(labels, mirror, conflict) and ORed into near[i, k], the bitmask of the j
with ((i, j), k) in the relation.  With every mirror present, transitivity
is one subset test per triple, near[x, y] within near[x, z], and the
clusters are the sets near[i, k] plus i.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

Triple = tuple[tuple[int, int], int]

# Full enumeration grows like total partitions; these caps keep it tractable.
MAX_FULL_LEAVES = 8
MAX_PLANAR_LEAVES = 10


@dataclass(frozen=True)
class FTree:
    """Canonical parent-array encoding of a rooted labelled tree.

    parent[v] is the id of the vertex above v; parent[0] == -1 for the root.

    FTree(n, parent) is the boundary for outside input: it checks the layout
    (root 0, leaf i at vertex i), reads the array through _from_parents and
    rejects any that is not in canonical order.  Trees built inside
    the library (enumerate_trees, tree_from_nested and everything routed
    through it) come from one builder, which turns a laminar family of
    leaf-set bitmasks straight into the canonical array and hands it to a
    trusted constructor that skips that validation.
    """

    n: int
    parent: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a tree needs at least one leaf")
        nv = len(self.parent)
        if nv < self.n + 1 or self.parent[0] != -1:
            raise ValueError("malformed parent array")
        labels = [v if v <= self.n else 0 for v in range(nv)]
        if _from_parents(self.n, self.parent, labels).parent != self.parent:
            raise ValueError("parent array is not in canonical order")

    # -- derived structure ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children of each vertex, in coincident-edge order (min leaf label)."""
        masks = _unions(self, _bit, 0)
        kids: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for v in range(1, self.num_vertices):
            kids[self.parent[v]].append(v)
        # the lowest set bit of a leaf set is its smallest label
        return tuple(
            tuple(sorted(k, key=lambda w: masks[w] & -masks[w])) for k in kids
        )

    @cached_property
    def leaves_over(self) -> tuple[frozenset[int], ...]:
        """Set of leaf labels lying over each vertex."""
        return tuple(_unions(self, lambda i: frozenset((i,)), frozenset()))

    def depth(self, v: int) -> int:
        return len(self.root_path(v)) - 1

    def root_path(self, v: int) -> tuple[int, ...]:
        """Vertices from the root down to v, inclusive."""
        path = [v]
        while v != 0:
            v = self.parent[v]
            path.append(v)
        return tuple(reversed(path))

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1, self.num_vertices))

    @property
    def has_trunk(self) -> bool:
        """True iff the root is univalent."""
        return len(self.children[0]) == 1

    def vertex_over(self, labels: Iterable[int]) -> int | None:
        """The deepest vertex whose leaf set equals `labels`, if any: the
        join of the labels when its leaf set is exactly them."""
        target = set(labels)
        if not target or not target <= set(range(1, self.n + 1)):
            return None
        v = join(self, target)
        return v if self.leaves_over[v] == target else None

    def __repr__(self):
        sets = sorted(
            (tuple(sorted(s)) for s in nested_collection(self)),
            key=lambda t: (len(t), t),
        )
        return f"FTree(n={self.n}, clusters={list(sets)})"


def corolla(n: int) -> FTree:
    """The tree with all leaves attached directly to the root."""
    return FTree(n, (-1,) + (0,) * n)


# -- nested-set encoding ---------------------------------------------------


def _trusted(n: int, parent: tuple[int, ...]) -> FTree:
    """An FTree over a parent array already known to be canonical."""
    tree = object.__new__(FTree)
    object.__setattr__(tree, "n", n)
    object.__setattr__(tree, "parent", parent)
    return tree


def _from_family(masks: Sequence[int], n: int) -> FTree:
    """The tree of a laminar family of leaf sets, given as bitmasks by size.

    Bit i of a mask stands for leaf i.  Each set hangs below the first later
    set containing it (the root if none does) and each leaf below the first
    set containing it.  Internal vertices are numbered depth first, visiting
    children by lowest leaf label: that is the order of the sets' root paths
    written as lowest-label sequences, which is the canonical order.  A
    family that is not laminar still gives a tree, whose leaf sets differ
    from the family: _laminar_tree tells the two cases apart that way.
    """
    k = len(masks)
    up = [k] * k  # index k stands for the root
    covered = [0] * (k + 1)
    for a, m in enumerate(masks):
        for b in range(a + 1, k):
            if masks[b] & m == m:
                up[a] = b
                break
        covered[up[a]] |= m
    path: list[tuple[int, ...]] = [()] * (k + 1)
    for a in range(k - 1, -1, -1):
        m = masks[a]
        path[a] = path[up[a]] + (m & -m,)
    ids = [0] * (k + 1)
    for v, a in enumerate(sorted(range(k), key=path.__getitem__), n + 1):
        ids[a] = v
    parent = [-1] + [0] * (n + k)
    for a, m in enumerate(masks):
        v = ids[a]
        parent[v] = ids[up[a]]
        own = m & ~covered[a]
        while own:
            low = own & -own
            parent[low.bit_length() - 1] = v
            own ^= low
    return _trusted(n, tuple(parent))


def _from_parents(n: int, parent: Sequence[int], labels: Sequence[int]) -> FTree:
    """The tree of a parent array in any vertex numbering.

    parent[v] is the vertex above v, -1 for the one root; labels[v] is v's
    leaf label, or 0 for an unlabelled vertex.  This is the one reader of
    parent arrays from outside the library: it checks the array, collects
    leaf-set bitmasks deepest vertex first and hands them to the canonical
    builder.
    """
    if n < 1:
        raise ValueError("a tree needs at least one leaf")
    nv = len(parent)
    if len(labels) != nv:
        raise ValueError("parents and labels must have equal length")
    roots = [v for v, p in enumerate(parent) if p == -1]
    if len(roots) != 1:
        raise ValueError(f"tree must have exactly one root, not vertices {roots}")
    kids: list[list[int]] = [[] for _ in range(nv)]
    for v, p in enumerate(parent):
        if p != -1:
            if not 0 <= p < nv:
                raise ValueError(f"bad parent {p} for vertex {v}")
            kids[p].append(v)
    over = [0] * nv
    seen = 0
    for v, lab in enumerate(labels):
        if lab:
            if not 1 <= lab <= n or seen >> lab & 1:
                raise ValueError(f"bad leaf label {lab} at vertex {v}")
            if kids[v]:
                raise ValueError(f"labelled vertex {v} has children")
            over[v] = 1 << lab
            seen |= over[v]
    if seen.bit_count() != n:
        raise ValueError(f"labels are not a bijection with 1..{n}")
    order = [roots[0]]  # breadth first from the root: the list grows as it is read
    for v in order:
        order += kids[v]
    if len(order) < nv:
        v = min(set(range(nv)) - set(order))
        raise ValueError(f"vertex {v} does not reach the root: parent array has a cycle")
    masks = []
    for v in reversed(order[1:]):
        if not labels[v]:
            if len(kids[v]) < 2:
                raise ValueError(
                    f"internal vertex {v} is bivalent"
                    if kids[v]
                    else f"unlabelled vertex {v} has no children"
                )
            masks.append(over[v])
        over[parent[v]] |= over[v]
    return _family_tree(masks, n)


def _mask(labels: Iterable[int]) -> int:
    out = 0
    for i in labels:
        out |= 1 << i
    return out


def tree_from_nested(sets: Iterable[Iterable[int]], n: int) -> FTree:
    """Build the tree whose internal vertices carry the given nested leaf sets."""
    labels = frozenset(range(1, n + 1))
    masks = []
    for raw in sets:
        a = frozenset(raw)
        if len(a) < 2:
            raise ValueError(f"member set {sorted(a)} has fewer than two labels")
        if not a <= labels:
            raise ValueError(f"member set {sorted(a)} not within 1..{n}")
        masks.append(_mask(a))
    return _laminar_tree(masks, n)


def _laminar_tree(masks: Iterable[int], n: int) -> FTree:
    """The tree of a family of leaf-set bitmasks over 1..n, checked laminar.

    The canonical builder runs on the family first.  The leaf sets of any
    tree are laminar, and the builder reproduces every laminar family, so
    the built tree's leaf sets equal the family exactly when the family is
    laminar.  Otherwise the error names the first pair that is not nested,
    with the sets ordered by their sorted labels; only pairs with a set the
    built tree lacks can cross, so only those are searched.
    """
    family = set(masks)
    tree = _family_tree(family, n)
    built = _clusters(tree)
    if built == family:
        return tree
    ordered = sorted((_labels(m), m) for m in family)
    lacking = [(la, a) for la, a in ordered if a not in built]
    la, lb = next(
        (la, lb)
        for pos, (la, a) in enumerate(ordered)
        for lb, b in (ordered[pos + 1 :] if a not in built else (x for x in lacking if x > (la, a)))
        if a & b not in (0, a, b)
    )
    raise ValueError(f"sets {la} and {lb} are not nested")


def _family_tree(masks: Iterable[int], n: int) -> FTree:
    """The tree of a laminar family of distinct leaf-set bitmasks over 1..n,
    in any order: the canonical builder on the family sorted by size."""
    if n < 1:
        raise ValueError("a tree needs at least one leaf")
    return _from_family(sorted(masks, key=int.bit_count), n)


def _labels(mask: int) -> list[int]:
    """The sorted labels of a leaf-set bitmask."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _bit(i: int) -> int:
    return 1 << i


def _unions(tree: FTree, leaf, empty) -> list:
    """Per vertex, the union (`|`) of leaf(i) over the leaves i at or below it.

    Leaves first, then the internal vertices from the last id up: canonical
    numbering puts every internal vertex after its parent, so each union is
    complete before it is passed up.
    """
    n, parent = tree.n, tree.parent
    over = [empty] * len(parent)
    for i in range(1, n + 1):
        over[i] = leaf(i)
        over[parent[i]] |= over[i]
    for v in range(len(parent) - 1, n, -1):
        over[parent[v]] |= over[v]
    return over


def _clusters(tree: FTree) -> set[int]:
    """The leaf-set bitmasks of the internal vertices: the nested collection."""
    return set(_unions(tree, _bit, 0)[tree.n + 1 :])


def nested_collection(tree: FTree) -> frozenset[frozenset[int]]:
    """Leaf sets over the internal vertices; inverse of tree_from_nested."""
    return frozenset(tree.leaves_over[v] for v in tree.internal_vertices)


# -- exclusion-relation encoding --------------------------------------------


def exclusion_relation(tree: FTree) -> frozenset[Triple]:
    """All triples ((i,j),k) with i,j over an internal vertex not above k."""
    out: set[Triple] = set()
    labels = set(range(1, tree.n + 1))
    for a in nested_collection(tree):
        for i, j in itertools.permutations(sorted(a), 2):
            for k in labels - a:
                out.add(((i, j), k))
    return frozenset(out)


def tree_from_exclusions(
    triples: Iterable[Triple], n: int, trunk: bool = False
) -> FTree:
    """Rebuild a tree from its exclusion relation.

    The relation cannot distinguish a univalent root, so `trunk` says whether
    the full leaf set should be added as a cluster.  Raises if the relation
    breaks an exclusion axiom or its clusters are not nested.
    """
    rel = frozenset(triples)
    bit = {i: 1 << i for i in range(1, n + 1)}
    # near[i, k]: bitmask of the j with ((i, j), k) in the relation.  Once
    # every mirror is present it is also the bitmask of the w with ((w, i), k).
    near: dict[tuple[int, int], int] = {}
    for (i, j), k in rel:
        if i == j or i == k or j == k or i not in bit or j not in bit or k not in bit:
            raise ValueError(f"bad exclusion triple (({i},{j}),{k})")
        if ((j, i), k) not in rel:
            raise ValueError(f"exclusion (({i},{j}),{k}) lacks its mirror")
        if ((i, k), j) in rel:
            raise ValueError(
                f"exclusions (({i},{j}),{k}) and (({i},{k}),{j}) conflict"
            )
        near[i, k] = near.get((i, k), 0) | bit[j]
    # transitivity: ((x, y), z) and ((w, x), y) force ((w, x), z)
    for (x, y), z in rel:
        if near.get((x, y), 0) & ~near.get((x, z), 0):
            w = next(
                w for (w, x2), y2 in rel
                if x2 == x and y2 == y and ((w, x), z) not in rel
            )
            raise ValueError(f"exclusion relation not transitive at (({w},{x}),{z})")
    clusters = [mask | bit[i] for (i, _), mask in near.items()]
    if trunk and n >= 2:
        clusters.append((1 << (n + 1)) - 2)
    return _laminar_tree(clusters, n)


# -- poset structure ---------------------------------------------------------


def contract(tree: FTree, edges: Iterable[int]) -> FTree:
    """Contract the edges whose lower endpoints are the given internal vertices.

    Each non-leaf edge is named by its terminal vertex (the endpoint away
    from the root).  Contracting it merges that vertex into its parent.
    """
    edge_set = set(edges)
    removed: set[frozenset[int]] = set()
    for v in edge_set:
        if not 0 < v < tree.num_vertices:
            raise ValueError(f"no edge with terminal vertex {v}")
        if v <= tree.n:
            raise ValueError(f"edge above leaf {v} is a leaf edge")
        removed.add(tree.leaves_over[v])
    return tree_from_nested(nested_collection(tree) - removed, tree.n)


def leq(tree: FTree, other: FTree) -> bool:
    """True iff `other` is a contraction of `tree` (other is less degenerate)."""
    if tree.n != other.n:
        raise ValueError("trees have different leaf counts")
    return _clusters(other) <= _clusters(tree)


def codim(tree: FTree) -> int:
    """Number of internal vertices; the codimension of the indexed stratum."""
    return len(tree.internal_vertices)


def join(tree: FTree, labels: Iterable[int]) -> int:
    """The deepest vertex with all the named leaves lying over it.

    Those vertices are the root path of any named leaf, so the join is the
    first vertex up from the smallest named leaf whose leaf set holds them all.
    """
    labs = sorted(set(labels))
    if not labs:
        raise ValueError("join of an empty label set")
    for i in labs:
        if not 1 <= i <= tree.n:
            raise ValueError(f"unknown leaf label {i}")
    v = labs[0]
    while not tree.leaves_over[v].issuperset(labs):
        v = tree.parent[v]
    return v


def relabel(tree: FTree, mapping: dict[int, int]) -> FTree:
    """Relabel leaves through a bijection old label -> new label."""
    labels = set(range(1, tree.n + 1))
    if set(mapping) != labels or set(mapping.values()) != labels:
        raise ValueError("relabelling is not a bijection on the leaf labels")
    # the image of a laminar family under a bijection is laminar
    return _family_tree([_mask(mapping[x] for x in a) for a in nested_collection(tree)], tree.n)


def prune(tree: FTree, sigma: "SetMap") -> FTree:
    """Restrict a tree to the leaves selected by an injective index map.

    Leaves outside the image are deleted, empty branches removed, and
    bivalent non-root vertices smoothed; leaf sigma(j) becomes leaf j.
    """
    if not sigma.is_injective:
        raise ValueError("pruning requires an injective index map")
    if sigma.n != tree.n:
        raise ValueError("index map codomain does not match the leaf count")
    back = {v: j + 1 for j, v in enumerate(sigma.values)}
    # a laminar family cut by a set and renumbered injectively stays laminar
    cuts = {_mask(back[x] for x in a if x in back) for a in nested_collection(tree)}
    return _family_tree([c for c in cuts if c.bit_count() >= 2], sigma.m)


def covering_pairs(trees: Sequence[FTree]) -> list[tuple[int, int]]:
    """Index pairs (i, j) with trees[j] a single-edge contraction of trees[i].

    These are the covering pairs of `leq` among the given trees: trees[j]'s
    clusters are trees[i]'s minus exactly one.  Each tree is looked up by
    its family of cluster bitmasks, so repeated trees all get their edges.
    Pairs come sorted.
    """
    families = [(t.n, frozenset(_clusters(t))) for t in trees]
    where: dict[tuple[int, frozenset[int]], list[int]] = {}
    for idx, key in enumerate(families):
        where.setdefault(key, []).append(idx)
    out = []
    for i, (n, family) in enumerate(families):
        found = [j for c in family for j in where.get((n, family - {c}), ())]
        out += [(i, j) for j in sorted(found)]
    return out


# -- enumeration -------------------------------------------------------------


# Families per batch in enumerate_trees; one chunk's arrays are alive at a
# time.  It is below 2,752, the number of trunk trees with n = 6, so the
# enumeration tests cross chunk boundaries.
_CHUNK = 2048


def _family_trees(families: Iterable[tuple[int, ...]], n: int) -> list[FTree]:
    """_from_family on each of many laminar families, in array form.

    The families are read in one pass into an int16 stream with a 0 (no
    leaf set's bitmask) after each, and each parent tuple is cut from one
    flat list, so that no family and no per-row list is held while trees
    are built.  The families of one length k form a (b, k) array of
    leaf-set bitmasks, each row by size, with a last column for the root,
    which holds every leaf.  A set hangs below the first later column
    containing it, and so does each leaf; the later columns containing a
    set are its root path.  A set's key spells the lowest labels along
    that path, from the root down, one four-bit digit a level and zeros
    below the set, so sorting a row's keys gives the depth-first numbering
    _from_family reads off its path tuples.  Digits and int16 bitmasks hold
    labels up to 14.  The trees come back in input order.
    """
    flat = np.fromiter(itertools.chain.from_iterable(f + (0,) for f in families), np.int16)
    ends = np.flatnonzero(flat == 0)
    lens = np.diff(ends, prepend=-1) - 1
    by_len = np.argsort(lens, kind="stable")
    lowest = np.zeros(2 << n, np.int64)  # lowest[m & -m]: the lowest label of m
    lowest[1 << np.arange(n + 1)] = np.arange(n + 1)
    labels = np.arange(1, n + 1, dtype=np.int16)
    built: list[FTree] = []
    for k in sorted(set(lens.tolist())):
        where = by_len[lens[by_len] == k]
        rows = np.arange(len(where))[:, None]
        masks = flat[ends[where, None] - k + np.arange(k)]
        with_root = np.concatenate([masks, np.full((len(where), 1), (2 << n) - 2, np.int16)], axis=1)
        # within[r, a, c]: column c comes after set a and holds it
        within = (with_root[:, None, :] & masks[:, :, None]) == masks[:, :, None]
        within &= np.arange(k)[:, None] < np.arange(k + 1)
        up = within.argmax(2)
        home = ((with_root[:, :, None] >> labels) & 1).argmax(1)
        # a set's depth is the number of columns holding it
        digit = lowest[masks & -masks] << 4 * (k - within.sum(2))
        key = (within[:, :, :k] * digit[:, None, :]).sum(2) + digit
        order = np.argsort(key, axis=1, kind="stable")
        ids = np.zeros((len(where), k + 1), np.int16)
        ids[rows, order] = np.arange(n + 1, n + 1 + k, dtype=np.int16)
        parent = np.empty((len(where), n + 1 + k), np.int16)
        parent[:, 0] = -1
        parent[:, 1 : n + 1] = ids[rows, home]
        parent[:, n + 1 :] = np.take_along_axis(ids[rows, up], order, axis=1)
        built += [_trusted(n, row) for row in zip(*[iter(parent.ravel().tolist())] * (n + 1 + k))]
    back = np.empty(len(lens), np.intp)
    back[by_len] = np.arange(len(lens))
    return [built[i] for i in back.tolist()]


def _laminar_families(candidates: list[int]) -> Iterator[tuple[int, ...]]:
    """Every pairwise nested or disjoint subfamily of the candidate bitmasks.

    Families come out lazily, each in candidate order, depth first: a family
    is followed by all its extensions by later candidates before the next
    sibling.  Each stack entry carries the bitmask of later candidates still
    compatible with its whole family, narrowed by one AND per step.
    """
    compat = []
    for a in candidates:
        bits = 0
        for j, b in enumerate(candidates):
            c = a & b
            if c == 0 or c == a or c == b:
                bits |= 1 << j
        compat.append(bits)
    yield ()
    stack = [((1 << len(candidates)) - 1, ())]
    while stack:
        rest, family = stack.pop()
        if rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            grown = family + (candidates[i],)
            yield grown
            stack.append((rest, family))
            stack.append((rest & compat[i], grown))


def enumerate_trees(n: int, variant: str = "full") -> list[FTree]:
    """All trees with n leaves, in a deterministic order.

    variant "full" gives every tree, "trunk" only those with a univalent
    root, and "planar" those whose clusters are consecutive intervals with
    the full interval excluded (root valence at least two).

    Candidate leaf sets are bitmasks ordered by size, then by their sorted
    labels.  Families of them come out of a depth-first backtrack (the empty
    family first, each family followed by its extensions by later
    candidates).  This order is part of the contract: callers and tests
    index into the list.  Up to _CHUNK families at a time go to the batch
    builder, _family_trees, which builds in array form the trees the
    one-tree builder _from_family builds; most of an enumeration's time went
    to building its trees one at a time.  n must be an integer, not a bool.
    """
    if variant not in ("full", "trunk", "planar"):
        raise ValueError(f"unknown variant {variant!r}")
    n = _integer(n)
    if variant == "planar":
        if not 2 <= n <= MAX_PLANAR_LEAVES:
            raise ValueError(
                f"planar enumeration supports 2 <= n <= {MAX_PLANAR_LEAVES}"
            )
        candidates = [
            _mask(range(i, i + size))
            for size in range(2, n)
            for i in range(1, n - size + 2)
        ]
    else:
        if not 1 <= n <= MAX_FULL_LEAVES:
            raise ValueError(
                f"{variant} enumeration supports 1 <= n <= {MAX_FULL_LEAVES}"
            )
        candidates = [
            _mask(c)
            for size in range(2, n + 1)
            for c in itertools.combinations(range(1, n + 1), size)
        ]
    if variant == "trunk":
        if n == 1:
            return [corolla(1)]
        full = candidates.pop()  # the full leaf set, last by size, joins every family
        families = (family + (full,) for family in _laminar_families(candidates))
    else:
        families = _laminar_families(candidates)
    out: list[FTree] = []
    while chunk := _family_trees(itertools.islice(families, _CHUNK), n):
        out += chunk
    return out


def _integer(n) -> int:
    """A leaf count or an index: an int, not a bool, else ValueError naming n."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"n must be an integer, not {n!r}")


# -- index maps ---------------------------------------------------------------


@dataclass(frozen=True)
class SetMap:
    """A map {1..m} -> {1..n} given by its value table."""

    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or len(self.values) != self.m:
            raise ValueError("value table length does not match the domain")
        for v in self.values:
            if not 1 <= v <= self.n:
                raise ValueError(f"value {v} outside 1..{self.n}")

    @property
    def is_injective(self) -> bool:
        return len(set(self.values)) == self.m

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.m:
            raise ValueError(f"argument {j} outside 1..{self.m}")
        return self.values[j - 1]

    def compose(self, inner: "SetMap") -> "SetMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if inner.n != self.m:
            raise ValueError("maps are not composable")
        return SetMap(inner.m, self.n, tuple(self(v) for v in inner.values))

    @classmethod
    def identity(cls, n: int) -> "SetMap":
        return cls(n, n, tuple(range(1, n + 1)))


# -- DOT output ---------------------------------------------------------------


def tree_to_dot(tree: FTree, name: str = "tree") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for v in range(tree.num_vertices):
        if v == 0:
            lines.append('  v0 [shape=square, label="root"];')
        elif v <= tree.n:
            lines.append(f'  v{v} [shape=none, label="{v}"];')
        else:
            lines.append(f'  v{v} [shape=point];')
    for v in range(1, tree.num_vertices):
        lines.append(f"  v{v} -> v{tree.parent[v]};")
    lines.append("}")
    return "\n".join(lines)


def hasse_to_dot(trees: Sequence[FTree], name: str = "poset") -> str:
    """Hasse diagram of the contraction order on the given trees."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for idx, t in enumerate(trees):
        label = "{" + ",".join(
            "".join(str(x) for x in sorted(a))
            for a in sorted(nested_collection(t), key=lambda a: (len(a), sorted(a)))
        ) + "}"
        lines.append(f'  t{idx} [label="{label}", shape=box];')
    lines += [f"  t{i} -> t{j};" for i, j in covering_pairs(trees)]
    lines.append("}")
    return "\n".join(lines)
