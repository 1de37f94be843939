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
The array builder builds many at once, and only the enumeration uses it:
there thousands of families share each array call, while one tree through
numpy would cost more than the whole Python build of a small tree.

The enumeration, _batches, lists the laminar families of candidate leaf
sets in backtrack order and never holds a family as a Python object.  A
level of families is a state: arrays with one row a family, holding its
candidate indices, the column each set and each leaf hangs from, and
each set's path key, with a bitset of the candidates that may still join
the row.  The next level is read off those bitsets, and its state comes
from the last by _add_set: the new set is the family's largest, so it
hangs from the root and gathers what hung there inside it.
_state_trees turns a level's state into trees, numbering each row by
sorting its path keys.  Levels grow below a run of sibling families
until a batch holds _BATCH families, and one lexsort of the batch's index
rows puts its trees in backtrack order.  enumerate_trees returns the
trees.  face_poset also reads the families: a family's code is the bitset
of its candidates, its length is the face's codimension, and _covers
finds every cover as a code less one bit.  covering_pairs runs _covers on
codes numbered from each tree's clusters.

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

import bisect
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
    clusters are trees[i]'s minus exactly one.  Each tree is coded by the
    bitset of its clusters, one bit for each (leaf count, cluster) among the
    trees, and _covers finds the pairs on the codes, so repeated trees all
    get their edges.  Pairs come sorted.
    """
    bit: dict[tuple[int, int], int] = {}
    # each tree also carries the bit of (n, 0), which is no cluster, so that
    # a family minus one cluster is found only among trees of its leaf count
    return _covers([
        sum(1 << bit.setdefault((t.n, c), len(bit)) for c in (0, *_clusters(t)))
        for t in trees
    ])


def _covers(codes: Sequence[int]) -> list[tuple[int, int]]:
    """Index pairs (i, j), sorted, with codes[j] equal to codes[i] minus one
    set bit: a code is a family of clusters as a bitset, and a cover is a
    family less one cluster, looked up by its code."""
    where: dict[int, list[int]] = {}
    for j, code in enumerate(codes):
        where.setdefault(code, []).append(j)
    out = []
    for i, code in enumerate(codes):
        found = []
        rest = code
        while rest:
            low = rest & -rest
            found += where.get(code ^ low, ())
            rest ^= low
        found.sort()
        out += [(i, j) for j in found]
    return out


# -- enumeration -------------------------------------------------------------


# Families per batch in enumerate_trees; one batch's arrays are alive at a
# time.  It is below 2,752, the number of trunk trees with n = 6, so the
# enumeration tests cross batch boundaries.
_BATCH = 1024


def _candidates(n: int, variant: str) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The candidate leaf sets of an enumeration and what may follow each.

    masks holds the candidates' leaf-set bitmasks, by size, then by sorted
    labels; in the trunk variant the last, the full leaf set, joins every
    family and is no candidate.  later[i] is the bitset, in little-endian
    uint64 words, of the candidates after i that are nested in or disjoint
    from candidate i.  The third item is _set_tables of masks.  The tables
    are made afresh on each call, which costs little beside the enumeration:
    a cached table would outlive the first enumeration that made it, and its
    small objects would keep that enumeration's freed memory resident.
    """
    if variant == "planar":
        sets = [range(i, i + size) for size in range(2, n) for i in range(1, n - size + 2)]
    else:
        sets = [c for size in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), size)]
    masks = np.array([_mask(c) for c in sets], np.int16)
    free = masks[:-1] if variant == "trunk" else masks
    meet = free[:, None] & free
    fits = (meet == 0) | (meet == free[:, None]) | (meet == free)
    words = max(1, -(-len(free) // 64))
    packed = np.zeros((len(free), 8 * words), np.uint8)
    packed[:, : -(-len(free) // 8)] = np.packbits(np.triu(fits, 1), axis=1, bitorder="little")
    later = packed.view("<u8")
    return masks, later, _set_tables(masks, n)


# Path keys hold one four-bit digit a level, for up to this many levels.
_DEPTH = 15


def _set_tables(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For leaf-set bitmasks over 1..n: inside[a, j], whether set a lies in
    set j; holds[j, i - 1], whether set j holds leaf i; and digit[j], set
    j's lowest label in the top digit of a path key."""
    inside = (masks[:, None] & masks) == masks[:, None]
    holds = (masks[:, None] >> np.arange(1, n + 1)) & 1 == 1
    digit = (holds.argmax(1) + 1).astype(np.int64) << 4 * (_DEPTH - 1)
    return inside, holds, digit


def _empty(n: int) -> tuple[np.ndarray, ...]:
    """The state of the empty family over n leaves, in one row: no sets,
    and every leaf hangs from the root."""
    return (
        np.zeros((1, 0), np.int16),
        np.zeros((1, 0), np.int8),
        np.full((1, n), -1, np.int8),
        np.zeros((1, 0), np.int64),
    )


def _add_set(state: tuple[np.ndarray, ...], j: np.ndarray, tables: tuple) -> tuple[np.ndarray, ...]:
    """Each row's family with one more set j[row] added.

    A state holds, one row a family of k sets (columns) by size: fam, the
    sets' indices into the tables; up, the column each set hangs from;
    home, the column each leaf hangs from (-1 for the root); and key, each
    set's path key, the lowest labels of the sets from the root down to it,
    one digit a level from the top.  The new set comes after the others by
    size, so it lies in none of them: it hangs from the root, the sets and
    leaves in it that hung from the root now hang from it, and every set in
    it takes its digit above the path key.
    """
    fam, up, home, key = state
    inside, holds, digit = tables
    k = fam.shape[1]
    sub = inside[fam, j[:, None]]
    top = digit[j][:, None]
    return (
        np.concatenate([fam, j[:, None]], axis=1, dtype=np.int16),
        np.concatenate([np.where(sub & (up < 0), k, up), np.full_like(top, -1, np.int8)], axis=1),
        np.where(holds[j] & (home < 0), k, home).astype(np.int8),
        np.concatenate([np.where(sub, (key >> 4) + top, key), top], axis=1),
    )


def _state_trees(state: tuple[np.ndarray, ...], n: int) -> list[FTree]:
    """The trees of the families of a state, in row order.

    Sorting a row's path keys gives the depth-first numbering, children by
    lowest label, that _from_family reads off its path tuples; a column's
    vertex id is n + 1 plus its place in that order, and the root's is 0.
    Digits and int16 parent arrays hold labels up to 14.
    """
    _, up, home, key = state
    b, k = key.shape
    rows = np.arange(b)[:, None]
    order = np.argsort(key, axis=1)
    ids = np.zeros((b, k + 1), np.int16)  # the last column, -1, is the root
    ids[rows, order] = np.arange(n + 1, n + 1 + k, dtype=np.int16)
    parent = np.empty((b, n + 1 + k), np.int16)
    parent[:, 0] = -1
    parent[:, 1 : n + 1] = ids[rows, home]
    parent[:, n + 1 :] = np.take_along_axis(ids[rows, up], order, axis=1)
    return [_trusted(n, row) for row in zip(*[iter(parent.ravel().tolist())] * (n + 1 + k))]


def _children(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, candidate) for every set bit of a (b, words) bitset array,
    row by row and candidates increasing: the children of b families."""
    found = np.flatnonzero(np.unpackbits(bits.view(np.uint8), bitorder="little").view(bool))
    return np.divmod(found, 64 * bits.shape[1])


def _halves(ups: list[np.ndarray], below: np.ndarray, runs: int) -> list[int]:
    """Where to cut a run of siblings in two so that the families found
    below them split evenly.  ups[d] gives the parent row of each family at
    depth d + 1 (depth 0 is the run) and below that of each family of the
    next level; the answer is, for each depth, how many of its rows go to
    the first part, which holds at least one sibling and leaves at least
    one."""
    owner = [np.arange(runs)]
    for up in ups + [below]:
        owner.append(owner[-1][up])
    # summed in Python, at most one count per candidate: np.cumsum here
    # left small blocks alive after each call, pinning freed memory
    found = list(itertools.accumulate(np.bincount(np.concatenate(owner), minlength=runs).tolist()))
    heads = [min(max(bisect.bisect_left(found, found[-1] / 2), 1), runs - 1)]
    for up in ups:
        heads.append(int(np.searchsorted(up, heads[-1])))
    return heads


def _batches(n: int, variant: str) -> Iterator[tuple[list[FTree], np.ndarray]]:
    """The enumeration in order, at most _BATCH families at a time.

    Each batch is its trees and its families, as rows of candidate indices
    padded with -1.  A family is a row of increasing candidate indices, and
    its children in the backtrack are its extensions by one compatible
    later candidate, found in the bitset that goes with the row.  The
    subtrees below a run of siblings are generated level by level, each
    level's states from the last by _children and _add_set, while the batch
    stays within _BATCH families.  When the next level would not fit, the
    run is cut in two where the families found so far split evenly, and
    each part goes on from the levels it has; a run of one sibling is sent
    alone, followed by the run of its children.  Within a batch the
    backtrack order is the lexicographic order of the index rows, a prefix
    before its extensions, which one lexsort of the padded rows restores.
    """
    masks, later, tables = _candidates(n, variant)

    def build(levels: list[tuple]) -> tuple[list[FTree], np.ndarray]:
        built: list[FTree] = []
        for state in levels:
            if variant == "trunk":
                state = _add_set(state, np.full(len(state[0]), len(masks) - 1), tables)
            built += _state_trees(state, n)
        rows = np.full((len(built), levels[-1][0].shape[1]), -1, np.int16)
        start = 0
        for fam, *_ in levels:
            rows[start : start + len(fam), : fam.shape[1]] = fam
            start += len(fam)
        if len(levels) == 1:  # one level is in order
            return built, rows
        order = np.lexsort(rows.T[::-1])
        # reordered through an object array, with no int object per index
        return np.fromiter(built, object, len(built))[order].tolist(), rows[order]

    def grow(levels: list[tuple], ups: list[np.ndarray], front: np.ndarray):
        # levels[0] is a run of siblings and levels[d] their descendants at
        # depth d, each below row ups[d - 1] of the level before; front
        # holds the bitsets of the last level
        total = sum(len(state[0]) for state in levels)
        while True:
            rows, cols = _children(front)
            if not len(rows):
                yield build(levels)
                return
            # a lone sibling takes its children, at most one per candidate
            if total + len(rows) > _BATCH and (len(levels) > 1 or len(levels[0][0]) > 1):
                break
            levels.append(_add_set(tuple(a[rows] for a in levels[-1]), cols, tables))
            ups.append(rows)
            front = front[rows] & later[cols]
            total += len(rows)
        if len(levels[0][0]) == 1:
            yield build(levels[:1])
            yield from grow(levels[1:], ups[1:], front)
            return
        heads = _halves(ups, rows, len(levels[0][0]))
        del rows, cols  # each part finds its own children again
        yield from grow(
            [tuple(a[:h] for a in state) for state, h in zip(levels, heads)],
            [up[:h] for up, h in zip(ups, heads[1:])],
            front[: heads[-1]],
        )
        yield from grow(
            [tuple(a[h:] for a in state) for state, h in zip(levels, heads)],
            [up[h:] - g for up, h, g in zip(ups, heads[1:], heads)],
            front[heads[-1] :],
        )

    # the empty family first; every candidate may follow it
    every = np.packbits(np.arange(64 * later.shape[1]) < len(later), bitorder="little").view("<u8")
    yield from grow([_empty(n)], [], every[None])


def enumerate_trees(n: int, variant: str = "full") -> list[FTree]:
    """All trees with n leaves, in a deterministic order.

    variant "full" gives every tree, "trunk" only those with a univalent
    root, and "planar" those whose clusters are consecutive intervals with
    the full interval excluded (root valence at least two).

    Candidate leaf sets are bitmasks ordered by size, then by their sorted
    labels; a family of them is listed in candidate order, and the trunk
    variant adds the full leaf set to each.  Families come in the order of
    a depth-first backtrack: the empty family first, each family followed
    by its extensions by later candidates, the extensions by increasing
    candidate index.  A family's extensions begin with its own index
    sequence, and two siblings' sequences differ first in their last index,
    so this is the lexicographic order of the families' candidate index
    sequences with a prefix before its extensions; that is how _batches,
    generating level by level in arrays, restores it.
    This order is part of the contract: callers and tests index into the
    list.  Each level's trees come from a few array operations on the
    level's state (_add_set, _state_trees), and are the trees the one-tree
    builder _from_family builds.  n must be an integer, not a bool.
    """
    if variant not in ("full", "trunk", "planar"):
        raise ValueError(f"unknown variant {variant!r}")
    n = _integer(n)
    if variant == "planar":
        if not 2 <= n <= MAX_PLANAR_LEAVES:
            raise ValueError(
                f"planar enumeration supports 2 <= n <= {MAX_PLANAR_LEAVES}"
            )
    elif not 1 <= n <= MAX_FULL_LEAVES:
        raise ValueError(
            f"{variant} enumeration supports 1 <= n <= {MAX_FULL_LEAVES}"
        )
    if variant == "trunk" and n == 1:
        return [corolla(1)]
    out: list[FTree] = []
    for built, _ in _batches(n, variant):
        out += built
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
