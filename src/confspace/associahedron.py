"""The associahedron as the compactified ordered line: faces, counts, realizations.

Faces of the n-th associahedron correspond to trees on n+2 leaves whose
clusters are consecutive intervals (the full interval excluded); the face
dimension is n minus the number of internal vertices, and the covering
relation is single-edge contraction.  Each face is realized by coordinates
of an ordered one-dimensional boundary configuration with the outer points
pinned at 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trees
from .canonical import AmbientPoint, StratumPoint, expand_chart
from .numerics import _float_array

MAX_ASSOC_INDEX = 8


def is_planar(tree: trees.FTree) -> bool:
    """Clusters are consecutive intervals and the root is not univalent."""
    full = frozenset(range(1, tree.n + 1))
    for a in trees.nested_collection(tree):
        if a == full:
            return False
        if max(a) - min(a) + 1 != len(a):
            return False
    return True


@dataclass(frozen=True)
class FacePoset:
    """Graded face lattice: trees, dimensions, and Hasse covering pairs."""

    index: int
    faces: tuple[trees.FTree, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    def faces_of_dim(self, d: int) -> list[trees.FTree]:
        return [f for f, fd in zip(self.faces, self.dims) if fd == d]


def face_poset(n: int) -> FacePoset:
    """The complete face poset of the n-th associahedron.

    The faces are enumerate_trees(n + 2, "planar"), in its order: the
    lexicographic order of the faces' families of interval clusters, as
    sequences of candidate indices with a prefix before its extensions.
    They come with their families from the enumeration, so a face's
    dimension is n less its family's length, and the faces it covers are
    its family less one cluster each, looked up by integer code (bit i for
    candidate i) rather than rebuilt from each tree's clusters.
    """
    n = trees._integer(n)
    if not 0 <= n <= MAX_ASSOC_INDEX:
        raise ValueError(f"face poset supports 0 <= n <= {MAX_ASSOC_INDEX}")
    faces: list[trees.FTree] = []
    codes: list[int] = []
    for built, families in trees._batches(n + 2, "planar"):
        faces += built
        # bit i of a code is planar candidate i; there are at most 44
        codes += (np.int64(1) << np.maximum(families, 0)).sum(1, where=families >= 0).tolist()
    dims = tuple(n - code.bit_count() for code in codes)
    # a face is covered exactly by its single-edge contractions: its family
    # less one cluster
    return FacePoset(n, tuple(faces), dims, tuple(trees._covers(codes)))


def f_vector(n: int) -> tuple[int, ...]:
    """Face counts by dimension 0..n; the alternating sum is 1.

    A face of dimension d is a dissection of the (n+3)-gon by n-d
    non-crossing diagonals, counted by the Kirkman-Cayley formula.
    """
    n = trees._integer(n)
    if not 0 <= n <= MAX_ASSOC_INDEX:
        raise ValueError(f"face poset supports 0 <= n <= {MAX_ASSOC_INDEX}")
    return tuple(
        math.comb(n, n - d) * math.comb(2 * n + 2 - d, n - d) // (n - d + 1)
        for d in range(n + 1)
    )


def realize_face(
    tree: trees.FTree, params: dict[int, object] | None = None
) -> AmbientPoint:
    """Coordinates of a point in the (closed) face indexed by a planar tree.

    The ordered one-dimensional boundary data pins the first and last
    positions at 0 and 1; `params` optionally assigns each non-leaf vertex a
    strictly increasing tuple of positions (affinely pinned for the root,
    recentred and rescaled for internal vertices), defaulting to equal
    spacing.  The result classifies back to the given tree.
    """
    if not is_planar(tree):
        raise ValueError("realization needs a planar tree")
    params = dict(params or {})

    def increasing(v: int, k: int) -> np.ndarray:
        if v in params:
            vals = _float_array(params[v], f"parameters at vertex {v} must be numbers").reshape(-1)
            if vals.shape != (k,):
                raise ValueError(f"vertex {v} needs {k} parameters")
            if not (np.diff(vals) > 0).all():
                raise ValueError(f"parameters at vertex {v} must increase")
            return vals
        return np.linspace(0.0, 1.0, k)

    k0 = len(tree.children[0])
    root = increasing(0, k0)
    root = (root - root[0]) / (root[-1] - root[0])
    configs = {}
    for v in tree.internal_vertices:
        vals = increasing(v, len(tree.children[v]))
        vals = vals - vals.mean()
        vals = vals / np.abs(vals).max()
        configs[v] = vals.reshape(-1, 1)
    point = StratumPoint(
        tree,
        root.reshape(-1, 1),
        configs,
        {v: 0.0 for v in tree.internal_vertices},
    )
    return expand_chart(point)


def face_poset_to_dot(poset: FacePoset, name: str = "assoc") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for idx, (t, d) in enumerate(zip(poset.faces, poset.dims)):
        sets = sorted(
            ("".join(str(x) for x in sorted(a)) for a in trees.nested_collection(t)),
        )
        label = "{" + ",".join(sets) + "}" if sets else "top"
        lines.append(f'  f{idx} [label="{label}\\ndim {d}", shape=box];')
    for a, b in poset.covers:
        lines.append(f"  f{a} -> f{b};")
    lines.append("}")
    return "\n".join(lines)
