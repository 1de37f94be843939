"""Associahedron faces: counts against dissection oracles, realizations."""

import math

import numpy as np
import pytest

import confspace as cs
from helpers import catalan, kirkman_cayley, polygon_dissections


def test_smallest_cases():
    assert cs.f_vector(0) == (1,)
    p1 = cs.face_poset(1)
    assert cs.f_vector(1) == (2, 1)
    assert len(p1.faces) == 3
    assert cs.f_vector(2) == (5, 5, 1)


def test_vertex_counts_are_catalan():
    for n in range(0, 9):
        assert cs.f_vector(n)[0] == catalan(n + 1)


def test_euler_alternating_sum():
    for n in range(0, 9):
        counts = cs.f_vector(n)
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1


def test_counts_match_polygon_dissection_oracle():
    for n in range(0, 7):
        by_size = polygon_dissections(n + 3)
        counts = cs.f_vector(n)
        for k, cnt in by_size.items():
            assert counts[n - k] == cnt
            assert cnt == kirkman_cayley(n + 3, k)


def test_face_poset_dims_and_covers_match_f_vector():
    for n in range(0, 7):
        poset = cs.face_poset(n)
        counts = cs.f_vector(n)
        histogram = [0] * (n + 1)
        for d in poset.dims:
            histogram[d] += 1
        assert tuple(histogram) == counts
        assert len(poset.covers) == sum(f * (n - d) for d, f in enumerate(counts))


def test_poset_is_graded_with_unique_top():
    for n in (2, 3, 4):
        poset = cs.face_poset(n)
        tops = [f for f, d in zip(poset.faces, poset.dims) if d == n]
        assert tops == [cs.corolla(n + 2)]
        for f, d in zip(poset.faces, poset.dims):
            assert d == n - cs.codim(f)
            if d < n:
                ups = [b for a, b in poset.covers if poset.faces[a] == f]
                assert ups, "every proper face is covered"
        for a, b in poset.covers:
            assert poset.dims[b] == poset.dims[a] + 1
            assert cs.leq(poset.faces[a], poset.faces[b])


def test_vertices_are_binary_trees():
    poset = cs.face_poset(3)
    for f in poset.faces_of_dim(0):
        for v in (0, *f.internal_vertices):
            assert len(f.children[v]) == 2


def test_faces_are_interval_systems():
    for n in (2, 3):
        poset = cs.face_poset(n)
        seen = set()
        for f in poset.faces:
            coll = cs.nested_collection(f)
            full = frozenset(range(1, n + 3))
            assert full not in coll
            for a in coll:
                assert max(a) - min(a) + 1 == len(a)
            seen.add(coll)
        assert len(seen) == len(poset.faces)


def test_realize_interior_example():
    pt = cs.realize_face(cs.corolla(4), {0: (0.0, 0.2, 0.4, 1.0)})
    assert np.allclose(pt.x.ravel(), [0.0, 0.2, 0.4, 1.0])
    assert abs(pt.d[(1, 2, 3)] - 0.5) < 1e-15
    assert cs.membership_canonical(pt).passed
    assert cs.stratum_tree(pt) == cs.corolla(4)


def test_realize_collapsed_prefix_face():
    t = cs.tree_from_nested([{1, 2, 3}], 4)
    v = t.vertex_over({1, 2, 3})
    pt = cs.realize_face(t, {v: (0.0, 0.3, 0.6)})
    assert np.allclose(pt.x.ravel(), [0.0, 0.0, 0.0, 1.0])
    assert pt.u[(2, 1)][0] == 1.0 and pt.u[(3, 1)][0] == 1.0
    assert abs(pt.d[(1, 2, 3)] - 0.5) < 1e-15
    assert cs.stratum_tree(pt) == t


def test_realize_defaults_pin_endpoints():
    for n in (2, 3):
        for f in cs.face_poset(n).faces:
            pt = cs.realize_face(f)
            assert pt.x[0, 0] == 0.0 and pt.x[-1, 0] == 1.0
            assert cs.membership_canonical(pt).passed
            assert cs.stratum_tree(pt) == f


def test_realize_pentagon_vertices_distinct_degenerate_patterns():
    poset = cs.face_poset(2)
    patterns = set()
    for f in poset.faces_of_dim(0):
        pt = cs.realize_face(f)
        sig = tuple(sorted(pt.d.items()))
        for _, val in sig:
            assert val in (0.0, 1.0, math.inf)
        patterns.add(sig)
    assert len(patterns) == 5


def test_realize_rejects_bad_input():
    with pytest.raises(ValueError, match="planar"):
        cs.realize_face(cs.tree_from_nested([{1, 3}], 3))
    with pytest.raises(ValueError, match="planar"):
        cs.realize_face(cs.tree_from_nested([{1, 2, 3}], 3))  # univalent root
    with pytest.raises(ValueError, match="increase"):
        cs.realize_face(cs.corolla(3), {0: (0.0, 0.7, 0.4)})
    with pytest.raises(ValueError, match="vertex 0 needs 3 parameters"):
        cs.realize_face(cs.corolla(3), {0: (0.0, 1.0)})


def test_face_poset_range():
    with pytest.raises(ValueError):
        cs.face_poset(-1)
    with pytest.raises(ValueError):
        cs.face_poset(9)
    for bad in (-1, 9):
        with pytest.raises(ValueError):
            cs.f_vector(bad)


def test_face_poset_dot():
    from confspace.associahedron import face_poset_to_dot

    dot = face_poset_to_dot(cs.face_poset(2))
    assert dot.count("->") == len(cs.face_poset(2).covers)
