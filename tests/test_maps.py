"""Index functoriality: projections, framed actions, doubling, cosimplicial checks."""

import itertools

import numpy as np
import pytest

import confspace as cs
from helpers import direction_error, random_frames, sample_config


def lift(pts):
    return cs.lift_configuration(np.asarray(pts, dtype=float))


def framed_directions(rng, n, m):
    pts = sample_config(rng, n, m)
    return cs.framed_point(cs.to_simplicial(lift(pts)), random_frames(rng, n, m))


def framed_ambient(rng, n, m):
    pts = sample_config(rng, n, m)
    return cs.framed_point(lift(pts), random_frames(rng, n, m))


def random_setmap(rng, m, n):
    return cs.SetMap(m, n, tuple(int(v) for v in rng.integers(1, n + 1, size=m)))


def monotone_setmap(rng, m, n):
    vals = sorted(int(v) for v in rng.integers(1, n + 1, size=m))
    return cs.SetMap(m, n, tuple(vals))


def framed_gap(a: cs.FramedPoint, b: cs.FramedPoint) -> float:
    out = float(np.abs(a.point.x - b.point.x).max())
    out = max(out, direction_error(a.point.u, b.point.u))
    for i in a.frames:
        out = max(out, float(np.linalg.norm(a.frames[i] - b.frames[i])))
    if a.is_ambient:
        for k in a.point.d:
            out = max(
                out,
                cs.canonical.compactified_gap(a.point.d[k], b.point.d[k]),
            )
    return out


# -- projections ----------------------------------------------------------------------


def test_project_identity():
    rng = np.random.default_rng(0)
    a = lift(sample_config(rng, 4, 2))
    out = cs.project_indices(cs.SetMap.identity(4), a)
    assert cs.ambient_distance(a, out) == 0.0


def test_project_commutes_with_lift():
    rng = np.random.default_rng(1)
    pts = sample_config(rng, 5, 3)
    sigma = cs.SetMap(3, 5, (2, 4, 5))
    left = cs.project_indices(sigma, lift(pts))
    right = lift(np.stack([pts[i - 1] for i in sigma.values]))
    assert cs.ambient_distance(left, right) == 0.0


def test_project_requires_injective():
    rng = np.random.default_rng(2)
    a = lift(sample_config(rng, 3, 2))
    with pytest.raises(ValueError, match="injective"):
        cs.project_indices(cs.SetMap(2, 3, (1, 1)), a)


def test_project_prunes_the_stratum_tree():
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=3)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    sigma = cs.SetMap(2, 3, (1, 3))  # drop index 2, breaking the cluster
    out = cs.project_indices(sigma, a)
    assert cs.stratum_tree(out) == cs.corolla(2)
    assert cs.stratum_tree(out) == cs.prune(cs.stratum_tree(a), sigma)
    assert cs.membership_canonical(out).passed


def test_project_framed_points_and_simplicial():
    rng = np.random.default_rng(4)
    fp = framed_directions(rng, 4, 2)
    sigma = cs.SetMap(2, 4, (2, 4))
    out = cs.project_indices(sigma, fp)
    assert np.array_equal(out.frames[1], fp.frames[2])
    assert cs.membership_simplicial(out.point).passed


def test_empty_index_map_leaves_an_empty_framed_point():
    """As for a point without frames; the frames were gathered along an
    empty float index, an IndexError."""
    rng = np.random.default_rng(5)
    empty = cs.SetMap(0, 3, ())
    directions, ambient = framed_directions(rng, 3, 2), framed_ambient(rng, 3, 2)
    for fp in (directions, ambient):
        out = cs.project_indices(empty, fp)
        assert (out.n, out.m, out.F.shape) == (0, 2, (0, 2))
        assert out.point.x.shape == cs.project_indices(empty, fp.point).x.shape
    assert cs.pullback(empty, directions).n == 0


# -- frame storage ------------------------------------------------------------------------


def test_frames_are_one_frozen_array_with_a_read_only_view():
    rng = np.random.default_rng(20)
    frames = random_frames(rng, 4, 3)
    for fp in (framed_ambient(rng, 4, 3), framed_directions(rng, 4, 3)):
        fp = cs.framed_point(fp.point, frames)
        assert fp.F.shape == (4, 3) and fp.F.dtype == float and not fp.F.flags.writeable
        assert list(fp.frames) == [1, 2, 3, 4] and len(fp.frames) == 4
        for i in range(1, 5):
            assert fp.frames[i].tobytes() == fp.F[i - 1].tobytes() == frames[i - 1].tobytes()
            assert not fp.frames[i].flags.writeable
        for key in (0, 5, -1, (1,), "1"):
            with pytest.raises(KeyError):
                fp.frames[key]
        with pytest.raises(TypeError):
            fp.frames[1] = frames[0]
        assert not hasattr(fp.frames, "pop") and not hasattr(fp.frames, "update")


def test_maps_take_rows_of_the_frames_array():
    """pullback, project_indices and diagonal_map return the selected rows of
    the input's F, bit for bit, as a new frozen array."""
    rng = np.random.default_rng(21)
    fs, fa = framed_directions(rng, 5, 2), framed_ambient(rng, 5, 2)
    sigma = cs.SetMap(6, 5, (3, 1, 1, 5, 3, 2))
    injection = cs.SetMap(3, 5, (4, 2, 5))
    for out, fp, values in [
        (cs.pullback(sigma, fs), fs, sigma.values),
        (cs.project_indices(injection, fs), fs, injection.values),
        (cs.project_indices(injection, fa), fa, injection.values),
        (cs.diagonal_map(fa, 2), fa, cs.doubling_map(2, 1, 5).values),
        (cs.diagonal_map(fa, 4, 2, lift([[0.0], [0.3], [1.0]])), fa, cs.doubling_map(4, 2, 5).values),
    ]:
        assert out.F.tobytes() == fp.F[[v - 1 for v in values]].tobytes()
        assert out.F.shape == (len(values), 2) and not out.F.flags.writeable


def test_framed_point_names_the_bad_frame():
    a = lift([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = np.array([1.0, 0.0])
    for frames, message in [
        ([e, e], "missing frame at index 3"),
        ({1: e, 3: e}, "missing frame at index 2"),
        ([e, np.array([1.0, 0.0, 0.0]), e], "frame at 2 has wrong dimension"),
        ([e, e, 2 * e], r"frame at 3 is not a unit vector \(norm 2.0\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            cs.framed_point(a, frames)


# -- framed pullback -------------------------------------------------------------------


def test_pullback_identity():
    rng = np.random.default_rng(5)
    fp = framed_directions(rng, 3, 2)
    out = cs.pullback(cs.SetMap.identity(3), fp)
    assert framed_gap(fp, out) == 0.0


def test_pullback_doubling_example():
    rng = np.random.default_rng(6)
    fp = framed_directions(rng, 2, 3)
    sigma = cs.SetMap(3, 2, (1, 2, 2))
    out = cs.pullback(sigma, fp)
    assert np.array_equal(out.point.x[1], out.point.x[2])
    assert np.array_equal(out.point.u[(2, 3)], fp.frames[2])
    assert np.array_equal(out.point.u[(3, 2)], -fp.frames[2])
    verdict = cs.membership_simplicial(out.point)
    assert verdict.passed and verdict.max_residual <= 1e-8


def test_pullback_membership_closure():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m_dim = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        fp = framed_directions(rng, n, m_dim)
        sigma = random_setmap(rng, k, n)
        out = cs.pullback(sigma, fp)
        verdict = cs.membership_simplicial(out.point)
        assert verdict.passed and verdict.max_residual <= 1e-8


def test_pullback_contravariant_on_fiber_order_preserving_maps():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        mid = int(rng.integers(1, 6))
        low = int(rng.integers(1, 6))
        fp = framed_directions(rng, n, 3)
        sigma = random_setmap(rng, mid, n)
        tau = monotone_setmap(rng, low, mid)
        lhs = cs.pullback(sigma.compose(tau), fp)
        rhs = cs.pullback(tau, cs.pullback(sigma, fp))
        assert framed_gap(lhs, rhs) == 0.0


def test_pullback_composition_needs_fiber_order():
    """Documents why the composition law is restricted.

    With any antisymmetric convention for collapsed pairs, an inner map that
    swaps a collapsed pair flips the direction sign, so the composite cannot
    agree on it; everything away from such pairs still matches.
    """
    rng = np.random.default_rng(9)
    fp = framed_directions(rng, 1, 2)
    sigma = cs.SetMap(2, 1, (1, 1))
    swap = cs.SetMap(2, 2, (2, 1))
    lhs = cs.pullback(sigma.compose(swap), fp)
    rhs = cs.pullback(swap, cs.pullback(sigma, fp))
    assert np.array_equal(lhs.point.u[(1, 2)], -rhs.point.u[(1, 2)])
    assert np.array_equal(lhs.point.x, rhs.point.x)
    assert np.array_equal(lhs.frames[1], rhs.frames[1])


# -- diagonal maps ----------------------------------------------------------------------


def test_diagonal_single_doubling_section_identity():
    rng = np.random.default_rng(10)
    fp = framed_ambient(rng, 3, 2)
    for i in (1, 2, 3):
        out = cs.diagonal_map(fp, i, 1)
        assert cs.membership_canonical(out.point).passed
        back = cs.project_indices(cs.section_of_doubling(i, 1, 3), out)
        assert framed_gap(back, fp) == 0.0


def test_diagonal_grafts_a_cluster():
    rng = np.random.default_rng(11)
    fp = framed_ambient(rng, 3, 2)
    out = cs.diagonal_map(fp, 2, 1)
    assert cs.stratum_tree(out.point) == cs.tree_from_nested([{2, 3}], 4)


def test_diagonal_on_boundary_point_grafts_at_leaf():
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=12)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    rng = np.random.default_rng(13)
    fp = cs.framed_point(a, random_frames(rng, 3, 2))
    out = cs.diagonal_map(fp, 1, 1)
    # old cluster {1,2} relabels to {1,3}; the new pair {1,2} nests inside
    assert cs.stratum_tree(out.point) == cs.tree_from_nested(
        [{1, 2}, {1, 2, 3}], 4
    )
    assert cs.membership_canonical(out.point).passed


def test_diagonal_compositions_differ():
    rng = np.random.default_rng(14)
    fp = framed_ambient(rng, 3, 2)
    lhs = cs.diagonal_map(cs.diagonal_map(fp, 2, 1), 2, 1)
    rhs = cs.diagonal_map(cs.diagonal_map(fp, 2, 1), 3, 1)
    gaps = [
        cs.canonical.compactified_gap(lhs.point.d[k], rhs.point.d[k])
        for k in lhs.point.d
    ]
    assert max(gaps) > 0.4


def test_diagonal_k2_boundary_vertices_are_the_composites():
    rng = np.random.default_rng(15)
    for i in (1, 2, 3):
        fp = framed_ambient(rng, 3, 2)
        vertex_12 = cs.realize_face(cs.tree_from_nested([{1, 2}], 3))
        vertex_23 = cs.realize_face(cs.tree_from_nested([{2, 3}], 3))
        left = cs.diagonal_map(fp, i, 2, vertex_12)
        right = cs.diagonal_map(fp, i, 2, vertex_23)
        assert framed_gap(left, cs.diagonal_map(cs.diagonal_map(fp, i, 1), i, 1)) <= 1e-12
        assert framed_gap(right, cs.diagonal_map(cs.diagonal_map(fp, i, 1), i + 1, 1)) <= 1e-12
        assert cs.membership_canonical(left.point).passed


def test_diagonal_interior_assoc_parameter():
    rng = np.random.default_rng(16)
    fp = framed_ambient(rng, 2, 3)
    assoc = cs.realize_face(cs.corolla(3), {0: (0.0, 0.3, 1.0)})
    out = cs.diagonal_map(fp, 1, 2, assoc)
    assert out.n == 4
    assert cs.membership_canonical(out.point).passed
    assert out.point.d[(1, 2, 3)] == assoc.d[(1, 2, 3)]
    back = cs.project_indices(cs.section_of_doubling(1, 2, 2), out)
    assert framed_gap(back, fp) == 0.0


def test_diagonal_assoc_validation():
    rng = np.random.default_rng(17)
    fp = framed_ambient(rng, 2, 2)
    with pytest.raises(ValueError, match="interval parameter"):
        cs.diagonal_map(fp, 1, 2, None)
    decreasing = lift([[0.9], [0.4], [0.1]])
    with pytest.raises(ValueError, match="increasing"):
        cs.diagonal_map(fp, 1, 2, decreasing)
    with pytest.raises(ValueError, match="indices"):
        cs.diagonal_map(fp, 1, 3, cs.realize_face(cs.corolla(3)))


# -- cosimplicial structure --------------------------------------------------------------


def interval_point(ts, frames_inner=None):
    xs = [0.0] + list(ts) + [1.0]
    n = len(xs)
    x = np.array(xs).reshape(-1, 1)
    u = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                u[(a, b)] = np.array([1.0 if xs[a - 1] > xs[b - 1] else -1.0])
    inner = frames_inner or [np.array([-1.0])] * len(ts)
    frames = [np.array([1.0])] + list(inner) + [np.array([-1.0])]
    return cs.framed_point(cs.simplicial_point(x, u), frames)


def coface(i, n):
    return [v if v < i else v + 1 for v in range(n + 1)]


def codegeneracy(i, n):
    return [v if v <= i else v - 1 for v in range(n + 1)]


def standard_simplex_image(ts, sigma, m):
    """Vertex-extension oracle: barycentric transport of the coordinates."""
    n = len(ts)
    lam = np.zeros(n + 1)
    ext = [0.0] + list(ts) + [1.0]
    for r in range(n + 1):
        lam[r] = ext[n + 1 - r] - ext[n - r]

    out = np.zeros(m)
    for r, weight in enumerate(lam):
        q = sigma[r]
        vertex = np.array([1.0 if j > m - q else 0.0 for j in range(1, m + 1)])
        out += weight * vertex
    return out


def test_cosimplicial_identity_map():
    fp = interval_point([0.2, 0.6])
    out = cs.cosimplicial_map(fp, [0, 1, 2], 2)
    assert framed_gap(out, fp) == 0.0


def test_cosimplicial_matches_standard_structure_maps():
    rng = np.random.default_rng(18)
    for n in range(0, 4):
        for m in range(0, 4):
            maps = [
                sigma
                for sigma in itertools.product(range(m + 1), repeat=n + 1)
                if all(a <= b for a, b in zip(sigma, sigma[1:]))
            ]
            ts = sorted(rng.uniform(0.05, 0.95, size=n))
            fp = interval_point(ts)
            for sigma in maps:
                out = cs.cosimplicial_map(fp, list(sigma), m)
                want = standard_simplex_image(ts, sigma, m)
                got = out.point.x.ravel()[1:-1]
                assert np.abs(got - want).max(initial=0.0) <= 1e-12
                assert cs.membership_simplicial(out.point).passed


def test_cosimplicial_simplicial_identities():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for _ in range(10):
            ts = sorted(rng.uniform(0.05, 0.95, size=n))
            fp = interval_point(ts)
            for i in range(n + 2):
                for j in range(i + 1, n + 3):
                    lhs = cs.cosimplicial_map(
                        cs.cosimplicial_map(fp, coface(i, n), n + 1),
                        coface(j, n + 1), n + 2,
                    )
                    rhs = cs.cosimplicial_map(
                        cs.cosimplicial_map(fp, coface(j - 1, n), n + 1),
                        coface(i, n + 1), n + 2,
                    )
                    assert framed_gap(lhs, rhs) <= 1e-12


def test_cosimplicial_coface_duplicates_coordinates():
    fp = interval_point([0.4])
    out = cs.cosimplicial_map(fp, coface(1, 1), 2)
    assert np.allclose(out.point.x.ravel(), [0.0, 0.4, 0.4, 1.0])


def test_cosimplicial_requires_decoration():
    bad = interval_point([0.4])
    shifted = cs.framed_point(
        cs.simplicial_point(bad.point.x + 0.25, bad.point.u),
        [bad.frames[i] for i in range(1, 4)],
    )
    with pytest.raises(ValueError, match="end points"):
        cs.cosimplicial_map(shifted, [0, 1], 1)
    with pytest.raises(ValueError, match="monotone"):
        cs.cosimplicial_map(bad, [1, 0], 1)


# -- framed membership -----------------------------------------------------------------------


def test_membership_framed_sphere_tangency():
    north = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 0.0, 0.0])
    south = -north
    x = np.stack([north, south])
    u = {(1, 2): north.copy(), (2, 1): -north}
    for p in (cs.simplicial_point(x, u), cs.ambient_point(x, u, {})):
        good = cs.framed_point(p, [east, east])
        assert cs.membership_framed(good, cs.Sphere(2)) == cs.Verdict((), 0.0)
        bad = cs.framed_point(p, [north, east])
        verdict = cs.membership_framed(bad, cs.Sphere(2))
        assert verdict == cs.Verdict((cs.Violation("frame-tangency", (1,), 1.0),), 1.0)
        # an oblique frame: the residual is one np.dot, to the last bit
        oblique = cs.framed_point(p, [east, np.array([0.6, 0.0, 0.8])])
        res = abs(float(np.dot(oblique.frames[2], south)))
        verdict = cs.membership_framed(oblique, cs.Sphere(2))
        assert verdict == cs.Verdict((cs.Violation("frame-tangency", (2,), res),), res)


# -- input checks ------------------------------------------------------------------------


def _bad_maps_inputs():
    """(call, message) pairs: each call breaks one precondition of an index map."""
    rng = np.random.default_rng(31)
    fs, fa = framed_directions(rng, 3, 2), framed_ambient(rng, 3, 2)
    interval = interval_point([0.4])
    wrong_ends = cs.framed_point(interval.point, [np.array([-1.0])] * 3)
    increasing = lift([[0.1], [0.4], [0.9]])
    d = dict(increasing.d)
    d[(1, 2, 3)] *= 1.5
    off_membership = cs.ambient_point(increasing.x, increasing.u, d)
    return [
        (lambda: cs.project_indices(cs.SetMap(2, 4, (1, 2)), fs.point), "codomain does not match"),
        (lambda: cs.pullback(cs.SetMap(3, 3, (1, 2, 3)), fa), "acts on framed direction points"),
        (lambda: cs.pullback(cs.SetMap(2, 4, (1, 2)), fs), "codomain does not match"),
        (lambda: cs.doubling_map(4, 1, 3), "doubling needs"),
        (lambda: cs.doubling_map(1, 0, 3), "doubling needs"),
        (lambda: cs.diagonal_map(fa, 1, 2, lift([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]])),
         "interval parameter must be one-dimensional"),
        (lambda: cs.diagonal_map(fa, 1, 2, off_membership), "interval parameter fails membership"),
        (lambda: cs.diagonal_map(fs, 1), "act on framed ambient points"),
        (lambda: cs.monotone_dual([], 2), "at least one value"),
        (lambda: cs.monotone_dual([0, 3], 2), r"must lie in 0\.\.2"),
        (lambda: cs.cosimplicial_map(fs, [0, 1], 1), "interval points are one-dimensional"),
        (lambda: cs.cosimplicial_map(wrong_ends, [0, 1], 1), "end frames"),
        (lambda: cs.cosimplicial_map(fa, [0, 1], 1), "lives on direction points"),
        (lambda: cs.cosimplicial_map(interval, [0, 1, 1], 1), "sigma length"),
        # a codomain past the point: the frames were gathered first, an IndexError
        (lambda: cs.project_indices(cs.SetMap(2, 5, (4, 5)), fs), "codomain does not match"),
    ]


@pytest.mark.parametrize("case", range(15))
def test_index_maps_reject_bad_input(case):
    call, message = _bad_maps_inputs()[case]
    with pytest.raises(ValueError, match=message):
        call()
