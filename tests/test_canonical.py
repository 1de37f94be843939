"""Canonical coordinates: lifting, membership, classification, charts."""

import itertools
import math

import numpy as np
import pytest

import confspace as cs
from helpers import sample_config, sample_noncollinear_triple, direction_error


def lift(pts):
    return cs.lift_configuration(np.asarray(pts, dtype=float))


# -- lifting and normalization -----------------------------------------------------


def test_lift_hand_values():
    a = lift([[0, 0], [1, 0], [0, 1]])
    assert np.allclose(a.u[(1, 2)], [-1.0, 0.0])
    assert np.allclose(a.u[(2, 3)], [0.70710678, -0.70710678])
    assert abs(a.d[(2, 1, 3)] - 0.70710678) < 1e-8


def test_lift_line_two_points():
    a = lift([[0.0], [1.0]])
    assert a.u[(1, 2)][0] == -1.0
    assert a.u[(2, 1)][0] == 1.0
    assert a.d == {}


def test_lift_rejects_duplicates():
    with pytest.raises(ValueError, match="coincide"):
        lift([[0.0, 0.0], [0.0, 0.0]])


def test_lift_permutation_equivariance_exact():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pts = sample_config(rng, n, 3)
        perm = tuple(int(v) for v in rng.permutation(n) + 1)
        left = cs.permute(perm, lift(pts))
        right = lift(np.stack([pts[p - 1] for p in perm]))
        assert cs.ambient_distance(left, right) == 0.0


def test_sample_config_refuses_a_margin_that_cannot_fit():
    """At m = 1, ten points 0.25 apart cannot fit in [-1, 1): the sampler
    drew forever.  It now raises without touching the generator."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="no 10 points on a line in \\[-1, 1\\) are 0.25 apart"):
        sample_config(rng, 10, 1)
    assert rng.bit_generator.state == state
    assert sample_config(rng, 4, 1).shape == (4, 1)


def test_normalize_examples():
    out = cs.normalize(np.array([[0.0], [4.0]]))
    assert np.array_equal(out.points, [[-1.0], [1.0]])
    again = cs.normalize(out)
    assert np.array_equal(again.points, out.points)
    # a flat list holds points on a line
    assert np.array_equal(cs.normalize([0.0, 4.0]).points, out.points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "points",
    [
        [[1e308, 0.0], [-1e308, 0.0], [0.2, 0.9]],  # the norms overflow
        [[s * (1.0 + k / 10) * 1e308] for s in (1, -1) for k in range(4)],  # the centroid overflows
    ],
)
def test_normalize_names_an_overflowing_centroid_or_scale(points):
    with pytest.raises(ValueError, match="the configuration's centroid or scale overflows"):
        cs.normalize(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "points",
    [
        [[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]],
        [[1e154, 0.0], [-1e154, 0.0], [0.0, 1.0]],
        [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]],
    ],
)
def test_lift_names_overflowing_distances(points):
    """Finite distinct points whose pair norms overflow were refused as
    "u[1,2] is not a unit vector", a coordinate the caller never gave."""
    with pytest.raises(ValueError, match="^the configuration's pairwise distances overflow$"):
        lift(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lift_just_below_the_overflow_is_a_member():
    a = lift([[1e153, 0.0], [-1e153, 0.0], [0.0, 1.0]])
    assert cs.membership_canonical(a).passed


def test_normalize_preserves_directions_and_ratios():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pts = sample_config(rng, n, 2)
        a = lift(pts)
        b = lift(cs.normalize(pts).points)
        assert direction_error(a.u, b.u) < 1e-12
        for key in a.d:
            assert abs(a.d[key] - b.d[key]) < 1e-12


# -- law of sines --------------------------------------------------------------------


def ratio_via_directions(a, i, j, k, tol=1e-9):
    return cs.ratio_from_directions(
        a.u[(i, j)], a.u[(j, i)], a.u[(j, k)], a.u[(k, j)],
        a.u[(i, k)], a.u[(k, i)], tol,
    )


def test_ratio_right_triangle():
    a = lift([[0, 0], [1, 0], [0, 1]])
    assert abs(ratio_via_directions(a, 1, 2, 3) - 1.0) < 1e-12


def test_ratio_cluster_zero():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    out = cs.ratio_from_directions(e2, -e2, e1, -e1, e1, -e1)
    assert out == 0.0


def test_ratio_collinear_indeterminate():
    e1 = np.array([1.0, 0.0])
    assert cs.ratio_from_directions(e1, -e1, e1, -e1, e1, -e1) is None


def test_ratio_rejects_non_unit():
    e1 = np.array([2.0, 0.0])
    with pytest.raises(ValueError, match="unit"):
        cs.ratio_from_directions(e1, -e1, e1, -e1, e1, -e1)


def test_law_of_sines_against_distance_ratio():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        pts = sample_noncollinear_triple(rng, m)
        a = lift(pts)
        got = ratio_via_directions(a, 1, 2, 3)
        want = a.d[(1, 2, 3)]
        assert abs(got - want) / want < 1e-9


# -- extended ratios --------------------------------------------------------------------


def test_extended_product_patterns():
    from confspace.canonical import _extended_residuals

    def residual(values):
        return float(_extended_residuals([np.array([v]) for v in values])[0])

    assert residual([0.5, 2.0]) == 0.0
    assert residual([0.0, math.inf, 1.0]) == 0.0
    assert residual([0.0, math.inf, math.inf]) == 0.0
    assert residual([0.0, 1.0, 1.0]) == math.inf
    assert residual([math.inf, math.inf]) == math.inf
    assert abs(residual([2.0, 1.0, 1.0]) - 1.0) < 1e-15


def test_ratio_cocycles_on_lifts():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 5))
        a = lift(sample_config(rng, n, m, min_sep=0.15))
        for i, j, k in itertools.permutations(range(1, n + 1), 3):
            assert abs(a.d[(i, j, k)] * a.d[(i, k, j)] - 1.0) <= 1e-12
        for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
            prod = a.d[(i, j, k)] * a.d[(i, k, l)] * a.d[(i, l, j)]
            assert abs(prod - 1.0) <= 1e-10


# -- membership ----------------------------------------------------------------------------


def test_membership_passes_on_lifts():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        verdict = cs.membership_canonical(lift(sample_config(rng, n, m)))
        assert verdict.passed
        assert verdict.max_residual <= 1e-10


def test_membership_flags_negated_direction():
    rng = np.random.default_rng(6)
    a = lift(sample_config(rng, 4, 2))
    u = dict(a.u)
    u[(1, 2)] = -u[(1, 2)]
    broken = cs.ambient_point(a.x, u, a.d)
    verdict = cs.membership_canonical(broken)
    assert not verdict.passed
    assert any(v.condition.startswith(("1-", "3-")) for v in verdict.violations)


# Both variants check the sphere clauses: (entry point, its point, condition prefix).
SPHERE_CHECKS = (
    (cs.membership_canonical, lambda a: a, "5"),
    (cs.membership_simplicial, cs.to_simplicial, "S4"),
)


def _expected(*rows):
    """The verdict of (condition, indices, residual) rows whose largest
    residual is the largest of the whole check."""
    return cs.Verdict(tuple(cs.Violation(*row) for row in rows), max(row[2] for row in rows))


def test_membership_sphere_tangency():
    north = np.array([0.0, 0.0, 1.0])
    x = np.stack([north, north])
    a = cs.ambient_point(x, {(1, 2): north.copy(), (2, 1): -north}, {})
    tangent = np.array([1.0, 0.0, 0.0])
    ok = cs.ambient_point(x, {(1, 2): tangent, (2, 1): -tangent}, {})
    # an oblique direction at a double point off the sphere: each residual is
    # one np.linalg.norm or np.dot of a row, to the last bit
    p = np.array([0.3, 0.4, 0.9])
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    oblique = cs.ambient_point(np.stack([p, p]), {(1, 2): v, (2, 1): -v}, {})
    on = abs(float(np.linalg.norm(p)) - 1.0)
    for check, point, prefix in SPHERE_CHECKS:
        assert check(point(a), cs.Sphere(2)) == _expected(
            (f"{prefix}-tangency", (1, 2), 1.0), (f"{prefix}-tangency", (2, 1), 1.0)
        )
        # a tangent direction at the same double point is accepted
        assert check(point(ok), cs.Sphere(2)) == cs.Verdict((), 0.0)
        assert check(point(oblique), cs.Sphere(2)) == _expected(
            (f"{prefix}-on-manifold", (1,), on),
            (f"{prefix}-on-manifold", (2,), on),
            (f"{prefix}-tangency", (1, 2), abs(float(np.dot(oblique.u[(1, 2)], p)))),
            (f"{prefix}-tangency", (2, 1), abs(float(np.dot(oblique.u[(2, 1)], p)))),
        )


def test_membership_rejects_perturbed_ratio():
    rng = np.random.default_rng(90)
    for _ in range(50):
        a = lift(sample_config(rng, 4, 2))
        d = dict(a.d)
        d[(1, 2, 3)] = d[(1, 2, 3)] * 1.5
        bad = cs.ambient_point(a.x, a.u, d)
        assert not cs.membership_canonical(bad).passed


def test_boundary_membership_all_trees_low_and_high_dim():
    for n in (2, 3, 4):
        for t in cs.enumerate_trees(n):
            for m in (1, 3):
                s = cs.stratum_sample(t, m, seed=5)
                frozen = cs.StratumPoint(
                    t, s.root_config, s.configs, {v: 0.0 for v in s.scales}
                )
                a = cs.expand_chart(frozen)
                assert cs.membership_canonical(a).passed
                assert cs.stratum_tree(a) == t
                from confspace.simplicial import membership_simplicial, to_simplicial

                assert membership_simplicial(to_simplicial(a)).passed


def test_membership_sphere_off_manifold():
    a = lift([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    x = np.array([[1.1, 0.0, 0.0], [0.0, 0.9, 0.0], [0.6, 0.0, 0.8]])
    on = [abs(float(np.linalg.norm(row)) - 1.0) for row in x]
    assert on[2] <= 1e-9
    for check, point, prefix in SPHERE_CHECKS:
        assert check(point(a), cs.Sphere(2)) == _expected(
            (f"{prefix}-on-manifold", (1,), 1.0), (f"{prefix}-on-manifold", (2,), 1.0)
        )
        assert check(point(lift(x)), cs.Sphere(2)) == _expected(
            (f"{prefix}-on-manifold", (1,), on[0]), (f"{prefix}-on-manifold", (2,), on[1])
        )


@pytest.mark.parametrize("manifold", [cs.Euclidean(3), cs.Sphere(2)], ids=["euclidean", "sphere"])
def test_membership_rejects_a_manifold_of_another_dimension(manifold):
    a = lift([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    p = cs.to_simplicial(a)
    frames = [np.array([1.0, 0.0])] * 3
    for check, point in (
        (cs.membership_canonical, a),
        (cs.membership_simplicial, p),
        (cs.membership_framed, cs.framed_point(a, frames)),
        (cs.membership_framed, cs.framed_point(p, frames)),
    ):
        with pytest.raises(ValueError, match="embedding dimension 3 does not match the point dimension 2"):
            check(point, manifold)


# -- classification ---------------------------------------------------------------------------


def test_stratum_tree_generic_is_corolla():
    rng = np.random.default_rng(7)
    a = lift(sample_config(rng, 5, 3))
    assert cs.stratum_tree(a) == cs.corolla(5)


def test_stratum_tree_two_point_cluster():
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=0)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    assert a.d[(1, 2, 3)] == 0.0 and a.d[(2, 1, 3)] == 0.0
    assert np.array_equal(a.x[0], a.x[1])
    assert cs.stratum_tree(a) == t


def test_stratum_tree_trunk_when_all_collide():
    t = cs.tree_from_nested([{1, 2, 3}], 3)
    s = cs.stratum_sample(t, 2, seed=1)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    got = cs.stratum_tree(a)
    assert got.has_trunk and got == t


def test_stratum_tree_rejects_inconsistent_pattern():
    rng = np.random.default_rng(8)
    a = lift(sample_config(rng, 3, 2))
    d = dict(a.d)
    d[(1, 2, 3)] = 0.0  # without the mirror entry the axioms fail
    bad = cs.ambient_point(a.x, a.u, d)
    with pytest.raises(ValueError):
        cs.stratum_tree(bad, tol=1e-6)


# -- charts -----------------------------------------------------------------------------------


def trunk_stratum(t_scale):
    t = cs.tree_from_nested([{1, 2}], 2)
    return cs.StratumPoint(
        t, np.array([[0.0]]), {3: np.array([[-1.0], [1.0]])}, {3: t_scale}
    )


def test_expand_chart_trunk_example():
    out = cs.expand_chart(trunk_stratum(0.25))
    assert np.allclose(out.x.ravel(), [-0.25, 0.25])
    assert out.u[(1, 2)][0] == -1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [1e154, 1e308])
def test_expand_names_overflowing_distances(big):
    """Root rows at +-1e154 were refused as "u[1,3] is not a unit vector
    (norm 0.0)", and at +-1e308 as "(norm nan)"."""
    t = cs.tree_from_nested([{1, 2}], 4)
    s = cs.stratum_sample(t, 2, 3)
    root = [[(-1) ** r * big, *row[1:]] for r, row in enumerate(s.root_config)]
    with pytest.raises(ValueError, match="^the stratum's pairwise distances overflow$"):
        cs.expand_chart(cs.StratumPoint(t, root, s.configs, s.scales))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expand_just_below_the_overflow():
    t = cs.tree_from_nested([{1, 2}], 4)
    s = cs.stratum_sample(t, 2, 3)
    root = [[(-1) ** r * 1e153, *row[1:]] for r, row in enumerate(s.root_config)]
    a = cs.expand_chart(cs.StratumPoint(t, root, s.configs, s.scales))
    assert np.isfinite(a.x).all() and np.abs(a.x).max() >= 1e153


def test_expand_chart_boundary_point():
    out = cs.expand_chart(trunk_stratum(0.0))
    assert np.array_equal(out.x, np.zeros((2, 1)))
    assert out.u[(1, 2)][0] == -1.0
    assert cs.stratum_tree(out) == cs.tree_from_nested([{1, 2}], 2)
    assert cs.membership_canonical(out).passed


def test_expand_chart_interior_equals_lift():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        for t in cs.enumerate_trees(n)[:20]:
            s = cs.stratum_sample(t, 2, seed=int(rng.integers(10_000)))
            if any(v == 0.0 for v in s.scales.values()):
                continue
            a = cs.expand_chart(s)
            # directions recomputed from tight-cluster positions lose digits
            assert cs.ambient_distance(a, lift(a.x)) < 1e-8
            assert cs.membership_canonical(a).passed


def test_expand_partial_scales_classify_as_contraction():
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    s = cs.stratum_sample(t, 2, seed=3)
    inner = t.vertex_over({1, 2})
    outer = t.vertex_over({1, 2, 3})
    half = cs.StratumPoint(
        t, s.root_config, s.configs, {inner: s.scales[inner], outer: 0.0}
    )
    got = cs.stratum_tree(cs.expand_chart(half))
    assert got == cs.contract(t, [inner])


def test_invert_chart_trunk_example():
    a = lift([[-0.25], [0.25]])
    t = cs.tree_from_nested([{1, 2}], 2)
    s = cs.invert_chart(t, a)
    assert np.allclose(s.root_config, [[0.0]])
    assert np.allclose(s.configs[3], [[-1.0], [1.0]])
    assert abs(s.scales[3] - 0.25) < 1e-15


def test_invert_chart_boundary_recovers_exactly():
    rng = np.random.default_rng(10)
    for n in (3, 4):
        for t in cs.enumerate_trees(n):
            if t == cs.corolla(n):
                continue
            s = cs.stratum_sample(t, 2, seed=int(rng.integers(10_000)))
            frozen = cs.StratumPoint(
                t, s.root_config, s.configs, {v: 0.0 for v in s.scales}
            )
            back = cs.invert_chart(t, cs.expand_chart(frozen))
            assert np.abs(back.root_config - frozen.root_config).max() < 1e-10
            for v in t.internal_vertices:
                assert np.abs(back.configs[v] - frozen.configs[v]).max() < 1e-10
                assert back.scales[v] < 1e-12


def test_invert_chart_corolla_is_identity():
    rng = np.random.default_rng(11)
    pts = sample_config(rng, 4, 3)
    a = lift(pts)
    s = cs.invert_chart(cs.corolla(4), a)
    assert np.allclose(s.root_config, pts)
    assert s.scales == {}


def test_invert_chart_interior_roundtrip():
    rng = np.random.default_rng(12)
    for n in (3, 4):
        for t in cs.enumerate_trees(n):
            s = cs.stratum_sample(t, 3, seed=int(rng.integers(10_000)))
            a = cs.expand_chart(s)
            again = cs.expand_chart(cs.invert_chart(t, a))
            assert cs.ambient_distance(a, again) < 1e-8


def test_invert_chart_outside_region_raises():
    t = cs.tree_from_nested([{1, 2}], 3)
    boundary = cs.stratum_sample(t, 2, seed=4)
    frozen = cs.StratumPoint(
        t, boundary.root_config, boundary.configs, {v: 0.0 for v in boundary.scales}
    )
    a = cs.expand_chart(frozen)
    with pytest.raises(ValueError, match="chart region"):
        cs.invert_chart(cs.corolla(3), a)


def _vanishing(pts, zeros):
    """The lift of pts with the named ratios d[i, j, k] set to 0."""
    a = lift(pts)
    d = dict(a.d)
    d.update(dict.fromkeys(zeros, 0.0))
    return cs.ambient_point(a.x, dict(a.u), d)


# positions 1 and 2 are close, but no lifted ratio is below 1e-6
_NEAR_PAIR = [[0, 0], [1e-3, 0], [0.3, 0.4], [5, 1]]


def test_chart_region_is_read_from_clusters_not_joins():
    """Only d[1,2,4] and d[2,1,4] vanish, so the stratum's one cluster is
    {1, 2}.  In {1, 2, 3} every vanishing triple has its pair's join strictly
    below the triple's join, yet the tree lacks {1, 2}: outside its region."""
    a = _vanishing(_NEAR_PAIR, [(1, 2, 4), (2, 1, 4)])
    assert cs.stratum_tree(a) == cs.tree_from_nested([{1, 2}], 4)
    with pytest.raises(ValueError, match="outside the chart region"):
        cs.invert_chart(cs.tree_from_nested([{1, 2, 3}], 4), a)
    s = cs.invert_chart(cs.tree_from_nested([{1, 2}], 4), a)
    assert s.tree == cs.tree_from_nested([{1, 2}], 4)


@pytest.mark.parametrize(
    "zeros",
    [
        [(1, 2, 4)],  # a mirror missing
        [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2)],  # ((1,2),3) against ((1,3),2)
        [(1, 2, 3), (2, 1, 3), (4, 1, 2), (1, 4, 2)],  # ((1,2),3), ((4,1),2), not ((4,1),3)
        [(1, 2, 4), (2, 1, 4), (2, 3, 4), (3, 2, 4)],  # clusters {1, 2}, {2, 3}, {1, 2, 3}
    ],
    ids=["mirror", "conflict", "transitivity", "nesting"],
)
def test_invert_chart_keeps_the_exclusion_errors(zeros):
    """A vanishing pattern that breaks an exclusion axiom is refused with
    stratum_tree's own message, whatever the tree."""
    a = _vanishing(_NEAR_PAIR, zeros)
    with pytest.raises(ValueError) as want:
        cs.stratum_tree(a)
    for t in (cs.corolla(4), cs.tree_from_nested([{1, 2}], 4), cs.tree_from_nested([{1, 2, 3}], 4)):
        with pytest.raises(ValueError) as got:
            cs.invert_chart(t, a)
        assert str(got.value) == str(want.value)
    if zeros == [(1, 2, 4)]:
        assert str(want.value) == "exclusion ((1,2),4) lacks its mirror"


def test_chart_region_matches_the_built_stratum_tree():
    """invert_chart decides its region as leq(T, stratum_tree(a, tol)) on
    every tree T and every interior and zero-scale chart point of every tree
    with n <= 4, m = 2, at two tolerances: outside, it raises stratum_tree's
    error or the region's; inside, it inverts, or refuses a scale that the
    bound of T's rows does not admit."""
    region = "point lies outside the chart region of the tree"
    for n in range(1, 5):
        shapes = cs.enumerate_trees(n)
        points = []
        for q, t in enumerate(shapes):
            s = cs.stratum_sample(t, 2, q)
            zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
            points += [cs.expand_chart(s), cs.expand_chart(zero)]
        cases = []
        for a in points:
            for tol in (1e-9, 1e-6):
                try:
                    cases.append((a, tol, cs.stratum_tree(a, tol), None))
                except ValueError as exc:
                    cases.append((a, tol, None, str(exc)))
        for t in shapes:
            for a, tol, observed, error in cases:
                try:
                    cs.invert_chart(t, a, tol)
                    message = None
                except ValueError as exc:
                    message = str(exc)
                if error is None and cs.leq(t, observed):
                    assert message is None or message.startswith("scale ")
                else:
                    assert message == (error or region)


def test_chart_region_masks_span_words():
    """Cluster masks hold 63 labels a word: at n = 64 the cluster {62, 63,
    64} straddles two words."""
    n = 64
    clusters = [{62, 63, 64}, set(range(50, 65)), set(range(1, 50))]
    t = cs.tree_from_nested(clusters, n)
    s = cs.stratum_sample(t, 3, 0)
    a = cs.expand_chart(cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales}))
    back = cs.invert_chart(t, a)
    assert np.abs(back.C - s.C).max() < 1e-10
    for lacking in (clusters[1:], clusters[::2], [{61, 62, 63, 64}, *clusters[1:]]):
        with pytest.raises(ValueError, match="outside the chart region"):
            cs.invert_chart(cs.tree_from_nested(lacking, n), a)


def test_ambient_point_rejects_non_finite_coordinates():
    a = lift([[0, 0], [1, 0], [0, 1]])
    x = np.array(a.x)
    x[1, 0] = math.nan
    with pytest.raises(ValueError, match="x must be finite"):
        cs.ambient_point(x, a.u, a.d)
    x[1, 0] = math.inf
    with pytest.raises(ValueError, match="x must be finite"):
        cs.ambient_point(x, a.u, a.d)
    u = dict(a.u)
    u[(2, 3)] = np.array([math.nan, 0.0])
    with pytest.raises(ValueError, match=r"u\[2,3\] is not a unit vector"):
        cs.ambient_point(a.x, u, a.d)
    d = dict(a.d)
    d[(1, 2, 3)] = math.inf  # ratios may be infinite
    assert cs.ambient_point(a.x, a.u, d).d[(1, 2, 3)] == math.inf


def test_stratum_point_validation():
    t = cs.tree_from_nested([{1, 2}], 2)
    with pytest.raises(ValueError, match="not centered"):
        cs.StratumPoint(t, np.array([[0.0]]), {3: np.array([[0.0], [1.0]])}, {3: 0.1})
    with pytest.raises(ValueError, match="outside"):
        cs.StratumPoint(t, np.array([[0.0]]), {3: np.array([[-1.0], [1.0]])}, {3: 0.5})
    with pytest.raises(ValueError, match="missing"):
        cs.StratumPoint(t, np.array([[0.0]]), {}, {})

    # vertex 5 is {1, 2, 3} over (6, 3), vertex 6 is {1, 2} over (1, 2); the
    # root carries (5, 4); the scale bound of this data is 0.25
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    root = np.array([[0.0], [1.0]])
    pair = np.array([[-1.0], [1.0]])
    good = {5: pair, 6: pair}
    cases = [
        ([[0.0]], good, {5: 0.1, 6: 0.1}, "root configuration size does not match root valence"),
        ([0.0, 1.0], good, {5: 0.1, 6: 0.1}, r"root configuration must be an \(#v0, m\) array"),
        (np.zeros((2, 0)), good, {5: 0.1, 6: 0.1}, r"root configuration must be an \(#v0, m\) array"),
        ([[0.0], [math.inf]], good, {5: 0.1, 6: 0.1}, "root configuration must be finite"),
        ([[0.5], [0.5]], good, {5: 0.1, 6: 0.1}, "root configuration has coincident points"),
        (root, {5: pair}, {5: 0.1, 6: 0.1}, "missing configuration for vertex 6"),
        (root, {5: [[-1.0, 0.0], [1.0, 0.0]], 6: pair}, {5: 0.1, 6: 0.1},
         "configuration at vertex 5 has wrong shape"),
        (root, {5: pair, 6: [[-1.0], [0.0], [1.0]]}, {5: 0.1, 6: 0.1},
         "configuration at vertex 6 has wrong shape"),
        (root, {5: pair, 6: [[-1.0], [math.nan]]}, {5: 0.1, 6: 0.1},
         "configuration at vertex 6 must be finite"),
        (root, {5: [[0.0], [1.0]], 6: pair}, {5: 0.1, 6: 0.1}, "configuration at vertex 5 is not centered"),
        (root, {5: pair, 6: [[-0.5], [0.5]]}, {5: 0.1, 6: 0.1}, "configuration at vertex 6 is not max-norm 1"),
        (root, good, {5: 0.1}, "missing scale for vertex 6"),
        (root, good, {5: 0.3, 6: 0.1}, r"scale 0.3 at vertex 5 outside \[0, 0.25\)"),
        (root, good, {5: 0.1, 6: -0.1}, r"scale -0.1 at vertex 6 outside \[0, 0.25\)"),
        # the first bad vertex decides, and every configuration before any scale
        (root, {5: [[0.0], [1.0]]}, {5: 0.1, 6: 0.1}, "configuration at vertex 5 is not centered"),
        (root, {6: pair}, {5: 0.1, 6: 0.1}, "missing configuration for vertex 5"),
        ([[0.5], [0.5]], {}, {}, "root configuration has coincident points"),
        (root, {5: pair, 6: [[-0.5], [0.5]]}, {}, "configuration at vertex 6 is not max-norm 1"),
        (root, good, {6: 0.1, 5: 0.5}, r"scale 0.5 at vertex 5 outside \[0, 0.25\)"),
        (root, good, {6: 0.5}, "missing scale for vertex 5"),
    ]
    for root_config, configs, scales, message in cases:
        with pytest.raises(ValueError, match=message):
            cs.StratumPoint(t, np.asarray(root_config, dtype=float), configs, scales)
    three = cs.tree_from_nested([{1, 2, 3}], 4)
    with pytest.raises(ValueError, match="configuration at vertex 5 has coincident points"):
        cs.StratumPoint(three, root, {5: [[-1.0], [0.5], [0.5]]}, {5: 0.1})

    # malformed fields are rejected with the field and the vertex named
    for root_config, configs, scales, message in [
        (None, good, {5: 0.1, 6: 0.1}, r"root configuration must be an \(#v0, m\) array"),
        ([[0.0], [1.0, 2.0]], good, {5: 0.1, 6: 0.1}, r"root configuration must be an \(#v0, m\) array"),
        (root, {5: pair, 6: [[-1.0], [1.0, 2.0]]}, {5: 0.1, 6: 0.1},
         "configuration at vertex 6 is not a numeric array"),
        (root, {5: [["a"], ["b"]], 6: pair}, {5: 0.1, 6: 0.1}, "configuration at vertex 5 is not a numeric array"),
        (root, good, {5: 0.1, 6: None}, "scale at vertex 6 is not a number"),
        (root, good, {5: np.array([0.1, 0.2]), 6: 0.1}, "scale at vertex 5 is not a number"),
        (root, good, {5: 0.1, 6: "oops"}, "scale at vertex 6 is not a number"),
        # numbers written as strings are not numbers, even where float() reads them
        ([["0"], ["1"]], {5: [["-1"], ["1"]], 6: pair}, {5: "0.1", 6: 0.1},
         r"root configuration must be an \(#v0, m\) array"),
        (root, {5: [["-1"], ["1"]], 6: pair}, {5: "0.1", 6: 0.1},
         "configuration at vertex 5 is not a numeric array"),
        (root, {5: pair, 6: np.array([[-1.0], ["1"]], dtype=object)}, {5: 0.1, 6: 0.1},
         "configuration at vertex 6 is not a numeric array"),
        (root, good, {5: "0.1", 6: 0.1}, "scale at vertex 5 is not a number"),
        (root, good, {5: 0.1, 6: b"0.1"}, "scale at vertex 6 is not a number"),
        (root, good, {5: 0.1, 6: np.str_("0.1")}, "scale at vertex 6 is not a number"),
        (root, {**good, 99: pair}, {5: 0.1, 6: 0.1}, "configs key 99 is not an internal vertex"),
        (root, {0: root, **good}, {5: 0.1, 6: 0.1}, "configs key 0 is not an internal vertex"),
        (root, good, {5: 0.1, 6: 0.1, 99: 0.1}, "scales key 99 is not an internal vertex"),
        (root, [pair, pair], {5: 0.1, 6: 0.1}, "configs must map internal vertices to configurations"),
        (root, good, None, "scales must map internal vertices to numbers"),
        # a bad scale still comes after every configuration, a stray key after its field
        (root, {5: [[0.0], [1.0]], 6: pair}, {5: None, 6: 0.1}, "configuration at vertex 5 is not centered"),
        (root, {**good, 99: pair}, {5: 0.5, 6: 0.1}, "configs key 99 is not an internal vertex"),
        (root, good, {5: 0.5, 6: None, 99: 0.1}, r"scale 0.5 at vertex 5 outside \[0, 0.25\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            cs.StratumPoint(t, root_config, configs, scales)
    # the views of a valid record are checked against a new root and scales
    s = cs.StratumPoint(t, root, good, {5: 0.1, 6: 0.1})
    assert cs.StratumPoint(t, s.root_config, s.configs, s.scales).C.tobytes() == s.C.tobytes()
    with pytest.raises(ValueError, match="root configuration has coincident points"):
        cs.StratumPoint(t, [[0.5], [0.5]], s.configs, s.scales)
    with pytest.raises(ValueError, match=r"scale 0.2 at vertex 6 outside \[0, 0.1428"):
        cs.StratumPoint(t, [[0.0], [0.5]], s.configs, {**s.scales, 6: 0.2})


def test_scale_bound_checks_block_shapes():
    # vertex 5 is {1, 2, 3} over (6, 3), vertex 6 is {1, 2} over (1, 2)
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    root = [[0.0], [1.0]]
    pair = [[-1.0], [1.0]]
    assert cs.scale_bound(t, root, {5: pair, 6: pair}) == 0.25
    for root_config, configs, message in [
        (root, {5: [[-1.0], [0.0], [1.0]], 6: pair}, "configuration at vertex 5 has wrong shape"),
        (root, {5: pair, 6: [[-1.0, 0.0], [1.0, 0.0]]}, "configuration at vertex 6 has wrong shape"),
        ([0.0, 1.0], {5: pair, 6: pair}, r"root configuration must be an \(#v0, m\) array"),
        ([[0.0], [0.5], [1.0]], {5: pair, 6: pair}, "root configuration size does not match root valence"),
    ]:
        with pytest.raises(ValueError, match=message):
            cs.scale_bound(t, root_config, configs)


@pytest.mark.parametrize(
    "root_config, configs, message",
    [
        ([[0.0], [1.0]], {5: [[-1.0], [1.0]]}, "missing configuration for vertex 6"),
        ([[0.0], [1.0]], [[[-1.0], [1.0]]] * 2, "configs must map internal vertices to configurations"),
        ([["0"], ["1"]], {5: [[-1.0], [1.0]], 6: [[-1.0], [1.0]]},
         r"root configuration must be an \(#v0, m\) array"),
        ([[0.0], [1.0]], {5: [[math.nan], [1.0]], 6: [[-1.0], [1.0]]}, "configuration at vertex 5 must be finite"),
        # StratumPoint rejects these rows; scale_bound returned 0.0, 0.25, 0.25 and 0.0
        ([[0.0], [1.0]], {5: [[0.0], [0.0]], 6: [[-1.0], [1.0]]},
         "configuration at vertex 5 is not max-norm 1"),
        ([[0.0], [1.0]], {5: [[3.0], [9.0]], 6: [[-1.0], [1.0]]}, "configuration at vertex 5 is not centered"),
        ([[0.0], [1.0]], {5: [[-2.0], [2.0]], 6: [[-1.0], [1.0]]},
         "configuration at vertex 5 is not max-norm 1"),
        ([[0.0], [0.0]], {5: [[-1.0], [1.0]], 6: [[-1.0], [1.0]]}, "root configuration has coincident points"),
    ],
    ids=[
        "missing-vertex", "configs-list", "root-strings", "nan-row",
        "zero-rows", "uncentred", "wide", "coincident-root",
    ],
)
def test_scale_bound_names_the_bad_vertex_or_field(root_config, configs, message):
    """Each of these escaped as a KeyError or an IndexError, or returned a bound."""
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    with pytest.raises(ValueError, match=message):
        cs.scale_bound(t, root_config, configs)


def test_chart_plan_cache_is_bounded_and_read_only():
    """Charts on every tree with n <= 5 leave no more plans cached than the
    cache's fixed size, and no array of a plan or of stratum data is writable."""

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):  # the plan and its centre groups
            for item in obj:
                yield from arrays(item)

    plan_of = cs.canonical._chart_plan
    seen = 0
    for n in range(1, 6):
        for t in cs.enumerate_trees(n):
            s = cs.invert_chart(t, cs.expand_chart(cs.stratum_sample(t, 2, n)))
            plan = plan_of(t)
            assert len(plan.pair_join) == n * (n - 1) // 2
            assert len(plan.triple_join) == n * (n - 1) * (n - 2)
            for arr in (*arrays(plan), s.C, s.S, s.root_config, *s.configs.values()):
                assert not arr.flags.writeable
            seen += 1
    info = plan_of.cache_info()
    assert info.maxsize is not None and seen > info.maxsize
    assert info.currsize <= info.maxsize


def test_stratum_sample_deterministic_and_valid():
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    for seed in range(50):
        s = cs.stratum_sample(t, 2, seed)
        assert cs.membership_canonical(cs.expand_chart(s)).passed
    a = cs.stratum_sample(t, 3, 123)
    b = cs.stratum_sample(t, 3, 123)
    assert np.array_equal(a.root_config, b.root_config)
    assert all(np.array_equal(a.configs[v], b.configs[v]) for v in a.configs)
    assert a.scales == b.scales


def _sampled_strata():
    """stratum_sample on every tree with n <= 4 and every 5th with n = 5, at m = 1, 2, 3."""
    shapes = [t for n in range(1, 5) for t in cs.enumerate_trees(n)] + cs.enumerate_trees(5)[::5]
    return [cs.stratum_sample(t, m, 10 * q + m) for q, t in enumerate(shapes) for m in (1, 2, 3)]


def _bytes(record, fields):
    return [getattr(record, f).tobytes() for f in fields]


def test_stratum_sample_draws_what_stratum_point_accepts():
    """stratum_sample does not check its draws: the public reader takes them
    back unchanged."""
    for s in _sampled_strata():
        again = cs.StratumPoint(s.tree, s.root_config, s.configs, s.scales)
        assert _bytes(again, "CS") == _bytes(s, "CS")


def test_chart_and_lift_output_reads_back_unchanged():
    """expand_chart and lift_configuration check only the directions of their
    output: ambient_point takes the whole point back unchanged."""
    def reread(a):
        assert _bytes(cs.ambient_point(a.x, a.u, a.d), "xUD") == _bytes(a, "xUD")

    for s in _sampled_strata():
        zero = cs.StratumPoint(s.tree, s.root_config, s.configs, dict.fromkeys(s.scales, 0.0))
        reread(cs.expand_chart(s))
        reread(cs.expand_chart(zero))
    rng = np.random.default_rng(17)
    for n, m, scale in itertools.product(range(2, 7), (1, 2, 3), (1e-6, 1e-3, 1.0, 1e3)):
        reread(lift(rng.normal(size=(n, m)) * scale))


def test_stratum_sample_reports_an_unreachable_margin():
    """Thirty points on a line of length 2 cannot keep gaps of 0.1."""
    with pytest.raises(RuntimeError, match="sampling failed to reach the separation margin"):
        cs.stratum_sample(cs.corolla(30), 1, 0)


def test_degeneration_trajectory_cauchy():
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    s = cs.stratum_sample(t, 2, seed=5)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    limit = cs.expand_chart(frozen)
    errs = []
    for k in (5, 10, 20, 40):
        scaled = cs.StratumPoint(
            t, s.root_config, s.configs,
            {v: tv * 2.0 ** (-k) for v, tv in s.scales.items()},
        )
        errs.append(cs.ambient_distance(cs.expand_chart(scaled), limit))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-6
    assert cs.stratum_tree(cs.expand_chart(frozen), tol=1e-6) == t


def test_permute_identity_and_freeness():
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=6)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    same = cs.permute((1, 2, 3), a)
    assert cs.ambient_distance(a, same) == 0.0
    swapped = cs.permute((1, 3, 2), a)
    assert cs.ambient_distance(a, swapped) > 0.1
    with pytest.raises(ValueError):
        cs.permute((1, 1, 2), a)


def test_permute_acts_on_stratum_trees():
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=7)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    perm = (3, 1, 2)  # new index i carries old perm[i-1]
    got = cs.stratum_tree(cs.permute(perm, a))
    inverse = {perm[i - 1]: i for i in (1, 2, 3)}
    assert got == cs.relabel(t, inverse)


# -- input checks ------------------------------------------------------------------------


def _bad_canonical_inputs():
    """(call, message) pairs for checks of the canonical layer's public calls."""
    a = lift([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    d = dict(a.d)
    d[(1, 2, 3)] = -0.5
    # clusters {1, 2} and {3, 4} whose centres coincide in the frame of
    # {1, 2, 3, 4}: on a line with 1 leftmost, d[1,2,3] = 1 + d[1,4,3]
    T = cs.tree_from_nested([{1, 2}, {3, 4}, {1, 2, 3, 4}], 5)
    b = cs.expand_chart(cs.stratum_sample(T, 1, 1))
    assert (b.U[1:4, 0, 0] > 0).all()
    e = dict(b.d)
    e[(1, 2, 3)] = 1.0 + e[(1, 4, 3)]
    flat = cs.ambient_point(b.x, b.u, e)
    # a non-member whose d[1,3,2] is infinite while no ratio vanishes, so the
    # point still classifies into the chart region of {1, 2, 3}
    V = cs.tree_from_nested([{1, 2, 3}], 4)
    c = cs.expand_chart(cs.stratum_sample(V, 2, 0))
    far = cs.ambient_point(c.x, c.u, {**c.d, (1, 3, 2): math.inf})
    assert cs.leq(V, cs.stratum_tree(far))
    return [
        (lambda: cs.ambient_point(a.x, a.u, d), r"ratio d\[1,2,3\] must lie in \[0, inf\]"),
        (lambda: cs.invert_chart(T, a), "tree and point have different index counts"),
        (lambda: cs.invert_chart(T, flat), "cluster at vertex 6 is degenerate"),
        (lambda: cs.ambient_distance(a, lift([[0.0, 0.0], [1.0, 0.0]])), "different index sets"),
        (lambda: cs.Configuration([[0.0, 0.0], [math.inf, 1.0]]), "points must be finite"),
        (lambda: cs.Configuration([0.0, 1.0]), r"points must form an \(n, m\) array"),
        (lambda: cs.ambient_point([0.0, 1.0], a.u, a.d), r"x must be an \(n, m\) array"),
        # distinct points whose squared distance underflows to 0
        (lambda: cs.lift_configuration([[0.0], [5e-324]]), "points 1 and 2 coincide"),
        (lambda: cs.invert_chart(V, far), "outside the chart region"),
    ]


@pytest.mark.parametrize("case", range(9))
def test_canonical_calls_reject_bad_input(case):
    call, message = _bad_canonical_inputs()[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_scale_check_rejects_a_folding_scale():
    # the root gap of 1e-160 bounds the scale at vertex 4 by 3.3e-161; scale
    # 1e-160 folds leaf 2 onto leaf 1
    R = cs.tree_from_nested([{2, 3}], 3)
    with pytest.raises(ValueError, match=r"scale 1e-160 at vertex 4 outside \[0, "):
        cs.StratumPoint(R, [[0.0], [1e-160]], {4: [[-1.0], [1.0]]}, {4: 1e-160})
