"""Direction-only variant: consistency identity, classification, reconstruction."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import confspace as cs
from confspace.numerics import ray_intersection
from confspace.simplicial import (
    _CIRCUITS,
    _PI,
    _basis_products,
    _basis_residuals,
    _circuit_products,
    _four_consistency_block,
)
from helpers import (
    direction_error,
    random_unit,
    reference_reconstruct,
    sample_config,
    solve_sixth_direction,
)


def lift(pts):
    return cs.lift_configuration(np.asarray(pts, dtype=float))


def cluster_point_over_pair(m: int = 2):
    """All positions equal; indices 1,2 form a deeper cluster."""
    e1 = np.zeros(m)
    e1[0] = 1.0
    e2 = np.zeros(m)
    e2[1] = 1.0
    u = {
        (1, 3): e1, (2, 3): e1, (3, 1): -e1, (3, 2): -e1,
        (1, 2): e2, (2, 1): -e2,
    }
    return cs.simplicial_point(np.zeros((3, m)), u)


# -- projection -------------------------------------------------------------------


def test_projection_forgets_ratios():
    rng = np.random.default_rng(0)
    pts = sample_config(rng, 4, 2)
    a = lift(pts)
    p = cs.to_simplicial(a)
    assert np.array_equal(p.x, a.x)
    assert direction_error(p.u, a.u) == 0.0


def test_projection_commutes_with_permutation():
    rng = np.random.default_rng(1)
    a = lift(sample_config(rng, 5, 3))
    perm = (3, 1, 5, 2, 4)
    left = cs.to_simplicial(cs.permute(perm, a))
    right = cs.permute(perm, cs.to_simplicial(a))
    assert np.array_equal(left.x, right.x)
    assert direction_error(left.u, right.u) == 0.0


def test_fiber_collapse_on_collinear_cluster():
    t = cs.tree_from_nested([{1, 2, 3}], 3)
    v = t.vertex_over({1, 2, 3})

    def boundary(cfg):
        s = cs.StratumPoint(t, np.array([[0.4, -0.2]]), {v: cfg}, {v: 0.0})
        return cs.expand_chart(s)

    line = np.array([1.0, 0.0])
    cfg_a = np.stack([-line, 0.0 * line, line])
    raw = np.stack([-line, 0.25 * line, line])
    cfg_b = raw - raw.mean(axis=0)
    cfg_b = cfg_b / np.linalg.norm(cfg_b, axis=1).max()
    pa, pb = boundary(cfg_a), boundary(cfg_b)
    assert any(
        cs.canonical.compactified_gap(pa.d[k], pb.d[k]) > 0.05 for k in pa.d
    )
    qa, qb = cs.to_simplicial(pa), cs.to_simplicial(pb)
    assert np.abs(qa.x - qb.x).max() <= 1e-12
    assert direction_error(qa.u, qb.u) <= 1e-12


# -- three-dependence ----------------------------------------------------------------


def test_three_dependent_examples():
    s = 1.0 / math.sqrt(2.0)
    assert cs.three_dependent([-1, 0], [s, -s], [0, 1])
    assert not cs.three_dependent([1, 0], [1, 0], [0, 1])
    assert cs.three_dependent([1, 0], [-1, 0], [0, 1])


def test_three_dependent_rejects_non_unit():
    with pytest.raises(ValueError):
        cs.three_dependent([2, 0], [1, 0], [0, 1])


def test_simplicial_point_rejects_non_finite_coordinates():
    p = cs.to_simplicial(lift([[0, 0], [1, 0], [0, 1]]))
    x = np.array(p.x)
    x[0, 1] = -math.inf
    with pytest.raises(ValueError, match="x must be finite"):
        cs.simplicial_point(x, p.u)
    u = dict(p.u)
    u[(3, 1)] = np.array([0.0, math.nan])
    with pytest.raises(ValueError, match=r"u\[3,1\] is not a unit vector"):
        cs.simplicial_point(p.x, u)
    with pytest.raises(ValueError, match="not a unit vector"):
        cs.three_dependent([math.nan, 0.0], [1.0, 0.0], [0.0, 1.0])


# -- four-consistency -----------------------------------------------------------------


def test_four_consistency_planar_axes_example():
    a = lift([[0, 1], [0, 2], [1, 0], [2, 0]])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert abs(cs.four_consistency_residual(a.u, e2, e1)) <= 1e-12


def test_four_consistency_on_random_configurations():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        a = lift(sample_config(rng, 4, m, min_sep=0.15))
        v, w = random_unit(rng, m), random_unit(rng, m)
        assert abs(cs.four_consistency_residual(a.u, v, w)) <= 1e-10


def max_basis_residual(u, m):
    basis = np.eye(m)
    return max(
        abs(cs.four_consistency_residual(u, basis[p], basis[q]))
        for p in range(m)
        for q in range(m)
    )


def test_four_consistency_rejects_unrelated_directions():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(300):
        u = {}
        for i, j in itertools.combinations(range(1, 5), 2):
            vec = random_unit(rng, 3)
            u[(i, j)] = vec
            u[(j, i)] = -vec
        if max_basis_residual(u, 3) > 1e-4:
            hits += 1
    assert hits >= 297


def test_four_consistency_wrong_index_count():
    rng = np.random.default_rng(4)
    a = lift(sample_config(rng, 3, 2))
    with pytest.raises(ValueError, match="four"):
        cs.four_consistency_residual(a.u, np.array([1.0, 0]), np.array([0, 1.0]))


def test_four_consistency_bilinear_in_probes():
    rng = np.random.default_rng(5)
    m = 3
    a = lift(sample_config(rng, 4, m))
    basis = np.eye(m)
    table = np.array(
        [
            [cs.four_consistency_residual(a.u, basis[p], basis[q]) for q in range(m)]
            for p in range(m)
        ]
    )
    for _ in range(10):
        v, w = random_unit(rng, m), random_unit(rng, m)
        direct = cs.four_consistency_residual(a.u, v, w)
        bilinear = float(v @ table @ w)
        assert abs(direct - bilinear) <= 1e-12


def test_five_directions_determine_the_sixth():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = lift(sample_config(rng, 4, 3, min_sep=0.4))
        u5 = {
            (i, j): a.u[(i, j)]
            for i, j in itertools.combinations(range(1, 5), 2)
            if (i, j) != (3, 4)
        }
        got = solve_sixth_direction(u5, (3, 4), 3)
        assert np.linalg.norm(got - a.u[(3, 4)]) <= 1e-6


def test_public_residual_is_the_kernel_entry_on_every_subset():
    """four_consistency_residual at the basis probes is, bit for bit, the
    signed entry that membership's kernel computes for the same subset."""
    m = 3
    p = cs.to_simplicial(lift(sample_config(np.random.default_rng(12), 6, m)))
    quads, res, _ = _basis_residuals(p.U)
    assert [tuple(q) for q in quads.tolist()] == list(itertools.combinations(range(6), 4))
    basis = np.eye(m)
    for quad, table in zip(quads + 1, res):
        sub = {(i, j): p.u[(i, j)] for i, j in itertools.permutations(quad.tolist(), 2)}
        for a, b in itertools.product(range(m), repeat=2):
            public = cs.four_consistency_residual(sub, basis[a], basis[b])
            assert public.hex() == float(table[a, b]).hex()


def _random_directions(rng, n, m):
    """An antisymmetric U of random unit directions: no configuration's."""
    U = np.zeros((n, n, m))
    for i, j in itertools.combinations(range(n), 2):
        U[i, j] = random_unit(rng, m)
        U[j, i] = -U[i, j]
    return U


def test_basis_residuals_are_antisymmetric_in_their_probes():
    """The facts the S3 block relies on, on random non-member directions
    with n <= 8 and m = 1..4: the complement circuits' products are the
    circuit products read through _PI, bit for bit; every diagonal residual
    is exactly 0.0; and a mirrored pair cancels to within the rounding of
    two sums of 12 terms, 2·γ₁₁·scale with γ₁₁ = 11u/(1 - 11u) (4u·scale
    does not hold: 5.4u·scale was seen).  The block then holds the table's
    |residual| and bound at v < w, 0 on the diagonal, and the row (v, w)'s
    at (w, v)."""
    assert _PI.tolist() == [9, 8, 7, 11, 6, 10, 4, 2, 1, 0, 5, 3]
    slot = {pair: k for k, pair in enumerate(itertools.combinations(range(4), 2))}
    complement_slots = np.array(
        [[slot[tuple(sorted(e))] for e in zip(c, c[1:])] for _, c, _ in _CIRCUITS]
    )
    u = 2.0**-53
    gamma = 11 * u / (1 - 11 * u)
    tol = 1e-9
    rng = np.random.default_rng(36)
    for n in range(4, 9):
        for m in range(1, 5):
            for _ in range(3):
                U = _random_directions(rng, n, m)
                quads, prod_c = _basis_products(U)
                rows = U[quads[:, [0, 0, 0, 1, 1, 2]], quads[:, [1, 2, 3, 2, 3, 3]]]
                assert np.array_equal(prod_c, _circuit_products(rows))
                prod_s = rows[:, complement_slots].prod(axis=2)
                assert prod_c[:, _PI].tobytes() == prod_s.tobytes()
                _, res, scale = _basis_residuals(U)
                assert not res[:, range(m), range(m)].any()
                assert (np.abs(res + res.transpose(0, 2, 1)) <= 2 * gamma * scale).all()
                _, _, residual, bound = _four_consistency_block(U, tol)
                residual, bound = residual.reshape(res.shape), bound.reshape(res.shape)
                v, w = np.triu_indices(m, 1)
                assert np.abs(res[:, v, w]).tobytes() == residual[:, v, w].tobytes()
                assert (tol * np.maximum(1.0, scale[:, v, w])).tobytes() == bound[:, v, w].tobytes()
                assert residual[:, w, v].tobytes() == residual[:, v, w].tobytes()
                assert bound[:, w, v].tobytes() == bound[:, v, w].tobytes()
                assert not residual[:, range(m), range(m)].any()


def test_calibration_recovers_frozen_sign_table():
    got = cs.calibrate_circuit_signs(samples=150, seed=7)
    assert got == tuple(s for _, _, s in _CIRCUITS)


def test_circuit_enumeration_structure():
    circuits = cs.Circuit3.all_on([2, 5, 7, 9])
    assert len(circuits) == 12
    for c in circuits:
        assert sorted(c.vertices) == [2, 5, 7, 9]
        assert sorted(c.complement) == [2, 5, 7, 9]
        edges = {frozenset(e) for e in c.edges}
        comp = {frozenset(e) for e in zip(c.complement, c.complement[1:])}
        assert len(edges) == 3 and len(comp) == 3 and not edges & comp
        assert c.vertices[0] < c.vertices[3]
    assert len({c.vertices for c in circuits}) == 12


# -- membership -------------------------------------------------------------------------


def test_membership_passes_on_projected_lifts():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        p = cs.to_simplicial(lift(sample_config(rng, n, m)))
        verdict = cs.membership_simplicial(p)
        assert verdict.passed
        assert verdict.max_residual <= 1e-10


def test_membership_flags_antisymmetry():
    rng = np.random.default_rng(9)
    p = cs.to_simplicial(lift(sample_config(rng, 4, 2)))
    u = dict(p.u)
    u[(1, 2)] = -u[(1, 2)]
    bad = cs.simplicial_point(p.x, u)
    verdict = cs.membership_simplicial(bad)
    assert any(v.condition == "S2-antisymmetry" for v in verdict.violations)


def test_membership_flags_perturbed_cluster_direction():
    p = cluster_point_over_pair(m=3)
    u = dict(p.u)
    # replace a cluster-to-outside direction by a non-coplanar vector
    u[(1, 3)] = np.array([0.0, 0.0, 1.0])
    u[(3, 1)] = -u[(1, 3)]
    bad = cs.simplicial_point(p.x, u)
    verdict = cs.membership_simplicial(bad)
    assert not verdict.passed
    assert any(
        v.condition in ("S2-dependence", "S3-four-consistency")
        for v in verdict.violations
    )


def test_membership_mixture_of_perturbations():
    rng = np.random.default_rng(10)
    failures = 0
    trials = 500
    for trial in range(trials):
        n = int(rng.integers(3, 6))
        p = cs.to_simplicial(lift(sample_config(rng, n, 2)))
        u = dict(p.u)
        i, j = 1, 2
        if trial % 2:
            u[(i, j)] = -u[(i, j)]
        else:
            u[(i, j)] = random_unit(rng, 2)
        bad = cs.simplicial_point(p.x, u)
        if not cs.membership_simplicial(bad).passed:
            failures += 1
    assert failures == trials


# -- classification ------------------------------------------------------------------------


def test_directions_classify_generic_as_corolla():
    rng = np.random.default_rng(11)
    p = cs.to_simplicial(lift(sample_config(rng, 5, 3)))
    assert cs.stratum_tree_of_directions(p) == cs.corolla(5)


def test_directions_classify_cluster_example():
    p = cluster_point_over_pair()
    t = cs.stratum_tree_of_directions(p)
    assert t == cs.tree_from_nested([{1, 2}, {1, 2, 3}], 3)
    assert t.has_trunk


def test_directions_agree_with_canonical_classification():
    rng = np.random.default_rng(12)
    pool = [t for t in cs.enumerate_trees(4) if t != cs.corolla(4)]
    for t in pool[:20]:
        s = cs.stratum_sample(t, 3, seed=int(rng.integers(10_000)))
        frozen = cs.StratumPoint(
            t, s.root_config, s.configs, {v: 0.0 for v in s.scales}
        )
        a = cs.expand_chart(frozen)
        got = cs.stratum_tree_of_directions(cs.to_simplicial(a))
        assert got == cs.stratum_tree(a) == t


def test_exclusion_transitivity_on_members():
    # the derived relation passes the axioms on every tested member point
    rng = np.random.default_rng(13)
    for t in cs.enumerate_trees(5)[:40]:
        s = cs.stratum_sample(t, 2, seed=int(rng.integers(10_000)))
        frozen = cs.StratumPoint(
            t, s.root_config, s.configs, {v: 0.0 for v in s.scales}
        )
        p = cs.to_simplicial(cs.expand_chart(frozen))
        cs.stratum_tree_of_directions(p)  # raises on an axiom violation


# -- reconstruction ---------------------------------------------------------------------------


def test_reconstruction_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        pts = sample_config(rng, n, m)
        a = lift(pts)
        rec = cs.reconstruct_from_directions(a.u)
        assert direction_error(lift(rec.points).u, a.u) <= 1e-8
        assert np.abs(rec.points - cs.normalize(pts).points).max() <= 1e-6


def test_reconstruction_collinear_equal_spacing():
    u = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i < j:
                u[(i, j)] = np.array([1.0])
                u[(j, i)] = np.array([-1.0])
    rec = cs.reconstruct_from_directions(u)
    assert np.allclose(rec.points.ravel(), [1.0, 0.0, -1.0])


def test_reconstruction_collinear_planar():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
    a = lift(pts)
    rec = cs.reconstruct_from_directions(a.u)
    assert direction_error(lift(rec.points).u, a.u) <= 1e-12
    gaps = np.linalg.norm(np.diff(rec.points, axis=0), axis=1)
    assert abs(gaps[0] - gaps[1]) <= 1e-12  # equal spacing by convention


def _exact_ray_parameters(x_i, d_i, x_j, d_j):
    """The least-squares (s, t) of x_i + s·d_i = x_j + t·d_j for the rays'
    float data, in exact rational arithmetic (normal equations)."""
    d_i, d_j = [Fraction(c) for c in d_i], [Fraction(c) for c in d_j]
    b = [Fraction(q) - Fraction(p) for p, q in zip(x_i, x_j)]

    def dot(a, c):
        return sum(p * q for p, q in zip(a, c))

    g11, g12, g22 = dot(d_i, d_i), -dot(d_i, d_j), dot(d_j, d_j)
    r1, r2 = dot(d_i, b), -dot(d_j, b)
    det = g11 * g22 - g12 * g12
    return (r1 * g22 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det


@pytest.mark.parametrize("beyond", [2.0, 0.4], ids=["near-parallel", "near-antiparallel"])
def test_ray_intersection_is_accurate_on_nearly_parallel_rays(beyond):
    """Rays from x_i and x_j to a point a distance h off their line, beyond
    x_j (nearly parallel rays) or between them (nearly antiparallel), with
    sin θ from about 1e-2 down to 1e-8.  s and t are of the order of |b|,
    b = x_j - x_i, so a backward-stable solve is within c·u·|b|/sin θ of
    the exact least-squares solution of the rays' float data; c = 4 here
    (the Gram–Schmidt form reads up to 1.07, LAPACK's lstsq up to 8.8).
    The normal equations and Cramer's rule square 1/sin θ and fail."""
    u = 2.0**-53
    rng = np.random.default_rng(36)
    for m in (2, 3, 4):
        for k in range(2, 9):
            for _ in range(4):
                e = random_unit(rng, m)
                w = rng.normal(size=m)
                w -= (w @ e) * e
                w /= np.linalg.norm(w)
                length = 10.0 ** rng.uniform(-2, 2)
                x_i = rng.normal(size=m)
                x_j = x_i + length * e
                p = x_i + beyond * length * e + 10.0**-k * length * rng.uniform(0.5, 2) * w
                d_i = (p - x_i) / np.linalg.norm(p - x_i)
                d_j = (p - x_j) / np.linalg.norm(p - x_j)
                # |d_i - d_j|·|d_i + d_j| / 2 = 2 sin(θ/2) cos(θ/2), with no cancellation
                sin = np.linalg.norm(d_i - d_j) * np.linalg.norm(d_i + d_j) / 2
                s, t, point = ray_intersection(x_i, d_i, x_j, d_j)
                exact_s, exact_t = _exact_ray_parameters(x_i, d_i, x_j, d_j)
                bound = 4 * u * np.linalg.norm(x_j - x_i) / sin
                assert abs(Fraction(s) - exact_s) <= bound, (m, k)
                assert abs(Fraction(t) - exact_t) <= bound, (m, k)
                assert np.abs(point - p).max() <= 4 * bound


def test_reconstruction_rejects_exclusions():
    p = cluster_point_over_pair()
    with pytest.raises(ValueError, match="exclusions"):
        cs.reconstruct_from_directions(p.u)


def _outcome(f, u):
    """The points' bytes, or ValueError; any other exception propagates."""
    try:
        return f(u).points.tobytes()
    except ValueError:
        return ValueError


def test_reconstruction_matches_per_pair_reference():
    """One array check of the mapping gives the bits of the per-pair checks,
    on lifts with n <= 8 (half of them with norms off by up to 5e-7) and on
    mappings that both reject."""
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        for m in (1, 2, 3):
            for rep in range(4):
                pts = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
                u = {key: np.array(v) for key, v in lift(pts).u.items()}
                if rep % 2:
                    u = {key: v * (1 + rng.uniform(-5e-7, 5e-7)) for key, v in u.items()}
                got = _outcome(cs.reconstruct_from_directions, u)
                assert got == _outcome(reference_reconstruct, u)
                assert got is not ValueError or m == 1
    good = {key: np.array(v) for key, v in lift([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).u.items()}
    for bad in (
        {},
        {key: v for key, v in good.items() if key != (2, 3)},
        {key: good[key] for key in ((1, 3), (3, 1))},
        {**good, (1, 2): 2.0 * good[(1, 2)]},
        {**good, (1, 2): np.array([np.nan, 0.0])},
        {**good, (1, 2): np.array([1.0, 0.0, 0.0])},
        {**good, (0, 1): good[(1, 2)]},
        cluster_point_over_pair().u,
    ):
        assert _outcome(cs.reconstruct_from_directions, bad) is ValueError
        assert _outcome(reference_reconstruct, bad) is ValueError
    # a lone diagonal key is no direction matrix (it used to give one point)
    with pytest.raises(ValueError, match="does not cover"):
        cs.reconstruct_from_directions({(1, 1): np.array([1.0, 0.0])})


# -- approximating families ---------------------------------------------------------------------


def test_approx_family_interior_case():
    rng = np.random.default_rng(15)
    pts = sample_config(rng, 4, 2)
    p = cs.to_simplicial(lift(pts))
    out = cs.approximating_configuration(p, 1e-3)
    rec = cs.reconstruct_from_directions(p.u)
    assert np.abs(out.points - rec.points).max() <= 1e-12


def test_approx_family_cluster_linear_decay():
    p = cluster_point_over_pair()
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = cs.approximating_configuration(p, eps)
        lifted = lift(cfg.points)
        errs.append(direction_error(lifted.u, p.u))
        assert cs.stratum_tree(lifted) == cs.corolla(3)
    eps_grid = np.array([1e-2, 1e-3, 1e-4])
    slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_approx_family_eps_range():
    p = cluster_point_over_pair()
    with pytest.raises(ValueError):
        cs.approximating_configuration(p, 0.0)
    with pytest.raises(ValueError):
        cs.approximating_configuration(p, 1.5)


def test_approx_family_refuses_offsets_below_rounding():
    """eps^levels must stay above 2^-43.  At eps = 1e-4 the four nested
    clusters of the n = 6 caterpillar's boundary point sit at 1e-16, which
    the rounding of unit-sized sums hides; at 1e-3 they sit at 1e-12 and
    pass.  A trunk scales every offset alike, so it is no level: with one,
    the caterpillar's n = 5 counterpart has three levels and passes at 1e-4."""

    def boundary(sets, n):
        t = cs.tree_from_nested(sets, n)
        s = cs.stratum_sample(t, 2, 0)
        zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
        return cs.to_simplicial(cs.expand_chart(zero))

    chain = [(1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
    p = boundary(chain, 6)
    with pytest.raises(ValueError, match=r"eps = 0\.0001 .* 4 nested clusters"):
        cs.approximating_configuration(p, 1e-4)
    cfg = cs.approximating_configuration(p, 1e-3)
    assert direction_error(lift(cfg.points).u, p.u) <= 1e-2
    trunked = boundary(chain, 5)
    assert len(cs.stratum_tree_of_directions(trunked).children[0]) == 1
    cfg = cs.approximating_configuration(trunked, 1e-4)
    assert direction_error(lift(cfg.points).u, trunked.u) <= 1e-2


# -- input checks ------------------------------------------------------------------------


def _bad_simplicial_inputs():
    """(call, message) pairs for checks of the direction-only public calls."""
    u = dict(lift([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]).u)
    missing = {k: v for k, v in u.items() if set(k) != {1, 2}}
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # three labels on a line, each ahead of the next: a cycle, not an order
    one = np.array([1.0])
    cycle = {(1, 2): one, (2, 3): one, (3, 1): one, (2, 1): -one, (3, 2): -one, (1, 3): -one}
    # label 3 seen from 1 and 2 along rays that meet only behind both
    r = math.sqrt(0.5)
    behind = {
        (1, 2): e1, (2, 1): -e1,
        (3, 1): np.array([r, -r]), (1, 3): np.array([-r, r]),
        (3, 2): np.array([-r, -r]), (2, 3): np.array([r, r]),
    }
    return [
        (lambda: cs.Circuit3.all_on([1, 2, 3]), "four distinct indices"),
        (lambda: cs.Circuit3.all_on([1, 2, 2, 3]), "four distinct indices"),
        (lambda: cs.four_consistency_residual(missing, e1, e2), r"missing direction for pair \(1,2\)"),
        (lambda: cs.four_consistency_residual(u, e1, np.array([0.0, 0.0, 1.0])),
         "probes v and w must be vectors of one dimension"),
        (lambda: cs.reconstruct_from_directions(cycle), "collinear directions do not totally order"),
        (lambda: cs.reconstruct_from_directions(behind), "no eligible ray intersection"),
        # tol 0 admits no singular value: the null one is 7.4e-17 of the largest, not 0
        (lambda: cs.calibrate_circuit_signs(tol=0.0), "no vanishing sign combination found"),
        (lambda: cs.calibrate_circuit_signs(tol=1.0), "sign table is not unique on these samples"),
    ]


@pytest.mark.parametrize("case", range(8))
def test_direction_calls_reject_bad_input(case):
    call, message = _bad_simplicial_inputs()[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("samples, tol", [(3, 1e-8), (11, 5e-3)])
def test_calibration_names_too_few_samples(samples, tol):
    with pytest.raises(ValueError, match="fewer than 12 samples"):
        cs.calibrate_circuit_signs(samples=samples, tol=tol)
