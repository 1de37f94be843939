"""Guarantees of the paper checked on drawn inputs: stratum classification
commutes with relabelling the points and with projecting onto a subset of
them, forgetting the ratios commutes with projecting, the pullback of a
framed direction point along an injective map is its projection, a tree
survives the round trip through its exclusion relation, and the directions
of a configuration in general position rebuild it up to translation and
scale."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import confspace as cs
from helpers import laminar_part, min_direction_sine, sample_config, set_families


def _tree(case) -> cs.FTree:
    n, raw = case
    return cs.tree_from_nested(laminar_part(raw), n)


def _chart_points(t, m, seed):
    """The chart point of stratum_sample(t, m, seed), then the boundary point
    with every scale of the same data set to 0."""
    s = cs.stratum_sample(t, m, seed)
    zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in t.internal_vertices})
    return [cs.expand_chart(point) for point in (s, zero)]


def _injection(t, data) -> cs.SetMap:
    values = data.draw(st.lists(st.integers(1, t.n), min_size=1, max_size=t.n, unique=True))
    return cs.SetMap(len(values), t.n, tuple(values))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(set_families())
def test_exclusion_relation_round_trip(case):
    t = _tree(case)
    assert cs.tree_from_exclusions(cs.exclusion_relation(t), t.n, t.has_trunk) == t


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(set_families(max_n=6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_stratum_tree_is_permutation_equivariant(case, m, seed, data):
    """At a chart point with some scales set to 0 (a boundary point whenever
    one is), the tree of the relabelled point is the relabelled tree."""
    t = _tree(case)
    s = cs.stratum_sample(t, m, seed)
    inner = t.internal_vertices
    zero = data.draw(st.sets(st.sampled_from(inner), min_size=1)) if inner else set()
    a = cs.expand_chart(
        cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 if v in zero else s.scales[v] for v in inner})
    )
    sigma = data.draw(st.permutations(range(1, t.n + 1)))
    seen = cs.stratum_tree(a)
    back = {sigma[i - 1]: i for i in range(1, t.n + 1)}
    assert cs.stratum_tree(cs.permute(sigma, a)) == cs.relabel(seen, back)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(set_families(max_n=6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_pruning_commutes_with_projection(case, m, seed, data):
    """At a chart point with all scales 0 and at one with the sampled scales,
    the tree of the projected point is the pruned tree."""
    t = _tree(case)
    sigma = _injection(t, data)
    for a in _chart_points(t, m, seed):
        assert cs.stratum_tree(cs.project_indices(sigma, a)) == cs.prune(cs.stratum_tree(a), sigma)


def _bits(p) -> tuple:
    """The kind of a point, framed or not, and the bytes of each of its arrays."""
    if isinstance(p, cs.FramedPoint):
        return "framed", _bits(p.point), p.F.shape, p.F.tobytes()
    return type(p).__name__, *((name, a.shape, a.tobytes()) for name, a in sorted(vars(p).items()))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(set_families(max_n=6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_forgetting_ratios_commutes_with_projection(case, m, seed, data):
    t = _tree(case)
    sigma = _injection(t, data)
    for a in _chart_points(t, m, seed):
        projected = cs.project_indices(sigma, cs.to_simplicial(a))
        assert _bits(cs.to_simplicial(cs.project_indices(sigma, a))) == _bits(projected)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(set_families(max_n=6), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_pullback_along_an_injection_is_the_projection(case, m, seed, data):
    """Bit for bit, on framed direction points with drawn frames."""
    t = _tree(case)
    sigma = _injection(t, data)
    frames = np.random.default_rng(seed).normal(size=(t.n, m))
    frames /= np.linalg.norm(frames, axis=1)[:, None]
    for a in _chart_points(t, m, seed):
        fp = cs.framed_point(cs.to_simplicial(a), frames)
        assert _bits(cs.pullback(sigma, fp)) == _bits(cs.project_indices(sigma, fp))


def _general_position(rng, n, m):
    """The first configuration sample_config draws whose triangles each have
    a smallest direction sine of at least 0.05."""
    while True:
        x = sample_config(rng, n, m)
        triangles = itertools.combinations(range(n), 3)
        if all(min_direction_sine(x[list(c)]) >= 0.05 for c in triangles):
            return x


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 7), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_directions_rebuild_the_normalized_configuration(n, m, seed):
    """reconstruct_from_directions reads the lifted point's u view key by
    key and returns normalize(x)."""
    x = _general_position(np.random.default_rng(seed), n, m)
    rec = cs.reconstruct_from_directions(cs.lift_configuration(x).u)
    assert np.abs(rec.points - cs.normalize(x).points).max() <= 1e-8
