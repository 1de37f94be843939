"""Guarantees of the paper checked on drawn inputs: stratum classification
commutes with relabelling the points and with projecting onto a subset of
them, forgetting the ratios commutes with projecting, the pullback of a
framed direction point along an injective map is its projection, and a tree
survives the round trip through its exclusion relation."""

import numpy as np
from hypothesis import given, settings, strategies as st

import confspace as cs
from helpers import laminar_part, set_families


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
