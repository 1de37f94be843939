"""Guarantees of the paper checked on drawn inputs: stratum classification
commutes with relabelling the points and with projecting onto a subset of
them, and a tree survives the round trip through its exclusion relation."""

from hypothesis import given, settings, strategies as st

import confspace as cs
from helpers import laminar_part, set_families


def _tree(case) -> cs.FTree:
    n, raw = case
    return cs.tree_from_nested(laminar_part(raw), n)


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
    s = cs.stratum_sample(t, m, seed)
    values = data.draw(st.lists(st.integers(1, t.n), min_size=1, max_size=t.n, unique=True))
    sigma = cs.SetMap(len(values), t.n, tuple(values))
    zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in t.internal_vertices})
    for point in (zero, s):
        a = cs.expand_chart(point)
        assert cs.stratum_tree(cs.project_indices(sigma, a)) == cs.prune(cs.stratum_tree(a), sigma)
