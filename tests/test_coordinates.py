"""The dense coordinate record: the u / d views and bit equality with dict-based code."""

import itertools

import numpy as np
import pytest

import confspace as cs
from helpers import (
    random_frames,
    reference_diagonal,
    reference_expand,
    reference_invert,
    reference_lift,
    reference_lift_dicts,
    reference_pullback,
    reference_relabel,
    sample_config,
)


def _record(p):
    """Every array of a point as bytes, so that equality means bit equality."""
    if isinstance(p, cs.FramedPoint):
        return _record(p.point) + tuple(p.frames[i].tobytes() for i in range(1, p.n + 1))
    arrays = (p.x, p.U, p.D) if isinstance(p, cs.AmbientPoint) else (p.x, p.U)
    return tuple((a.shape, a.tobytes()) for a in arrays)


# -- the views ----------------------------------------------------------------------------


def test_views_match_the_old_dicts():
    pts = sample_config(np.random.default_rng(0), 4, 2)
    a = cs.lift_configuration(pts)
    u, d = reference_lift_dicts(pts)
    assert list(a.u) == list(itertools.permutations(range(1, 5), 2))
    assert list(a.d) == list(d) == list(itertools.permutations(range(1, 5), 3))
    assert len(a.u) == 12 and len(a.d) == 24
    assert all(np.array_equal(a.u[key], u[key]) for key in u)
    assert a.d == d and dict(a.d) == d
    assert all(type(v) is float for v in a.d.values())
    assert [k for k, _ in a.u.items()] == list(a.u)
    assert a.u.keys() == u.keys() and a.d.keys() == d.keys()
    p = cs.to_simplicial(a)
    assert list(p.u) == list(a.u) and not hasattr(p, "d")
    assert cs.lift_configuration([[0.0], [1.0]]).d == {}


@pytest.mark.parametrize("n", [3, 4])
def test_views_reject_every_other_key(n):
    a = cs.lift_configuration(sample_config(np.random.default_rng(n), n, 2))
    for key in [(1, 1), (0, 1), (n + 1, 1), (-1, 2), (1, -1), (1,), (1, 2, 3), "12", 1]:
        with pytest.raises(KeyError):
            a.u[key]
        assert key not in a.u
    for key in [(1, 1, 2), (1, 2, 2), (0, 1, 2), (n + 1, 1, 2), (-1, 2, 3), (1, 2)]:
        with pytest.raises(KeyError):
            a.d[key]
        assert key not in a.d
    assert a.u.get((2, 2)) is None and a.d.get((-1, 1, 2)) is None


def test_views_and_arrays_are_read_only():
    a = cs.lift_configuration(sample_config(np.random.default_rng(5), 4, 3))
    for view in (a.u, a.d, cs.to_simplicial(a).u):
        with pytest.raises(TypeError):
            view[(1, 2)] = 0.0
        assert not hasattr(view, "pop") and not hasattr(view, "update")
    with pytest.raises(ValueError):
        a.u[(1, 2)][0] = 0.0
    chart = cs.expand_chart(cs.stratum_sample(cs.tree_from_nested([{1, 2}], 4), 3, 5))
    for arr in (a.x, a.U, a.D, cs.permute((2, 1, 4, 3), a).D, chart.x, chart.U, chart.D):
        assert not arr.flags.writeable


def test_storage_convention():
    pts = sample_config(np.random.default_rng(7), 5, 2)
    a = cs.lift_configuration(pts)
    assert a.U.shape == (5, 5, 2) and a.D.shape == (5, 5, 5)
    assert not a.U[np.arange(5), np.arange(5)].any()
    for i, j, k in itertools.product(range(1, 6), repeat=3):
        distinct = len({i, j, k}) == 3
        assert np.isnan(a.D[i - 1, j - 1, k - 1]) != distinct
        if distinct:
            assert a.D[i - 1, j - 1, k - 1] == a.d[(i, j, k)]


# -- bit equality with the dict-based references -----------------------------------------


def test_lift_matches_dict_reference():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for m in (1, 2, 3):
            pts = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-6, 4)
            assert _record(cs.lift_configuration(pts)) == _record(reference_lift(pts))
            # shared coordinates give zero components, whose sign must match
            grid = rng.permutation(np.arange(n * m, dtype=float) // 2).reshape(n, m)
            if len({tuple(row) for row in grid}) == n:
                assert _record(cs.lift_configuration(grid)) == _record(reference_lift(grid))


def _points(t, m, seed):
    s = cs.stratum_sample(t, m, seed)
    zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    return s, zero


def _stratum_record(s):
    configs = tuple(s.configs[v].tobytes() for v in s.tree.internal_vertices)
    scales = tuple(s.scales[v].hex() for v in s.tree.internal_vertices)
    return s.tree, s.root_config.shape, s.root_config.tobytes(), configs, scales


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_charts_and_index_maps_match_dict_references(n):
    """Every tree with n <= 4 and every fifth with n = 5, at m = 1, 2, 3,
    interior and zero-scale, through expand_chart and invert_chart; the index
    maps on a third of those points."""
    assoc = cs.lift_configuration(np.array([[0.0], [0.3], [1.0]]))
    for index, t in enumerate(cs.enumerate_trees(n)[:: 5 if n == 5 else 1]):
        for m in (1, 2, 3):
            for s in _points(t, m, 100 * index + m):
                a = cs.expand_chart(s)
                assert _record(a) == _record(reference_expand(s))
                inverted = _stratum_record(cs.invert_chart(t, a))
                assert inverted == _stratum_record(reference_invert(t, a))
                if (index + m) % 3:
                    continue
                rng = np.random.default_rng(index)
                p = cs.to_simplicial(a)
                perm = tuple(int(v) + 1 for v in rng.permutation(n))
                for q in (a, p):
                    assert _record(cs.permute(perm, q)) == _record(reference_relabel(perm, q))
                inj = cs.SetMap(n - 1, n, perm[1:]) if n > 1 else cs.SetMap(1, 1, (1,))
                frames = random_frames(rng, n, m)
                for q in (a, p, cs.framed_point(a, frames), cs.framed_point(p, frames)):
                    inner = q.point if isinstance(q, cs.FramedPoint) else q
                    want = reference_relabel(inj.values, inner)
                    assert _record(cs.project_indices(inj, q))[: len(_record(want))] == _record(want)
                values = tuple(int(v) for v in rng.integers(1, n + 1, size=n + 1))
                sigma = cs.SetMap(n + 1, n, values)
                fp = cs.framed_point(p, frames)
                assert _record(cs.pullback(sigma, fp)) == _record(reference_pullback(sigma, fp))
                fa = cs.framed_point(a, frames)
                i = int(rng.integers(1, n + 1))
                assert _record(cs.diagonal_map(fa, i)) == _record(reference_diagonal(fa, i))
                assert _record(cs.diagonal_map(fa, i, 2, assoc)) == _record(reference_diagonal(fa, i, 2, assoc))
