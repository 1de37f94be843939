"""The dense coordinate record: the u / d views and bit equality with dict-based code."""

import copy
import itertools
import pickle

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
    assert repr(a.u) == repr(dict(a.u)) and repr(a.d) == repr(d)
    p = cs.to_simplicial(a)
    assert list(p.u) == list(a.u) and not hasattr(p, "d")
    assert cs.lift_configuration([[0.0], [1.0]]).d == {}


@pytest.mark.parametrize("n", [3, 4])
def test_views_reject_every_other_key(n):
    a = cs.lift_configuration(sample_config(np.random.default_rng(n), n, 2))
    for key in [
        (1, 1), (0, 1), (n + 1, 1), (-1, 2), (1, -1), (1,), (1, 2, 3), "12", 1, [1, 2], (1, 2.5)
    ]:
        with pytest.raises(KeyError):
            a.u[key]
        assert key not in a.u
    for key in [
        (1, 1, 2), (1, 2, 2), (0, 1, 2), (n + 1, 1, 2), (-1, 2, 3), (1, 2), [1, 2, 3], (1, 2, 3.5)
    ]:
        with pytest.raises(KeyError):
            a.d[key]
        assert key not in a.d
    assert a.u.get((2, 2)) is None and a.d.get((-1, 1, 2)) is None


def test_views_compare_labels_by_value():
    """A label equal to an integer finds its coordinate, as a dict key would;
    (1.0, 1) repeats a label."""
    a = cs.lift_configuration(sample_config(np.random.default_rng(4), 4, 2))
    for key in [(1.0, 2), (True, 2), (np.int64(1), 2)]:
        assert key in a.u and np.array_equal(a.u[key], a.u[(1, 2)])
    assert a.d[(1.0, True + 1, np.int32(3))] == a.d[(1, 2, 3)]
    assert (1.0, 1) not in a.u and (True, 1, 2) not in a.d


def test_pickled_views_hold_no_label_dict():
    a = cs.lift_configuration(np.random.default_rng(9).uniform(-1.0, 1.0, (30, 2)))
    for view, array in ((a.u, a.U), (a.d, a.D)):
        data = pickle.dumps(view)
        assert len(data) < array.nbytes + 1024  # a label dict would add ~20 bytes a key
        back = pickle.loads(data)
        assert list(back) == list(view)
        assert np.array_equal(list(back.values()), list(view.values()))


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
        assert arr.base is None or not arr.base.flags.writeable  # nor the memory it views


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


# -- records: only the readers make them, and copies stay frozen --------------------------


def _pair_stratum():
    """Vertex 5 is {1, 2, 3} over (6, 3), vertex 6 is {1, 2} over (1, 2)."""
    pair = np.array([[-1.0], [1.0]])
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    return cs.StratumPoint(t, np.array([[0.0], [1.0]]), {5: pair, 6: pair}, {5: 0.1, 6: 0.1})


def _framed(rng, n, m, ambient):
    a = cs.lift_configuration(sample_config(rng, n, m))
    return cs.framed_point(a if ambient else cs.to_simplicial(a), random_frames(rng, n, m))


RECORDS = {
    "configuration": lambda rng: cs.Configuration(sample_config(rng, 4, 2)),
    "simplicial": lambda rng: cs.to_simplicial(cs.lift_configuration(sample_config(rng, 4, 3))),
    "ambient": lambda rng: cs.lift_configuration(sample_config(rng, 4, 2)),
    "framed-ambient": lambda rng: _framed(rng, 4, 2, True),
    "framed-simplicial": lambda rng: _framed(rng, 4, 3, False),
    "stratum": lambda rng: _pair_stratum(),
}
COPIES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _arrays(record, prefix=""):
    """Every array a record holds (a framed point's point's too) and every
    row its u, frames and configs views return, by name."""
    out = {}
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            out[prefix + name] = value
        elif isinstance(value, (cs.AmbientPoint, cs.SimplicialPoint)):
            out.update(_arrays(value, f"{name}."))
    for view in ("u", "frames", "configs"):
        for key, row in getattr(record, view, {}).items():
            out[f"{prefix}{view}[{key}]"] = row
    return out


@pytest.mark.parametrize("route", list(COPIES))
@pytest.mark.parametrize("kind", list(RECORDS))
def test_copies_stay_frozen(kind, route):
    """pickle, deepcopy and copy give a record of the same kind with the same
    bytes, every array and view row of it read-only."""
    record = RECORDS[kind](np.random.default_rng(22))
    copied = COPIES[route](record)
    assert type(copied) is type(record)
    before, after = _arrays(record), _arrays(copied)
    assert before.keys() == after.keys()
    for name, arr in after.items():
        assert arr.shape == before[name].shape and arr.tobytes() == before[name].tobytes(), name
        assert not arr.flags.writeable, name
    if isinstance(record, cs.FramedPoint):
        assert cs.membership_framed(copied).passed
    if isinstance(record, cs.StratumPoint):
        # the copy's views read its own C and S
        assert np.shares_memory(copied.root_config, copied.C)
        assert all(np.shares_memory(rows, copied.C) for rows in copied.configs.values())
        assert copied.scales == record.scales
        assert cs.expand_chart(copied).D.tobytes() == cs.expand_chart(record).D.tobytes()


def test_point_classes_cannot_be_called():
    """Only the readers make points: the classes take no arguments at all."""
    a = cs.lift_configuration(sample_config(np.random.default_rng(3), 3, 2))
    fp = cs.framed_point(a, random_frames(np.random.default_rng(4), 3, 2))
    for cls, args in [
        (cs.AmbientPoint, (np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))),
        (cs.AmbientPoint, (a.x, a.U, a.D)),
        (cs.SimplicialPoint, (a.x, a.U)),
        (cs.FramedPoint, (a, fp.F)),
    ]:
        with pytest.raises(TypeError):
            cls(*args)
        with pytest.raises(TypeError):
            cls()


_X = [[0.0, 0.0], [1.0, 0.0]]
_U = {(1, 2): [-1.0, 0.0], (2, 1): [1.0, 0.0]}
_B = cs.lift_configuration(_X + [[0.0, 1.0]])
_SQUARE = cs.lift_configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: cs.Configuration([["0", "0"], ["1", "0"]]), r"points must form an \(n, m\) array"),
        (lambda: cs.Configuration([[0.0, 0.0], [1.0]]), r"points must form an \(n, m\) array"),
        (lambda: cs.lift_configuration(["0.1", "0.2"]), r"points must form an \(n, m\) array"),
        (lambda: cs.lift_configuration([[0.0], [1.0, 2.0]]), r"points must form an \(n, m\) array"),
        (lambda: cs.ambient_point([["0", "0"], ["1", "0"]], _U, {}), r"x must be an \(n, m\) array"),
        (lambda: cs.ambient_point([[0.0], [1.0, 2.0]], _U, {}), r"x must be an \(n, m\) array"),
        (lambda: cs.ambient_point(_X, {**_U, (2, 1): ["1", "0"]}, {}), "directions must be numeric vectors"),
        (lambda: cs.ambient_point(_B.x, _B.u, {**_B.d, (1, 2, 3): "0.5"}), "ratios must be numbers"),
        (lambda: cs.simplicial_point([["0", "0"], ["1", "0"]], _U), r"x must be an \(n, m\) array"),
        (lambda: cs.simplicial_point(_X, {**_U, (1, 2): ["-1", "0"]}), "directions must be numeric vectors"),
        (lambda: cs.framed_point(cs.lift_configuration(_X), [["1", "0"], [1.0, 0.0]]),
         "frame at 1 is not a numeric vector"),
        (lambda: cs.framed_point(cs.lift_configuration(_X), [[1.0, 0.0], [1.0, [0.0]]]),
         "frame at 2 is not a numeric vector"),
        (lambda: cs.framed_point(cs.lift_configuration(_X), {1: [1.0, 0.0], 2: "1"}),
         "frame at 2 is not a numeric vector"),
        (lambda: cs.framed_point({"n": 1}, [[1.0]]), "point must be an ambient or simplicial point"),
        (lambda: cs.four_consistency_residual(
            {pair: [str(c) for c in vec] for pair, vec in _SQUARE.u.items()}, [1.0, 0.0], [0.0, 1.0]
        ), r"direction for pair \(1, 2\) is not numeric"),
        (lambda: cs.realize_face(cs.corolla(3), {0: ["0", "0.5", "1"]}),
         "parameters at vertex 0 must be numbers"),
    ],
    ids=[
        "configuration-strings", "configuration-ragged", "lift-strings", "lift-ragged",
        "ambient-x-strings", "ambient-x-ragged", "ambient-u-strings", "ambient-d-strings",
        "simplicial-x-strings", "simplicial-u-strings", "framed-strings", "framed-ragged",
        "framed-mapping-string", "framed-not-a-point", "four-consistency-strings",
        "realize-strings",
    ],
)
def test_readers_reject_numbers_written_as_strings(read, message):
    """Each reader names the field; every one of these was read or escaped
    as an unnamed error."""
    with pytest.raises(ValueError, match=message):
        read()


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: cs.framed_point(_B, 5), "'frames' must be a sequence or a mapping"),
        (lambda: cs.framed_point(_B, None), "'frames' must be a sequence or a mapping"),
        (lambda: cs.Configuration([[1 + 2j, 0.0], [0.0, 1.0]]), r"points must form an \(n, m\) array"),
        (lambda: cs.realize_face(cs.corolla(3), {0: [0.0, 0.5 + 1j, 1.0]}),
         "parameters at vertex 0 must be numbers"),
        (lambda: cs.ambient_point(_X, {**_U, (1, 3): [1.0, 0.0]}, {}),
         r"u key \(1, 3\) is not a pair of distinct labels in 1..2"),
        (lambda: cs.simplicial_point(_X, {**_U, (1, 1): [1.0, 0.0]}),
         r"u key \(1, 1\) is not a pair of distinct labels in 1..2"),
        (lambda: cs.ambient_point(_B.x, _B.u, {**_B.d, (1, 2, 4): 0.5}),
         r"d key \(1, 2, 4\) is not a triple of distinct labels in 1..3"),
        (lambda: cs.ambient_point(_B.x, _B.u, {**_B.d, (1, 1, 2): 0.5}),
         r"d key \(1, 1, 2\) is not a triple of distinct labels in 1..3"),
        (lambda: cs.framed_point(cs.lift_configuration(_X), [[1.0, 0.0]] * 3),
         r"frames key 3 is not a label in 1..2"),
        (lambda: cs.framed_point(cs.lift_configuration(_X), {0: [1.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 0.0]}),
         r"frames key 0 is not a label in 1..2"),
        (lambda: cs.four_consistency_residual(
            {**_SQUARE.u, (1, 2): [1.0, 0.0, 0.0]}, [1.0, 0.0], [0.0, 1.0]
        ), r"direction for pair \(1, 2\) has wrong dimension"),
    ],
    ids=[
        "framed-int", "framed-none", "configuration-complex", "realize-complex",
        "ambient-u-outside", "simplicial-u-diagonal", "ambient-d-outside", "ambient-d-diagonal",
        "framed-more-frames", "framed-key-0",
        "four-consistency-wrong-dimension",
    ],
)
def test_readers_name_the_field_of_other_bad_values(read, message):
    """A frames argument that is not a collection escaped as a TypeError,
    complex points lost their imaginary part, keys outside 1..n and extra
    frames were dropped, and a direction of the wrong length escaped from
    numpy unnamed."""
    with pytest.raises(ValueError, match=message):
        read()


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
