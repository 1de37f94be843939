"""Array membership kernels: equivariance, documented violation order, regressions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import confspace as cs
from confspace import canonical, numerics
from confspace.numerics import nonneg_dependent, nonneg_dependent_rows
from helpers import (
    _product_gap,
    random_frames,
    reference_cocycles,
    reference_membership,
    reference_quads,
    reference_tables,
    sample_config,
)


def lift(pts):
    return cs.lift_configuration(np.asarray(pts, dtype=float))


# -- index tables ------------------------------------------------------------------


def test_index_tables_match_their_itertools_reference():
    """Every table built from a mask equals its itertools reference for
    n = 0..40, dtype and shape included.  The reference at n is the rows of
    the one at 40 whose labels are all below n, in the same order (no
    condition depends on n), so it is built once.  The builders are called
    past their caches, so that the n^4 tables are not all held at once."""
    top = 40
    want = reference_tables(top)
    want.update(cocycles=reference_cocycles(top), quads=reference_quads(top))
    largest = {name: table.max(axis=1) for name, table in want.items()}
    for n in range(top + 1):
        got = canonical._tables.__wrapped__(n)._asdict()
        got.update(
            cocycles=canonical._cocycles.__wrapped__(n), quads=canonical._quads.__wrapped__(n)
        )
        assert list(got) == list(want)
        for name, table in want.items():
            ref = table[largest[name] < n]
            assert got[name].dtype == ref.dtype and got[name].shape == ref.shape, (n, name)
            assert np.array_equal(got[name], ref), (n, name)


# -- permutation equivariance ------------------------------------------------------

# conditions whose indices name an unordered set of labels
_SET_KEYED = {"3-antisymmetry", "3-dependence", "S2-antisymmetry", "S2-dependence"}


def _key(condition, indices):
    """Label-independent form of a violation's indices."""
    if condition in _SET_KEYED:
        return condition, frozenset(indices)
    if condition in ("4-reciprocal", "4-cocycle"):
        return condition, (indices[0], frozenset(indices[1:]))
    if condition == "4-cyclic":
        start = indices.index(min(indices))
        return condition, indices[start:] + indices[:start]
    if condition == "S3-four-consistency":
        return condition, (frozenset(indices[:4]), indices[4:])
    return condition, indices


def _mapped(verdict, sigma):
    """Violations of the permuted point, relabelled back to the original labels.

    Entry i of the permuted point carries the data of sigma(i), so a label i
    there is the label sigma(i) of the original; probe axes are not labels.
    """
    out = set()
    for v in verdict.violations:
        labels = v.indices[:4] if v.condition == "S3-four-consistency" else v.indices
        moved = tuple(sigma[i - 1] for i in labels) + v.indices[len(labels):]
        if v.condition == "S3-four-consistency":
            moved = tuple(sorted(moved[:4])) + moved[4:]
        out.add(_key(v.condition, moved))
    return out


def _keys(verdict):
    return {_key(v.condition, v.indices) for v in verdict.violations}


def _perturbed(rng, a, kind):
    """A lifted point, or one with a direction pair turned or a ratio scaled."""
    n, m = a.x.shape
    u, d = dict(a.u), dict(a.d)
    if kind == "direction":
        i, j = (int(t) + 1 for t in rng.choice(n, size=2, replace=False))
        base = np.asarray(u[(i, j)])
        if m == 1:
            new = -base
        else:
            w = rng.normal(size=m)
            w -= float(w @ base) * base
            w /= float(np.linalg.norm(w))
            theta = rng.uniform(0.1, 0.5)
            new = math.cos(theta) * base + math.sin(theta) * w
        u[(i, j)], u[(j, i)] = new, -new
    elif kind == "ratio":
        i, j, k = (int(t) + 1 for t in rng.choice(n, size=3, replace=False))
        d[(i, j, k)] *= rng.uniform(1.2, 2.0)
    return cs.ambient_point(a.x, u, d)


def _at_boundary(t, m, seed):
    """The chart point of sampled stratum data with every scale set to 0."""
    s = cs.stratum_sample(t, m, seed)
    return cs.expand_chart(cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 7),
    m=st.integers(1, 3),
    kind=st.sampled_from(["lifted", "direction", "ratio"]),
    data=st.data(),
)
def test_membership_is_permutation_equivariant(seed, n, m, kind, data):
    rng = np.random.default_rng(seed)
    a = _perturbed(rng, lift(sample_config(rng, n, m, min_sep=0.25)), kind)
    sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
    b = cs.permute(sigma, a)
    for check, left, right in (
        (cs.membership_canonical, a, b),
        (cs.membership_simplicial, cs.to_simplicial(a), cs.permute(sigma, cs.to_simplicial(a))),
    ):
        before, after = check(left), check(right)
        assert before.passed == after.passed
        assert _mapped(after, sigma) == _keys(before)
    if kind == "lifted":
        assert cs.membership_canonical(a).passed


# -- agreement with the per-tuple reference ------------------------------------------


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(1.0, abs(a))


def _agrees(verdict, reference):
    violations, worst = reference
    assert [(v.condition, v.indices) for v in verdict.violations] == [(c, i) for c, i, _ in violations]
    assert all(_close(v.residual, r) for v, (_, _, r) in zip(verdict.violations, violations))
    assert _close(verdict.max_residual, worst)


def test_kernels_agree_with_per_tuple_reference():
    rng = np.random.default_rng(8)
    points = []
    for trial in range(36):
        n, m = 2 + trial % 6, 1 + trial % 3
        kind = ("lifted", "direction", "ratio")[trial % 3] if n >= 3 else "lifted"
        points.append(_perturbed(rng, lift(sample_config(rng, n, m)), kind))
    for nested, n in (([{1, 2}], 4), ([{1, 2}, {3, 4, 5}], 5), ([{2, 3}, {1, 2, 3}], 6)):
        points.append(_at_boundary(cs.tree_from_nested(nested, n), 2, n))
    for a in points:
        for tol in (1e-9, 1e-6):
            _agrees(cs.membership_canonical(a, tol=tol), reference_membership(a, tol))
            p = cs.to_simplicial(a)
            _agrees(cs.membership_simplicial(p, tol=tol), reference_membership(p, tol))


# -- the 4-cocycle on both cycles per base of each 4-subset -------------------------------


def _every_cocycle_holds(a, tol):
    """Whether all 24 orderings of every 4-subset pass the 4-cocycle."""
    return all(
        _product_gap([a.d[(i, j, k)], a.d[(i, k, l)], a.d[(i, l, j)]]) <= tol
        for i, j, k, l in itertools.permutations(range(1, a.n + 1), 4)
    )


def test_cocycle_rows_keep_the_verdict_of_every_ordering():
    """Checking (i, j, k, l) with j < k and j < l keeps the verdict of all
    24 orderings of each 4-subset."""
    rng = np.random.default_rng(27)
    points = [
        _perturbed(rng, lift(sample_config(rng, n, m)), kind)
        for n in range(4, 8) for m in (1, 2, 3) for kind in ("lifted", "direction", "ratio")
    ]
    for nested, n in (([{1, 2, 3, 4}], 5), ([{1, 2}, {3, 4, 5}], 6), ([{2, 3}, {2, 3, 4, 5}, {6, 7}], 7)):
        t = cs.tree_from_nested(nested, n)
        for m in (1, 2, 3):
            points += [_at_boundary(t, m, n + m), cs.expand_chart(cs.stratum_sample(t, m, n + m))]
    for a in points:
        for tol in (1e-9, 1e-6):
            verdict = cs.membership_canonical(a, tol=tol)
            reference = reference_membership(a, tol)
            _agrees(verdict, reference)
            others = [c for c, _, _ in reference[0] if c != "4-cocycle"]
            assert verdict.passed == (not others and _every_cocycle_holds(a, tol))


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_cocycle_within_tol_one_way_is_rejected_under_every_relabelling(tol):
    """Three ratios of base 1 in a collinear cluster scaled by 1 - 0.9 tol:
    every 4-reciprocal and 4-cyclic row and the cycle (1, 2, 3, 4) stay
    within tol, while the reversed cycle (1, 2, 4, 3) is off by about
    2.7 tol, whichever labels the point carries."""
    a = _at_boundary(cs.tree_from_nested([{1, 2, 3, 4}], 5), 1, 5)
    d = dict(a.d)
    for key in ((1, 3, 2), (1, 4, 3), (1, 2, 4)):
        d[key] *= 1.0 - 0.9 * tol
    a = cs.ambient_point(a.x, a.u, d)
    assert not _every_cocycle_holds(a, tol)
    verdict = cs.membership_canonical(a, tol=tol)
    assert [(v.condition, v.indices) for v in verdict.violations] == [("4-cocycle", (1, 2, 4, 3))]
    assert 2.5 * tol < verdict.max_residual < 3 * tol
    for sigma in itertools.permutations(range(1, 6)):
        verdict = cs.membership_canonical(cs.permute(sigma, a), tol=tol)
        assert _mapped(verdict, sigma) == {("4-cocycle", (1, frozenset({2, 3, 4})))}


def _cocycle_only(a, triple):
    """a with the ratios of (i, j, k) changed by factors of 2 so that every
    4-reciprocal and 4-cyclic product keeps its bits, while the cocycles of
    bases i and j over each 4-subset holding the triple double or halve."""
    i, j, k = triple
    d = dict(a.d)
    for key, factor in (((i, j, k), 2.0), ((j, i, k), 2.0), ((i, k, j), 0.5), ((j, k, i), 0.5)):
        d[key] *= factor
    return cs.ambient_point(a.x, a.u, d)


@pytest.mark.parametrize(
    "nested, n, triple",
    [
        ([{1, 2, 3, 4}], 5, (1, 2, 3)),
        ([{2, 3, 4, 5, 6}], 6, (5, 3, 6)),
        ([{1, 2}, {1, 2, 3, 4}, {5, 6, 7, 8}], 8, (8, 6, 5)),
    ],
)
def test_collinear_cluster_failing_only_the_cocycle_is_rejected(nested, n, triple):
    """On a line 1-ratio skips the rows inside a coincident cluster and
    2-law-of-sines skips every row, so 4-cocycle alone sees these ratios."""
    t = cs.tree_from_nested(nested, n)
    cluster = next(c for c in nested if set(triple) <= c)
    i, j, k = triple
    a = _at_boundary(t, 1, n)
    assert cs.membership_canonical(a).passed
    verdict = cs.membership_canonical(_cocycle_only(a, triple))
    assert {v.condition for v in verdict.violations} == {"4-cocycle"}
    # the bases i and j of every 4-subset of the cluster that holds the triple
    assert _keys(verdict) == {
        ("4-cocycle", (base, frozenset(triple) - {base} | {other}))
        for base in (i, j) for other in cluster - set(triple)
    }


def test_interval_parameter_failing_only_the_cocycle_is_refused():
    t = cs.tree_from_nested([{1, 2, 3, 4}], 5)
    assoc = cs.realize_face(t, {6: [0.0, 0.1, 0.5, 1.0]})
    bad = _cocycle_only(assoc, (1, 2, 3))
    assert {v.condition for v in cs.membership_canonical(bad).violations} == {"4-cocycle"}
    rng = np.random.default_rng(4)
    fp = cs.framed_point(lift(sample_config(rng, 3, 2)), random_frames(rng, 3, 2))
    assert cs.diagonal_map(fp, 2, 4, assoc).n == 7
    with pytest.raises(ValueError, match="interval parameter fails membership"):
        cs.diagonal_map(fp, 2, 4, bad)


# -- documented violation order ------------------------------------------------------


def test_canonical_violation_order_is_pinned():
    # boundary point where labels 1 and 2 coincide; one vanishing ratio made
    # positive and one ordinary ratio scaled
    a = _at_boundary(cs.tree_from_nested([{1, 2}], 4), 2, 1)
    d = dict(a.d)
    d[(1, 2, 3)] = 0.25
    d[(3, 1, 4)] *= 1.5
    verdict = cs.membership_canonical(cs.ambient_point(a.x, a.u, d))
    assert [(v.condition, v.indices) for v in verdict.violations] == [
        ("1-ratio-vanishing", (1, 2, 3)),
        ("1-ratio", (3, 1, 4)),
        ("2-cluster-zero", (1, 2, 3)),
        ("2-law-of-sines", (3, 1, 4)),
        ("4-reciprocal", (1, 2, 3)),
        ("4-reciprocal", (3, 1, 4)),
        ("4-cyclic", (1, 2, 3)),
        ("4-cyclic", (1, 4, 3)),
        ("4-cocycle", (1, 2, 3, 4)),
        ("4-cocycle", (3, 1, 4, 2)),
    ]
    assert verdict.max_residual == math.inf


def test_simplicial_violation_order_is_pinned():
    a = lift([[0, 0], [2, 0], [0, 1], [1, 3]])
    u = dict(a.u)
    u[(2, 4)] = np.array([0.6, 0.8])
    u[(4, 2)] = -u[(2, 4)]
    verdict = cs.membership_simplicial(cs.simplicial_point(a.x, u))
    assert [(v.condition, v.indices) for v in verdict.violations] == [
        ("S1-direction", (2, 4)),
        ("S1-direction", (4, 2)),
        ("S2-dependence", (1, 2, 4)),
        ("S2-dependence", (2, 3, 4)),
        ("S3-four-consistency", (1, 2, 3, 4, 1, 2)),
        ("S3-four-consistency", (1, 2, 3, 4, 2, 1)),
    ]
    assert verdict.max_residual == max(v.residual for v in verdict.violations)


def test_violations_follow_itertools_order_within_each_condition():
    rng = np.random.default_rng(11)
    a = _perturbed(rng, lift(sample_config(rng, 6, 2)), "direction")
    blocks = [
        ("1-direction", itertools.permutations(range(1, 7), 2)),
        ("2-", itertools.permutations(range(1, 7), 3)),
        ("3-dependence", itertools.combinations(range(1, 7), 3)),
    ]
    verdict = cs.membership_canonical(a)
    for prefix, order in blocks:
        rank = {idx: pos for pos, idx in enumerate(order)}
        seen = [rank[v.indices] for v in verdict.violations if v.condition.startswith(prefix)]
        assert seen and seen == sorted(seen)


# -- single-row entry points share the kernels ---------------------------------------------


def test_nonneg_dependent_rows_matches_single_calls():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(40, 3, 3))
    stack[1::2, 2] = -stack[1::2, 0] - stack[1::2, 1]  # planar triangles
    stack[::4, 1:] = stack[::4, :1]  # all parallel, one sign
    stack[4::8, 1] *= -1  # all parallel, mixed signs
    stack /= np.linalg.norm(stack, axis=2, keepdims=True)
    ok, res = nonneg_dependent_rows(stack, 1e-9)
    for row, want_ok, want_res in zip(stack, ok, res):
        assert nonneg_dependent(list(row)) == (bool(want_ok), float(want_res))
    with pytest.raises(ValueError, match="vectors must be numeric vectors of one length"):
        nonneg_dependent(stack[:2])  # a stack is for nonneg_dependent_rows


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonneg_dependent_refuses_non_finite_vectors(bad):
    # an infinite entry used to answer (True, 0.0), a NaN to fail inside the SVD
    with pytest.raises(ValueError, match="^vectors must be finite$"):
        nonneg_dependent([[bad, 0.0], [0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "vectors, named",
    [
        ([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], r"vector 0 \(norm 0\)"),
        ([[0.0, 1e-20], [1.0, 0.0], [-1.0, 0.0]], r"vector 0 \(norm 1e-20\)"),
        ([[1.0, 0.0], [0.0, 2.0], [0.0, 0.5]], r"vector 1 \(norm 2\), vector 2 \(norm 0.5\)"),
    ],
)
def test_nonneg_dependent_refuses_vectors_that_are_not_unit(vectors, named):
    # the first two answered (False, 1.0), although u2 + u3 = 0 is a
    # non-negative dependence: a zero or tiny first vector never passed
    # the parallel test's comparison with the first vector
    with pytest.raises(ValueError, match=f"^not unit vectors: {named}$"):
        nonneg_dependent(vectors)
    # within require_unit's slack a vector is taken as it is
    assert nonneg_dependent([[1.0 + 1e-7, 0.0], [0.0, 1.0], [-1.0, 0.0]]) == (True, 0.0)


# -- the dependence certificate -------------------------------------------------------


def _triangles(U):
    """The (u_ij, u_jk, u_ki) block of every 3-subset, stacked as the membership checks do."""
    i, j, k = canonical._tables(U.shape[0]).subsets3.T
    return np.stack([U[i, j], U[j, k], U[k, i]], axis=1)


def _block(rng, m, sigma, null):
    """A 3 x m block with singular values sigma (padded with zeros to 3)
    and last left singular vector null: P diag(sigma) Qᵀ."""
    p, _ = np.linalg.qr(np.column_stack([null, rng.normal(size=(3, 2))]))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    r = min(m, 3)
    s = np.zeros(3)
    s[: len(sigma)] = sigma
    return (p[:, [1, 2, 0]][:, :r] * s[:r]) @ q[:, :r].T


def _designed_blocks(rng, tol):
    """Blocks at each bound the certificate must respect, of trace 3 like
    three unit vectors unless they hold a zero row: one stack for each m."""
    return [np.array(list(_designed(rng, tol, m))) for m in (2, 3, 4)]


def _designed(rng, tol, m):
    for _ in range(4):
        for spot, f, s1 in itertools.product(range(3), (1 - 1e-3, 1 + 1e-3), (1.0, 1e-3, 1e-5)):
            # worst coefficient at -tol(1 ± 1e-3), so that the SVD decides
            # by a hair; small s1 makes its null vector less exact than that
            null = rng.uniform(0.2, 1.0, 3)
            null[spot] = 0.0
            null[spot] = -tol * f * np.linalg.norm(null) / math.sqrt(1 - (tol * f) ** 2)
            yield _block(rng, m, (math.sqrt(3 - s1 * s1), s1), null)
        null = rng.uniform(0.2, 1.0, 3)
        for s1 in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            # near-parallel sides, from a clear second singular value down
            # to one the SVD calls parallel
            yield _block(rng, m, (math.sqrt(3 - s1 * s1), s1), null)
        for f in (1 - 1e-3, 1 + 1e-3):
            # s_1/s_0 at tol(1 ± 1e-3): parallel by a hair
            s0 = math.sqrt(3 / (1 + (tol * f) ** 2))
            yield _block(rng, m, (s0, tol * s0 * f), null)
            if m > 2:
                # s_min/s_max at tol(1 ± 1e-3): independent by a hair
                s0 = math.sqrt(2 / (1 + (tol * f) ** 2))
                yield _block(rng, m, (s0, 1.0, tol * s0 * f), null)
        a, b = np.linalg.qr(rng.normal(size=(m, 2)))[0].T
        for z in (0.0, 1e-9, 1e-7, 1e-5, 1e-3, tol * math.sqrt(2) * (1 - 1e-3), tol * math.sqrt(2) * (1 + 1e-3)):
            # an antipodal pair and a short third side across it: the SVD
            # finds these parallel when z <= tol·√2, and without mixed
            # signs when the short side comes first
            for rows in itertools.permutations([z * b, a, -a]):
                yield np.array(rows)
        for rows in ([a, -a, b], [a, a, -a], [a, -a, 0 * a], [0 * a] * 3):
            yield np.array(rows)


def _certificate_corpus(rng):
    """Triangles of lifted, zero-scale chart and perturbed points with
    n <= 8 and m = 1..4, by m."""
    nested = ([{1, 2}], [{1, 2, 3}, {4, 5}], [{2, 3}, {2, 3, 4}], [{1, 2}, {3, 4}, {5, 6, 7}])
    corpus = {m: [] for m in range(1, 5)}
    for n, m in itertools.product(range(3, 9), range(1, 5)):
        a = lift(sample_config(rng, n, m, min_sep=0.1))
        noise = rng.normal(size=a.U.shape) * 10.0 ** rng.uniform(-14, -4)
        U = a.U + noise
        with np.errstate(invalid="ignore"):
            U /= np.linalg.norm(U, axis=2, keepdims=True)
        U[np.arange(n), np.arange(n)] = 0.0
        corpus[m] += [_triangles(a.U), _triangles(U)]
    for (sets, m), seed in zip(itertools.product(nested, range(1, 5)), itertools.count()):
        t = cs.tree_from_nested(sets, max(max(s) for s in sets) + 1)
        corpus[m].append(_triangles(_at_boundary(t, m, seed).U))
    return {m: np.concatenate(stacks) for m, stacks in corpus.items()}


def test_certified_rows_match_the_svd_bit_for_bit():
    """nonneg_dependent_rows answers most triangles from its closed-form
    certificate and the rest from the SVD; every answer and residual must
    be the all-SVD one to the bit, on sampled points and on blocks placed
    at each bound of the certificate, where a missing bound shows."""
    rng = np.random.default_rng(33)
    corpus = _certificate_corpus(rng)
    for tol in (1e-12, 1e-9, 1e-6):
        stacks = [*corpus.values(), *_designed_blocks(rng, tol)]
        for stack in stacks:
            ok, res = nonneg_dependent_rows(stack, tol)
            want_ok, want_res = numerics._svd_rows(stack, tol)
            assert np.array_equal(ok, want_ok), tol
            assert np.array_equal(res.view(np.int64), want_res.view(np.int64)), tol
        # the certificate clears most triangles of these points, or the SVD
        # would still decide them all
        cleared = np.concatenate([numerics._certified(corpus[m], tol) for m in (2, 3, 4)])
        assert cleared.mean() > 0.75, (tol, cleared.mean())


# -- false rejections by the tolerance policy --------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="ill-conditioned law of sines: one far point, five within ~3e-5 "
    "(tolerance policy, ROADMAP open item 1 a)",
)
def test_near_cluster_lift_passes_canonical_membership():
    x = [
        [0.6856576223008515, -0.7279088168423794],
        [0.6856571762843326, -0.7279084820184117],
        [-0.6856694782144018, 0.7279130213460877],
        [0.6856812959823816, -0.727917101379114],
        [0.6856582215005296, -0.7279096143525255],
        [0.6856575448079565, -0.7279086382941143],
    ]
    assert cs.membership_canonical(lift(x)).passed


@pytest.mark.xfail(
    strict=True,
    reason="config_scale squares 1e308 to inf, so near = tol * inf counts every pair as "
    "coincident and condition 1 checks nothing (the large-scale twin of the vacuous "
    "trunk case, ROADMAP open item 1)",
)
def test_huge_positions_still_check_condition_1():
    # u[1,2] is perpendicular to x_1 - x_2
    with np.errstate(over="ignore", invalid="ignore"):
        a = cs.ambient_point([[1e308, 0], [-1e308, 0]], {(1, 2): [0, 1], (2, 1): [0, -1]}, {})
        assert not cs.membership_canonical(a).passed


@pytest.mark.parametrize(
    "t, m, seed",
    [
        # a 4-level tree, smallest scale 0.00196: 1-ratio residuals up to 1.03e-9
        (cs.FTree(6, (-1, 10, 11, 11, 7, 8, 9, 0, 7, 8, 9, 10)), 3, 859126745),
        # cli-pipeline seed 42, smallest scale 3.97e-4: 1-direction residuals of 2.02e-9
        (cs.FTree(5, (-1, 9, 7, 8, 6, 9, 0, 6, 7, 8)), 2, 64446293),
        (cs.FTree(6, (-1, 10, 10, 8, 9, 8, 7, 0, 7, 8, 9)), 2, 793348207),
        (cs.FTree(6, (-1, 10, 8, 10, 9, 11, 11, 0, 7, 8, 9, 7)), 2, 475793087),
    ],
)
def test_deep_chart_point_passes_canonical_membership(t, m, seed):
    """Interior chart points of deep trees: condition 1 at tol 1e-9 fails
    them without its conditioning term."""
    a = cs.expand_chart(cs.stratum_sample(t, m, seed))
    assert cs.membership_canonical(a).passed
