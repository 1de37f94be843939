"""Tree combinatorics: encodings, poset structure, enumeration."""

import itertools

import numpy as np
import pytest

import confspace as cs
from confspace import jsonio
from helpers import brute_nested_collections, tree_count_oracle


def g1(sets, n):
    return cs.tree_from_nested(sets, n)


# -- nested-set encoding ---------------------------------------------------------


def test_corolla_has_empty_collection():
    assert cs.nested_collection(cs.corolla(4)) == frozenset()


def test_trunk_tree_collection():
    t = g1([{1, 2, 3}], 3)
    assert cs.nested_collection(t) == frozenset({frozenset({1, 2, 3})})
    assert t.has_trunk


def test_figure_style_tree_collection():
    sets = [{2, 5}, {3, 6}, {1, 3, 6}]
    t = g1(sets, 7)
    assert cs.nested_collection(t) == frozenset(map(frozenset, sets))


def test_paren_roundtrip_exhaustive():
    for n in range(1, 6):
        for t in cs.enumerate_trees(n):
            assert cs.tree_from_nested(cs.nested_collection(t), n) == t


def test_tree_from_nested_examples():
    assert g1([], 3) == cs.corolla(3)
    t = g1([{1, 2, 3, 4}], 4)
    assert t.has_trunk
    two = g1([{1, 2}, {3, 4}], 4)
    # bivalent root is allowed: two internal children, no direct leaves
    assert len(two.children[0]) == 2
    assert all(v > two.n for v in two.children[0])


def test_non_nested_rejected():
    with pytest.raises(ValueError, match="nested"):
        g1([{1, 2}, {2, 3}], 3)
    with pytest.raises(ValueError, match="fewer than two"):
        g1([{1}], 3)


def test_invalid_parent_arrays_rejected():
    with pytest.raises(ValueError, match="bivalent"):
        cs.FTree(2, (-1, 3, 0, 0))  # internal vertex with a single child
    with pytest.raises(ValueError):
        cs.FTree(2, (-1, 0))  # missing a leaf


# -- contraction and the poset ----------------------------------------------------


def test_contract_examples():
    t = g1([{1, 2, 3}], 3)
    v = t.vertex_over({1, 2, 3})
    assert cs.contract(t, [v]) == cs.corolla(3)
    assert cs.contract(t, []) == t
    deep = g1([{1, 2}, {1, 2, 3}], 3)
    assert cs.contract(deep, [deep.vertex_over({1, 2})]) == g1([{1, 2, 3}], 3)


def test_contract_errors():
    t = g1([{1, 2}], 3)
    with pytest.raises(ValueError, match="leaf edge"):
        cs.contract(t, [1])
    with pytest.raises(ValueError, match="no edge"):
        cs.contract(t, [99])


def test_leq_examples():
    t = g1([{1, 2}], 3)
    assert cs.leq(t, t)
    for any_t in cs.enumerate_trees(4):
        assert cs.leq(any_t, cs.corolla(4))
    assert not cs.leq(g1([{1, 2}], 3), g1([{1, 3}], 3))
    with pytest.raises(ValueError):
        cs.leq(cs.corolla(2), cs.corolla(3))


def test_leq_matches_exhaustive_contraction_search():
    pool = cs.enumerate_trees(4)
    for t in pool:
        internal = t.internal_vertices
        reachable = set()
        for r in range(len(internal) + 1):
            for edges in itertools.combinations(internal, r):
                reachable.add(cs.contract(t, edges))
        for other in pool:
            assert cs.leq(t, other) == (other in reachable)


def test_leq_implies_exclusion_subset():
    pool = cs.enumerate_trees(4)
    for t in pool:
        for other in pool:
            if cs.leq(t, other):
                assert cs.exclusion_relation(other) <= cs.exclusion_relation(t)


def test_codim():
    assert cs.codim(cs.corolla(5)) == 0
    assert cs.codim(g1([{1, 2, 3}], 3)) == 1
    assert cs.codim(g1([{1, 2}, {1, 2, 3}], 3)) == 2


def test_contract_drops_codim_by_one():
    for t in cs.enumerate_trees(4):
        for v in t.internal_vertices:
            assert cs.codim(cs.contract(t, [v])) == cs.codim(t) - 1


# -- exclusion relations ------------------------------------------------------------


def test_exclusion_examples():
    assert cs.exclusion_relation(cs.corolla(3)) == frozenset()
    assert cs.tree_from_exclusions([], 3, trunk=False) == cs.corolla(3)
    t = g1([{1, 2}], 3)
    assert cs.exclusion_relation(t) == frozenset({((1, 2), 3), ((2, 1), 3)})


def test_exclusion_roundtrip_exhaustive():
    for t in cs.enumerate_trees(4):
        rel = cs.exclusion_relation(t)
        assert cs.tree_from_exclusions(rel, 4, trunk=t.has_trunk) == t


def test_exclusion_axioms_enforced():
    with pytest.raises(ValueError, match="mirror"):
        cs.tree_from_exclusions([((1, 2), 3)], 3)
    with pytest.raises(ValueError, match="conflict"):
        cs.tree_from_exclusions(
            [((1, 2), 3), ((2, 1), 3), ((1, 3), 2), ((3, 1), 2)], 3
        )
    # transitivity: ((1,2),3) and ((4,1),2) force ((4,1),3)
    bad = [((1, 2), 3), ((2, 1), 3), ((4, 1), 2), ((1, 4), 2)]
    with pytest.raises(ValueError, match="transitive"):
        cs.tree_from_exclusions(bad, 4)


# -- enumeration -----------------------------------------------------------------------


def test_enumeration_counts():
    assert len(cs.enumerate_trees(2)) == 2
    assert len(cs.enumerate_trees(3)) == 8
    assert len(cs.enumerate_trees(3, "planar")) == 3
    assert [len(cs.enumerate_trees(n, "trunk")) for n in (1, 2, 3)] == [1, 1, 4]


def test_enumeration_matches_brute_oracle():
    for n in range(1, 7):
        assert len(cs.enumerate_trees(n)) == len(brute_nested_collections(n))


def test_enumeration_matches_recurrence_oracle():
    for n in range(1, 7):
        assert len(cs.enumerate_trees(n)) == tree_count_oracle(n)


def test_enumeration_distinct_and_deterministic():
    out = cs.enumerate_trees(4)
    assert len(set(out)) == len(out)
    assert out == cs.enumerate_trees(4)


def test_enumeration_variants_consistent():
    full = set(cs.enumerate_trees(4))
    trunk = set(cs.enumerate_trees(4, "trunk"))
    planar = set(cs.enumerate_trees(4, "planar"))
    assert trunk == {t for t in full if t.has_trunk}
    assert planar < full
    assert all(not t.has_trunk for t in planar)


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        cs.enumerate_trees(0)
    with pytest.raises(ValueError):
        cs.enumerate_trees(10)
    with pytest.raises(ValueError):
        cs.enumerate_trees(9)
    with pytest.raises(ValueError):
        cs.enumerate_trees(1, "planar")
    with pytest.raises(ValueError):
        cs.enumerate_trees(3, "weird")


# -- pruning -----------------------------------------------------------------------------


def test_prune_examples():
    t = g1([{1, 2}], 3)
    assert cs.prune(t, cs.SetMap.identity(3)) == t
    drop2 = cs.SetMap(2, 3, (1, 3))
    assert cs.prune(t, drop2) == cs.corolla(2)
    nested = g1([{1, 2}, {1, 2, 3}], 4)
    first3 = cs.SetMap(3, 4, (1, 2, 3))
    out = cs.prune(nested, first3)
    assert out == g1([{1, 2}, {1, 2, 3}], 3)
    assert out.has_trunk


def test_prune_requires_injective():
    with pytest.raises(ValueError, match="injective"):
        cs.prune(cs.corolla(3), cs.SetMap(2, 3, (1, 1)))


def test_prune_functorial():
    rng = np.random.default_rng(0)

    def random_injection(m, n):
        vals = rng.permutation(n)[:m] + 1
        return cs.SetMap(m, n, tuple(int(v) for v in sorted(vals)))

    for n, reps in ((4, 4), (5, 2)):
        pool = cs.enumerate_trees(n)
        for t in pool:
            for _ in range(reps):
                mid = rng.integers(2, n + 1)
                low = rng.integers(1, mid + 1)
                sigma = random_injection(int(mid), n)
                tau = random_injection(int(low), int(mid))
                assert cs.prune(t, sigma.compose(tau)) == cs.prune(
                    cs.prune(t, sigma), tau
                )


# -- join, relabel, maps --------------------------------------------------------------------


def test_join_examples():
    assert cs.join(cs.corolla(3), {1, 2}) == 0
    t = g1([{1, 2}], 3)
    assert cs.join(t, {1, 2}) == t.vertex_over({1, 2})
    deep = g1([{1, 2}, {1, 2, 3}], 4)
    assert cs.join(deep, {2, 3}) == deep.vertex_over({1, 2, 3})
    with pytest.raises(ValueError):
        cs.join(t, {9})
    with pytest.raises(ValueError):
        cs.join(t, set())


def test_relabel():
    t = g1([{1, 2}], 3)
    swapped = cs.relabel(t, {1: 1, 2: 3, 3: 2})
    assert swapped == g1([{1, 3}], 3)
    with pytest.raises(ValueError):
        cs.relabel(t, {1: 1, 2: 2, 3: 2})


def test_setmap_validation():
    sm = cs.SetMap(2, 4, (3, 1))
    assert sm.is_injective and sm(1) == 3
    with pytest.raises(ValueError):
        cs.SetMap(2, 4, (5, 1))
    with pytest.raises(ValueError):
        cs.SetMap(2, 4, (1,))
    comp = cs.SetMap(3, 4, (1, 2, 4)).compose(cs.SetMap(2, 3, (3, 1)))
    assert comp.values == (4, 1)


# -- serialization ----------------------------------------------------------------------------


def test_tree_json_roundtrip():
    for t in cs.enumerate_trees(4):
        assert jsonio.tree_from_json(jsonio.tree_to_json(t)) == t


def test_tree_json_accepts_non_canonical_order():
    # same tree with scrambled vertex ids: root at index 2
    data = {
        "n": 2,
        "parents": [2, 2, -1],
        "labels": [1, 2, 0],
    }
    assert jsonio.tree_from_json(data) == cs.corolla(2)


def test_tree_json_rejects_bivalent():
    data = {
        "n": 2,
        "parents": [-1, 0, 1, 2, 2],
        "labels": [0, 0, 0, 1, 2],
    }
    with pytest.raises(ValueError, match="bivalent"):
        jsonio.tree_from_json(data)


@pytest.mark.parametrize(
    "n, parents, labels, message",
    [
        pytest.param(2, [-1, 0, -1], None, "exactly one root", id="two-roots"),
        pytest.param(2, [1, 0, 0], None, "exactly one root", id="no-root"),
        pytest.param(2, [-1, 0, 3], None, "bad parent 3 for vertex 2", id="parent-out-of-range"),
        pytest.param(2, [-1, 0, -2], None, "bad parent -2 for vertex 2", id="negative-parent"),
        pytest.param(2, [-1, 0, 0, 3], None, "vertex 3 does not reach", id="own-parent"),
        pytest.param(2, [-1, 0, 0, 4, 3], None, "vertex 3 does not reach", id="detached-cycle"),
        pytest.param(2, [-1, 0, 1], None, "labelled vertex 1 has children",
                     id="labelled-vertex-with-children"),
        pytest.param(2, [-1, 0, 0, 0], None, "unlabelled vertex 3 has no children",
                     id="childless-unlabelled-vertex"),
        pytest.param(2, [-1, 4, 4, 0, 3], None, "vertex 3 is bivalent", id="bivalent"),
        pytest.param(2, [-1, 0, 0], [0, 1, 1], "bad leaf label 1 at vertex 2",
                     id="repeated-label"),
        pytest.param(3, [-1, 0, 0], [0, 1, 2], "not a bijection", id="missing-label"),
        pytest.param(2, [-1, 0, 0], [0, 1, 2, 0], "equal length", id="length-mismatch"),
        pytest.param(0, [-1], None, "a tree needs at least one leaf", id="no-leaves"),
    ],
)
def test_malformed_parent_arrays_rejected(n, parents, labels, message):
    # labels None: the canonical layout, so FTree reads the same array
    if labels is None:
        labels = [v if v <= n else 0 for v in range(len(parents))]
        with pytest.raises(ValueError):
            cs.FTree(n, tuple(parents))
    with pytest.raises(ValueError, match=message):
        jsonio.tree_from_json({"n": n, "parents": parents, "labels": labels})


def test_renumbered_tree_rejected_by_ftree_and_read_from_json():
    t = g1([{1, 2}, {1, 2, 3}], 4)
    assert t.parent == (-1, 6, 6, 5, 0, 0, 5)
    swapped = (-1, 5, 5, 6, 0, 6, 0)  # internal vertices 5 and 6 traded
    with pytest.raises(ValueError, match="canonical order"):
        cs.FTree(4, swapped)
    data = {"n": 4, "parents": list(swapped), "labels": [0, 1, 2, 3, 4, 0, 0]}
    assert jsonio.tree_from_json(data) == t


def test_dot_outputs():
    t = g1([{1, 2}], 3)
    dot = cs.tree_to_dot(t)
    assert dot.count("->") == t.num_vertices - 1
    hasse = cs.hasse_to_dot(cs.enumerate_trees(3))
    assert hasse.count("[label=") == 8


# -- input checks ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cs.prune(cs.corolla(4), cs.SetMap(2, 5, (1, 2))), "codomain does not match the leaf count"),
        (lambda: cs.SetMap(2, 3, (1, 3))(3), r"argument 3 outside 1\.\.2"),
        (lambda: cs.SetMap(2, 3, (1, 3)).compose(cs.SetMap(2, 3, (1, 2))), "maps are not composable"),
        (lambda: cs.tree_from_exclusions({((1, 1), 2)}, 3), r"bad exclusion triple \(\(1,1\),2\)"),
        (lambda: cs.tree_from_nested([{1, 5}], 3), r"member set \[1, 5\] not within 1\.\.3"),
        (lambda: cs.tree_from_nested([], 0), "a tree needs at least one leaf"),
        (lambda: cs.prune(cs.corolla(3), cs.SetMap(0, 3, ())), "a tree needs at least one leaf"),
    ],
    ids=[
        "prune-codomain", "setmap-argument", "setmap-compose", "exclusion-triple", "nested-range",
        "nested-no-leaves", "prune-empty-map",
    ],
)
def test_tree_calls_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_crossing_pair_search_tests_only_pairs_with_a_missing_set(monkeypatch):
    """A family that is not laminar is named by the same first crossing pair,
    but the search pairs a set the built tree has only with the sets it
    lacks: on a 60-set caterpillar plus one crossing set it ANDs about one
    pair per set, not every pair before the crossing one."""

    class CountingMask(int):
        calls = 0
        on = False

        def __and__(self, other):
            CountingMask.calls += CountingMask.on
            return int(self) & int(other)

    clusters = cs.trees._clusters

    def counting_clusters(tree):
        out = clusters(tree)
        CountingMask.on = True  # the search starts once the built tree is read
        return out

    monkeypatch.setattr(cs.trees, "_clusters", counting_clusters)
    n = 60
    family = [CountingMask(sum(1 << i for i in range(1, k + 1))) for k in range(2, n)]
    family.append(CountingMask((1 << (n - 1)) | (1 << n)))
    with pytest.raises(ValueError, match=rf"sets \[1, 2, .*, {n - 1}\] and \[{n - 1}, {n}\] are not nested"):
        cs.trees._laminar_tree(family, n)
    assert CountingMask.calls <= 2 * len(family)
