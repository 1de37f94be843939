"""The bitmask tree builder against the frozenset reference it replaced."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings

import confspace as cs
from confspace import canonical, cli, jsonio
from helpers import (
    laminar_part,
    reference_check_nested,
    reference_children,
    reference_covers,
    reference_enumerate_trees,
    reference_face_poset,
    reference_join,
    reference_join_tables,
    reference_leaves_over,
    reference_tree_from_exclusions,
    reference_tree_from_nested,
    reference_vertex_over,
    set_families,
)


# -- enumeration ------------------------------------------------------------------


def test_enumeration_matches_reference_in_order():
    for variant, sizes in (
        ("full", range(1, 7)),
        ("trunk", range(1, 7)),
        ("planar", range(2, 9)),
    ):
        for n in sizes:
            got = [t.parent for t in cs.enumerate_trees(n, variant)]
            want = [t.parent for t in reference_enumerate_trees(n, variant)]
            assert got == want, (variant, n)


def test_enumerated_trees_pass_the_public_check():
    for variant, sizes in (
        ("full", range(1, 6)),
        ("trunk", range(1, 6)),
        ("planar", range(2, 6)),
    ):
        for n in sizes:
            for t in cs.enumerate_trees(n, variant):
                assert cs.FTree(t.n, t.parent) == t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(set_families())
def test_tree_from_nested_matches_reference(case):
    """Every drawn family, cut to its laminar part, builds the reference
    tree; a family that is not laminar raises, naming its first pair that
    is not nested in label order, as the pairwise check would."""
    n, raw = case
    family = laminar_part(raw)
    got = cs.tree_from_nested(family, n)
    want = reference_tree_from_nested(family, n)
    assert got.parent == want.parent
    assert got == cs.FTree(n, got.parent)
    assert cs.nested_collection(got) == frozenset(family)
    crossing = [
        (a, b)
        for a, b in itertools.combinations(sorted(sorted(a) for a in set(raw)), 2)
        if set(a) & set(b) and not (set(a) <= set(b) or set(b) <= set(a))
    ]
    if crossing:
        a, b = crossing[0]
        with pytest.raises(ValueError, match=re.escape(f"sets {a} and {b} are not nested")):
            cs.tree_from_nested(raw, n)
        with pytest.raises(ValueError, match=r"sets \[.*\] and \[.*\] are not nested"):
            reference_check_nested(raw, n)


def _outcome(build, rel, n, trunk):
    """The tree's parent array, or the error message; a pair of sets that
    are not nested is blanked, since the pairwise check named one in set
    iteration order."""
    try:
        return build(rel, n, trunk).parent
    except ValueError as err:
        return re.sub(r"^sets \[[\d, ]*\] and \[[\d, ]*\]", "sets [...] and [...]", str(err))


def test_tree_from_exclusions_matches_reference():
    """The one-pass reader against the pairwise checks it replaced: the same
    tree, or the same error message, on every relation of a tree with n <= 5 under
    both trunk flags, and on seeded perturbations of each: one triple dropped
    or added, a mirrored pair dropped or added."""
    rng = np.random.default_rng(14)
    for n in range(1, 6):
        triples = list(itertools.permutations(range(1, n + 1), 3))
        for t in cs.enumerate_trees(n):
            rel = sorted(cs.exclusion_relation(t))
            cases = [rel]
            if rel:
                drop = int(rng.integers(len(rel)))
                (i, j), k = rel[drop]
                cases += [rel[:drop] + rel[drop + 1 :], [x for x in rel if x not in (((i, j), k), ((j, i), k))]]
            if triples:
                i, j, k = triples[int(rng.integers(len(triples)))]
                cases += [rel + [((i, j), k)], rel + [((i, j), k), ((j, i), k)]]
            for case in cases:
                for trunk in (False, True):
                    got = _outcome(cs.tree_from_exclusions, case, n, trunk)
                    assert got == _outcome(reference_tree_from_exclusions, case, n, trunk), (case, trunk)
            assert cs.tree_from_exclusions(rel, n, t.has_trunk) == t


def test_tree_from_nested_reads_a_deep_caterpillar():
    """The caterpillar {1, 2} < {1, 2, 3} < ... at n = 2000: the laminarity
    check is one build and one comparison, not a test of every pair."""
    n = 2000
    t = cs.tree_from_nested([range(1, k + 1) for k in range(2, n + 1)], n)
    assert cs.codim(t) == n - 1 and t.depth(1) == n
    n = 300
    with pytest.raises(ValueError, match=re.escape(f"{n - 2}, {n - 1}] and [{n - 1}, {n}] are not nested")):
        cs.tree_from_nested([range(1, k + 1) for k in range(2, n)] + [(n - 1, n)], n)


# -- the face poset and the covering relation ---------------------------------------------


def test_face_poset_matches_contraction_reference():
    for k in range(5):
        got, want = cs.face_poset(k), reference_face_poset(k)
        assert got.index == want.index
        assert got.faces == want.faces
        assert got.dims == want.dims
        assert got.covers == want.covers


def test_hasse_dot_matches_pairwise_loop():
    pools = [cs.enumerate_trees(n) for n in range(1, 5)]
    top, mid = cs.corolla(3), cs.tree_from_nested([{1, 2}], 3)
    low = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 3)
    pools.append([mid, top, mid, low, top])  # repeated trees keep every edge
    for pool in pools:
        dot = cs.hasse_to_dot(pool)
        lines = dot.splitlines()
        nodes = [line for line in lines if "[label=" in line]
        edges = [f"  t{i} -> t{j};" for i, j in reference_covers(pool)]
        expected = "\n".join(lines[:2] + nodes + edges + ["}"])
        assert dot == expected
    assert cs.hasse_to_dot(pools[-1]).count("->") == 6


def test_cli_poset_matches_pairwise_loop(capsys):
    for n in range(1, 5):
        for variant in ("full", "trunk", "planar"):
            if variant == "planar" and n < 2:
                continue
            code = cli.main(["trees", "poset", "--n", str(n), "--variant", variant])
            out = capsys.readouterr().out
            assert code == 0
            pool = cs.enumerate_trees(n, variant)
            expected = jsonio.dumps({
                "n": n,
                "trees": [
                    {"tree": jsonio.tree_to_json(t), "codim": cs.codim(t)} for t in pool
                ],
                "covers": [list(pair) for pair in reference_covers(pool)],
            })
            assert out == expected


# -- tree structure from leaf-set bitmasks ------------------------------------------


def test_tree_structure_matches_root_path_references():
    """join on every label subset, vertex_over, leaves_over, children and the
    chart layer's join tables, on every tree with n <= 5 and every seventh
    with n = 6, for each variant."""
    for variant, first in (("full", 1), ("trunk", 1), ("planar", 2)):
        for n in range(first, 7):
            labels = range(1, n + 1)
            subsets = [c for r in range(1, n + 1) for c in itertools.combinations(labels, r)]
            for t in cs.enumerate_trees(n, variant)[:: 7 if n == 6 else 1]:
                over = reference_leaves_over(t)
                assert t.leaves_over == over
                assert t.children == reference_children(t)
                assert [cs.join(t, c) for c in subsets] == [reference_join(t, c) for c in subsets]
                for c in (*subsets, (), (0, 1), (-1,), (n + 1,)):
                    assert t.vertex_over(c) == reference_vertex_over(t, c, over)
                plan = canonical._chart_plan(t)
                for got, want in zip((plan.pair_join, plan.triple_join), reference_join_tables(t)):
                    assert np.array_equal(got, want)


def test_relabel_and_prune_build_what_tree_from_nested_builds():
    """relabel and prune hand their families straight to the canonical
    builder; the checked path through tree_from_nested gives the same trees,
    which pass the public check, on every tree with n <= 5 and every seventh
    with n = 6, for the full and trunk variants."""
    rng = random.Random(28)
    for variant in ("full", "trunk"):
        for n in range(1, 7):
            for t in cs.enumerate_trees(n, variant)[:: 7 if n == 6 else 1]:
                family = cs.nested_collection(t)
                perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                outs = [(cs.relabel(t, perm), [{perm[x] for x in a} for a in family], n)]
                for m in range(1, n + 1):
                    values = tuple(rng.sample(range(1, n + 1), m))
                    back = {v: j + 1 for j, v in enumerate(values)}
                    cuts = {frozenset(back[x] for x in a if x in back) for a in family}
                    kept = [c for c in cuts if len(c) > 1]
                    outs.append((cs.prune(t, cs.SetMap(m, n, values)), kept, m))
                for out, sets, size in outs:
                    assert out == cs.tree_from_nested(sets, size)
                    assert cs.FTree(out.n, out.parent) == out
