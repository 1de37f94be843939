"""The bitmask tree builder against the frozenset reference it replaced."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import confspace as cs
from confspace import canonical, cli, jsonio
from helpers import (
    reference_children,
    reference_covers,
    reference_enumerate_trees,
    reference_face_poset,
    reference_join,
    reference_join_tables,
    reference_leaves_over,
    reference_tree_from_nested,
    reference_vertex_over,
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


@st.composite
def laminar_families(draw):
    n = draw(st.integers(1, 7))
    if n < 2:
        return n, []
    raw = draw(
        st.lists(st.sets(st.integers(1, n), min_size=2, max_size=n), max_size=10)
    )
    family = []
    for a in map(frozenset, raw):
        if a not in family and all(not a & b or a <= b or b <= a for b in family):
            family.append(a)
    return n, family


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(laminar_families())
def test_tree_from_nested_matches_reference(case):
    n, family = case
    got = cs.tree_from_nested(family, n)
    want = reference_tree_from_nested(family, n)
    assert got.parent == want.parent
    assert got == cs.FTree(n, got.parent)
    assert cs.nested_collection(got) == frozenset(family)


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
