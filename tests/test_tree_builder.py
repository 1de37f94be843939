"""The bitmask tree builder against the frozenset reference it replaced."""

import hashlib
import itertools
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import confspace as cs
from confspace import canonical, cli, jsonio, trees
from helpers import (
    candidate_masks,
    contraction_covers,
    laminar_families,
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(set_families(), min_size=1, max_size=12))
# {1, 4, 5} gathers {4, 5} from the root, and the path key of {4, 5} must
# move below it, ahead of {2, 3}: drawn families rarely nest like this
@example([(5, [{4, 5}, {2, 3}, {1, 4, 5}])])
def test_batch_builder_matches_the_one_tree_builder(batch):
    """The array builder against _from_family on drawn batches of laminar
    families of mixed lengths, each family over labels up to the batch's
    largest n and ordered by size: the families of each length form one
    level, grown from the empty family one set at a time by _add_set and
    built by _state_trees, and each row gives the same tree, in row
    order."""
    n = max(size for size, _ in batch)
    families = [
        tuple(sorted((trees._mask(a) for a in laminar_part(raw)), key=int.bit_count))
        for _, raw in batch
    ]
    sets = sorted({m for f in families for m in f})
    index = {m: i for i, m in enumerate(sets)}
    tables = trees._set_tables(np.array(sets, np.int16), n)
    for k in sorted({len(f) for f in families}):
        level = [f for f in families if len(f) == k]
        rows = np.array([[index[m] for m in f] for f in level], np.int64).reshape(len(level), k)
        state = tuple(a.repeat(len(level), 0) for a in trees._empty(n))
        for col in range(k):
            state = trees._add_set(state, rows[:, col], tables)
        got = trees._state_trees(state, n)
        assert [t.parent for t in got] == [trees._from_family(f, n).parent for f in level]
        assert all(t.n == n for t in got)


# sha256 of the parent tuples run together as signed bytes (each starts
# with the root's -1), recorded from the enumeration that ran the reference
# generator's backtrack itself
_ENUMERATION_DIGESTS = {
    ("full", 7): "e7278ef1b93f1bf2",
    ("trunk", 7): "e3456b4c778f6ad5",
    ("planar", 9): "952eba111a601d0b",
    ("planar", 10): "a4383f60d5d81c89",
}


def test_enumeration_follows_the_reference_generator():
    """The level-by-level enumeration lists the families of the reference
    backtrack in its order, for full and trunk n = 1..7 and planar n =
    2..10.  Up to full and trunk n = 6 and planar n = 8 its trees are
    enumerate_trees', which test_enumeration_matches_reference_in_order
    holds to the frozenset reference; beyond, every 13th is the one-tree
    builder's tree of its family, and the whole list of parent tuples is
    pinned by its digest."""
    for variant, sizes in (("full", range(1, 8)), ("trunk", range(2, 8)), ("planar", range(2, 11))):
        for n in sizes:
            masks, top = candidate_masks(n, variant)
            want = [f + (top,) if top else f for f in laminar_families(masks)]
            table = np.array(masks + [0], np.int64)  # -1, the padding, reads as 0
            got, listed = [], []
            for built, families in trees._batches(n, variant):
                got += built
                lengths = (families >= 0).sum(1).tolist()
                listed += [tuple(row[:k]) + ((top,) if top else ()) for row, k in zip(table[families].tolist(), lengths)]
            assert listed == want, (variant, n)
            if (variant, n) in _ENUMERATION_DIGESTS:
                assert [t.parent for t in got[::13]] == [trees._from_family(f, n).parent for f in want[::13]]
                flat = array("b", itertools.chain.from_iterable(t.parent for t in got)).tobytes()
                assert hashlib.sha256(flat).hexdigest()[:16] == _ENUMERATION_DIGESTS[variant, n], (variant, n)
            else:
                assert cs.enumerate_trees(n, variant) == got
    assert cs.enumerate_trees(1, "trunk") == [cs.corolla(1)]


def test_enumeration_holds_little_beyond_its_list():
    """enumerate_trees(7) builds 78,416 trees a batch at a time: its traced
    peak exceeds what the returned list holds by at most 1 MB."""
    tracemalloc.start()
    try:
        out = cs.enumerate_trees(7)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 78416
    assert peak - held <= 1 << 20, (held, peak)


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
    """face_poset(k) for k = 0..7 against the reference generator's faces
    and covers, which for k <= 4 are also the frozenset builder's trees and
    the single-vertex contractions."""
    for k in range(8):
        got, want = cs.face_poset(k), reference_face_poset(k)
        assert got.index == want.index
        assert got.faces == want.faces
        assert got.dims == want.dims
        assert got.covers == want.covers
        if k <= 4:
            assert [t.parent for t in got.faces] == [t.parent for t in reference_enumerate_trees(k + 2, "planar")]
            assert list(got.covers) == contraction_covers(got.faces)


def test_covering_pairs_on_shuffled_pools_with_repeats():
    """covering_pairs on shuffled pools that repeat trees, and on pools
    that mix leaf counts, against the pairwise loop."""
    rng = random.Random(34)
    for n, variant in ((3, "full"), (4, "full"), (4, "trunk"), (5, "planar")):
        trees_n = cs.enumerate_trees(n, variant)
        pool = trees_n + rng.choices(trees_n, k=len(trees_n) // 2)
        rng.shuffle(pool)
        assert trees.covering_pairs(pool) == reference_covers(pool), (n, variant)
    mixed = cs.enumerate_trees(3) + cs.enumerate_trees(4, "trunk") + [cs.corolla(2), cs.corolla(3)]
    rng.shuffle(mixed)
    assert trees.covering_pairs(mixed) == reference_covers(mixed)


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
