"""The four workloads: decks of checked ops generated from a seed.

A deck is a fixed list of op specifications (kind, size bucket, ambient
dimension) whose concrete inputs are drawn from (seed, deck index).  The op
mix therefore depends only on how many decks ran, never on the seed.  Each
op's `fn` is the timed user work; `prep` (untimed) writes files an op reads;
`check` (untimed) verifies the result against an independent oracle and
returns a digest used to compare traced with untraced runs.

Library calls inside ops always go through a module attribute
(`cs.expand_chart`, `cli.main`), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import confspace as cs
from confspace import cli

from oracles import (
    CheckFailed,
    ambient_gap,
    catalan,
    clusters,
    direction_error,
    exclusions,
    kirkman_cayley,
    random_hierarchy,
    random_planar_hierarchy,
    require,
    sample_config,
    stratum_gap,
    tree_count,
    vertex_leaves,
)


@dataclass
class Op:
    kind: str
    bucket: str
    fn: Callable[[], object]
    check: Callable[[object], str]
    prep: Callable[[], None] | None = None
    label: str = ""  # the op's inputs, for failure reports and the self-test
    # A known program defect this op reproduces when an exception escapes
    # the library; such failures are counted and tallied like any other,
    # but do not mark the run's outputs as wrong.
    known_defect: str | None = None


class Workload:
    """Deck source for one workload.

    --seconds is turned into a whole number of decks with the normalised
    busy time a deck took at the commit that defined the benchmark, so every
    commit runs the same ops in the same order.  MIN_DECKS keeps at least
    1000 ops in a run, so that ten or more samples lie beyond the p99.
    """

    DECK_SECONDS = 1.0
    PROLOGUE_SECONDS = 0.0  # one-off ops at the start of deck 0
    MIN_DECKS = 1

    @classmethod
    def decks_for(cls, seconds: float) -> int:
        return max(cls.MIN_DECKS, round((seconds - cls.PROLOGUE_SECONDS) / cls.DECK_SECONDS))


def _rng(seed: int, stream: int, index: int):
    return np.random.default_rng([seed, stream, index])


# -- chart-roundtrip -------------------------------------------------------------

# Codimensions of the seed-drawn n = 6 trees in every deck, fixed so that
# each deck costs the same whatever the seed.
N6_CODIMS = (0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5)


def _chart_op(t, m: int, seed: int) -> Op:
    def fn():
        s = cs.stratum_sample(t, m, seed)
        a = cs.expand_chart(s)
        again = cs.expand_chart(cs.invert_chart(t, a))
        b = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
        edge = cs.expand_chart(b)
        seen = cs.stratum_tree(edge, 1e-6)
        back = cs.invert_chart(t, edge)
        return a, again, b, seen, back

    def check(res):
        a, again, b, seen, back = res
        interior = ambient_gap(a.x, a.u, a.d, again.x, again.u, again.d)
        require(interior <= 1e-8, f"interior round trip gap {interior:.3e} > 1e-8")
        require(tuple(seen.parent) == tuple(t.parent), "boundary point classified to another tree")
        boundary = stratum_gap(
            b.root_config, b.configs, b.scales, back.root_config, back.configs, back.scales
        )
        require(boundary <= 1e-10, f"boundary round trip gap {boundary:.3e} > 1e-10")
        return f"{interior!r}/{boundary!r}"

    return Op("roundtrip", f"n{t.n}", fn, check, label=f"tree={t.parent} m={m} seed={seed}")


class ChartRoundtrip(Workload):
    DECK_SECONDS = 1.34
    MIN_DECKS = 2
    name = "chart-roundtrip"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # every tree with n <= 5, built before timing
        self.trees = [t for n in range(1, 6) for t in cs.enumerate_trees(n)]

    def deck(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 1, index)
        ops = []
        for pos, t in enumerate(self.trees):
            ops.append(_chart_op(t, 2 + (pos + index) % 2, int(rng.integers(1 << 30))))
        for pos, c in enumerate(N6_CODIMS):
            t = cs.tree_from_nested(random_hierarchy(rng, 6, c), 6)
            ops.append(_chart_op(t, 2 + (pos + index) % 2, int(rng.integers(1 << 30))))
        return ops

    @staticmethod
    def warmup(workdir: str):
        for t in cs.enumerate_trees(3):
            _chart_op(t, 2, 0).fn()


# -- membership-mix --------------------------------------------------------------


def _membership_layout():
    """(bucket, n, class) for one deck of 50 ops: 60% n in 3..6, 30% n = 8,
    10% n = 12; 20% chart boundary points, 20% non-members."""
    rows = [("small", 3 + i % 4, "open") for i in range(17)]
    rows += [("small", 4 + i % 3, "boundary") for i in range(7)]
    rows += [("small", 3 + i % 4, "nonmember") for i in range(6)]
    rows += [("n8", 8, "open")] * 9 + [("n8", 8, "boundary")] * 3 + [("n8", 8, "nonmember")] * 3
    rows += [("n12", 12, "open")] * 4 + [("n12", 12, "nonmember")]
    # fixed interleaving, independent of the seed
    order = np.random.default_rng(0).permutation(len(rows))
    return [rows[i] for i in order]


MEMBERSHIP_LAYOUT = _membership_layout()


def _labels(v) -> frozenset[int]:
    # four-consistency violations append the two probe axes to the quad
    return frozenset(v.indices[:4] if v.condition.startswith("S3") else v.indices)


def _verdict_digest(v) -> str:
    return f"{v.passed}:{v.max_residual!r}:{sorted((x.condition, x.indices) for x in v.violations)}"


def _names(verdict, key: tuple[int, ...]):
    require(not verdict.passed, f"perturbation at {key} passed membership")
    require(any(v.indices == key for v in verdict.violations), f"verdict does not name {key}")
    want = frozenset(key)
    for v in verdict.violations:
        require(want <= _labels(v), f"violation {v.condition} {v.indices} away from {key}")


def _open_op(x: np.ndarray, a) -> Op:
    n = x.shape[0]

    def fn():
        vc = cs.membership_canonical(a)
        vs = cs.membership_simplicial(cs.to_simplicial(a))
        lifted = cs.lift_configuration(x)
        seen = cs.stratum_tree(lifted)
        rec = cs.reconstruct_from_directions(lifted.u)
        return vc, vs, seen, rec

    def check(res):
        vc, vs, seen, rec = res
        require(vc.passed and vs.passed, "open lifted point failed membership")
        worst = max(vc.max_residual, vs.max_residual)
        require(worst <= 1e-10, f"membership residual {worst:.3e} > 1e-10")
        require(len(seen.parent) == n + 1, "open point not classified to the corolla")
        err = direction_error(rec.points, a.u)
        require(err <= 1e-8, f"reconstruction direction error {err:.3e} > 1e-8")
        return f"{_verdict_digest(vc)}|{_verdict_digest(vs)}|{err!r}"

    return Op("open", "", fn, check)


def _boundary_op(t, a) -> Op:
    def fn():
        vc = cs.membership_canonical(a)
        vs = cs.membership_simplicial(cs.to_simplicial(a))
        seen = cs.stratum_tree(a, 1e-6)
        return vc, vs, seen

    def check(res):
        vc, vs, seen = res
        require(vc.passed and vs.passed, "chart boundary point failed membership")
        require(tuple(seen.parent) == tuple(t.parent), "boundary point classified to another tree")
        return f"{_verdict_digest(vc)}|{_verdict_digest(vs)}"

    return Op("boundary", "", fn, check)


def _nonmember_op(a, key: tuple[int, ...]) -> Op:
    def fn():
        vc = cs.membership_canonical(a)
        vs = cs.membership_simplicial(cs.to_simplicial(a))
        return vc, vs

    def check(res):
        vc, vs = res
        _names(vc, key)
        if len(key) == 2:
            _names(vs, key)
        else:
            require(vs.passed, "a scaled ratio is invisible to the direction-only variant")
        return f"{_verdict_digest(vc)}|{_verdict_digest(vs)}"

    return Op("nonmember", "", fn, check)


def _perturb(rng, x: np.ndarray, a, rotate: bool):
    """One direction pair rotated, or one ratio scaled, of a lifted point."""
    n, m = x.shape
    u = dict(a.u)
    d = dict(a.d)
    if rotate:
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        base = np.asarray(u[(i, j)])
        w = rng.normal(size=m)
        w -= float(w @ base) * base
        w /= float(np.linalg.norm(w))
        theta = rng.uniform(0.1, 0.5)
        new = math.cos(theta) * base + math.sin(theta) * w
        u[(i, j)], u[(j, i)] = new, -new
        key = (i, j)
    else:
        i, j, k = (int(v) + 1 for v in rng.choice(n, size=3, replace=False))
        factor = rng.uniform(1.2, 2.0)
        d[(i, j, k)] *= factor if rng.random() < 0.5 else 1.0 / factor
        key = (i, j, k)
    return cs.ambient_point(x, u, d), key


class MembershipMix(Workload):
    DECK_SECONDS = 0.75
    MIN_DECKS = 21
    name = "membership-mix"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def deck(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 2, index)
        ops = []
        for pos, (bucket, n, cls) in enumerate(MEMBERSHIP_LAYOUT):
            m = 2 + (pos + index) % 2
            if cls == "boundary":
                t = cs.tree_from_nested(random_hierarchy(rng, n, int(rng.integers(1, n))), n)
                seed = int(rng.integers(1 << 30))
                s = cs.stratum_sample(t, m, seed)
                zero = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
                op = _boundary_op(t, cs.expand_chart(zero))
                op.label = f"tree={t.parent} m={m} seed={seed}"
            else:
                x = sample_config(rng, n, m)
                a = cs.lift_configuration(x)
                if cls == "open":
                    op = _open_op(x, a)
                else:
                    a, key = _perturb(rng, x, a, rotate=(pos + index) % 2 == 0)
                    op = _nonmember_op(a, key)
                op.label = f"{cls} n={n} m={m} x={x.tolist()}"
            op.bucket = bucket
            ops.append(op)
        return ops

    @staticmethod
    def warmup(workdir: str):
        rng = np.random.default_rng(0)
        x = sample_config(rng, 4, 2)
        _open_op(x, cs.lift_configuration(x)).fn()


# -- tree-combinatorics ------------------------------------------------------------

TREE_CODIMS = {6: tuple(range(6)) * 6, 7: tuple(range(7)) * 5}
PLANAR_SIZES = (4, 5, 6, 7)
PLANAR_PER_SIZE = 14


def _digest_trees(trees) -> str:
    return f"{len(trees)}:{hash(tuple(t.parent for t in trees))}"


def _enumerate_op(n: int, variant: str) -> Op:
    def fn():
        return cs.enumerate_trees(n, variant)

    def check(res):
        want = tree_count(n, variant)
        require(len(res) == want, f"{variant} n={n}: {len(res)} trees, expected {want}")
        require(len({t.parent for t in res}) == len(res), f"{variant} n={n}: duplicate trees")
        for t in res:
            require(t.n == n, "tree with the wrong leaf count")
            root_valence = list(t.parent).count(0)
            if variant == "trunk":
                require(root_valence == 1, "trunk enumeration returned a multivalent root")
            elif variant == "planar":
                require(root_valence >= 2, "planar tree with a univalent root")
                for a in clusters(n, t.parent):
                    require(max(a) - min(a) + 1 == len(a), "planar tree with a non-interval cluster")
        return _digest_trees(res)

    bucket = "full7" if (n, variant) == (7, "full") else f"{variant}{n}"
    return Op("enumerate", bucket, fn, check)


def _face_poset_op(k: int) -> Op:
    def fn():
        return cs.face_poset(k)

    def check(res):
        want = kirkman_cayley(k)
        got = [0] * (k + 1)
        for d in res.dims:
            got[d] += 1
        require(tuple(got) == want, f"face_poset({k}) faces by dimension {got} != {want}")
        require(got[0] == catalan(k + 1), "vertex count is not Catalan")
        covers = sum(f * (k - d) for d, f in enumerate(want))
        require(len(res.covers) == covers, f"face_poset({k}) has {len(res.covers)} covers, expected {covers}")
        return f"{_digest_trees(res.faces)}:{hash(res.covers)}"

    return Op("face_poset", f"k{k}", fn, check)


def _f_vector_op(k: int) -> Op:
    def fn():
        return cs.f_vector(k)

    def check(res):
        require(tuple(res) == kirkman_cayley(k), f"f_vector({k}) = {res}")
        require(res[0] == catalan(k + 1), "vertex count is not Catalan")
        return repr(tuple(res))

    return Op("f_vector", f"k{k}", fn, check)


def _contract_op(t, v: int) -> Op:
    over = vertex_leaves(t.n, t.parent)

    def fn():
        low = cs.contract(t, [v])
        return low, cs.leq(t, low)

    def check(res):
        low, ok = res
        require(ok is True, "a contraction is not below the tree")
        want = clusters(t.n, t.parent) - {over[v]}
        require(clusters(low.n, low.parent) == want, "contraction removed the wrong cluster")
        return repr(low.parent)

    return Op("contract", f"n{t.n}", fn, check, label=f"tree={t.parent} v={v}")


def _prune_op(t, values: tuple[int, ...]) -> Op:
    k = len(values)

    def fn():
        return cs.prune(t, cs.SetMap(k, t.n, values))

    def check(res):
        require(res.n == k, "pruned tree has the wrong leaf count")
        sets = clusters(t.n, t.parent)
        full = exclusions(sets, t.n)
        want = frozenset(
            ((i, j), l)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            for l in range(1, k + 1)
            if len({i, j, l}) == 3 and ((values[i - 1], values[j - 1]), values[l - 1]) in full
        )
        got = clusters(k, res.parent)
        require(exclusions(got, k) == want, "pruning does not restrict the exclusion relation")
        trunk = any(set(values) <= a for a in sets)
        require((frozenset(range(1, k + 1)) in got) == trunk, "pruning lost or invented a trunk")
        return repr(res.parent)

    return Op("prune", f"n{t.n}", fn, check, label=f"tree={t.parent} map={values}")


def _exclusions_op(t) -> Op:
    trunk = list(t.parent).count(0) == 1  # univalent root

    def fn():
        rel = cs.exclusion_relation(t)
        return rel, cs.tree_from_exclusions(rel, t.n, trunk)

    def check(res):
        rel, back = res
        require(rel == exclusions(clusters(t.n, t.parent), t.n), "wrong exclusion relation")
        require(back.parent == t.parent, "exclusion round trip changed the tree")
        return repr(len(rel))

    return Op("exclusions", f"n{t.n}", fn, check, label=f"tree={t.parent}")


def _nested_op(t) -> Op:
    def fn():
        sets = cs.nested_collection(t)
        return sets, cs.tree_from_nested(sets, t.n)

    def check(res):
        sets, back = res
        require(sets == clusters(t.n, t.parent), "wrong nested collection")
        require(back.parent == t.parent, "nested round trip changed the tree")
        return repr(back.parent)

    return Op("nested", f"n{t.n}", fn, check, label=f"tree={t.parent}")


def _relabel_op(t, perm: tuple[int, ...]) -> Op:
    mapping = {i + 1: p for i, p in enumerate(perm)}

    def fn():
        return cs.relabel(t, mapping)

    def check(res):
        want = frozenset(frozenset(mapping[i] for i in a) for a in clusters(t.n, t.parent))
        require(clusters(res.n, res.parent) == want, "relabelling moved the wrong clusters")
        return repr(res.parent)

    return Op("relabel", f"n{t.n}", fn, check, label=f"tree={t.parent} perm={perm}")


def _realize_op(t) -> Op:
    def fn():
        return cs.stratum_tree(cs.realize_face(t))

    def check(res):
        require(res.parent == t.parent, "realized face classified to another tree")
        return repr(res.parent)

    return Op("realize", f"n{t.n}", fn, check, label=f"tree={t.parent}")


class TreeCombinatorics(Workload):
    DECK_SECONDS = 6.0
    PROLOGUE_SECONDS = 4.9
    MIN_DECKS = 2
    name = "tree-combinatorics"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def deck(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 3, index)
        ops = [_enumerate_op(7, "full")] if index == 0 else []
        ops += [_enumerate_op(6, "full"), _enumerate_op(6, "trunk")]
        ops += [_enumerate_op(n, "planar") for n in range(2, 10)]
        ops += [_face_poset_op(k) for k in range(7)]
        ops += [_f_vector_op(k) for k in range(7)]
        for n, codims in TREE_CODIMS.items():
            for c in codims:
                t = cs.tree_from_nested(random_hierarchy(rng, n, c), n)
                ops += [_contract_op(t, v) for v in range(n + 1, len(t.parent))]
                k = int(rng.integers(2, n))
                ops.append(_prune_op(t, tuple(int(v) + 1 for v in rng.permutation(n)[:k])))
                ops.append(_exclusions_op(t))
                ops.append(_nested_op(t))
                ops.append(_relabel_op(t, tuple(int(v) + 1 for v in rng.permutation(n))))
        for n in PLANAR_SIZES:
            for _ in range(PLANAR_PER_SIZE):
                c = int(rng.integers(0, n - 1))
                ops.append(_realize_op(cs.tree_from_nested(random_planar_hierarchy(rng, n, c), n)))
        return ops

    @staticmethod
    def warmup(workdir: str):
        for op in (_enumerate_op(4, "full"), _face_poset_op(2), _f_vector_op(2)):
            op.fn()


# -- cli-pipeline ------------------------------------------------------------------

CLI_OPEN_SIZES = (3, 4, 5, 6)
CLI_BOUNDARY_SIZES = (4, 6)
CLI_ALPHA_SIZES = (4, 7, 9, 12)
# eps**depth must stay far above double precision: at 1e-4 a tree of depth 4
# or more collapses its deepest cluster to rounding noise.
APPROX_EPS = 1e-2
KMAX = 40
MALFORMED_DEFECT = "schema-malformed JSON escapes cli.main as an uncaught exception"


def _call_main(argv: list[str]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _num(v) -> float:
    return float(v)  # "inf" and "-inf" parse through float()


def _ambient(data):
    """(x, u, d) from an ambient-point JSON object."""
    x = np.asarray(data["x"], dtype=float)
    u = {tuple(int(t) for t in k.split(",")): np.asarray(v, dtype=float) for k, v in data["u"].items()}
    d = {tuple(int(t) for t in k.split(",")): _num(v) for k, v in (data.get("d") or {}).items()}
    return x, u, d


def _tree_json(t) -> dict:
    return {
        "n": t.n,
        "parents": list(t.parent),
        "labels": [v if 1 <= v <= t.n else 0 for v in range(len(t.parent))],
    }


class _Item:
    """File names of one pipeline item inside the deck directory."""

    def __init__(self, root: str, name: str):
        self.root, self.name = root, name

    def __call__(self, suffix: str) -> str:
        return os.path.join(self.root, f"{self.name}_{suffix}")


def _cli_op(kind: str, bucket: str, argv: list[str], check, prep=None, label: str = "") -> Op:
    def fn():
        return _call_main(argv)

    def checked(res):
        code, err = res
        require(code == 0, f"{kind}: exit code {code}: {err.strip()[:200]}")
        return f"{code}:{check()}"

    return Op(kind, bucket, fn, checked, prep, label)


def _digest_file(path: str) -> str:
    return hashlib.sha1(_read_bytes(path)).hexdigest()


class CliPipeline(Workload):
    DECK_SECONDS = 0.80
    MIN_DECKS = 14
    name = "cli-pipeline"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def deck(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 4, index)
        root = os.path.join(self.workdir, "deck")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        ops: list[Op] = []
        chart_items = [(n, False) for n in CLI_OPEN_SIZES] + [(n, True) for n in CLI_BOUNDARY_SIZES]
        for pos, (n, boundary) in enumerate(chart_items):
            t = cs.tree_from_nested(random_hierarchy(rng, n, int(rng.integers(int(boundary), n))), n)
            ops += _chart_item(_Item(root, f"c{pos}"), rng, t, 2 + (pos + index) % 2, boundary)
        for pos, n in enumerate(CLI_ALPHA_SIZES):
            item = _Item(root, f"a{pos}")
            m = 2 + (pos + index) % 2
            points = sample_config(rng, n, m).tolist()
            _write(item("cfg.json"), {"m": m, "points": points})
            ops += _alpha_item(item, f"m={m} points={points}")
        ops += _malformed(_Item(root, "c0"), _Item(root, "a0"))
        return ops

    @staticmethod
    def warmup(workdir: str):
        rng = np.random.default_rng(0)
        t = cs.tree_from_nested([{1, 2}], 3)
        for op in _chart_item(_Item(workdir, "warm"), rng, t, 2, False):
            if op.prep is not None:
                op.prep()
            op.fn()


def _chart_item(p: _Item, rng, t, m: int, boundary: bool) -> list[Op]:
    """chart sample -> expand -> (invert -> expand) -> point membership ->
    classify -> project -> (simplicial project) -> simplicial reconstruct or
    approx -> maps project -> degenerate, on one tree.  Boundary items zero
    every scale before expanding."""
    bucket = "boundary" if boundary else "open"
    n = t.n
    seed = int(rng.integers(1 << 30))
    injection = tuple(int(v) + 1 for v in sorted(rng.permutation(n)[: int(rng.integers(1, n + 1))]))
    index_map = tuple(int(v) for v in rng.integers(1, n + 1, size=int(rng.integers(2, n + 2))))
    frames = [f / np.linalg.norm(f) for f in rng.normal(size=(n, m))]
    _write(p("tree.json"), _tree_json(t))
    sample, a = p("s.json"), p("a.json")
    src = p("s0.json") if boundary else sample
    ops: list[Op] = []

    def add(kind, argv, check, prep=None):
        ops.append(_cli_op(kind, bucket, argv, check, prep, f"tree={t.parent} m={m} seed={seed}"))

    def check_sample():
        s = _read(sample)
        require(s["tree"]["parents"] == list(t.parent), "sampled stratum for another tree")
        require(len(s["scales"]) == len(t.parent) - n - 1, "one scale per internal vertex")
        return _digest_file(sample)

    add("chart sample",
        ["chart", "sample", "--tree", p("tree.json"), "--m", str(m), "--seed", str(seed), "--out", sample],
        check_sample)

    def zero_scales():
        s = _read(sample)
        s["scales"] = {key: 0.0 for key in s["scales"]}
        _write(src, s)

    def check_expand():
        x, u, _ = _ambient(_read(a))
        if not boundary:
            err = direction_error(x, u)
            require(err <= 1e-8, f"expanded directions disagree with positions by {err:.3e}")
        return _digest_file(a)

    add("chart expand", ["chart", "expand", "--in", src, "--out", a], check_expand,
        zero_scales if boundary else None)

    def check_repeat():
        require(_read_bytes(p("a_again.json")) == _read_bytes(a), "repeated command changed its output")
        return _digest_file(a)

    add("chart expand", ["chart", "expand", "--in", src, "--out", p("a_again.json")], check_repeat)
    if not boundary:
        def check_invert():
            got = set(_read(p("s2.json"))["scales"])
            require(got == set(_read(sample)["scales"]), "inverted stratum lost a vertex")
            return _digest_file(p("s2.json"))

        add("chart invert", ["chart", "invert", "--tree", p("tree.json"), "--in", a, "--out", p("s2.json")],
            check_invert)

        def check_reexpand():
            gap = ambient_gap(*_ambient(_read(a)), *_ambient(_read(p("a2.json"))))
            require(gap <= 1e-8, f"cli chart round trip gap {gap:.3e} > 1e-8")
            return repr(gap)

        add("chart expand", ["chart", "expand", "--in", p("s2.json"), "--out", p("a2.json")], check_reexpand)

    def check_membership():
        v = _read(p("verdict.json"))
        require(v["pass"] is True, "chart point failed membership")
        return repr(v["max_residual"])

    add("point membership", ["point", "membership", "--in", a, "--out", p("verdict.json")], check_membership)

    want = list(t.parent) if boundary else [-1] + [0] * n

    def check_classify():
        got = _read(p("class.json"))["tree"]["parents"]
        require(got == want, "cli classified the point to the wrong stratum")
        return repr(got)

    tol = ["--tol", "1e-6"] if boundary else []
    add("point classify", ["point", "classify", "--in", a, "--out", p("class.json")] + tol, check_classify)

    def check_project():
        x, u, _ = _ambient(_read(a))
        px, pu, pd = _ambient(_read(p("proj.json")))
        require(not pd and np.array_equal(x, px), "projection changed the positions")
        require(u.keys() == pu.keys() and all(np.array_equal(u[k], pu[k]) for k in u),
                "projection changed the directions")
        return _digest_file(p("proj.json"))

    add("point project", ["point", "project", "--in", a, "--out", p("proj.json")], check_project)
    if boundary:
        def check_approx():
            pts = np.asarray(_read(p("approx.json"))["points"], dtype=float)
            err = direction_error(pts, _ambient(_read(p("proj.json")))[1])
            require(err <= 30 * APPROX_EPS, f"approximating directions off by {err:.3e} at eps {APPROX_EPS}")
            return repr(err)

        add("simplicial approx",
            ["simplicial", "approx", "--in", p("proj.json"), "--eps", repr(APPROX_EPS), "--out", p("approx.json")],
            check_approx)
    else:
        def add_frames():
            data = _read(p("proj.json"))
            data["frames"] = [f.tolist() for f in frames]
            _write(p("framed.json"), data)

        def check_pullback():
            x, u, _ = _ambient(_read(p("proj.json")))
            out = _read(p("pulled.json"))
            qx, qu, _ = _ambient(out)
            sig = {j + 1: v for j, v in enumerate(index_map)}
            require(np.array_equal(qx, x[[v - 1 for v in index_map]]), "pullback picked the wrong positions")
            for (i, j), vec in qu.items():
                if sig[i] != sig[j]:
                    require(np.array_equal(vec, u[(sig[i], sig[j])]), "pullback picked the wrong direction")
                else:
                    frame = frames[sig[i] - 1] * (1.0 if i < j else -1.0)
                    require(float(np.abs(vec - frame).max()) <= 1e-12, "collapsed pair not along its frame")
            k = len(index_map)
            require(len(qu) == k * (k - 1) and len(out["frames"]) == k, "pullback lost an index")
            return _digest_file(p("pulled.json"))

        add("simplicial project",
            ["simplicial", "project", "--in", p("framed.json"), "--map", ",".join(map(str, index_map)),
             "--out", p("pulled.json")],
            check_pullback, add_frames)

        def check_reconstruct():
            pts = np.asarray(_read(p("recon.json"))["points"], dtype=float)
            err = direction_error(pts, _ambient(_read(p("proj.json")))[1])
            require(err <= 1e-8, f"reconstruction direction error {err:.3e} > 1e-8")
            return repr(err)

        add("simplicial reconstruct", ["simplicial", "reconstruct", "--in", p("proj.json"), "--out", p("recon.json")],
            check_reconstruct)

    def check_maps_project():
        x, u, d = _ambient(_read(a))
        qx, qu, qd = _ambient(_read(p("sub.json")))
        sig = {j + 1: v for j, v in enumerate(injection)}
        k = len(injection)
        require(np.array_equal(qx, x[[v - 1 for v in injection]]), "maps project picked the wrong positions")
        require(len(qu) == k * (k - 1) and all(np.array_equal(vec, u[(sig[i], sig[j])]) for (i, j), vec in qu.items()),
                "maps project picked the wrong directions")
        require(len(qd) == k * (k - 1) * (k - 2) and all(val == d[(sig[i], sig[j], sig[l])] for (i, j, l), val in qd.items()),
                "maps project picked the wrong ratios")
        return _digest_file(p("sub.json"))

    add("maps project",
        ["maps", "project", "--in", a, "--map", ",".join(map(str, injection)), "--out", p("sub.json")],
        check_maps_project)

    def check_degenerate():
        with open(p("traj.csv")) as fh:
            lines = fh.read().splitlines()
        require(len(lines) == KMAX + 2, f"trajectory has {len(lines)} lines")
        start = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
        x, u, d = _ambient(_read(a))
        ref_x = np.array([[start[f"x_{i + 1}_{c}"] for c in range(m)] for i in range(n)])
        ref_u = {key: np.array([start[f"u_{key[0]}_{key[1]}_{c}"] for c in range(m)]) for key in u}
        ref_d = {key: start["d_{}_{}_{}".format(*key)] for key in d}
        gap = ambient_gap(x, u, d, ref_x, ref_u, ref_d)
        require(gap <= 1e-12, f"trajectory starts {gap:.3e} away from the expanded point")
        return _digest_file(p("traj.csv"))

    add("degenerate", ["degenerate", "--in", src, "--kmax", str(KMAX), "--out", p("traj.csv")], check_degenerate)
    return ops


def _alpha_item(p: _Item, label: str) -> list[Op]:
    """point alpha -> point membership on a seed-drawn configuration."""

    def check_alpha():
        pts = np.asarray(_read(p("cfg.json"))["points"], dtype=float)
        x, u, d = _ambient(_read(p("a.json")))
        require(np.array_equal(x, pts), "alpha moved the positions")
        err = direction_error(x, u)
        require(err <= 1e-12, f"alpha directions off by {err:.3e}")
        dist = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        worst = max(abs(val - dist[i - 1, j - 1] / dist[i - 1, k - 1]) / val for (i, j, k), val in d.items())
        require(worst <= 1e-12, f"alpha ratios off by {worst:.3e}")
        return _digest_file(p("a.json"))

    def check_membership():
        v = _read(p("verdict.json"))
        require(v["pass"] is True, "lifted configuration failed membership")
        return repr(v["max_residual"])

    return [
        _cli_op("point alpha", "alpha", ["point", "alpha", "--in", p("cfg.json"), "--out", p("a.json")],
                check_alpha, label=label),
        _cli_op("point membership", "alpha", ["point", "membership", "--in", p("a.json"), "--out", p("verdict.json")],
                check_membership, label=label),
    ]


def _malformed(chart: _Item, alpha: _Item) -> list[Op]:
    """Schema-malformed inputs: wrong types or missing keys.  The documented
    outcome is exit 1 with a JSON error object on stderr."""
    cases = [
        ("point membership", alpha("a.json"), "u", "oops"),
        ("point membership", alpha("a.json"), "x", None),
        ("chart expand", chart("s.json"), "scales", "oops"),
        ("point alpha", alpha("cfg.json"), "points", "oops"),
    ]
    ops = []
    for pos, (cmd, src, key, value) in enumerate(cases):
        bad = alpha(f"bad{pos}.json")

        def prep(src=src, bad=bad, key=key, value=value):
            data = _read(src)
            if value is None:
                del data[key]
            else:
                data[key] = value
            _write(bad, data)

        def fn(argv=cmd.split() + ["--in", bad, "--out", alpha(f"bad{pos}_out.json")]):
            return _call_main(argv)

        def check(res):
            code, err = res
            require(code == 1, f"malformed input gave exit code {code}, expected 1")
            try:
                obj = json.loads(err)
            except ValueError:
                raise CheckFailed("malformed input did not produce a JSON error object") from None
            require(isinstance(obj, dict) and "error" in obj and "message" in obj, "error object lacks error/message")
            return f"{code}:{obj['error']}"

        ops.append(Op(f"malformed {cmd}", "malformed", fn, check, prep,
                      label=f"{key}={value!r} in {os.path.basename(src)}", known_defect=MALFORMED_DEFECT))
    return ops


WORKLOADS = {
    w.name: w for w in (ChartRoundtrip, MembershipMix, TreeCombinatorics, CliPipeline)
}
