"""Batch command line front end.

One subcommand per construction; file based JSON/DOT/CSV input and output.
Exit codes: 0 on success, 1 on a domain error (a machine-readable error
object goes to stderr) or a failing membership verdict, 2 on usage errors.
All outputs are deterministic given the inputs and the seed.
The argument parser is built once per process and reused by every `main`
call; each parse returns a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import associahedron, canonical, jsonio, maps, simplicial, trees

# Each public operation is owned by exactly one subcommand, whose handler calls
# it (directly or as part of its pipeline); the coverage test traces one call
# per subcommand and checks every listed operation against this table.
COMMAND_OPS = {
    "trees enumerate": (trees.enumerate_trees,),
    "trees contract": (trees.contract, trees.nested_collection, trees.tree_from_nested),
    "trees prune": (trees.prune,),
    "trees poset": (trees.covering_pairs, trees.codim),
    "point alpha": (canonical.lift_configuration, canonical.normalize),
    "point classify": (canonical.stratum_tree, trees.exclusion_relation, trees.tree_from_exclusions),
    "point membership": (canonical.membership_canonical,),
    "point project": (simplicial.to_simplicial,),
    "point permute": (canonical.permute,),
    "chart expand": (canonical.expand_chart,),
    "chart invert": (canonical.invert_chart, trees.leq),
    "chart sample": (canonical.stratum_sample,),
    "simplicial project": (maps.pullback,),
    "simplicial membership": (simplicial.membership_simplicial,),
    "simplicial reconstruct": (simplicial.reconstruct_from_directions,),
    "simplicial approx": (simplicial.approximating_configuration, simplicial.stratum_tree_of_directions),
    "simplicial residuals": (simplicial.four_consistency_residual,),
    "maps project": (maps.project_indices,),
    "maps diagonal": (maps.diagonal_map,),
    "maps cosimplicial": (maps.cosimplicial_map,),
    "assoc faces": (associahedron.face_poset,),
    "assoc fvector": (associahedron.f_vector,),
    "assoc realize": (associahedron.realize_face,),
    "degenerate": (),
}

PUBLIC_OPERATIONS = frozenset(
    op for ops in COMMAND_OPS.values() for op in ops
)


def _read_json(path: str):
    return jsonio.loads(Path(path).read_text())


def _n_arg(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    return args.n


def _setmap_arg(value: str, codomain: int | None = None) -> trees.SetMap:
    if set(value) <= set("0123456789,"):
        vals = tuple(int(t) for t in value.split(","))
        return trees.SetMap(len(vals), codomain or max(vals), vals)
    return jsonio.setmap_from_json(_read_json(value))


def _manifold(kind: str, m: int):
    if kind == "sphere":
        return canonical.Sphere(m - 1)
    return canonical.Euclidean(m)


def _add_common(p: argparse.ArgumentParser, fmt_default: str = "json"):
    p.add_argument("--in", dest="infile", help="input JSON file")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "dot", "csv"], default=fmt_default)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--variant")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="confspace", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    g = groups.add_parser("trees").add_subparsers(dest="verb", required=True)
    _add_common(g.add_parser("enumerate"))
    p = g.add_parser("contract")
    _add_common(p)
    p.add_argument("--edges", required=True, help='leaf sets, e.g. "1,2|1,2,3"')
    p = g.add_parser("prune")
    _add_common(p)
    p.add_argument("--map", required=True, help="SetMap JSON file or inline values")
    _add_common(g.add_parser("poset"))

    g = groups.add_parser("point").add_subparsers(dest="verb", required=True)
    p = g.add_parser("alpha")
    _add_common(p)
    p.add_argument("--normalize", action="store_true")
    _add_common(g.add_parser("classify"))
    p = g.add_parser("membership")
    _add_common(p)
    p.add_argument("--manifold", choices=["euclidean", "sphere"], default="euclidean")
    _add_common(g.add_parser("project"))
    p = g.add_parser("permute")
    _add_common(p)
    p.add_argument("--map", required=True)

    g = groups.add_parser("chart").add_subparsers(dest="verb", required=True)
    _add_common(g.add_parser("expand"))
    p = g.add_parser("invert")
    _add_common(p)
    p.add_argument("--tree", required=True, help="tree JSON file")
    p = g.add_parser("sample")
    _add_common(p)
    p.add_argument("--tree", required=True, help="tree JSON file")

    g = groups.add_parser("simplicial").add_subparsers(dest="verb", required=True)
    p = g.add_parser("project")
    _add_common(p)
    p.add_argument("--map", required=True)
    p = g.add_parser("membership")
    _add_common(p)
    p.add_argument("--manifold", choices=["euclidean", "sphere"], default="euclidean")
    _add_common(g.add_parser("reconstruct"))
    p = g.add_parser("approx")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    _add_common(g.add_parser("residuals"), fmt_default="csv")

    g = groups.add_parser("maps").add_subparsers(dest="verb", required=True)
    p = g.add_parser("project")
    _add_common(p)
    p.add_argument("--map", required=True)
    p = g.add_parser("diagonal")
    _add_common(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--assoc", help="interval parameter JSON file")
    p = g.add_parser("cosimplicial")
    _add_common(p)
    p.add_argument("--map", required=True, help='monotone values, e.g. "0,1,1"')

    g = groups.add_parser("assoc").add_subparsers(dest="verb", required=True)
    _add_common(g.add_parser("faces"))
    _add_common(g.add_parser("fvector"), fmt_default="csv")
    p = g.add_parser("realize")
    _add_common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--params", help="JSON file of per-vertex parameters")

    p = groups.add_parser("degenerate")
    _add_common(p, fmt_default="csv")
    p.add_argument("--kmax", type=int, default=40)
    return top


# -- handlers -------------------------------------------------------------------


def _trees_enumerate(args):
    out = trees.enumerate_trees(_n_arg(args), args.variant or "full")
    if args.format == "dot":
        return "\n".join(trees.tree_to_dot(t, f"tree{i}") for i, t in enumerate(out))
    return jsonio.dumps([jsonio.tree_to_json(t) for t in out])


def _trees_contract(args):
    t = jsonio.tree_from_json(_read_json(args.infile))
    edges = []
    for part in args.edges.split("|"):
        labels = [int(x) for x in part.split(",")]
        v = t.vertex_over(labels)
        if v is None or v <= t.n:
            raise ValueError(f"no internal vertex over leaves {part}")
        edges.append(v)
    result = trees.contract(t, edges)
    if args.format == "dot":
        return trees.tree_to_dot(result)
    return jsonio.dumps(jsonio.tree_to_json(result))


def _trees_prune(args):
    t = jsonio.tree_from_json(_read_json(args.infile))
    result = trees.prune(t, _setmap_arg(args.map))
    if args.format == "dot":
        return trees.tree_to_dot(result)
    return jsonio.dumps(jsonio.tree_to_json(result))


def _trees_poset(args):
    out = trees.enumerate_trees(_n_arg(args), args.variant or "full")
    if args.format == "dot":
        return trees.hasse_to_dot(out)
    nodes = [
        {"tree": jsonio.tree_to_json(t), "codim": trees.codim(t)} for t in out
    ]
    edges = [list(pair) for pair in trees.covering_pairs(out)]
    return jsonio.dumps({"n": args.n, "trees": nodes, "covers": edges})


def _point_alpha(args):
    c = jsonio.config_from_json(_read_json(args.infile))
    if args.normalize:
        c = canonical.normalize(c)
    return jsonio.dumps(jsonio.ambient_to_json(canonical.lift_configuration(c)))


def _point_classify(args):
    a = jsonio.ambient_from_json(_read_json(args.infile))
    t = canonical.stratum_tree(a, args.tol)
    exclusions = sorted(trees.exclusion_relation(t))
    return jsonio.dumps(
        {
            "tree": jsonio.tree_to_json(t),
            "exclusions": [[list(pair), k] for pair, k in exclusions],
            "trunk": t.has_trunk,
        }
    )


def _point_membership(args):
    data = _read_json(args.infile)
    variant = args.variant or ("canonical" if isinstance(data, dict) and "d" in data else "simplicial")
    if variant == "canonical":
        a = jsonio.ambient_from_json(data)
        verdict = canonical.membership_canonical(a, _manifold(args.manifold, a.m), args.tol)
    elif variant == "simplicial":
        p = jsonio.simplicial_from_json(data)
        verdict = simplicial.membership_simplicial(p, _manifold(args.manifold, p.m), args.tol)
    else:
        raise ValueError(f"unknown membership variant {variant!r}")
    return jsonio.dumps(jsonio.verdict_to_json(verdict)), (0 if verdict.passed else 1)


def _point_project(args):
    a = jsonio.ambient_from_json(_read_json(args.infile))
    return jsonio.dumps(jsonio.simplicial_to_json(simplicial.to_simplicial(a)))


def _point_permute(args):
    a = jsonio.ambient_from_json(_read_json(args.infile))
    sm = _setmap_arg(args.map, codomain=a.n)
    return jsonio.dumps(jsonio.ambient_to_json(canonical.permute(sm.values, a)))


def _chart_expand(args):
    s = jsonio.stratum_from_json(_read_json(args.infile))
    return jsonio.dumps(jsonio.ambient_to_json(canonical.expand_chart(s)))


def _chart_invert(args):
    t = jsonio.tree_from_json(_read_json(args.tree))
    a = jsonio.ambient_from_json(_read_json(args.infile))
    return jsonio.dumps(jsonio.stratum_to_json(canonical.invert_chart(t, a, args.tol)))


def _chart_sample(args):
    t = jsonio.tree_from_json(_read_json(args.tree))
    s = canonical.stratum_sample(t, args.m or 2, args.seed)
    return jsonio.dumps(jsonio.stratum_to_json(s))


def _simplicial_project(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    out = maps.pullback(_setmap_arg(args.map, codomain=fp.n), fp)
    return jsonio.dumps(jsonio.framed_to_json(out))


def _simplicial_membership(args):
    p = jsonio.simplicial_from_json(_read_json(args.infile))
    verdict = simplicial.membership_simplicial(p, _manifold(args.manifold, p.m), args.tol)
    return jsonio.dumps(jsonio.verdict_to_json(verdict)), (0 if verdict.passed else 1)


def _simplicial_reconstruct(args):
    p = jsonio.simplicial_from_json(_read_json(args.infile))
    c = simplicial.reconstruct_from_directions(p.u, args.tol)
    return jsonio.dumps(jsonio.config_to_json(c))


def _simplicial_approx(args):
    p = jsonio.simplicial_from_json(_read_json(args.infile))
    c = simplicial.approximating_configuration(p, args.eps, args.tol)
    return jsonio.dumps(jsonio.config_to_json(c))


def _simplicial_residuals(args):
    p = jsonio.simplicial_from_json(_read_json(args.infile))
    import itertools

    rows = []
    basis = np.eye(p.m)
    for quad in itertools.combinations(range(1, p.n + 1), 4):
        sub = {(i, j): p.U[i - 1, j - 1] for i, j in itertools.permutations(quad, 2)}
        for a in range(p.m):
            for b in range(p.m):
                res = simplicial.four_consistency_residual(sub, basis[a], basis[b])
                rows.append((quad, a + 1, b + 1, res))
    if args.format == "json":
        return jsonio.dumps(
            [
                {"subset": list(q), "v": a, "w": b, "residual": r}
                for q, a, b, r in rows
            ]
        )
    return jsonio.residuals_csv(rows)


def _maps_project(args):
    data = _read_json(args.infile)
    point = jsonio.point_from_json(data)
    out = maps.project_indices(_setmap_arg(args.map, codomain=point.n), point)
    if isinstance(out, maps.FramedPoint):
        return jsonio.dumps(jsonio.framed_to_json(out))
    if isinstance(out, canonical.AmbientPoint):
        return jsonio.dumps(jsonio.ambient_to_json(out))
    return jsonio.dumps(jsonio.simplicial_to_json(out))


def _maps_diagonal(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    assoc = jsonio.ambient_from_json(_read_json(args.assoc)) if args.assoc else None
    out = maps.diagonal_map(fp, args.index, args.k, assoc, args.tol)
    return jsonio.dumps(jsonio.framed_to_json(out))


def _maps_cosimplicial(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    sigma = [int(t) for t in args.map.split(",")]
    if args.m is None:
        raise ValueError("--m (the target level) is required")
    out = maps.cosimplicial_map(fp, sigma, args.m, args.tol)
    return jsonio.dumps(jsonio.framed_to_json(out))


def _assoc_faces(args):
    poset = associahedron.face_poset(_n_arg(args))
    if args.format == "dot":
        return associahedron.face_poset_to_dot(poset)
    return jsonio.dumps(jsonio.face_poset_to_json(poset))


def _assoc_fvector(args):
    counts = associahedron.f_vector(_n_arg(args))
    if args.format == "json":
        return jsonio.dumps({"n": args.n, "f_vector": list(counts)})
    return jsonio.fvector_csv(counts)


def _assoc_realize(args):
    t = jsonio.tree_from_json(_read_json(args.tree))
    params = None
    if args.params:
        raw = jsonio._object(_read_json(args.params), "params")
        params = {}
        for key, vals in raw.items():
            if key == "root":
                params[0] = vals
            else:
                labels = [int(x) for x in key.split(",")]
                v = t.vertex_over(labels)
                if v is None:
                    raise ValueError(f"no vertex over leaves {key}")
                params[v] = vals
    return jsonio.dumps(jsonio.ambient_to_json(associahedron.realize_face(t, params)))


def _degenerate(args):
    # 2.0 ** -1075 rounds to 0: every row past k = 1074 would repeat the last
    if not 0 <= args.kmax <= 1074:
        raise ValueError(f"--kmax must lie in 0..1074, got {args.kmax}")
    s = jsonio.stratum_from_json(_read_json(args.infile))
    n, m = s.tree.n, s.m
    t = canonical._tables(n)
    header = ["k", "factor", *(f"x_{i}_{c}" for i in range(1, n + 1) for c in range(m))]
    header += [f"u_{i}_{j}_{c}" for i, j in t.pair_index for c in range(m)]
    header += [f"d_{i}_{j}_{k}" for i, j, k in t.triple_index]
    factors = [2.0 ** (-k) for k in range(args.kmax + 1)]
    x, U, D = canonical._expand(s, factors)
    (i, j), (a, b, c) = t.pairs.T, t.triples.T
    coords = np.hstack([x.reshape(len(x), -1), U[:, i, j].reshape(len(x), -1), D[:, a, b, c]])
    rows = [[k, factor, *row] for k, (factor, row) in enumerate(zip(factors, coords.tolist()))]
    return jsonio.trajectory_csv(header, rows)


_HANDLERS = {
    "trees enumerate": _trees_enumerate,
    "trees contract": _trees_contract,
    "trees prune": _trees_prune,
    "trees poset": _trees_poset,
    "point alpha": _point_alpha,
    "point classify": _point_classify,
    "point membership": _point_membership,
    "point project": _point_project,
    "point permute": _point_permute,
    "chart expand": _chart_expand,
    "chart invert": _chart_invert,
    "chart sample": _chart_sample,
    "simplicial project": _simplicial_project,
    "simplicial membership": _simplicial_membership,
    "simplicial reconstruct": _simplicial_reconstruct,
    "simplicial approx": _simplicial_approx,
    "simplicial residuals": _simplicial_residuals,
    "maps project": _maps_project,
    "maps diagonal": _maps_diagonal,
    "maps cosimplicial": _maps_cosimplicial,
    "assoc faces": _assoc_faces,
    "assoc fvector": _assoc_fvector,
    "assoc realize": _assoc_realize,
    "degenerate": _degenerate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = args.group if args.group == "degenerate" else f"{args.group} {args.verb}"
    if args.tol <= 0:
        print('{"error": "usage", "message": "tolerance must be positive"}', file=sys.stderr)
        return 2
    try:
        result = _HANDLERS[key](args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        err = jsonio.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(err, file=sys.stderr, end="")
        return 1
    text, code = result if isinstance(result, tuple) else (result, 0)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
