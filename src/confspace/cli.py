"""Batch command line front end.

One subcommand per construction; file based JSON/DOT/CSV input and output.
Exit codes: 0 on success, 1 on a domain error (a machine-readable error
object goes to stderr) or a failing membership verdict, 2 on usage errors.
All outputs are deterministic given the inputs and the seed.

`COMMANDS` is the one registry of subcommands: each row names the handler,
the public operations it owns and the options it reads, and the parser is
built from those rows alone, so a flag a subcommand does not read is a usage
error. The argument parser is built once per process and reused by every
`main` call; each parse returns a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import associahedron, canonical, jsonio, maps, simplicial, trees


def _read_json(path: str):
    return jsonio.loads(Path(path).read_text())


def _n_arg(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    return args.n


def _setmap_arg(value: str, codomain: int) -> trees.SetMap:
    if set(value) <= set("0123456789, "):
        vals = jsonio.labels_from_text(value, "--map")
        return trees.SetMap(len(vals), codomain, vals)
    return jsonio.setmap_from_json(_read_json(value))


def _manifold(kind: str, m: int):
    if kind == "sphere":
        return canonical.Sphere(m - 1)
    return canonical.Euclidean(m)

# -- handlers -------------------------------------------------------------------


def _trees_enumerate(args):
    out = trees.enumerate_trees(_n_arg(args), args.variant)
    if args.format == "dot":
        return "\n".join(trees.tree_to_dot(t, f"tree{i}") for i, t in enumerate(out))
    return jsonio.dumps([jsonio.tree_to_json(t) for t in out])


def _trees_contract(args):
    t = jsonio.tree_from_json(_read_json(args.infile))
    result = trees.contract(t, jsonio.vertices_from_keys(t, args.edges.split("|"), "--edges"))
    if args.format == "dot":
        return trees.tree_to_dot(result)
    return jsonio.dumps(jsonio.tree_to_json(result))


def _trees_prune(args):
    t = jsonio.tree_from_json(_read_json(args.infile))
    result = trees.prune(t, _setmap_arg(args.map, t.n))
    if args.format == "dot":
        return trees.tree_to_dot(result)
    return jsonio.dumps(jsonio.tree_to_json(result))


def _trees_poset(args):
    out = trees.enumerate_trees(_n_arg(args), args.variant)
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
    else:
        p = jsonio.simplicial_from_json(data)
        verdict = simplicial.membership_simplicial(p, _manifold(args.manifold, p.m), args.tol)
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
    s = canonical.stratum_sample(t, args.m, args.seed)
    return jsonio.dumps(jsonio.stratum_to_json(s))


def _simplicial_project(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    out = maps.pullback(_setmap_arg(args.map, codomain=fp.n), fp)
    return jsonio.dumps(jsonio.framed_to_json(out))


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
    quads, res, _ = simplicial._basis_residuals(p.U)
    rows = [
        (quad, a, b, r)
        for quad, table in zip((quads + 1).tolist(), res.tolist())
        for a, line in enumerate(table, 1)
        for b, r in enumerate(line, 1)
    ]
    if args.format == "json":
        return jsonio.dumps([{"subset": q, "v": a, "w": b, "residual": r} for q, a, b, r in rows])
    return jsonio.residuals_csv(rows)


def _maps_project(args):
    point = jsonio.point_from_json(_read_json(args.infile))
    out = maps.project_indices(_setmap_arg(args.map, codomain=point.n), point)
    return jsonio.dumps(jsonio.point_to_json(out))


def _maps_diagonal(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    assoc = jsonio.ambient_from_json(_read_json(args.assoc)) if args.assoc else None
    out = maps.diagonal_map(fp, args.index, args.k, assoc, args.tol)
    return jsonio.dumps(jsonio.framed_to_json(out))


def _maps_cosimplicial(args):
    fp = jsonio.framed_from_json(_read_json(args.infile))
    if args.m is None:
        raise ValueError("--m (the target level) is required")
    out = maps.cosimplicial_map(fp, jsonio.labels_from_text(args.map, "--map"), args.m, args.tol)
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
    params = args.params and jsonio.vertex_values(t, _read_json(args.params), "params", root=True)
    return jsonio.dumps(jsonio.ambient_to_json(associahedron.realize_face(t, params)))


def _degenerate(args):
    # 2.0 ** -1075 rounds to 0: every row past k = 1074 would repeat the last
    if not 0 <= args.kmax <= 1074:
        raise ValueError(f"--kmax must lie in 0..1074, got {args.kmax}")
    s = jsonio.stratum_from_json(_read_json(args.infile))
    n, m = s.tree.n, s.m
    t = canonical._tables(n)
    header = ["k", "factor", *(f"x_{i}_{c}" for i in range(1, n + 1) for c in range(m))]
    header += [f"u_{i}_{j}_{c}" for i, j in canonical._Labels(n, 2) for c in range(m)]
    header += [f"d_{i}_{j}_{k}" for i, j, k in canonical._Labels(n, 3)]
    factors = [2.0 ** (-k) for k in range(args.kmax + 1)]
    x, U, D = canonical._expand(s, factors)
    (i, j), (a, b, c) = t.pairs.T, t.triples.T
    coords = np.hstack([x.reshape(len(x), -1), U[:, i, j].reshape(len(x), -1), D[:, a, b, c]])
    return jsonio.trajectory_csv(header, factors, coords)


# -- the registry ---------------------------------------------------------------


class Command(NamedTuple):
    handler: Callable  # args -> text, or (text, exit code)
    ops: tuple  # the public operations it owns: a call of it runs each one
    options: tuple  # (flag, add_argument keywords) of every option it reads
    fixed: dict = {}  # namespace values set without an option


def _opt(flag: str, **kwargs):
    return flag, kwargs


def _format(*choices: str):
    """--format over the formats a subcommand writes, its default first."""
    return _opt("--format", choices=choices, default=choices[0])


_IN = _opt("--in", dest="infile", required=True, help="input JSON file")
_TOL = _opt("--tol", type=float, default=canonical.DEFAULT_TOL)
_N = _opt("--n", type=int)
_M = _opt("--m", type=int)
_VARIANT = _opt("--variant", choices=("full", "trunk", "planar"), default="full")
_MAP = _opt("--map", required=True, help="SetMap JSON file or inline values")
_TREE = _opt("--tree", required=True, help="tree JSON file")
_MANIFOLD = _opt("--manifold", choices=["euclidean", "sphere"], default="euclidean")
_JSON_DOT = _format("json", "dot")
_CSV_JSON = _format("csv", "json")

COMMANDS = {
    "trees enumerate": Command(
        _trees_enumerate, (trees.enumerate_trees,), (_N, _VARIANT, _JSON_DOT)
    ),
    "trees contract": Command(
        _trees_contract,
        (trees.contract, trees.nested_collection, trees.tree_from_nested),
        (_IN, _opt("--edges", required=True, help='leaf sets, e.g. "1,2|1,2,3"'), _JSON_DOT),
    ),
    "trees prune": Command(_trees_prune, (trees.prune,), (_IN, _MAP, _JSON_DOT)),
    "trees poset": Command(
        _trees_poset, (trees.covering_pairs, trees.codim), (_N, _VARIANT, _JSON_DOT)
    ),
    "point alpha": Command(
        _point_alpha,
        (canonical.lift_configuration, canonical.normalize),
        (_IN, _opt("--normalize", action="store_true")),
    ),
    "point classify": Command(
        _point_classify,
        (canonical.stratum_tree, trees.exclusion_relation, trees.tree_from_exclusions),
        (_IN, _TOL),
    ),
    "point membership": Command(
        _point_membership,
        (canonical.membership_canonical,),
        (_IN, _opt("--variant", choices=["canonical", "simplicial"]), _MANIFOLD, _TOL),
    ),
    "point project": Command(_point_project, (simplicial.to_simplicial,), (_IN,)),
    "point permute": Command(_point_permute, (canonical.permute,), (_IN, _MAP)),
    "chart expand": Command(_chart_expand, (canonical.expand_chart,), (_IN,)),
    "chart invert": Command(_chart_invert, (canonical.invert_chart,), (_TREE, _IN, _TOL)),
    "chart sample": Command(
        _chart_sample,
        (canonical.stratum_sample,),
        (_TREE, _opt("--m", type=int, default=2), _opt("--seed", type=int, default=0)),
    ),
    "simplicial project": Command(_simplicial_project, (maps.pullback,), (_IN, _MAP)),
    "simplicial membership": Command(
        _point_membership,
        (simplicial.membership_simplicial,),
        (_IN, _MANIFOLD, _TOL),
        {"variant": "simplicial"},
    ),
    "simplicial reconstruct": Command(
        _simplicial_reconstruct, (simplicial.reconstruct_from_directions,), (_IN, _TOL)
    ),
    "simplicial approx": Command(
        _simplicial_approx,
        (simplicial.approximating_configuration, simplicial.stratum_tree_of_directions),
        (_IN, _opt("--eps", type=float, required=True), _TOL),
    ),
    "simplicial residuals": Command(_simplicial_residuals, (), (_IN, _CSV_JSON)),
    "maps project": Command(_maps_project, (maps.project_indices,), (_IN, _MAP)),
    "maps diagonal": Command(
        _maps_diagonal,
        (maps.diagonal_map,),
        (
            _IN,
            _opt("--index", type=int, required=True),
            _opt("--k", type=int, default=1),
            _opt("--assoc", help="interval parameter JSON file"),
            _TOL,
        ),
    ),
    "maps cosimplicial": Command(
        _maps_cosimplicial,
        (maps.cosimplicial_map,),
        (_IN, _opt("--map", required=True, help='monotone values, e.g. "0,1,1"'), _M, _TOL),
    ),
    "assoc faces": Command(_assoc_faces, (associahedron.face_poset,), (_N, _JSON_DOT)),
    "assoc fvector": Command(_assoc_fvector, (associahedron.f_vector,), (_N, _CSV_JSON)),
    "assoc realize": Command(
        _assoc_realize,
        (associahedron.realize_face,),
        (_TREE, _opt("--params", help="JSON file of per-vertex parameters")),
    ),
    "degenerate": Command(_degenerate, (), (_IN, _opt("--kmax", type=int, default=40))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="confspace", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    verbs = {}
    for name, cmd in COMMANDS.items():
        group, _, verb = name.partition(" ")
        if not verb:
            p = groups.add_parser(group)
        else:
            if group not in verbs:
                verbs[group] = groups.add_parser(group).add_subparsers(dest="verb", required=True)
            p = verbs[group].add_parser(verb)
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(handler=cmd.handler, **cmd.fixed)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0 < getattr(args, "tol", 1.0) < np.inf:  # only a subcommand that reads --tol has one
        print('{"error": "usage", "message": "tolerance must be finite and positive"}', file=sys.stderr)
        return 2
    try:
        result = args.handler(args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        err = jsonio.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(err, file=sys.stderr, end="")
        return 1
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
