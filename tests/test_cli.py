"""Command line front end: coverage, determinism, exit codes, pipelines."""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confspace as cs
from confspace import cli, jsonio, trees
from helpers import degenerate_csv, sample_config


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- registry coverage -----------------------------------------------------------


def _one_call_per_subcommand(tmp_path):
    """argv of one successful call of every subcommand, over files in tmp_path."""

    def put(name, obj):
        path = tmp_path / name
        path.write_text(jsonio.dumps(obj))
        return str(path)

    rng = np.random.default_rng(2)
    a = cs.lift_configuration(sample_config(rng, 4, 2))
    frames = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 2))]
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    s = cs.stratum_sample(t, 2, seed=3)
    xs = [0.0, 0.4, 1.0]
    interval = cs.simplicial_point(
        np.array(xs).reshape(-1, 1),
        {
            (i, j): np.array([1.0 if xs[i - 1] > xs[j - 1] else -1.0])
            for i in range(1, 4) for j in range(1, 4) if i != j
        },
    )
    cfg = put("cfg.json", {"m": 2, "points": [[0, 0], [1, 0], [0.2, 0.9]]})
    tree = put("tree.json", jsonio.tree_to_json(t))
    pt = put("pt.json", jsonio.ambient_to_json(a))
    sp = put("sp.json", jsonio.simplicial_to_json(cs.to_simplicial(a)))
    fp = put("fp.json", jsonio.framed_to_json(cs.framed_point(a, frames)))
    fs = put("fs.json", jsonio.framed_to_json(cs.framed_point(cs.to_simplicial(a), frames)))
    ip = put("ip.json", jsonio.framed_to_json(
        cs.framed_point(interval, [np.array([1.0]), np.array([1.0]), np.array([-1.0])])
    ))
    st = put("s.json", jsonio.stratum_to_json(s))
    ex = put("a.json", jsonio.ambient_to_json(cs.expand_chart(s)))
    sm = put("sm.json", {"m": 3, "n": 4, "map": [1, 2, 3]})
    corolla = put("corolla.json", jsonio.tree_to_json(cs.corolla(4)))
    return {
        "trees enumerate": ["trees", "enumerate", "--n", "3"],
        "trees contract": ["trees", "contract", "--in", tree, "--edges", "1,2"],
        "trees prune": ["trees", "prune", "--in", tree, "--map", sm],
        "trees poset": ["trees", "poset", "--n", "3"],
        "point alpha": ["point", "alpha", "--in", cfg, "--normalize"],
        "point classify": ["point", "classify", "--in", pt],
        "point membership": ["point", "membership", "--in", pt],
        "point project": ["point", "project", "--in", pt],
        "point permute": ["point", "permute", "--in", pt, "--map", "2,1,4,3"],
        "chart expand": ["chart", "expand", "--in", st],
        "chart invert": ["chart", "invert", "--tree", tree, "--in", ex],
        "chart sample": ["chart", "sample", "--tree", tree, "--m", "2"],
        "simplicial project": ["simplicial", "project", "--in", fs, "--map", "1,1,2"],
        "simplicial membership": ["simplicial", "membership", "--in", sp],
        "simplicial reconstruct": ["simplicial", "reconstruct", "--in", sp],
        "simplicial approx": ["simplicial", "approx", "--in", sp, "--eps", "1e-3"],
        "simplicial residuals": ["simplicial", "residuals", "--in", sp],
        "maps project": ["maps", "project", "--in", fp, "--map", "1,3"],
        "maps diagonal": ["maps", "diagonal", "--in", fp, "--index", "1", "--k", "1"],
        "maps cosimplicial": ["maps", "cosimplicial", "--in", ip, "--map", "1,2", "--m", "2"],
        "assoc faces": ["assoc", "faces", "--n", "2"],
        "assoc fvector": ["assoc", "fvector", "--n", "2"],
        "assoc realize": ["assoc", "realize", "--tree", corolla],
        "degenerate": ["degenerate", "--in", st, "--kmax", "2"],
    }


def _called_code(argv):
    """Exit code and the code objects of every Python function one main call runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(previous)
    return code, seen


def test_every_operation_owned_by_exactly_one_subcommand(tmp_path, capsys):
    expected = {
        cs.enumerate_trees, cs.contract, cs.nested_collection,
        cs.tree_from_nested, cs.prune, trees.covering_pairs, cs.leq, cs.codim,
        cs.exclusion_relation, cs.tree_from_exclusions,
        cs.lift_configuration, cs.normalize,
        cs.membership_canonical, cs.stratum_tree, cs.expand_chart,
        cs.invert_chart, cs.stratum_sample, cs.permute,
        cs.to_simplicial,
        cs.membership_simplicial, cs.stratum_tree_of_directions,
        cs.reconstruct_from_directions, cs.approximating_configuration,
        cs.pullback, cs.project_indices, cs.diagonal_map, cs.cosimplicial_map,
        cs.face_poset, cs.f_vector, cs.realize_face,
    }
    owned = [op for cmd in cli.COMMANDS.values() for op in cmd.ops]
    assert len(owned) == len(set(owned)), "an operation appears twice"
    assert set(owned) == expected
    calls = _one_call_per_subcommand(tmp_path)
    assert set(calls) == set(cli.COMMANDS)
    for key, argv in calls.items():
        code, seen = _called_code(argv)
        capsys.readouterr()
        assert code == 0, key
        missed = [op.__name__ for op in cli.COMMANDS[key].ops if op.__code__ not in seen]
        assert not missed, f"{key} does not call {missed}"


# -- option surface ---------------------------------------------------------------------

# every option each subcommand accepts; a handler reads each one
_OPTIONS = {
    "trees enumerate": {"--n", "--variant", "--format", "--out"},
    "trees contract": {"--in", "--edges", "--format", "--out"},
    "trees prune": {"--in", "--map", "--format", "--out"},
    "trees poset": {"--n", "--variant", "--format", "--out"},
    "point alpha": {"--in", "--normalize", "--out"},
    "point classify": {"--in", "--tol", "--out"},
    "point membership": {"--in", "--variant", "--manifold", "--tol", "--out"},
    "point project": {"--in", "--out"},
    "point permute": {"--in", "--map", "--out"},
    "chart expand": {"--in", "--out"},
    "chart invert": {"--tree", "--in", "--tol", "--out"},
    "chart sample": {"--tree", "--m", "--seed", "--out"},
    "simplicial project": {"--in", "--map", "--out"},
    "simplicial membership": {"--in", "--manifold", "--tol", "--out"},
    "simplicial reconstruct": {"--in", "--tol", "--out"},
    "simplicial approx": {"--in", "--eps", "--tol", "--out"},
    "simplicial residuals": {"--in", "--format", "--out"},
    "maps project": {"--in", "--map", "--out"},
    "maps diagonal": {"--in", "--index", "--k", "--assoc", "--tol", "--out"},
    "maps cosimplicial": {"--in", "--map", "--m", "--tol", "--out"},
    "assoc faces": {"--n", "--format", "--out"},
    "assoc fvector": {"--n", "--format", "--out"},
    "assoc realize": {"--tree", "--params", "--out"},
    "degenerate": {"--in", "--kmax", "--out"},
}

# the formats each subcommand writes, its default first
_FORMATS = {
    "trees enumerate": ("json", "dot"),
    "trees contract": ("json", "dot"),
    "trees prune": ("json", "dot"),
    "trees poset": ("json", "dot"),
    "simplicial residuals": ("csv", "json"),
    "assoc faces": ("json", "dot"),
    "assoc fvector": ("csv", "json"),
}


def _subparsers(parser, prefix=()):
    """(subcommand name, leaf parser) for every subcommand of the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subparsers(sub, (*prefix, name))
            return
    yield " ".join(prefix), parser


def test_option_surface_is_what_the_handlers_read():
    options, formats = {}, {}
    for key, parser in _subparsers(cli.build_parser()):
        settable = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        options[key] = {s for a in settable for s in a.option_strings}
        assert len(options[key]) == len(settable), key
        for a in settable:
            if a.dest == "format":
                formats[key] = (a.default, *(c for c in a.choices if c != a.default))
    assert options == _OPTIONS
    assert sum(len(opts) for opts in options.values()) == 85
    assert sum("--in" in opts for opts in options.values()) == 18
    assert formats == _FORMATS


@pytest.mark.parametrize(
    "key, extra",
    [
        ("chart expand", ["--format", "dot"]),
        ("trees contract", ["--format", "csv"]),
        ("degenerate", ["--format", "json"]),
        ("trees enumerate", ["--seed", "5"]),
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, key, extra):
    argv = _one_call_per_subcommand(tmp_path)[key]
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + extra)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", sorted(k for k, opts in _OPTIONS.items() if "--in" in opts))
def test_missing_in_is_a_usage_error(tmp_path, capsys, key):
    argv = _one_call_per_subcommand(tmp_path)[key]
    at = argv.index("--in")
    del argv[at:at + 2]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--in" in captured.err and "Traceback" not in captured.err


# -- documented examples ------------------------------------------------------------


def test_trees_enumerate_example(capsys):
    code, out, _ = run(capsys, "trees", "enumerate", "--n", "3", "--variant", "full")
    assert code == 0
    assert len(json.loads(out)) == 8


def test_assoc_fvector_example(capsys):
    code, out, _ = run(capsys, "assoc", "fvector", "--n", "2")
    assert code == 0
    assert out == "5,5,1\n"


def test_membership_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[0, 0], [1, 0], [0, 1]]}))
    pt = tmp_path / "pt.json"
    code, out, _ = run(capsys, "point", "alpha", "--in", str(cfg), "--out", str(pt))
    assert code == 0
    code, out, _ = run(
        capsys, "point", "membership", "--variant", "canonical",
        "--in", str(pt), "--tol", "1e-9",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True
    # break a direction and expect a failing verdict with exit 1
    data = jsonio.loads(pt.read_text())
    data["u"]["1,2"] = [-v for v in data["u"]["1,2"]]
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(data))
    code, out, _ = run(capsys, "point", "membership", "--in", str(bad))
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "group, to_json, prefix",
    [
        ("point", jsonio.ambient_to_json, "5"),
        ("simplicial", lambda a: jsonio.simplicial_to_json(cs.to_simplicial(a)), "S4"),
    ],
    ids=["point", "simplicial"],
)
def test_membership_on_the_sphere(tmp_path, capsys, group, to_json, prefix):
    on = tmp_path / "on.json"
    on.write_text(jsonio.dumps(to_json(cs.lift_configuration(np.eye(3)))))
    code, out, _ = run(capsys, group, "membership", "--manifold", "sphere", "--in", str(on))
    verdict = json.loads(out)
    assert code == 0 and verdict["pass"] is True and verdict["violations"] == []
    # points off the sphere: one violation per point farther than tol, the
    # residual |norm - 1| of its row, to the last bit
    x = np.array([[1.1, 0.0, 0.0], [0.0, 0.9, 0.0], [0.6, 0.0, 0.8]])
    res = [abs(float(np.linalg.norm(row)) - 1.0) for row in x]
    off = tmp_path / "off.json"
    off.write_text(jsonio.dumps(to_json(cs.lift_configuration(x))))
    code, out, _ = run(capsys, group, "membership", "--manifold", "sphere", "--in", str(off))
    assert code == 1
    assert json.loads(out) == {
        "pass": False,
        "max_residual": res[0],
        "violations": [
            {"condition": f"{prefix}-on-manifold", "indices": [i], "residual": res[i - 1]}
            for i in (1, 2)
        ],
    }
    code, out, _ = run(capsys, group, "membership", "--manifold", "euclidean", "--in", str(off))
    assert code == 0 and json.loads(out)["pass"] is True


def test_domain_error_reports_json_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "dup.json"
    cfg.write_text(jsonio.dumps({"m": 1, "points": [[0.0], [0.0]]}))
    code, out, err = run(capsys, "point", "alpha", "--in", str(cfg))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"


def _malformed(tmp_path, capsys, argv, src, key, value):
    data = jsonio.loads(src.read_text())
    data[key] = value
    bad = tmp_path / f"bad_{key}.json"
    bad.write_text(jsonio.dumps(data))
    code, out, err = run(capsys, *argv, "--in", str(bad))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert repr(key) in payload["message"]


def test_malformed_direction_field_reports_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[0, 0], [1, 0], [0, 1]]}))
    pt = tmp_path / "pt.json"
    assert run(capsys, "point", "alpha", "--in", str(cfg), "--out", str(pt))[0] == 0
    _malformed(tmp_path, capsys, ["point", "membership"], pt, "u", "oops")


def test_malformed_scales_field_reports_json(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(jsonio.dumps(jsonio.tree_to_json(cs.tree_from_nested([{1, 2}], 3))))
    sample = tmp_path / "s.json"
    argv = ["chart", "sample", "--tree", str(tree), "--m", "2", "--out", str(sample)]
    assert run(capsys, *argv)[0] == 0
    _malformed(tmp_path, capsys, ["chart", "expand"], sample, "scales", "oops")


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "enumerate"],
        ["trees", "poset"],
        ["assoc", "faces"],
        ["assoc", "fvector"],
    ],
)
def test_missing_n_reports_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "--n" in payload["message"]


def test_repeated_json_key_reports_json(tmp_path, capsys):
    """A key written twice in one object is an error naming it, not a silent
    choice of the last value."""
    text = jsonio.dumps(_loader_inputs()["direction"])
    bad = tmp_path / "twice.json"
    bad.write_text(text.replace("{\n", '{\n  "u": {},\n', 1))
    code, out, err = run(capsys, "simplicial", "membership", "--in", str(bad))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload == {"error": "ValueError", "message": "JSON object repeats key 'u'"}


@pytest.mark.parametrize(
    "key, infile, extra",
    [
        ("trees contract", None, ["--format", "dot"]),
        ("trees prune", None, ["--format", "dot"]),
        ("maps project", "pt.json", []),
        ("maps project", "sp.json", []),
    ],
    ids=["contract-dot", "prune-dot", "project-ambient", "project-directions"],
)
def test_subcommand_output_variants(tmp_path, capsys, key, infile, extra):
    """The DOT output of the tree subcommands, and maps project on points
    without frames, which it returns as the same kind of point."""
    argv = _one_call_per_subcommand(tmp_path)[key]
    if infile:
        argv[argv.index("--in") + 1] = str(tmp_path / infile)
    code, out, err = run(capsys, *argv, *extra)
    assert code == 0 and err == ""
    if extra:
        assert out.startswith("digraph tree {")
    else:
        data = jsonio.loads(out)
        assert ("d" in data) == (infile == "pt.json") and "frames" not in data
        assert len(data["x"]) == 2


@pytest.mark.parametrize("infile", ["fp.json", "fs.json"])
def test_maps_project_past_the_framed_point_reports_json(tmp_path, capsys, infile):
    """A map file whose values lie past the framed point escaped main as an IndexError."""
    argv = _one_call_per_subcommand(tmp_path)["maps project"]
    argv[argv.index("--in") + 1] = str(tmp_path / infile)
    sm = tmp_path / "map.json"
    sm.write_text(jsonio.dumps({"m": 2, "n": 5, "map": [4, 5]}))
    argv[argv.index("--map") + 1] = str(sm)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    message = "index map codomain does not match the point"
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("key", ["maps project", "simplicial project"])
def test_empty_map_file_leaves_an_empty_framed_point(tmp_path, capsys, key):
    """Both escaped main as an IndexError."""
    argv = _one_call_per_subcommand(tmp_path)[key]
    argv[argv.index("--in") + 1] = str(tmp_path / "fs.json")
    sm = tmp_path / "map.json"
    sm.write_text(jsonio.dumps({"m": 0, "n": 4, "map": []}))
    argv[argv.index("--map") + 1] = str(sm)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert jsonio.loads(out) == {"frames": [], "m": 2, "u": {}, "x": []}


def test_cosimplicial_without_target_level_reports_json(tmp_path, capsys):
    argv = _one_call_per_subcommand(tmp_path)["maps cosimplicial"]
    code, out, err = run(capsys, *argv[: argv.index("--m")])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "--m (the target level) is required"}


def _tree_file(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(jsonio.dumps(jsonio.tree_to_json(cs.tree_from_nested([{1, 2}], 3))))
    return tree


def test_tree_labels_with_a_string_report_json(tmp_path, capsys):
    _malformed(tmp_path, capsys, ["trees", "prune", "--map", "1,2"], _tree_file(tmp_path),
               "labels", [0, "a", 2, 3, 0])


def test_tree_parents_with_a_string_report_json(tmp_path, capsys):
    _malformed(tmp_path, capsys, ["trees", "prune", "--map", "1,2"], _tree_file(tmp_path),
               "parents", [-1, "a", 4, 0, 0])


def test_tree_parents_not_a_list_report_json(tmp_path, capsys):
    _malformed(tmp_path, capsys, ["trees", "prune", "--map", "1,2"], _tree_file(tmp_path),
               "parents", 5)


def test_tree_file_holding_an_array_reports_json(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2, 3]\n")
    code, out, err = run(capsys, "trees", "prune", "--map", "1,2", "--in", str(bad))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "'tree'" in payload["message"]


def _setmap_file_reports(tmp_path, capsys, text):
    sm = tmp_path / "sm.json"
    sm.write_text(text)
    code, out, err = run(capsys, "trees", "prune", "--in", str(_tree_file(tmp_path)), "--map", str(sm))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    return payload["message"]


def test_setmap_file_holding_an_array_reports_json(tmp_path, capsys):
    assert "'map'" in _setmap_file_reports(tmp_path, capsys, "[1, 2]\n")


def test_setmap_values_with_a_string_report_json(tmp_path, capsys):
    text = jsonio.dumps({"m": 2, "n": 3, "map": [1, "a"]})
    assert "'map'" in _setmap_file_reports(tmp_path, capsys, text)


@pytest.mark.parametrize("field", ["m", "n"])
def test_setmap_size_not_an_integer_reports_json(tmp_path, capsys, field):
    data = {"m": 2, "n": 3, "map": [1, 2]}
    data[field] = "2"
    assert repr(field) in _setmap_file_reports(tmp_path, capsys, jsonio.dumps(data))


def _loader_inputs():
    """Well-formed configuration and framed point JSON for the loader tests."""
    rng = np.random.default_rng(4)
    a = cs.lift_configuration(sample_config(rng, 3, 2))
    frames = [v / np.linalg.norm(v) for v in rng.normal(size=(3, 2))]
    t = cs.tree_from_nested([{1, 2}], 3)
    return {
        "cfg": {"m": 2, "points": a.x.tolist()},
        "fa": jsonio.framed_to_json(cs.framed_point(a, frames)),
        "fs": jsonio.framed_to_json(cs.framed_point(cs.to_simplicial(a), frames)),
        "tree": jsonio.tree_to_json(t),
        "ambient": jsonio.ambient_to_json(a),
        "direction": jsonio.simplicial_to_json(cs.to_simplicial(a)),
        "stratum": jsonio.stratum_to_json(cs.stratum_sample(t, 2, 0)),
    }


@pytest.mark.parametrize(
    "argv, source, edit, field",
    [
        (["point", "alpha"], None, None, "configuration"),
        (["point", "membership"], None, None, "point"),
        (["point", "classify"], None, None, "point"),
        (["chart", "expand"], None, None, "stratum"),
        (["simplicial", "membership"], None, None, "point"),
        (["maps", "project", "--map", "1"], None, None, "point"),
        (["point", "alpha"], "cfg", ("m", [2]), "m"),
        (["point", "alpha"], "cfg", ("m", "x"), "m"),
        (["maps", "diagonal", "--index", "1"], "fa", ("frames", 5), "frames"),
        (["simplicial", "project", "--map", "1,2"], "fs", ("frames", 5), "frames"),
        # numbers written as strings are not numbers ("inf" is revived first)
        (["chart", "expand"], "stratum", ("scales", {"1,2": "0.1"}), "scales[1,2]"),
        (["point", "membership"], "ambient", ("x", [["0.1", 0.0], [1.0, 0.0], [0.0, 1.0]]), "x"),
        # positions that are no list
        (["point", "alpha"], "cfg", ("points", None), "points"),
        (["point", "alpha"], "cfg", ("points", 5), "points"),
        # no positions at all, and a declared dimension the positions do not have
        (["point", "membership"], "ambient", ("x", []), "x"),
        (["maps", "cosimplicial", "--map", "1,2", "--m", "2"], "fs", ("x", []), "x"),
        (["point", "membership"], "ambient", ("m", 5), "m"),
        (["point", "alpha"], "cfg", ("m", 3), "m"),
        # positions with a third axis were blamed on a matching "m"
        (["point", "membership"], "ambient", ("x", [[[0, 0]], [[1, 0]], [[0, 1]]]), "x"),
        (["point", "alpha"], "cfg", ("points", [[[0, 0]], [[1, 0]], [[0, 1]]]), "points"),
    ],
    ids=[
        "alpha-array", "membership-array", "classify-array", "expand-array",
        "simplicial-membership-array", "maps-project-array", "config-m-list",
        "config-m-string", "diagonal-frames-int", "simplicial-project-frames-int",
        "scale-string", "x-string", "points-null", "points-number", "x-empty",
        "cosimplicial-x-empty", "point-m-mismatch", "config-m-mismatch", "x-3d", "points-3d",
    ],
)
def test_point_loaders_name_the_bad_field(tmp_path, capsys, argv, source, edit, field):
    if source is None:
        data = [1, 2]
    else:
        data = _loader_inputs()[source]
        data[edit[0]] = edit[1]
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(data))
    code, out, err = run(capsys, *argv, "--in", str(bad))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert repr(field) in payload["message"]


@pytest.mark.parametrize(
    "loader, source, field",
    [
        ("tree_from_json", "tree", "n"),
        ("tree_from_json", "tree", "parents"),
        ("tree_from_json", "tree", "labels"),
        ("config_from_json", "cfg", "points"),
        ("ambient_from_json", "ambient", "x"),
        ("ambient_from_json", "ambient", "u"),
        ("ambient_from_json", "ambient", "d"),
        ("simplicial_from_json", "direction", "x"),
        ("simplicial_from_json", "direction", "u"),
        ("stratum_from_json", "stratum", "tree"),
        ("stratum_from_json", "stratum", "root"),
        ("stratum_from_json", "stratum", "configs"),
        ("stratum_from_json", "stratum", "scales"),
    ],
)
def test_loaders_name_a_missing_field(loader, source, field):
    data = _loader_inputs()[source]
    del data[field]
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        getattr(jsonio, loader)(data)


def test_chart_expand_names_the_non_finite_stratum_field(tmp_path, capsys):
    s = cs.stratum_sample(cs.tree_from_nested([{1, 2}], 3), 2, 0)
    bad = tmp_path / "bad.json"
    for field, key, message in (
        ("root", None, "root configuration must be finite"),
        ("configs", "1,2", "configuration at vertex 4 must be finite"),
    ):
        data = jsonio.stratum_to_json(s)
        rows = data[field] if key is None else data[field][key]
        rows[1][0] = float("nan")
        bad.write_text(json.dumps(data))
        assert "NaN" in bad.read_text()
        code, out, err = run(capsys, "chart", "expand", "--in", str(bad))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and payload["message"] == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "key",
    [
        "point classify", "point membership", "point project", "point permute",
        "chart invert", "simplicial project", "simplicial membership", "simplicial reconstruct",
        "simplicial approx", "simplicial residuals", "maps project", "maps diagonal",
        "maps cosimplicial", "chart expand", "degenerate", "point alpha",
    ],
)
def test_an_overflowing_entry_reports_json(tmp_path, capsys, key):
    """A point whose u[1,2] has entries of 1e308, a stratum whose root rows
    are +-1e308, or a configuration with points at +-1e308 to normalize,
    overflowed a norm, and with warnings as errors the warning escaped main.
    The stratum was refused as "u[1,4] is not a unit vector (norm nan)"."""
    argv = _one_call_per_subcommand(tmp_path)[key]
    path = Path(argv[argv.index("--in") + 1])
    data = jsonio.loads(path.read_text())
    if "points" in data:
        data["points"][:2] = [[1e308, 0], [-1e308, 0]]
        message = "the configuration's centroid or scale overflows"
    elif "root" in data:
        data["root"] = [[(-1) ** r * 1e308, *row[1:]] for r, row in enumerate(data["root"])]
        message = "the stratum's pairwise distances overflow"
    else:
        data["u"]["1,2"] = [1e308] * len(data["u"]["1,2"])
        message = "u[1,2] is not a unit vector (norm inf)"
    path.write_text(jsonio.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


_HUGE = "1" + "0" * 400  # a JSON integer too large for a float


def _put(data, path, value):
    *head, last = path
    for step in head:
        data = data[step]
    data[last] = value


@pytest.mark.parametrize(
    "key, path, message",
    [
        ("point membership", ("x", 0, 0), "field 'x' is not numeric"),
        ("point membership", ("u", "1,2", 0), "field 'u[1,2]' is not numeric"),
        ("point membership", ("d", "1,2,3"), "field 'd[1,2,3]' is not a number"),
        ("simplicial membership", ("x", 1, 0), "field 'x' is not numeric"),
        ("simplicial membership", ("u", "2,1", 1), "field 'u[2,1]' is not numeric"),
        ("point alpha", ("points", 2, 1), "field 'points' is not numeric"),
        ("chart expand", ("root", 0, 0), "field 'root' is not numeric"),
        ("chart expand", ("configs", "1,2", 0, 1), "field 'configs[1,2]' is not numeric"),
        ("chart expand", ("scales", "1,2,3"), "field 'scales[1,2,3]' is not a number"),
    ],
    ids=["x", "u", "d", "simplicial-x", "simplicial-u", "points", "root", "configs", "scales"],
)
def test_an_integer_too_large_for_a_float_names_its_field(tmp_path, capsys, key, path, message):
    """An integer literal such as 1 followed by 400 zeros escaped main as an OverflowError."""
    argv = _one_call_per_subcommand(tmp_path)[key]
    file = Path(argv[argv.index("--in") + 1])
    data = jsonio.loads(file.read_text())
    _put(data, path, "HUGE")
    file.write_text(jsonio.dumps(data).replace('"HUGE"', _HUGE))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_point_alpha_names_overflowing_distances(tmp_path, capsys):
    """Without --normalize, points at 1e200 were refused as "u[1,2] is not a
    unit vector (norm 0.0)", naming a coordinate the file does not hold."""
    cfg = tmp_path / "far.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[1e200, 0], [0, 1e200], [0, 0]]}))
    code, out, err = run(capsys, "point", "alpha", "--in", str(cfg))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ValueError", "message": "the configuration's pairwise distances overflow"
    }


def test_out_into_a_missing_directory_reports_json(tmp_path, capsys):
    """The write escaped main as a FileNotFoundError."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[0, 0], [1, 0], [0, 1]]}))
    out = tmp_path / "missing" / "pt.json"
    code, stdout, err = run(capsys, "point", "alpha", "--in", str(cfg), "--out", str(out))
    assert code == 1 and stdout == "" and not out.parent.exists()
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trees", "bogus"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "point", "classify", "--in", "pt.json", "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, tol):
    """A non-finite --tol passed every point: a lifted point with one
    direction rotated reported pass."""
    a = cs.lift_configuration([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    data = jsonio.ambient_to_json(a)
    data["u"]["1,2"] = [0.0, 1.0]
    pt = tmp_path / "pt.json"
    pt.write_text(jsonio.dumps(data))
    argv = ["point", "membership", "--in", str(pt), "--tol"]
    assert run(capsys, *argv, "1e-9")[0] == 1
    usage = '{"error": "usage", "message": "tolerance must be finite and positive"}\n'
    assert run(capsys, *argv, tol) == (2, "", usage)


def test_chart_sample_reads_m_as_given(tmp_path, capsys):
    """--m 0 sampled in R^2, as if --m were not given."""
    argv = _one_call_per_subcommand(tmp_path)["chart sample"]
    explicit = run(capsys, *argv)
    at = argv.index("--m")
    assert explicit[0] == 0 and run(capsys, *argv[:at], *argv[at + 2:]) == explicit
    argv[at + 1] = "0"
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["message"] == "ambient dimension must be at least 1"


@pytest.mark.parametrize("verb", ["enumerate", "poset"])
def test_tree_variant_is_one_of_the_documented_choices(capsys, verb):
    argv = ["trees", verb, "--n", "3"]
    assert run(capsys, *argv) == run(capsys, *argv, "--variant", "full")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--variant", "bogus"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--variant" in captured.err and "Traceback" not in captured.err


# -- one parser per process ------------------------------------------------------------


def _fresh_process(*argv):
    """Exit code, stdout and stderr of the CLI run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cs.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "confspace.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once_and_leaks_no_option(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[0, 0], [1, 0], [0.2, 0.9]]}))
    code, normalized, _ = run(capsys, "point", "alpha", "--in", str(cfg), "--normalize")
    assert code == 0
    code, plain, _ = run(capsys, "point", "alpha", "--in", str(cfg))
    assert code == 0 and plain != normalized
    assert _fresh_process("point", "alpha", "--in", str(cfg)) == (0, plain, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "bogus"],
        ["chart", "invert", "--in", "a.json"],
        ["point", "alpha", "--tol", "x"],
    ],
)
def test_usage_error_after_a_successful_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    first = _fresh_process(*argv)
    assert first[0] == 2
    assert run(capsys, "trees", "enumerate", "--n", "3")[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == first


# -- determinism ----------------------------------------------------------------------


def test_byte_identical_reruns(tmp_path, capsys):
    _, first, _ = run(capsys, "trees", "enumerate", "--n", "4")
    _, second, _ = run(capsys, "trees", "enumerate", "--n", "4")
    assert first == second
    tree = tmp_path / "tree.json"
    tree.write_text(
        jsonio.dumps(jsonio.tree_to_json(cs.tree_from_nested([{1, 2}], 3)))
    )
    _, a, _ = run(capsys, "chart", "sample", "--tree", str(tree), "--m", "2", "--seed", "11")
    _, b, _ = run(capsys, "chart", "sample", "--tree", str(tree), "--m", "2", "--seed", "11")
    assert a == b


# -- pipelines ---------------------------------------------------------------------------


def test_chart_pipeline(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    tree.write_text(jsonio.dumps(jsonio.tree_to_json(t)))
    sample = tmp_path / "s.json"
    code, _, _ = run(
        capsys, "chart", "sample", "--tree", str(tree), "--m", "2",
        "--seed", "3", "--out", str(sample),
    )
    assert code == 0
    point = tmp_path / "a.json"
    code, _, _ = run(capsys, "chart", "expand", "--in", str(sample), "--out", str(point))
    assert code == 0
    back = tmp_path / "s2.json"
    code, _, _ = run(
        capsys, "chart", "invert", "--tree", str(tree), "--in", str(point),
        "--out", str(back),
    )
    assert code == 0
    s0 = jsonio.stratum_from_json(jsonio.loads(sample.read_text()))
    s1 = jsonio.stratum_from_json(jsonio.loads(back.read_text()))
    for v in s0.scales:
        assert abs(s0.scales[v] - s1.scales[v]) < 1e-10


def test_classify_and_exclusions(tmp_path, capsys):
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=5)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    pt = tmp_path / "pt.json"
    pt.write_text(jsonio.dumps(jsonio.ambient_to_json(cs.expand_chart(frozen))))
    code, out, _ = run(capsys, "point", "classify", "--in", str(pt))
    assert code == 0
    data = json.loads(out)
    assert jsonio.tree_from_json(data["tree"]) == t
    assert [[[1, 2], 3]] == [e for e in data["exclusions"] if e[0] == [1, 2]]


def test_simplicial_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (4, 2))
    a = cs.lift_configuration(pts)
    sp = tmp_path / "sp.json"
    sp.write_text(jsonio.dumps(jsonio.simplicial_to_json(cs.to_simplicial(a))))
    code, out, _ = run(capsys, "simplicial", "membership", "--in", str(sp))
    assert code == 0
    code, out, _ = run(capsys, "simplicial", "reconstruct", "--in", str(sp))
    assert code == 0
    rec = jsonio.config_from_json(json.loads(out))
    assert np.abs(rec.points - cs.normalize(pts).points).max() < 1e-6
    code, out, _ = run(capsys, "simplicial", "residuals", "--in", str(sp))
    assert code == 0
    assert out.splitlines()[0] == "subset,v,w,residual"
    code, out, _ = run(capsys, "simplicial", "approx", "--in", str(sp), "--eps", "1e-3")
    assert code == 0


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("flat", [False, True])
def test_residuals_table_is_the_public_residual_on_every_subset(tmp_path, capsys, n, m, flat):
    """Byte for byte, the residual table is four_consistency_residual at the
    basis probes on each 4-subset's directions; a point whose last
    coordinates are all 0 puts signed zeros into the directions."""
    pts = np.random.default_rng(10 * n + m).uniform(-1, 1, (n, m))
    if flat:
        pts[:, -1] = 0.0 if m > 1 else np.arange(n)
    p = cs.to_simplicial(cs.lift_configuration(pts))
    sp = tmp_path / "sp.json"
    sp.write_text(jsonio.dumps(jsonio.simplicial_to_json(p)))
    basis = np.eye(m)
    rows = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        sub = {(i, j): p.u[(i, j)] for i, j in itertools.permutations(quad, 2)}
        for a in range(m):
            for b in range(m):
                rows.append((quad, a + 1, b + 1, cs.four_consistency_residual(sub, basis[a], basis[b])))
    want_json = jsonio.dumps(
        [{"subset": list(q), "v": a, "w": b, "residual": r} for q, a, b, r in rows]
    )
    assert run(capsys, "simplicial", "residuals", "--in", str(sp)) == (0, jsonio.residuals_csv(rows), "")
    got = run(capsys, "simplicial", "residuals", "--in", str(sp), "--format", "json")
    assert got == (0, want_json, "")


def test_maps_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (2, 2))
    a = cs.lift_configuration(pts)
    frames = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 2))]
    fp = cs.framed_point(a, frames)
    fpj = tmp_path / "fp.json"
    fpj.write_text(jsonio.dumps(jsonio.framed_to_json(fp)))
    code, out, _ = run(
        capsys, "maps", "diagonal", "--in", str(fpj), "--index", "1", "--k", "1",
    )
    assert code == 0
    doubled = jsonio.framed_from_json(json.loads(out))
    assert doubled.n == 3
    code, out, _ = run(capsys, "maps", "project", "--in", str(fpj), "--map", "1")
    assert code == 0

    fsimp = cs.framed_point(cs.to_simplicial(a), frames)
    fsj = tmp_path / "fs.json"
    fsj.write_text(jsonio.dumps(jsonio.framed_to_json(fsimp)))
    code, out, _ = run(capsys, "simplicial", "project", "--in", str(fsj), "--map", "1,1,2")
    assert code == 0
    assert jsonio.framed_from_json(json.loads(out)).n == 3


def test_cosimplicial_command(tmp_path, capsys):
    xs = [0.0, 0.4, 1.0]
    u = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                u[(i, j)] = np.array([1.0 if xs[i - 1] > xs[j - 1] else -1.0])
    p = cs.simplicial_point(np.array(xs).reshape(-1, 1), u)
    fp = cs.framed_point(p, [np.array([1.0]), np.array([1.0]), np.array([-1.0])])
    f = tmp_path / "ip.json"
    f.write_text(jsonio.dumps(jsonio.framed_to_json(fp)))
    code, out, _ = run(
        capsys, "maps", "cosimplicial", "--in", str(f), "--map", "1,2", "--m", "2",
    )
    assert code == 0
    assert jsonio.framed_from_json(json.loads(out)).n == 4


def test_degenerate_trajectory(tmp_path, capsys):
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=9)
    f = tmp_path / "s.json"
    f.write_text(jsonio.dumps(jsonio.stratum_to_json(s)))
    code, out, _ = run(capsys, "degenerate", "--in", str(f), "--kmax", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k,factor,x_1_0")
    assert len(lines) == 10


_DEEP6 = cs.FTree(6, (-1, 10, 11, 11, 7, 8, 9, 0, 7, 8, 9, 10))


@pytest.mark.parametrize(
    "t, m, zero, kmax",
    [
        pytest.param(cs.tree_from_nested([{1, 2}], 3), 2, False, 40, id="t0-2-False"),
        pytest.param(cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4), 1, False, 40, id="t1-1-False"),
        pytest.param(cs.tree_from_nested([{1, 2}, {3, 4}], 5), 3, True, 40, id="t2-3-True"),
        pytest.param(_DEEP6, 3, False, 40, id="t3-3-False"),
        pytest.param(_DEEP6, 2, True, 40, id="t4-2-True"),
        pytest.param(_DEEP6, 3, False, 0, id="t5-3-False-kmax0"),
        # the factors 2^-k reach the subnormals past k = 1022
        pytest.param(_DEEP6, 2, False, 1074, id="t6-2-False-kmax1074"),
    ],
)
def test_degenerate_matches_per_step_reference(tmp_path, capsys, t, m, zero, kmax):
    s = cs.stratum_sample(t, m, seed=17)
    if zero:
        s = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    f = tmp_path / "s.json"
    f.write_text(jsonio.dumps(jsonio.stratum_to_json(s)))
    code, out, _ = run(capsys, "degenerate", "--in", str(f), "--kmax", str(kmax))
    assert code == 0
    assert out == degenerate_csv(jsonio.stratum_from_json(jsonio.loads(f.read_text())), kmax)


@pytest.mark.parametrize("kmax", ["-1", "1075"])
def test_degenerate_rejects_kmax_out_of_range(tmp_path, capsys, kmax):
    s = cs.stratum_sample(cs.tree_from_nested([{1, 2}], 3), 2, seed=9)
    f = tmp_path / "s.json"
    f.write_text(jsonio.dumps(jsonio.stratum_to_json(s)))
    code, out, err = run(capsys, "degenerate", "--in", str(f), "--kmax", kmax)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "--kmax" in payload["message"]


def test_trees_commands(tmp_path, capsys):
    t = cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4)
    f = tmp_path / "t.json"
    f.write_text(jsonio.dumps(jsonio.tree_to_json(t)))
    code, out, _ = run(capsys, "trees", "contract", "--in", str(f), "--edges", "1,2")
    assert code == 0
    assert jsonio.tree_from_json(json.loads(out)) == cs.tree_from_nested([{1, 2, 3}], 4)
    sm = tmp_path / "sm.json"
    sm.write_text(jsonio.dumps({"m": 3, "n": 4, "map": [1, 2, 3]}))
    code, out, _ = run(capsys, "trees", "prune", "--in", str(f), "--map", str(sm))
    assert code == 0
    code, out, _ = run(capsys, "trees", "poset", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.count("label=") == 8
    code, out, _ = run(capsys, "assoc", "faces", "--n", "2", "--format", "dot")
    assert code == 0


def _realize(tmp_path, capsys, params):
    f = tmp_path / "t.json"
    f.write_text(jsonio.dumps(jsonio.tree_to_json(cs.corolla(4))))
    p = tmp_path / "p.json"
    p.write_text(jsonio.dumps(params))
    return run(capsys, "assoc", "realize", "--tree", str(f), "--params", str(p))


def test_assoc_realize_command(tmp_path, capsys):
    code, out, _ = _realize(tmp_path, capsys, {"root": [0.0, 0.2, 0.4, 1.0]})
    assert code == 0
    pt = jsonio.ambient_from_json(json.loads(out))
    assert abs(pt.d[(1, 2, 3)] - 0.5) < 1e-15


@pytest.mark.parametrize(
    "root", [{"a": 1}, ["0", "0.5", "1", "2"]], ids=["object", "numbers-as-strings"]
)
def test_assoc_realize_params_follow_the_number_rule(tmp_path, capsys, root):
    code, out, err = _realize(tmp_path, capsys, {"root": root})
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "params[root]" in payload["message"]


def test_assoc_realize_params_array_reports_json(tmp_path, capsys):
    code, out, err = _realize(tmp_path, capsys, [1, 2])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "'params'" in payload["message"]


def test_assoc_realize_names_the_root_as_root_or_its_leaf_set(tmp_path, capsys):
    vals = [0.0, 0.2, 0.4, 1.0]
    outs = [_realize(tmp_path, capsys, {key: vals}) for key in ("root", "1,2,3,4", "4, 3,2 ,1")]
    assert outs[0][0] == 0 and outs[1:] == outs[:1] * 2


@pytest.mark.parametrize(
    "params, keys",
    [
        ({"1": [5.0]}, ["1"]),
        ({"root": [0.0, 0.5, 0.7, 1.0], "1,2,3,4": [0.0, 0.1, 0.7, 1.0]}, ["root", "1,2,3,4"]),
        ({"1,x": [0.0, 1.0]}, ["1,x"]),
    ],
    ids=["a-leaf", "the-root-twice", "not-labels"],
)
def test_assoc_realize_params_keys_name_one_vertex_each(tmp_path, capsys, params, keys):
    """A leaf key was ignored, the root's second key silently won, and a key
    that is not labels escaped from int() naming no field."""
    code, out, err = _realize(tmp_path, capsys, params)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "'params'" in payload["message"]
    assert all(repr(key) in payload["message"] for key in keys)


@pytest.mark.parametrize(
    "key, option, value, bad",
    [
        ("trees contract", "--edges", "1,a", "1,a"),
        ("trees contract", "--edges", "", ""),
        ("trees contract", "--edges", "1,2|1,2", "1,2"),
        ("trees contract", "--edges", "1,2|2, 1", "2, 1"),
        ("trees contract", "--edges", "1,1,2", "1,1,2"),
        ("trees contract", "--edges", "1", "1"),
        ("trees prune", "--map", "1,,2", "1,,2"),
        ("point permute", "--map", "2,,1", "2,,1"),
        ("maps cosimplicial", "--map", "1,x", "1,x"),
    ],
)
def test_label_text_errors_name_the_option_and_the_key(tmp_path, capsys, key, option, value, bad):
    argv = _one_call_per_subcommand(tmp_path)[key]
    argv[argv.index(option) + 1] = value
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert repr(option) in payload["message"] and repr(bad) in payload["message"]


def test_inline_prune_map_takes_the_tree_leaf_count(tmp_path, capsys):
    """An inline map missing the largest leaf was read into fewer leaves."""
    argv = _one_call_per_subcommand(tmp_path)["trees prune"]
    sm = argv[argv.index("--map") + 1]
    with open(sm, "w") as fh:
        fh.write(jsonio.dumps({"m": 2, "n": 4, "map": [1, 3]}))
    from_file = run(capsys, *argv)
    argv[argv.index("--map") + 1] = "1,3"
    assert from_file[0] == 0 and run(capsys, *argv) == from_file


def _stratum_with_keys(s, write):
    """stratum_to_json(s), its configs and scales keys rewritten by write."""
    data = jsonio.loads(jsonio.dumps(jsonio.stratum_to_json(s)))
    for field in ("configs", "scales"):
        data[field] = {write(key): value for key, value in data[field].items()}
    return data


@pytest.mark.parametrize(
    "write",
    [
        lambda key: key,
        lambda key: ",".join(reversed(key.split(","))),
        lambda key: " " + " , ".join(key.split(",")) + " ",
    ],
    ids=["sorted", "permuted", "padded"],
)
def test_stratum_keys_read_back_in_any_order_and_spacing(write):
    for n in range(1, 5):
        for t in cs.enumerate_trees(n):
            s = cs.stratum_sample(t, 2, seed=n)
            back = jsonio.stratum_from_json(_stratum_with_keys(s, write))
            assert back.tree == t
            assert back.C.tobytes() == s.C.tobytes() and back.S.tobytes() == s.S.tobytes()


@pytest.mark.parametrize("key", ["2,1", " 1, 2"])
def test_stratum_keys_and_edges_read_one_grammar(tmp_path, capsys, key):
    """Stratum JSON rejected these keys while --edges accepted them."""
    s = cs.stratum_sample(cs.tree_from_nested([{1, 2}, {1, 2, 3}], 4), 2, seed=3)
    back = jsonio.stratum_from_json(_stratum_with_keys(s, lambda k: key if k == "1,2" else k))
    assert back.C.tobytes() == s.C.tobytes() and back.S.tobytes() == s.S.tobytes()
    argv = _one_call_per_subcommand(tmp_path)["trees contract"]
    sorted_out = run(capsys, *argv)
    argv[argv.index("--edges") + 1] = key
    assert sorted_out[0] == 0 and run(capsys, *argv) == sorted_out


def test_stratum_keys_naming_one_vertex_twice_are_an_error():
    s = cs.stratum_sample(cs.tree_from_nested([{1, 2}], 3), 2, seed=3)
    data = jsonio.stratum_to_json(s)
    data["configs"]["2,1"] = data["configs"]["1,2"]
    with pytest.raises(ValueError, match="field 'configs' names one vertex twice, as '1,2' and '2,1'"):
        jsonio.stratum_from_json(data)


@pytest.mark.parametrize(
    "field, key, twin", [("u", "1,2", " 1,2"), ("d", "1,2,3", "1, 2,3")], ids=["u", "d"]
)
def test_point_keys_naming_one_index_tuple_twice_are_an_error(field, key, twin):
    """The second key's value silently replaced the first's."""
    data = jsonio.ambient_to_json(cs.lift_configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    data[field][twin] = data[field][key]
    with pytest.raises(ValueError, match=f"field '{field}' names one index tuple twice, as '{key}' and '{twin}'"):
        jsonio.ambient_from_json(data)


def _caterpillar_parent(n):
    """The canonical array of tree_from_nested([range(1, k + 1) for k in range(2, n)], n).

    Vertex n + j lies over leaves 1..n - j; leaf n hangs from the root.
    """
    parent = [-1, *(2 * n - i for i in range(1, n)), 0, 0]
    parent[1] = 2 * n - 2
    parent += range(n + 1, 2 * n - 2)
    return tuple(parent)


def test_deep_tree_is_read_without_recursion(tmp_path, capsys):
    assert _caterpillar_parent(7) == cs.tree_from_nested(
        [range(1, k + 1) for k in range(2, 7)], 7
    ).parent
    n = 1500
    t = cs.FTree(n, _caterpillar_parent(n))
    assert jsonio.tree_from_json(jsonio.tree_to_json(t)) == t
    f = tmp_path / "deep.json"
    f.write_text(jsonio.dumps(jsonio.tree_to_json(t)))
    sm = tmp_path / "map.json"
    sm.write_text(jsonio.dumps({"m": 3, "n": n, "map": [1, 2, n]}))
    code, out, _ = run(capsys, "trees", "prune", "--in", str(f), "--map", str(sm))
    assert code == 0
    assert jsonio.tree_from_json(json.loads(out)) == cs.tree_from_nested([{1, 2}], 3)


def test_every_subcommand_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(jsonio.dumps({"m": 2, "points": [[0, 0], [1, 0], [0.2, 0.9]]}))
    code, out, _ = run(capsys, "point", "alpha", "--in", str(cfg), "--normalize")
    assert code == 0
    pt = tmp_path / "pt.json"
    pt.write_text(out)
    assert run(capsys, "point", "project", "--in", str(pt))[0] == 0
    assert run(capsys, "point", "permute", "--in", str(pt), "--map", "2,1,3")[0] == 0
    assert run(capsys, "trees", "enumerate", "--n", "3", "--format", "dot")[0] == 0
    assert run(capsys, "assoc", "faces", "--n", "1")[0] == 0
    assert run(capsys, "assoc", "fvector", "--n", "3", "--format", "json")[0] == 0


def test_infinite_ratios_serialize_as_strings(tmp_path, capsys):
    t = cs.tree_from_nested([{1, 2}], 3)
    s = cs.stratum_sample(t, 2, seed=2)
    frozen = cs.StratumPoint(t, s.root_config, s.configs, {v: 0.0 for v in s.scales})
    a = cs.expand_chart(frozen)
    text = jsonio.dumps(jsonio.ambient_to_json(a))
    assert '"inf"' in text
    back = jsonio.ambient_from_json(jsonio.loads(text))
    assert cs.ambient_distance(a, back) == 0.0


# -- JSON codec --------------------------------------------------------------------


def test_json_reader_revives_infinities_and_rejects_repeated_keys():
    text = '{"d": {"1,2,3": "inf", "l": ["-inf", ["inf"], {"e": "inf"}]}, "s": "inf"}'
    inf = math.inf
    assert jsonio.loads(text) == {"d": {"1,2,3": inf, "l": [-inf, [inf], {"e": inf}]}, "s": inf}
    assert jsonio.loads('["inf", {"x": ["-inf"]}]') == [inf, {"x": [-inf]}]
    assert jsonio.loads('"inf"') == inf
    for text, key in [('{"u": 1, "u": 2}', "u"), ('{"x": [{"1,2": 0, "1,2": 1}]}', "1,2")]:
        with pytest.raises(ValueError, match=f"JSON object repeats key '{key}'"):
            jsonio.loads(text)


@pytest.mark.parametrize(
    "value, error, message",
    [(math.nan, ValueError, "NaN is not serializable"), ({1, 2}, TypeError, "cannot serialize")],
    ids=["nan", "set"],
)
def test_json_writer_rejects_what_it_cannot_write(value, error, message):
    with pytest.raises(error, match=message):
        jsonio.dumps({"x": [value]})
