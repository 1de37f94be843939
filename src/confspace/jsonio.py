"""JSON, DOT, and CSV codecs for the public data types.

Output is deterministic: dictionary keys are sorted and floats are printed
with 17 significant digits, so identical data always serializes to identical
bytes.  Infinite ratio values appear as the strings "inf" / "-inf".

Coordinate blocks are written and read a block at a time, not a scalar at
a time: the floats of a list, of a block of rows of one length, or of an
object's values (a point's "x", "u" and "d") are formatted in one pass; a
CSV column whose bits are the same in every row is formatted once; and a
label-keyed object ("u", "d") has its keys read in one pass and its values
in another.  When a pass meets an entry it cannot read, the entries are
read one at a time, so the first bad entry is still the one named, with
the same message.

`labels_from_text` is the one reader of label text (comma-separated leaf
labels), and `vertices_from_keys` reads it as the leaf set of a tree vertex.
`point_to_json` is the one writer of ambient, simplicial and framed points
(the kind-named writers call it), and `point_from_json` the one schema
dispatch of their readers: a "d" field makes a point ambient, and a "frames"
field makes it framed.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat

import numpy as np

from . import trees
from .canonical import (
    AmbientPoint,
    Configuration,
    StratumPoint,
    Verdict,
    _tables,
    ambient_point,
)
from .maps import FramedPoint, framed_point
from .numerics import _float, _float_array
from .simplicial import SimplicialPoint, simplicial_point
from .associahedron import FacePoset


# -- deterministic writer -------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii  # what json.dumps(str) writes


def _real(v: float) -> str:
    if math.isnan(v):
        raise ValueError("NaN is not serializable")
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _reals(values: list) -> list[str]:
    """_real of every float in values, in one formatting pass when all are finite."""
    if all(map(math.isfinite, values)):
        return list(map(format, values, repeat(".17g")))
    return list(map(_real, values))


def _float_rows(rows: list) -> list[str] | None:
    """The one-line text of every row of a block of float lists of one
    length, formatted in one pass; None when rows is no such block."""
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {float}:
        return None
    return list(map("[%s]".__mod__, map(", ".join, zip(*[iter(_reals(cells))] * width))))


def _texts(values, indent: int, kinds: set) -> list[str]:
    """_fmt of every item of values, whose item types are kinds; a block of
    floats or of float rows in one pass."""
    if kinds == {float}:
        return _reals(values)
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {list}:
        rows = _float_rows(values)
        if rows is not None:
            return rows
    return [_fmt(v, indent) for v in values]


def _fmt(value, indent: int) -> str:
    if type(value) is float:
        return _real(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value, key=str)
        values = list(map(value.__getitem__, keys))
        texts = _texts(values, indent + 1, set(map(type, values)))
        items = map("%s: %s".__mod__, zip(map(_quote, map(str, keys)), texts))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if any(issubclass(k, (dict, list, tuple)) for k in kinds):
            items = _texts(value, indent + 1, kinds)
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_texts(value, indent, kinds)) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _real(float(value))
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value)}")


def dumps(obj) -> str:
    return _fmt(obj, 0) + "\n"


_INFINITIES = {"inf": math.inf, "-inf": -math.inf}
_REVIVED = {list, str}  # the JSON values that can hold "inf" or "-inf"


def _revive(obj):
    """The strings "inf" and "-inf" as floats, in obj and in every list within
    it; objects inside come revived by the parser (_pairs).  A list holding
    no string and no list comes back as it is."""
    if isinstance(obj, list):
        return obj if _REVIVED.isdisjoint(map(type, obj)) else [_revive(v) for v in obj]
    return _INFINITIES.get(obj, obj) if isinstance(obj, str) else obj


def _pairs(pairs: list) -> dict:
    """One JSON object, its values revived; a repeated key is an error, not
    a silent overwrite."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object repeats key {key!r}")
            seen.add(key)
    if not _REVIVED.isdisjoint(map(type, out.values())):
        for key, value in out.items():
            if type(value) in _REVIVED:
                out[key] = _revive(value)
    return out


def loads(text: str):
    return _revive(json.loads(text, object_pairs_hook=_pairs))


# -- trees -----------------------------------------------------------------------


def tree_to_json(t: trees.FTree) -> dict:
    labels = [v if 1 <= v <= t.n else 0 for v in range(t.num_vertices)]
    return {"n": t.n, "parents": list(t.parent), "labels": labels}


def _ints(value, field: str) -> list[int]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"field {field!r} must be a list of integers")
    return list(value)


def _int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {field!r} must be an integer")
    return value


def tree_from_json(data: dict) -> trees.FTree:
    data = _object(data, "tree")
    return trees._from_parents(
        _int(_field(data, "n"), "n"),
        _ints(_field(data, "parents"), "parents"),
        _ints(_field(data, "labels"), "labels"),
    )


def setmap_from_json(data: dict) -> trees.SetMap:
    data = _object(data, "map")
    m, n = _int(data.get("m"), "m"), _int(data.get("n"), "n")
    return trees.SetMap(m, n, tuple(_ints(data.get("map"), "map")))


# -- geometric points ---------------------------------------------------------------


def config_to_json(c: Configuration) -> dict:
    return {"m": c.m, "points": [list(map(float, row)) for row in c.points]}


def config_from_json(data: dict) -> Configuration:
    data = _object(data, "configuration")
    return Configuration(_positions(data, "points"))


def _keyed(arr: np.ndarray, index: dict, table: np.ndarray) -> dict:
    """{"i,j": u_ij} or {"i,j,k": d_ijk}, read from U or D along an index table."""
    key = ",".join(["%d"] * table.shape[1])
    return dict(zip(map(key.__mod__, index), arr[tuple(table.T)].tolist()))


def point_to_json(p) -> dict:
    """The one point writer: m, x and u, then d for an ambient point, and
    for a framed point its point's fields and frames."""
    if isinstance(p, FramedPoint):
        return {**point_to_json(p.point), "frames": p.F.tolist()}
    t = _tables(p.n)
    out = {"m": p.m, "x": p.x.tolist(), "u": _keyed(p.U, t.pair_index, t.pairs)}
    if isinstance(p, AmbientPoint):
        out["d"] = _keyed(p.D, t.triple_index, t.triples)
    return out


def _object(data, field: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"field {field!r} must be a JSON object")
    return data


def _field(data: dict, field: str):
    if field not in data:
        raise ValueError(f"missing field {field!r}")
    return data[field]


def labels_from_text(text: str, field: str, arity: int | None = None) -> tuple[int, ...]:
    """Decimal labels separated by commas, spaces allowed around each, `arity` of them if given."""
    parts = text.split(",")
    if arity not in (None, len(parts)) or not all(p.strip().isdecimal() for p in parts):
        raise ValueError(f"field {field!r} has a bad key {text!r}")
    return tuple(map(int, parts))


def _positions(data: dict, field: str) -> np.ndarray:
    """A positions field: an (n, m) list, or a flat list of n points on a line,
    with at least one coordinate; a declared "m" must match its dimension."""
    pts = _floats(_field(data, field), field)
    if pts.ndim not in (1, 2):
        raise ValueError(f"field {field!r} must be a list of points")
    if not pts.size:
        raise ValueError(f"field {field!r} holds no coordinates")
    pts = pts.reshape(-1, 1) if pts.ndim == 1 else pts
    if "m" in data and _int(data["m"], "m") != pts.shape[1]:
        raise ValueError("field 'm' does not match the dimension of the points")
    return pts


def _floats(value, field: str) -> np.ndarray:
    return _float_array(value, f"field {field!r} is not numeric")


def _number(value, field: str) -> float:
    """A number field; of the strings, only the format's "inf" and "-inf"."""
    return _float(_revive(value), f"field {field!r} is not a number")


def _label_keyed(data, field: str, arity: int, read) -> dict:
    """{labels: read(value, "field[key]")} of a JSON object keyed by `arity`
    labels; two keys may not name one index tuple.  Keys and values are read
    in one pass each; when a pass fails, the entries are read one by one, so
    that the first bad one is named."""
    data = _object(data, field)
    out = _label_keyed_block(data, field, arity, read) if data else {}
    return _label_keyed_entries(data, field, arity, read) if out is None else out


def _label_keyed_block(data: dict, field: str, arity: int, read) -> dict | None:
    """_label_keyed in one pass over the keys and one over the values, for
    `_number` over floats and non-bool ints and `_floats` over rows of one
    length; None where a pass fails."""
    keys = list(data)
    try:
        parts = ",".join(keys).split(",")
    except TypeError:
        return None
    if set(map(str.count, keys, repeat(","))) != {arity - 1} or not all(
        map(str.isdecimal, map(str.strip, parts))
    ):
        return None
    values = list(data.values())
    try:
        if read is _number and set(map(type, values)) <= {float, int}:
            values = list(map(float, values))
        elif read is _floats:
            values = _floats(values, field)
            if values.ndim < 2:
                return None
        else:
            return None
    except (ValueError, OverflowError):
        return None
    out = dict(zip(zip(*[map(int, parts)] * arity), values))
    return out if len(out) == len(data) else None


def _label_keyed_entries(data: dict, field: str, arity: int, read) -> dict:
    """_label_keyed one entry at a time."""
    out = {labels_from_text(k, field, arity): read(v, f"{field}[{k}]") for k, v in data.items()}
    if len(out) != len(data):
        seen = {}
        for k in data:
            first = seen.setdefault(labels_from_text(k, field, arity), k)
            if first != k:
                raise ValueError(f"field {field!r} names one index tuple twice, as {first!r} and {k!r}")
    return out


def ambient_to_json(a: AmbientPoint) -> dict:
    return point_to_json(a)


def ambient_from_json(data: dict) -> AmbientPoint:
    data = _object(data, "point")
    x = _positions(data, "x")
    d = _label_keyed(_field(data, "d"), "d", 3, _number)
    return ambient_point(x, _label_keyed(_field(data, "u"), "u", 2, _floats), d)


def simplicial_to_json(p: SimplicialPoint) -> dict:
    return point_to_json(p)


def simplicial_from_json(data: dict) -> SimplicialPoint:
    data = _object(data, "point")
    return simplicial_point(_positions(data, "x"), _label_keyed(_field(data, "u"), "u", 2, _floats))


def framed_to_json(fp: FramedPoint) -> dict:
    return point_to_json(fp)


def framed_from_json(data: dict) -> FramedPoint:
    _field(_object(data, "point"), "frames")
    return point_from_json(data)


def point_from_json(data: dict):
    """The one schema dispatch: ambient with a "d" field, else simplicial,
    and framed with a "frames" field."""
    data = _object(data, "point")
    point = ambient_from_json(data) if "d" in data else simplicial_from_json(data)
    return framed_point(point, data["frames"]) if "frames" in data else point


# -- stratum data ---------------------------------------------------------------------


def _vertex_key(t: trees.FTree, v: int) -> str:
    return ",".join(str(i) for i in sorted(t.leaves_over[v]))


def stratum_to_json(s: StratumPoint) -> dict:
    t = s.tree
    return {
        "tree": tree_to_json(t),
        "root": [list(map(float, row)) for row in s.root_config],
        "configs": {
            _vertex_key(t, v): [list(map(float, row)) for row in s.configs[v]]
            for v in t.internal_vertices
        },
        "scales": {_vertex_key(t, v): s.scales[v] for v in t.internal_vertices},
    }


def vertices_from_keys(t: trees.FTree, keys, field: str, root: bool = False) -> dict[int, str]:
    """{vertex: key} in key order.  A key lists the leaves of one vertex, in
    any order and each once, and names the internal vertex over exactly those
    leaves; with `root`, "root" and (without a trunk) the full leaf set name the root."""
    table = {t.leaves_over[v]: v for v in t.internal_vertices}
    if root:
        table.setdefault(frozenset(range(1, t.n + 1)), 0)
    out = {}
    for key in keys:
        if root and key == "root":
            v = 0
        else:
            leaves = labels_from_text(key, field)
            v = table.get(frozenset(leaves)) if len(set(leaves)) == len(leaves) else None
            if v is None:
                raise ValueError(f"field {field!r} has a key {key!r} that names no vertex")
        if v in out:
            raise ValueError(f"field {field!r} names one vertex twice, as {out[v]!r} and {key!r}")
        out[v] = key
    return out


def vertex_values(t: trees.FTree, data, field: str, read=_floats, root: bool = False) -> dict:
    """{vertex: read(value, "field[key]")} of a JSON object keyed as `vertices_from_keys` reads."""
    data = _object(data, field)
    keys = vertices_from_keys(t, data, field, root)
    return {v: read(data[k], f"{field}[{k}]") for v, k in keys.items()}


def stratum_from_json(data: dict) -> StratumPoint:
    data = _object(data, "stratum")
    t = tree_from_json(_field(data, "tree"))
    configs = vertex_values(t, _field(data, "configs"), "configs")
    scales = vertex_values(t, _field(data, "scales"), "scales", _number)
    return StratumPoint(t, _floats(_field(data, "root"), "root"), configs, scales)


# -- verdicts and reports ----------------------------------------------------------------


def verdict_to_json(v: Verdict) -> dict:
    return {
        "pass": v.passed,
        "max_residual": v.max_residual,
        "violations": [
            {
                "condition": viol.condition,
                "indices": list(viol.indices),
                "residual": viol.residual,
            }
            for viol in v.violations
        ],
    }


def face_poset_to_json(poset: FacePoset) -> dict:
    return {
        "n": poset.index,
        "faces": [
            {"dim": d, "tree": tree_to_json(t)}
            for t, d in zip(poset.faces, poset.dims)
        ],
        "covers": [list(c) for c in poset.covers],
    }


def fvector_csv(counts) -> str:
    return ",".join(str(c) for c in counts) + "\n"


def residuals_csv(rows) -> str:
    """Rows of (subset, p, q, residual) as CSV."""
    lines = ["subset,v,w,residual"]
    for subset, p, q, res in rows:
        label = " ".join(str(i) for i in subset)
        lines.append(f"{label},e{p},e{q},{format(res, '.17g')}")
    return "\n".join(lines) + "\n"


def trajectory_csv(header, factors, coords: np.ndarray) -> str:
    """Rows k, factors[k], coords[k] of a (K, C) float block, K >= 1, as CSV.
    A column whose bits are the same in every row is formatted once; -0.0
    and 0.0 differ in their bits, so each keeps its spelling."""
    block = np.ascontiguousarray(coords, dtype=float)
    bits = block.view(np.uint64)
    const = (bits == bits[0]).all(axis=0)
    first = block[0].tolist()
    varying = iter(block[:, ~const].T.tolist())
    k = len(block)
    columns = [map(str, range(k)), map(format, factors, repeat(".17g"))]
    columns += [
        repeat(format(v, ".17g"), k) if c else map(format, next(varying), repeat(".17g"))
        for v, c in zip(first, const.tolist())
    ]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"
