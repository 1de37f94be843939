"""Span recorder for the traced run.

Every public function of every layer module (and the constructors of the
validating record classes) is wrapped from outside the program.  A wrapper
is rebound at every module that binds the original object, so a call made
through `canonical.ambient_point`, `maps.ambient_point` or
`jsonio.ambient_point` lands in the same span name.  Spans are recorded only
while an op is open; outside an op a wrapper calls straight through.

Spans live in flat typed arrays (name id, parent span, op id, start, end)
and are analysed once, after the run: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = (
    "trees",
    "associahedron",
    "canonical",
    "simplicial",
    "numerics",
    "maps",
    "jsonio",
    "cli",
)

# Record classes whose constructors validate their input; their __init__ is
# wrapped in place and the span is named after the class.
CLASSES = {
    "trees": ("FTree", "SetMap"),
    "canonical": ("Configuration", "StratumPoint"),
}


def layer_modules():
    return {name: importlib.import_module(f"confspace.{name}") for name in LAYERS}


def snapshot():
    """Identity of every attribute the recorder could touch.

    Two snapshots compare equal iff no module attribute and no class
    __init__ differs, i.e. no wrapper has leaked into the program.
    """
    mods = layer_modules()
    mods["__init__"] = importlib.import_module("confspace")
    out = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            out[(mname, attr)] = id(obj)
    for lname, classes in CLASSES.items():
        for cname in classes:
            cls = getattr(mods[lname], cname)
            out[(lname, f"{cname}.__init__")] = id(cls.__dict__["__init__"])
    return out


def _counters(rec):
    """Counts taken at layer boundaries from call arguments and results."""

    def loads(args, kwargs, result):
        rec.counts["jsonio.bytes_in"] += len(args[0] if args else kwargs["text"])

    def dumps(args, kwargs, result):
        rec.counts["jsonio.bytes_out"] += len(result)

    def enumerate_trees(args, kwargs, result):
        rec.counts["trees.enumerate_trees.trees"] += len(result)

    def membership(args, kwargs, result):
        rec.counts["canonical.membership_canonical.violations"] += len(result.violations)

    return {
        "jsonio.loads": loads,
        "jsonio.dumps": dumps,
        "trees.enumerate_trees": enumerate_trees,
        "canonical.membership_canonical": membership,
    }


class Recorder:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_start = array("d")
        self.op_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts = {
            "jsonio.bytes_in": 0,
            "jsonio.bytes_out": 0,
            "trees.enumerate_trees.trees": 0,
            "canonical.membership_canonical.violations": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------------

    def begin_op(self) -> int:
        self.op = len(self.op_start)
        self.op_end.append(0.0)
        self.op_start.append(time.perf_counter())
        return self.op

    def end_op(self):
        self.op_end[self.op] = time.perf_counter()
        self.op = -1
        if self.stack:
            raise RuntimeError("span stack not empty at the end of an op")

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        rec = self
        clock = time.perf_counter
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op < 0:
                return fn(*args, **kwargs)
            stack = rec.stack
            idx = len(starts)
            rec.span_name.append(nid)
            rec.span_parent.append(stack[-1] if stack else -1)
            rec.span_op.append(rec.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function and record-class constructor."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        mods = layer_modules()
        binders = list(mods.values()) + [importlib.import_module("confspace")]
        counters = _counters(self)
        replace: dict[int, object] = {}
        for lname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                span = f"{lname}.{attr}"
                replace[id(obj)] = (obj, self._wrap(span, obj, counters.get(span)))
        for binder in binders:
            for attr, obj in list(vars(binder).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((binder, attr, obj))
                    setattr(binder, attr, hit[1])
        for lname, classes in CLASSES.items():
            for cname in classes:
                cls = getattr(mods[lname], cname)
                init = cls.__dict__["__init__"]
                self._restore.append((cls, "__init__", init))
                setattr(cls, "__init__", self._wrap(f"{lname}.{cname}", init))

    def uninstall(self):
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        """Spans and ops as numpy arrays; self time derived from children."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        op = np.frombuffer(self.span_op, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "parent": parent,
            "op": op,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "op_start": np.frombuffer(self.op_start, dtype=np.float64).copy(),
            "op_end": np.frombuffer(self.op_end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the raw spans (self times are derived, so not stored)."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{key: a[key] for key in ("name", "parent", "op", "start", "end", "op_start", "op_end")},
        )


def nesting_gap(a) -> float:
    """Largest violation of span nesting, in seconds (0.0 when consistent).

    Checks that every child lies inside its parent, every top-level span
    inside its op, and that top-level spans of one op do not overlap.  When
    this is 0 the identity  sum(self times) + unwrapped time == op duration
    holds per op, with unwrapped time measured as the part of the op not
    covered by any span.
    """
    gap = 0.0
    parent = a["parent"]
    inner = parent >= 0
    if inner.any():
        p = parent[inner]
        gap = max(gap, float(np.max(a["start"][p] - a["start"][inner], initial=0.0)))
        gap = max(gap, float(np.max(a["end"][inner] - a["end"][p], initial=0.0)))
    top = ~inner
    if top.any():
        op = a["op"][top]
        start, end = a["start"][top], a["end"][top]
        gap = max(gap, float(np.max(a["op_start"][op] - start, initial=0.0)))
        gap = max(gap, float(np.max(end - a["op_end"][op], initial=0.0)))
        order = np.lexsort((start, op))
        op, start, end = op[order], start[order], end[order]
        same = op[1:] == op[:-1]
        gap = max(gap, float(np.max((end[:-1] - start[1:])[same], initial=0.0)))
    return gap


def self_time_identity_gap(a) -> float:
    """Max over ops of |sum(self) + unwrapped - op duration| in seconds.

    Unwrapped time is the op duration minus the union of its top-level
    spans, computed independently of the self times.
    """
    nops = len(a["op_start"])
    if nops == 0:
        return 0.0
    op_dur = a["op_end"] - a["op_start"]
    self_sum = np.bincount(a["op"], weights=a["self"], minlength=nops)
    top = a["parent"] < 0
    op, start, end = a["op"][top], a["start"][top], a["end"][top]
    order = np.lexsort((start, op))
    op, start, end = op[order], start[order], end[order]
    covered = np.zeros(nops)
    last_op, reach = -1, 0.0
    for o, s, e in zip(op.tolist(), start.tolist(), end.tolist()):
        if o != last_op:
            last_op, reach = o, s
        lo = max(s, reach)
        if e > lo:
            covered[o] += e - lo
            reach = e
    unwrapped = op_dur - covered
    return float(np.max(np.abs(self_sum + unwrapped - op_dur)))


def consistency(a) -> dict[str, float]:
    """Both span-accounting checks, in seconds; each is 0 up to rounding."""
    return {"nesting": nesting_gap(a), "self_time_identity": self_time_identity_gap(a)}


# -- per-layer metrics -----------------------------------------------------------------

SELF_S = (
    "trees.enumerate_trees", "trees.tree_from_nested", "trees.contract", "trees.prune",
    "trees.leq", "trees.join", "trees.tree_from_exclusions", "trees.FTree",
    "associahedron.face_poset", "associahedron.f_vector", "associahedron.realize_face",
    "canonical.ambient_point", "canonical.StratumPoint", "canonical.expand_chart",
    "canonical.invert_chart", "canonical.stratum_sample", "canonical.stratum_tree",
    "canonical.lift_configuration", "canonical.membership_canonical",
    "simplicial.membership_simplicial", "simplicial.to_simplicial",
    "simplicial.reconstruct_from_directions", "simplicial.stratum_tree_of_directions",
    "simplicial.approximating_configuration",
    "numerics.require_unit", "numerics.nonneg_dependent",
    "maps.project_indices", "maps.pullback",
    "jsonio.loads", "jsonio.dumps", "jsonio.ambient_from_json", "jsonio.ambient_to_json",
    "jsonio.stratum_from_json", "jsonio.stratum_to_json",
    "cli.build_parser", "cli.main",
)
CALLS = (
    "trees.enumerate_trees", "trees.tree_from_nested", "trees.join", "trees.FTree",
    "canonical.ambient_point", "canonical.StratumPoint", "canonical.lift_configuration",
    "numerics.require_unit", "numerics.nonneg_dependent", "cli.build_parser",
)
INCLUSIVE_P50 = ("canonical.expand_chart", "canonical.invert_chart")
BUCKET_P50 = ("canonical.membership_canonical", "simplicial.membership_simplicial")
MEMBERSHIP_BUCKETS = ("small", "n8", "n12")
CLI_COMMANDS = (
    "chart sample", "chart expand", "chart invert", "point membership", "point classify",
    "point project", "simplicial project", "simplicial reconstruct", "simplicial approx",
    "maps project", "degenerate", "point alpha",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = "s"
    for name in CALLS:
        out[f"{name}.calls"] = "count"
    for name in INCLUSIVE_P50:
        out[f"{name}.p50_ms"] = "ms"
    for name in BUCKET_P50:
        for bucket in MEMBERSHIP_BUCKETS:
            out[f"{name}.{bucket}.p50_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd.replace(' ', '.')}.p50_ms"] = "ms"
    out["trees.enumerate_trees.trees_per_s"] = "1/s"
    out["canonical.membership_canonical.violations"] = "count"
    out["jsonio.bytes_in"] = "bytes"
    out["jsonio.bytes_out"] = "bytes"
    out["trace.overhead_frac"] = "fraction"
    out["trace.unwrapped_frac"] = "fraction"
    out["trace.spans"] = "count"
    return out


def unwrapped_frac(a) -> float:
    """Share of op time spent outside every span (the benchmark's own code)."""
    op_time = float((a["op_end"] - a["op_start"]).sum())
    top = float(a["dur"][a["parent"] < 0].sum())
    return 1.0 - top / op_time if op_time > 0 else 0.0


def _p50_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if len(durations) else 0.0


def per_layer(rec: Recorder, a, kinds, buckets, op_factor, overhead: float) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    `kinds`, `buckets` and `op_factor` (host-speed factors, see hostspeed.py)
    describe the recorded ops in order; span times are scaled by their op's
    factor.  `overhead` is the traced pass's normalised busy time over the
    untraced one's, minus 1.  A span name the program no longer defines
    reads 0.
    """
    ids = {name: i for i, name in enumerate(rec.names)}
    k = len(rec.names)
    scale = np.asarray(op_factor, dtype=float)[a["op"]] if len(a["op"]) else np.zeros(0)
    unwrapped = unwrapped_frac(a)
    a = dict(a, dur=a["dur"] * scale, self=a["self"] * scale)
    calls = np.bincount(a["name"], minlength=k)
    self_s = np.bincount(a["name"], weights=a["self"], minlength=k)
    op_kind = np.asarray(kinds, dtype=object)[a["op"]] if len(kinds) else np.array([], dtype=object)
    op_bucket = np.asarray(buckets, dtype=object)[a["op"]] if len(buckets) else np.array([], dtype=object)

    def durations(name, mask=None):
        if name not in ids:
            return np.array([])
        sel = a["name"] == ids[name]
        if mask is not None:
            sel &= mask
        return a["dur"][sel]

    values: dict[str, float] = {}
    for name in SELF_S:
        values[f"{name}.self_s"] = float(self_s[ids[name]]) if name in ids else 0.0
    for name in CALLS:
        values[f"{name}.calls"] = int(calls[ids[name]]) if name in ids else 0
    for name in INCLUSIVE_P50:
        values[f"{name}.p50_ms"] = _p50_ms(durations(name))
    for name in BUCKET_P50:
        for bucket in MEMBERSHIP_BUCKETS:
            values[f"{name}.{bucket}.p50_ms"] = _p50_ms(durations(name, op_bucket == bucket))
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd.replace(' ', '.')}.p50_ms"] = _p50_ms(durations("cli.main", op_kind == cmd))
    enum_time = float(durations("trees.enumerate_trees").sum())
    trees = rec.counts["trees.enumerate_trees.trees"]
    values["trees.enumerate_trees.trees_per_s"] = trees / enum_time if enum_time > 0 else 0.0
    values["canonical.membership_canonical.violations"] = rec.counts["canonical.membership_canonical.violations"]
    values["jsonio.bytes_in"] = rec.counts["jsonio.bytes_in"]
    values["jsonio.bytes_out"] = rec.counts["jsonio.bytes_out"]
    values["trace.overhead_frac"] = overhead
    values["trace.unwrapped_frac"] = unwrapped
    values["trace.spans"] = len(a["name"])
    units = metric_units()
    return {name: (values[name], units[name]) for name in units}
