"""The JSON codec against its first, one-scalar-at-a-time form: the writer's
bytes, the reader's values and the reader's error messages."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confspace import jsonio
from helpers import reference_fmt, reference_label_keyed, reference_loads

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGES))
_RATIO = st.one_of(_FINITE, st.sampled_from([float("inf"), float("-inf")]))


def _key(labels) -> str:
    return ",".join(map(str, labels))


@st.composite
def records(draw):
    """An ambient, direction-only, framed or stratum record as the writers
    lay it out, over arbitrary floats: n 1..8, m 1..3."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["ambient", "direction", "framed", "stratum"]))
    row = st.lists(_FINITE, min_size=m, max_size=m)
    rows = lambda k: draw(st.lists(row, min_size=k, max_size=k))  # noqa: E731
    if kind == "stratum":
        sizes = draw(st.lists(st.integers(2, n), unique=True, max_size=3)) if n > 1 else []
        keys = [_key(range(1, k + 1)) for k in sorted(sizes)]
        return {
            "tree": {"n": n, "parents": [-1, *range(n)], "labels": list(range(n + 1))},
            "root": rows(2),
            "configs": {k: rows(2) for k in keys},
            "scales": {k: draw(_FINITE) for k in keys},
        }
    out = {"m": m, "x": rows(n)}
    out["u"] = {_key(p): draw(row) for p in itertools.permutations(range(1, n + 1), 2)}
    if kind == "ambient" or kind == "framed" and draw(st.booleans()):
        out["d"] = {_key(t): draw(_RATIO) for t in itertools.permutations(range(1, n + 1), 3)}
    if kind == "framed":
        out["frames"] = rows(n)
    return out


def _bits(keyed: dict) -> dict:
    """{labels: the exact value} of a label-keyed read."""
    return {k: (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v) for k, v in keyed.items()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(records())
def test_codec_matches_the_scalar_reference(record):
    text = jsonio.dumps(record)
    assert text == reference_fmt(record) + "\n"
    back = jsonio.loads(text)
    # repr tells -0.0 from 0.0 and 1 from 1.0, and round-trips every float
    assert repr(back) == repr(reference_loads(text))
    for field, arity, read in (("u", 2, jsonio._floats), ("d", 3, jsonio._number)):
        if field in back:
            assert _bits(jsonio._label_keyed(back[field], field, arity, read)) == _bits(
                reference_label_keyed(back[field], field, arity, read)
            )


def _outcome(read, *args):
    try:
        return "value", read(*args)
    except Exception as exc:  # the comparison is of the exception raised
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "text",
    [
        '{"u": {"1,2": [1.0], "1,2": [1.0]}}',
        '{"x": [{"d": 1, "e": 2, "d": 3}]}',
        '[{"inf": "inf", "k": ["-inf", 1, {"a": "inf"}]}, "-inf"]',
    ],
    ids=["repeated-key", "repeated-key-nested", "infinities"],
)
def test_readers_agree_on_json_text(text):
    assert repr(_outcome(jsonio.loads, text)) == repr(_outcome(reference_loads, text))


_U = {"1,2": [1.0, 0.0], "2,1": [-1.0, 0.0]}
_D = {"1,2,3": 0.5, "1,3,2": 2.0}


@pytest.mark.parametrize(
    "field, data",
    [
        ("u", {**_U, "1,x": [0.0, 1.0]}),
        ("u", {**_U, "1,2,3": [0.0, 1.0]}),
        ("d", {**_D, "1,2": 1.0}),
        ("u", {**_U, " 1, 2 ": [1.0, 0.0]}),
        ("d", {**_D, "01,2,3": 0.5}),
        ("d", {**_D, "2,1,3": "0.5"}),
        ("u", {**_U, "1,3": ["0", "1"]}),
        ("d", {**_D, "2,1,3": True}),
        ("u", {**_U, "1,3": [True, False]}),
        ("d", {**_D, "2,1,3": [0.5]}),
        ("u", {**_U, "1,3": [[0.0, 1.0]]}),
        ("u", {"1,2": "oops", "1,x": [0.0, 1.0]}),
        ("d", {"1,2,3": "oops", "1,2": 1.0}),
        ("u", {**_U, "1,3": [0.0]}),
        ("d", {**_D, "2,1,3": "inf"}),
        ("d", {**_D, "2,1,3": None}),
        ("u", {}),
    ],
    ids=[
        "bad-key", "wrong-arity-u", "wrong-arity-d", "two-spellings-u", "two-spellings-d",
        "string-number", "string-numbers", "bool", "bool-row", "list-for-number", "nested-row",
        "bad-value-before-bad-key", "bad-value-before-wrong-arity", "ragged-rows", "inf-string",
        "null", "empty",
    ],
)
def test_label_keyed_readers_agree_on_malformed_input(field, data):
    arity, read = (2, jsonio._floats) if field == "u" else (3, jsonio._number)
    new = _outcome(jsonio._label_keyed, data, field, arity, read)
    old = _outcome(reference_label_keyed, data, field, arity, read)
    if new[0] == "value" and old[0] == "value":
        assert _bits(new[1]) == _bits(old[1])
    else:
        assert new == old


def test_trajectory_csv_formats_every_cell_as_written():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(6, 8))
    block[:, 0] = 0.0  # constant
    block[:, 1] = [0.0, -0.0] * 3  # equal as floats, not as bits
    block[:, 2] = -0.0
    block[:, 3] = np.inf
    block[:, 4] = [np.inf, 1.0, -np.inf, 1.0, 1.0, 1.0]
    block[:, 5] = 5e-324
    block[1:, 6] = block[0, 6] * (1 + 2**-52)  # one bit from constant
    factors = [2.0**-k for k in range(len(block))]
    header = ["k", "factor", *(f"c{j}" for j in range(block.shape[1]))]
    rows = [
        ",".join([str(k), format(f, ".17g"), *(format(v, ".17g") for v in row)])
        for k, (f, row) in enumerate(zip(factors, block.tolist()))
    ]
    assert jsonio.trajectory_csv(header, factors, block) == "\n".join([",".join(header), *rows]) + "\n"
