"""Small numerical helpers shared by the geometry modules."""

from __future__ import annotations

import itertools

import numpy as np


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis.

    A stacked matmul rounds exactly like np.dot on each pair of rows, so
    batched and one-vector code agree to the last bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, rounded like np.linalg.norm of one row."""
    return np.sqrt(row_dots(v, v))


def _float_array(value, what: str) -> np.ndarray:
    """np.asarray(value, dtype=float) under the one rule of what numbers are:
    booleans, None (JSON null, which numpy reads as NaN), numbers written as
    strings, complex numbers, integers too large for a float and whatever
    else numpy cannot read as floats (a ragged array) are not, and raise
    ValueError(what), so that the caller names the field."""
    try:
        raw = np.asarray(value)
        kind = raw.dtype.kind
        if kind == "O":
            ok = not any(isinstance(x, (str, bytes, bool, np.bool_, type(None))) for x in raw.flat)
        else:
            ok = kind not in "SUcb" and not (isinstance(value, (list, tuple)) and _holds_bool(value))
        if ok:
            return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(what)


def _holds_bool(items) -> bool:
    """Whether nested lists or tuples hold a bool at any depth.  numpy reads
    [True, 0.5] as floats, so a list that mixes booleans with numbers is
    found here, one level at a time, without a Python loop per item."""
    while True:
        kinds = set(map(type, items))
        if bool in kinds or np.bool_ in kinds:
            return True
        if not kinds or not kinds <= {list, tuple}:
            return False
        items = list(itertools.chain.from_iterable(items))


def _float(value, what: str) -> float:
    """float(value) under _float_array's rule for one number."""
    if not isinstance(value, (str, bytes, complex, bool, np.bool_)) and not (
        isinstance(value, np.ndarray) and value.dtype.kind == "b"
    ):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(what)


_UNIT_SLACK = 1e-6  # how far from 1 a norm may be for a unit vector to be rescaled
_UNIT_EXACT = 1e-12  # how far from 1 a norm may be for a unit vector to be kept as is


def require_unit(v: np.ndarray, where: str = "vector") -> np.ndarray:
    v = _float_array(v, f"{where} is not a numeric vector")
    nrm = float(np.linalg.norm(v))
    # written so that a NaN norm fails the test
    if not abs(nrm - 1.0) <= _UNIT_SLACK:
        raise ValueError(f"{where} is not a unit vector (norm {nrm})")
    if abs(nrm - 1.0) <= _UNIT_EXACT:
        return v
    return v / nrm


def sign_distinct(a: np.ndarray, b: np.ndarray, tol: float):
    """True iff b is within tol of neither a nor -a; row-wise on stacked vectors."""
    return (row_norms(a - b) > tol) & (row_norms(a + b) > tol)


def nonneg_dependent(vectors, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether unit vectors admit a non-negative, not-all-zero dependence.

    Returns (answer, residual): residual is 0 when the answer is robust and
    otherwise measures how badly the best candidate dependence fails (the
    smallest singular value for an independent triple, or the most negative
    normalized coefficient).
    """
    what = "vectors must be numeric vectors of one length"
    a = _float_array(list(vectors), what)
    if a.ndim != 2:
        raise ValueError(what)
    ok, res = nonneg_dependent_rows(a[None], tol)
    return bool(ok[0]), float(res[0])


def nonneg_dependent_rows(stack: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """nonneg_dependent for every (k, m) block of a (T, k, m) stack at once.

    One batched SVD decides all blocks; the answers and residuals are
    returned as two length-T arrays.
    """
    t, k, _ = stack.shape
    if t == 0:
        return np.zeros(0, dtype=bool), np.zeros(0)
    u_mat, s, _ = np.linalg.svd(stack, full_matrices=True)
    if s.shape[1] < k:
        s = np.concatenate([s, np.zeros((t, k - s.shape[1]))], axis=1)
    smax = np.maximum(s[:, 0], 1e-30)
    independent = s[:, -1] > tol * smax
    # all vectors parallel: need mixed signs for a cancelling combination
    parallel = ~independent & (s[:, min(1, k - 1)] <= tol * smax)
    mixed = (np.einsum("tm,tkm->tk", stack[:, 0], stack) < 0).any(axis=1)
    coeff = u_mat[:, :, -1]
    lead = coeff[np.arange(t), np.argmax(np.abs(coeff), axis=1)]
    worst = (coeff * np.sign(lead)[:, None]).min(axis=1)
    ok = np.where(independent, False, np.where(parallel, mixed, worst >= -tol))
    res = np.where(
        independent,
        s[:, -1] / smax,
        np.where(parallel, np.where(mixed, 0.0, 1.0), np.where(ok, 0.0, -worst)),
    )
    return ok, res


def ray_intersection(
    x_i: np.ndarray, dir_i: np.ndarray, x_j: np.ndarray, dir_j: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Least-squares meeting point of two rays; returns (s, t, point)."""
    a = np.stack([dir_i, -dir_j], axis=1)
    b = x_j - x_i
    params, *_ = np.linalg.lstsq(a, b, rcond=None)
    s, t = float(params[0]), float(params[1])
    point = 0.5 * (x_i + s * dir_i + x_j + t * dir_j)
    return s, t, point
