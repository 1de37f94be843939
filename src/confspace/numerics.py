"""Small numerical helpers shared by the geometry modules."""

from __future__ import annotations

import itertools
import math

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


def sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis as one add.reduce of the elementwise
    products, with no BLAS call.  A row is summed in the same order whether
    it stands alone or in a stack, at any memory offset, where a BLAS ddot
    kernel (OpenBLAS's Prescott one, for instance) can round a vector
    differently by its alignment."""
    return np.add.reduce(a * b, axis=-1)


def unit_norms(v: np.ndarray) -> np.ndarray:
    """The norms that decide whether vectors are unit vectors, and rescale
    them: sum_products, so one vector and a stack of them agree bit for bit."""
    return np.sqrt(sum_products(v, v))


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
    # a huge entry overflows the norm to inf, which fails the test, as
    # it is written so that a NaN norm fails it too
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(unit_norms(v.reshape(-1)))
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
    normalized coefficient).  Non-finite vectors raise ValueError, and so do
    vectors whose norm is further than require_unit's slack from 1, named
    by position: the test for parallel vectors compares each with the first,
    which a zero or tiny first vector never passes.
    """
    what = "vectors must be numeric vectors of one length"
    a = _float_array(list(vectors), what)
    if a.ndim != 2:
        raise ValueError(what)
    if not np.isfinite(a).all():
        raise ValueError("vectors must be finite")
    norms = row_norms(a)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_SLACK))
    if off.size:
        named = ", ".join(f"vector {i} (norm {norms[i]:.6g})" for i in off.tolist())
        raise ValueError(f"not unit vectors: {named}")
    ok, res = nonneg_dependent_rows(a[None], tol)
    return bool(ok[0]), float(res[0])


_CYCLE = np.array([0, 1, 2, 0, 1])  # a triangle's rows read cyclically, for its cofactors


def nonneg_dependent_rows(stack: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """nonneg_dependent for every (k, m) block of a (T, k, m) stack at once;
    the answers and residuals are returned as two length-T arrays.

    Triangles (k = 3, m >= 2, 0 < tol < 0.5) first go to a closed-form
    certificate (_certified): from the null vector adj(V Vᵀ)·1 of a
    block V it proves, for most member triangles, that the SVD would
    find the block dependent, not parallel, and its null vector
    non-negative to within tol, so that it would answer (True, 0.0).
    Its margins cover the rounding of its own arithmetic and the SVD's
    backward error, taken as (64 + 4m)·u·tr(V Vᵀ) with u = 2^-53.  One
    batched SVD decides every other block: the rows the certificate
    cannot clear (non-members, near-parallel sides, rows within a margin
    of a bound), m = 1 and k != 3.  So every answer and residual is the
    SVD's, to the bit.
    """
    t, k, m = stack.shape
    if k != 3 or m < 2 or not 0.0 < tol < 0.5:
        return _svd_rows(stack, tol)
    ok, res = _certified(stack, tol), np.zeros(t)
    rest = np.flatnonzero(~ok)
    if rest.size:
        ok[rest], res[rest] = _svd_rows(stack[rest], tol)
    return ok, res


def _certified(v: np.ndarray, tol: float) -> np.ndarray:
    """Rows of a (T, 3, m) stack for which _svd_rows provably returns
    (True, 0.0): it finds the rows dependent, not parallel, and its null
    vector non-negative to within tol.

    The candidate null vector is c = adj(G)·1 of the Gram matrix G = V Vᵀ
    (exact when the rows are dependent and G has rank 2), with w = c/|c|
    and residual r = |Σ w_k v_k|.  With u = 2^-53, the backward error of
    LAPACK's SVD is taken as ε = (64 + 4m)·u·tr G: the computed SVD is the
    exact one of V + E, |E| <= ε, with a last left singular vector within
    64u of exact.  Only rows of 2 <= tr G <= 4 (unit vectors have 3) are
    certified, so that ε and the bounds below hold with tr G replaced by 4.
    A row is certified when

    - residual: r·(1 + ρ) + 8u + ε <= tol·(√(2/3) - ε)·(1 - 2ρ), with
      ρ = (m + 16)·u the relative rounding of r: the computed smallest
      singular value is at most |(V + E)ᵀw|, the largest at least
      √(tr G / 3) - ε, so the SVD does not find the rows independent;
    - s₁: s₁ = √((tr adj G - ξ)/8)·(1 - 2ρ) - ε > tol·(2 + ε)·(1 + ρ),
      with ξ = (4m + 16)·16u the rounding of tr adj G: since
      tr adj G <= 2·tr G·λ₂, s₁ is a lower bound on the computed second
      singular value, and 2 + ε an upper one on the largest, so the SVD
      does not find the rows parallel;
    - δ: min_k w_k - δ >= -tol with δ = 1.5·(1 + ρ)·(r·(1 + ρ) + 8u + ε)/s₁
      + 128u: the angle θ between w and the SVD's null vector of V + E
      has sin θ <= |(V + E)ᵀw| / s₁, so each coefficient of that vector,
      signed by its largest one, is within δ of w's.

    Every comparison involving NaN is false, so a degenerate row (c = 0,
    tr adj G < ξ, non-finite entries) is not certified.
    """
    m = v.shape[2]
    u = 2.0**-53
    rho, eps, xi = (m + 16) * u, (64 + 4 * m) * 4 * u, (4 * m + 16) * 16 * u
    r_max = (tol * (math.sqrt(2 / 3) - eps) * (1 - 2 * rho) - 8 * u - eps) / (1 + rho)
    s1_min = tol * (2 + eps) * (1 + rho)
    with np.errstate(all="ignore"):
        cyclic = v[:, _CYCLE]
        g = cyclic @ cyclic.transpose(0, 2, 1)
        # cofactor (a, b) of a 3x3 block is the 2x2 minor of rows a+1, a+2
        # and columns b+1, b+2, read cyclically
        adj = g[:, 1:4, 1:4] * g[:, 2:, 2:] - g[:, 1:4, 2:] * g[:, 2:, 1:4]
        c = adj.sum(axis=2)
        tr = np.trace(g[:, :3, :3], axis1=1, axis2=2)
        s1 = np.sqrt(np.trace(adj, axis1=1, axis2=2) - xi) * (math.sqrt(1 / 8) * (1 - 2 * rho)) - eps
        cn = row_norms(c)
        r = row_norms((c[:, None, :] @ v)[:, 0]) / cn
        delta = (r * (1 + rho) + (8 * u + eps)) * (1.5 * (1 + rho)) / s1 + 128 * u
        return (
            (np.abs(tr - 3.0) <= 1.0)
            & (r <= r_max)
            & (s1 > s1_min)
            & (c.min(axis=1) / cn - delta >= -tol)
        )


def _svd_rows(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """nonneg_dependent_rows by one batched SVD of every block."""
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
) -> tuple:
    """Least-squares meeting point of the rays x_i + s·dir_i and x_j + t·dir_j,
    row by row over the last axis, for a unit dir_i; returns (s, t, point),
    with s and t as floats for one pair of rays.

    Gram–Schmidt on [dir_i, dir_j, b] with b = x_j - x_i, which is backward
    stable for least squares (Björck, Numerical Methods for Least Squares
    Problems, 1996, §2.4; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 19): c = dir_i·dir_j, v = dir_j - c·dir_i,
    a = dir_i·b and r = b - a·dir_i, then t = -(v·r)/(v·v) and s = a + c·t.
    The normal equations and Cramer's rule square the 1/sin θ of nearly
    parallel rays instead.  Each dot product is a sum_products, so a row's
    bits do not depend on the rows stacked with it.  Parallel rays (v = 0)
    give non-finite s and t.
    """
    b = x_j - x_i
    c = sum_products(dir_i, dir_j)
    v = dir_j - c[..., None] * dir_i
    a = sum_products(dir_i, b)
    r = b - a[..., None] * dir_i
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -sum_products(v, r) / sum_products(v, v)
    s = a + c * t
    point = 0.5 * (x_i + s[..., None] * dir_i + x_j + t[..., None] * dir_j)
    if np.ndim(s) == 0:
        return float(s), float(t), point
    return s, t, point
