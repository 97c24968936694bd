"""Schatten norms, the spectral radius and condition numbers: the one module
that reduces matrices to singular values or eigenvalues.

Singular values come from ``_svals`` by one rule: a stack of one-column
matrices that LAPACK's ``dgesdd`` would not rescale takes one batched QR, whose
|R11| are the SVD's own bits, and any other stack takes the SVD.

Matrices are real 2-D float64 arrays with finite entries. The JSON object
wire format is provided here; its reader rejects NaN/Inf.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

# Stacks of at least this many matrices are split over the usable CPUs.
PARALLEL_MATRICES = 512

# dgesdd's scaling thresholds, sqrt(safe minimum) / eps and its reciprocal: it
# rescales a matrix whose largest entry magnitude is nonzero and outside them
SMLNUM = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
BIGNUM = 1.0 / SMLNUM


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 matrix with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must have positive dimensions")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return arr


def _check_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return p


def singular_values(a) -> np.ndarray:
    """Singular values in nonincreasing order."""
    return _svals(as_matrix(a))


def norm_from_singular_values(s: np.ndarray, p) -> np.ndarray | float:
    """l_p norm of singular values; vectorized over leading axes of ``s``."""
    p = _check_p(p)
    s = np.asarray(s, dtype=float)
    if math.isinf(p):
        return s.max(axis=-1)
    top = s.max(axis=-1, keepdims=True)
    # factor out the top singular value: no ratio exceeds 1, so s**p cannot
    # overflow at any p
    safe_top = np.where(top > 0.0, top, 1.0)
    total = ((s / safe_top) ** p).sum(axis=-1) ** (1.0 / p)
    return np.squeeze(safe_top, -1) * total


def schatten_norm(a, p) -> float:
    """Schatten p-norm, spectral at p = math.inf: ``stack_norms`` on a stack of one."""
    return float(stack_norms(as_matrix(a)[None], p)[1][0])


def spectral_norm(a) -> float:
    return float(singular_values(a)[0])


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"spectral radius needs a square matrix, got {arr.shape}")
    return float(spectral_radii(arr))


def stack_norms(stack, p=math.inf):
    """(spectral, Schatten-p) norms of every matrix in a stack, from one
    ``_svals`` call: one SVD, or one QR for a stack of in-range columns.

    Each matrix's singular values are bitwise those of ``singular_values`` on
    it alone, and of ``np.linalg.svd``; the Schatten root is taken as an array
    power, which can differ in the last bits from the scalar power
    ``norm_from_singular_values`` takes on one matrix's singular values.
    """
    svals = _by_parts(_svals, stack)
    return svals[..., 0], np.asarray(norm_from_singular_values(svals, p), dtype=float)


def condition_numbers(stack):
    """2-norm condition number of every matrix in a stack, bitwise
    ``np.linalg.cond``: inf for a singular matrix, NaN only for a matrix that
    holds a NaN."""
    svals = _by_parts(_svals, stack)
    with np.errstate(all="ignore"):
        ratio = svals[..., 0] / svals[..., -1]
    return np.where(np.isnan(ratio) & ~np.isnan(stack).any(axis=(-2, -1)), np.inf, ratio)


def spectral_radii(stack):
    """Largest eigenvalue magnitude of every square matrix in a stack."""
    return np.abs(_by_parts(np.linalg.eigvals, stack)).max(axis=-1)


def _svals(stack):
    """Singular values of every matrix in a stack, bitwise
    ``np.linalg.svd(stack, compute_uv=False)``.

    A stack of real one-column matrices takes one batched QR when dgesdd
    would rescale none of its columns, that is when each column's largest
    entry magnitude is 0 or in [SMLNUM, BIGNUM]: dgesdd then returns the QR's
    |R11| itself. Any other stack, one that holds a NaN or an inf included,
    takes the SVD. |R11| is the column's 2-norm, between its largest entry
    magnitude and sqrt(d) times it, so a norm in [2 sqrt(d) SMLNUM, BIGNUM / 2]
    settles the range (the factor 2 covers its rounding), and only the other
    columns' entries are read again.
    """
    stack = np.asarray(stack)
    if stack.ndim < 2 or stack.shape[-1] != 1 or not stack.size or np.iscomplexobj(stack):
        return np.linalg.svd(stack, compute_uv=False)
    svals = np.abs(np.linalg.qr(stack, mode="r")[..., 0, :])
    unsure = ~((svals >= 2.0 * math.sqrt(stack.shape[-2]) * SMLNUM) & (svals <= BIGNUM / 2.0))
    if unsure.any():
        top = np.abs(stack[unsure[..., 0]]).max(axis=-2)
        if not ((top == 0.0) | (top >= SMLNUM) & (top <= BIGNUM)).all():
            return np.linalg.svd(stack, compute_uv=False)
    return svals


def _by_parts(lapack, stack):
    """``lapack(stack)``, with a stack of PARALLEL_MATRICES or more matrices
    split along axis 0 into one contiguous part per usable CPU.

    numpy's stacked linalg calls copy each matrix into a buffer of its own and
    release the GIL inside LAPACK, so a matrix's result does not depend on
    the stack it sits in, and the parts, run at once and joined in order, are
    bitwise the result of one call. Part 0 runs on the calling thread; the
    first part's error, if any, is raised once every part is done.
    """
    if np.ndim(stack) < 3 or len(stack) < PARALLEL_MATRICES:
        return lapack(stack)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return lapack(stack)
    parts = np.array_split(stack, cpus)
    results = [None] * cpus
    errors = [None] * cpus

    def run(i):
        try:
            results[i] = lapack(parts[i])
        except Exception as exc:  # raised on the calling thread below
            errors[i] = exc

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, cpus)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return np.concatenate(results)


def moment_norm(values, q, weights) -> float:
    """(sum_k w_k * v_k^q)^(1/q) for nonnegative values; exact finite moments."""
    q = float(q)
    if not q >= 1.0:
        raise InvalidParameterError(f"moment order must satisfy q >= 1, got {q}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError("moment_norm expects a flat value list")
    w = np.asarray(weights, dtype=float)
    if w.shape != v.shape:
        raise InvalidInputError("weights must match values")
    top = v.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(top * (w @ (v / top) ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# wire formats

def matrix_to_json(a) -> dict:
    arr = as_matrix(a)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [float(x) for x in arr.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidInputError("matrix JSON must be an object")
    if set(obj) != {"rows", "cols", "data"}:
        raise InvalidInputError(f"matrix JSON takes the fields rows, cols, data, got keys "
                                f"{', '.join(map(repr, obj))}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows <= 0 or cols <= 0:
        raise InvalidInputError("rows/cols must be positive integers")
    data = obj["data"]
    if len(data) != rows * cols:
        raise InvalidInputError(f"expected {rows * cols} entries, got {len(data)}")
    try:
        arr = np.asarray(data, dtype=float).reshape(rows, cols)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad matrix data: {exc}") from None
    return as_matrix(arr)


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator; round-trips float64."""
    return format(float(x), ".17g")

