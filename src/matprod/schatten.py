"""Schatten norms, the spectral radius and condition numbers: the one module
that reduces matrices to singular values or eigenvalues.

Singular values come from ``_svals`` by one rule: a stack of one-column
matrices that LAPACK's ``dgesdd`` would not rescale takes one batched QR, whose
|R11| are the SVD's own bits, and any other stack takes the SVD. A stack may
come in parts, which the layer joins into the one buffer it owns: a QR
factors that buffer in place, so a one-column stack is copied once (a stack
split over the CPUs, once more per share).

Matrices are real 2-D float64 arrays with finite entries. The JSON object
wire format is provided here; its reader rejects NaN/Inf.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np
from numpy.linalg import _umath_linalg

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
    return _stack_norms((stack,), p)


def _stack_norms(parts, p):
    """``stack_norms`` of the stack that ``parts``, arrays of matrices, join
    into along axis 0. A caller that would concatenate its stacks hands them
    over as parts instead: the norm layer joins them into the one buffer it
    owns, and a one-column stack under PARALLEL_MATRICES matrices is then
    copied once, into the buffer its QR factors in place (a larger one is
    joined once and each CPU's share copied again). No part is written.
    """
    svals = _by_parts(_svals, *parts)
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


def _join(parts):
    """The stack that ``parts`` join into along axis 0: the one part as given,
    or a new array."""
    return np.asarray(parts[0]) if len(parts) == 1 else np.concatenate(parts)


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _svals(*parts):
    """Singular values of every matrix in the stack joined from ``parts``
    along axis 0, bitwise ``np.linalg.svd(stack, compute_uv=False)``. The
    parts are never written.

    A stack of one-column float64 matrices is joined (or its one part copied)
    into a new buffer, which one batched QR factors in place: numpy's own
    ``qr_r_raw`` gufunc, run as ``np.linalg.qr`` runs it, but without that
    function's copy of its input. When dgesdd would rescale none of the
    columns, that is when each column's largest entry magnitude is 0 or in
    [SMLNUM, BIGNUM], dgesdd returns the QR's |R11| itself. |R11| is the
    column's 2-norm, between its largest entry magnitude and sqrt(d) times it,
    so a norm in [2 sqrt(d) SMLNUM, BIGNUM / 2] settles the range (the factor
    2 covers its rounding), as does a zero norm, which only a zero column has.
    For any other column the stack is formed again from the untouched parts
    (a single part is read as given) and the column's largest entry read; if
    one is out of range, a NaN or an inf, the stack takes the SVD. Any other
    stack takes the SVD, of its one part as given or of its parts joined once.
    """
    stack = _join(parts)
    if stack.ndim < 2 or stack.shape[-1] != 1 or not stack.size or stack.dtype != np.float64:
        return np.linalg.svd(stack, compute_uv=False)
    if len(parts) == 1:
        stack = stack.copy()
    with np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        _umath_linalg.qr_r_raw(stack, signature="d->d")  # R over the stack, tau returned
    svals = np.abs(stack[..., 0, :])
    sure = (svals == 0.0) | ((svals >= 2.0 * math.sqrt(stack.shape[-2]) * SMLNUM)
                             & (svals <= BIGNUM / 2.0))
    if not sure.all():
        stack = _join(parts)
        top = np.abs(stack[~sure[..., 0]]).max(axis=-2)
        if not ((top == 0.0) | (top >= SMLNUM) & (top <= BIGNUM)).all():
            return np.linalg.svd(stack, compute_uv=False)
    return svals


def _by_parts(lapack, *parts):
    """``lapack(*parts)``, with a stack of PARALLEL_MATRICES or more matrices,
    joined from its parts, split along axis 0 into one contiguous share per
    usable CPU.

    numpy's stacked linalg calls copy each matrix into a buffer of its own and
    release the GIL inside LAPACK, so a matrix's result does not depend on
    the stack it sits in, and the shares, run at once and joined in order, are
    bitwise the result of one call. Share 0 runs on the calling thread; the
    first share's error, if any, is raised once every share is done.
    """
    if np.ndim(parts[0]) < 3 or sum(map(len, parts)) < PARALLEL_MATRICES:
        return lapack(*parts)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return lapack(*parts)
    shares = np.array_split(_join(parts), cpus)
    results = [None] * cpus
    errors = [None] * cpus

    def run(i):
        try:
            results[i] = lapack(shares[i])
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

