"""Monte Carlo simulation and exact enumeration of random matrix products.

Products are formed left to right: Z_n = Y_n ... Y_1 Z_0, with factor i drawn
from the i-th ensemble. Trial k consumes only the stream derived from
(seed, *key, k), so estimates are bitwise reproducible under any execution
schedule. Inverse mode returns (Y_n ... Y_1 Z_0)^(-1) built from per-factor
linear solves. Independent and inverse products read each distinct
ensemble's law from one table, _laws(spec), shared by the positions that draw
from it. Adapted mode asks a hook for each factor's law given the
running product Z_{i-1} of the past draws; only exact enumeration runs it, and
each path is measured against its running product of conditional means F_n.

Every confidence limit is at LEVEL = 0.99. The module imports no scipy at
load time: the normal limits use a literal z-value, and Clopper-Pearson limits
at 0 hits or at all hits are closed forms, so scipy is imported only for
interior hit counts and triangular arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    householder_direction,
    make_bounded_perturbation,
    support_stats,
)
from .errors import (
    EnumerationInfeasibleError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedEnsembleError,
)
from .schatten import (
    as_matrix,
    condition_numbers,
    spectral_norm,
    spectral_radii,
    stack_norms,
)
from .streams import substream, uniforms

MODES = ("independent", "adapted", "inverse")
LEVEL = 0.99  # the confidence level of every Monte Carlo limit
ENUMERATION_BUDGET = 2**20
CONDITION_LIMIT = 1e12
# bytes: caps what one product step of a Monte Carlo chunk holds, and the
# chunk's uniforms, so that one step's gather stays in cache
GATHER_BUDGET = 2**19
# paths: the widest block the exact enumeration walk steps at once
FRONTIER_PATHS = 8192


# ---------------------------------------------------------------------------
# specifications

@dataclass(frozen=True, eq=False)
class ProductSpec:
    """What to multiply: factor ensembles, a start matrix, and a mode."""

    factors: tuple
    z0: np.ndarray
    mode: str = "independent"
    adapted_hook: Optional[object] = None
    n_steps: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        z0 = as_matrix(self.z0, "z0")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.mode == "adapted":
            if self.adapted_hook is None:
                raise InvalidParameterError("adapted mode needs an adapted_hook")
            if not callable(getattr(self.adapted_hook, "conditional_supports", None)):
                raise InvalidParameterError("an adapted_hook needs conditional_supports(runs)")
            if self.n is None or self.n < 1:
                raise InvalidParameterError("adapted mode needs n_steps or factors")
        else:
            if not self.factors:
                raise InvalidParameterError("need at least one factor")
            dims = {e.dim for e in self.factors}
            if dims != {z0.shape[0]}:
                raise InvalidInputError("factor dimensions must match rows of z0")
        if self.mode == "inverse" and z0.shape[0] != z0.shape[1]:
            raise InvalidInputError("inverse mode needs a square start matrix")

    @property
    def d(self) -> int:
        return self.z0.shape[0]

    @property
    def r(self) -> int:
        return self.z0.shape[1]

    @property
    def n(self) -> Optional[int]:
        if self.factors:
            return len(self.factors)
        return self.n_steps


@dataclass(frozen=True)
class MCEstimate:
    quantity: str
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int
    level: float = LEVEL

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SimulationResult:
    z: list
    trials: int
    seed: int
    excluded_indices: list = field(default_factory=list)
    f = None  # always None, as Monte Carlo samples no adapted products; bench/spans.py reads it

    @property
    def excluded(self) -> int:
        return len(self.excluded_indices)


@dataclass(frozen=True)
class TailEstimate:
    quantity: str
    threshold: float
    frequency: float
    hits: int
    trials: int
    ucl: float
    lcl: float
    level: float = LEVEL

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# adapted hooks: conditional_supports(runs) maps a (B, d, r) stack of running
# products Z_{i-1} = Y_{i-1} ... Y_1 Z_0 to (atoms, probs), a (K, d, d) atom
# stack or the (K, d) diagonals of diagonal atoms, and (B, K) or (1, K) atom
# probabilities. Z_{i-1} is a function of the past draws, so the hook is adapted.

@dataclass(frozen=True, eq=False)
class NormBiasedTwoPointHook:
    """Two-point factors I +/- scale*U whose sign bias flips with history.

    While the running product Z_{i-1} has Frobenius norm at most sqrt(dim),
    the identity's, the + sign has probability ``high``; above it, the bias
    flips to 1 - high. Conditional statistics hold for every history, so the
    adapted product bounds apply.
    """

    dim: int
    scale: float = 0.05
    high: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.high < 1.0:
            raise InvalidParameterError("bias must lie in (0, 1)")
        if not 0.0 < self.scale:
            raise InvalidParameterError("scale must be positive")
        eye = np.eye(self.dim)
        spike = self.scale * householder_direction(self.dim)
        object.__setattr__(self, "atoms", np.stack([eye + spike, eye - spike]))

    def conditional_supports(self, runs):
        """(atoms, probs) for a (B, dim, r) stack of running products."""
        flat = runs.reshape(len(runs), 1, -1)  # the Frobenius norm as one dot product
        low = np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0] <= math.sqrt(self.dim)
        pi = np.where(low, self.high, 1.0 - self.high)
        return self.atoms, np.stack([pi, 1.0 - pi], axis=1)

    def factor_stats(self) -> FactorStats:
        swing = abs(2.0 * self.high - 1.0)
        m = 1.0 + self.scale * swing
        dev = self.scale * (1.0 + swing)  # worst-case ||Y - E_{i-1} Y||
        return FactorStats(mean_norm=m, sigma=dev / m, q=2.0,
                           uniform_norm=max(m, 1.0 + self.scale),
                           sigma_uniform=dev / m)


# ---------------------------------------------------------------------------
# simulation

class _Law:
    """One factor ensemble's law in a spec, shared by every position that
    draws from it; each part is computed when a reader first asks for it.
    ``steps`` are the (K, d, d) atoms, the (K, d) diagonals of diagonal atoms or
    in inverse mode the atoms' inverses (zero where no path goes); ``mean`` is
    E Y as a matrix, read by neither the moves nor a diagonal mean's row scales."""

    def __init__(self, ensemble, spec):
        self.ensemble, self.invert, self.r = ensemble, spec.mode == "inverse", spec.r

    probs = functools.cached_property(lambda self: np.array(self.support.probs)[None])
    mean = functools.cached_property(lambda self: self.ensemble.exact_mean())

    @functools.cached_property
    def support(self) -> SupportSampler:  # it keeps its atoms' condition numbers
        if self.ensemble.support is None:
            raise UnsupportedEnsembleError(f"{self.ensemble.kind} ensemble has no finite support")
        return self.ensemble.support

    @functools.cached_property
    def steps(self) -> np.ndarray:
        s = self.support
        if not self.invert:
            return s.atoms if s.moves is None else s.diagonals
        inverses, live = np.zeros_like(s.atoms), self.probs[0] > 0
        inverses[live] = np.linalg.solve(s.atoms[live], np.eye(s.dim))
        return inverses

    @functools.cached_property
    def moved(self) -> tuple:
        """(offsets, factors), each (K, m r), of a diagonal support's moves:
        where atom k's moved entries sit in one trial's flattened d x r
        product, and what the step multiplies them by."""
        cols, vals = self.support.moves
        offsets = (cols * self.r)[:, :, None] + np.arange(self.r)
        return offsets.reshape(len(cols), -1), np.repeat(vals, self.r, axis=1)


def _laws(spec) -> list:
    """Each factor position's _Law: one record per distinct ensemble."""
    shared = {e: _Law(e, spec) for e in dict.fromkeys(spec.factors)}
    return [shared[e] for e in spec.factors]


def expected_product(spec: ProductSpec) -> np.ndarray:
    """Exact E Z_n = (E Y_n) ... (E Y_1) Z_0 for independent factor draws.

    The means multiply in factor order. A run of one law whose mean is a (d,)
    diagonal scales rows step by step, in blocks within GATHER_BUDGET, then adds
    0.0 once: the matrix chain's bits while finite (_sampled_chunk), else redone.
    """
    if spec.mode != "independent":
        raise UnsupportedEnsembleError(
            f"expected_product is defined for independent products, not {spec.mode!r}")
    out = spec.z0
    with np.errstate(over="ignore", invalid="ignore"):  # the caller names an overflow
        for law, run in itertools.groupby(_laws(spec)):
            steps = len(list(run))
            if np.ndim(law.ensemble.mean) == 1:  # a block's steps in one reduce, in order
                scaled, span = out, max(1, GATHER_BUDGET // (8 * out.size))
                for lo in range(0, steps, span):
                    block = np.empty((min(span, steps - lo) + 1, *out.shape))
                    block[0], block[1:] = scaled, np.reshape(law.ensemble.mean, (-1, 1))
                    scaled = np.multiply.reduce(block, axis=0)
                if np.isfinite(scaled).all():
                    out, steps = scaled + 0.0, 0  # else the matrix redoes the run
            for _ in range(steps):
                out = law.mean @ out
    return out


def _right_solve(y, prod):
    """prod @ y^(-1) via a linear solve, for stacks."""
    return np.linalg.solve(y.swapaxes(-1, -2), prod.swapaxes(-1, -2)).swapaxes(-1, -2)


def _inverse_start(spec):
    """Z_0^(-1), the start of an inverse product."""
    try:
        return np.linalg.solve(spec.z0, np.eye(spec.d))
    except np.linalg.LinAlgError:
        raise InvalidInputError("the start z0 is singular, which has no inverse") from None


def _step(stack, idx, prod, apply=np.matmul):
    """apply(stack[idx], prod) for a batch of rows: one gather-and-multiply step.

    A (K, d, d) atom stack multiplies; the (K, d) diagonals of diagonal atoms
    scale rows in place, ``D_jj * z_j + 0.0``. Row j of the matrix product sums
    D_jj z_j and exact zeros from +0, so the scale has its bits while finite,
    is non-finite exactly when it is, and has unspecified bits past that.
    """
    rows = stack.take(idx, axis=0)
    if stack.ndim == 3:
        return apply(rows, prod)
    out = np.multiply(rows[:, :, None], prod)
    out += 0.0
    return out


def _chunk_size(spec, samplers):
    """(trials per Monte Carlo chunk, bytes one step holds per trial).

    A dense step gathers a d x d atom per trial and makes a new d x r
    product; a diagonal step changes the d x r product in place. The chunk
    keeps one step, and a trial's reads (a uniform per support factor, a d x d
    draw per drawn factor), within GATHER_BUDGET. Inverse mode gathers dense
    atoms, but its start is square, so r = d.
    """
    dense = any(getattr(s, "moves", None) is None for s in samplers)
    step = 8 * spec.d * (max(spec.d, spec.r) if dense else spec.r)
    held = sum(1 if isinstance(s, SupportSampler) else spec.d ** 2 for s in samplers)
    return max(1, GATHER_BUDGET // max(step, 8 * held)), step


def _stream_reads(spec, samplers, seed, key, ks):
    """(T, n) uniforms, unset at drawn factors, and {drawn factor: its (T, d, d)
    draws}: each trial reads its stream run by run in factor order, ``random(k)``
    for k support factors and ``draws(rng, k)`` for k factors of one drawn
    sampler. ``random(k)`` gives the bits of k single draws. A spec with only
    finite supports is one run, each trial's ``random(n)``, which ``uniforms``
    computes for the whole chunk without opening a generator."""
    draws = {i: np.empty((len(ks), spec.d, spec.d)) for i, s in enumerate(samplers)
             if not isinstance(s, SupportSampler)}
    if not draws:
        return uniforms(seed, key, ks, len(samplers)), draws
    u = np.empty((len(ks), len(samplers)))
    runs = [list(run) for _, run in itertools.groupby(
        range(len(samplers)), key=lambda i: id(samplers[i]) if i in draws else None)]
    for t, (row, k) in enumerate(zip(u, ks)):
        rng = substream(seed, *key, k)
        for run in runs:
            if run[0] in draws:
                for i, y in zip(run, samplers[run[0]].draws(rng, len(run))):
                    draws[i][t] = y
            else:
                rng.random(out=row[run[0]:run[-1] + 1])
    return u, draws


def _scatter(moved, digits, flat, base):
    """A run of diagonal steps of one sampler in place: the (steps, T) atoms
    ``digits`` multiply their moved entries of the flat C-order products,
    trial t's starting at offset base[t]. ``np.multiply.at`` is unbuffered
    and goes in index order, so an entry that several steps move is
    multiplied in step order. The run goes in slices of steps whose index
    and factor blocks each fit GATHER_BUDGET, or of one step."""
    offsets, factors = moved
    span = max(1, GATHER_BUDGET // max(1, 8 * offsets.shape[1] * len(base)))
    for lo in range(0, len(digits), span):
        dig = digits[lo:lo + span]
        idx = offsets.take(dig, axis=0)
        idx += base
        np.multiply.at(flat, idx.reshape(-1), factors.take(dig, axis=0).reshape(-1))


def _sampled_chunk(spec, start, laws, u, draws):
    """One chunk of trials through the gather kernel, from the factors' laws
    (_laws) and the trials' reads (_stream_reads): (products, kept), the
    dense per-trial loop's while finite.

    Factor i's atoms are ``digits[i]``: each distinct finite-support law picks
    the uniforms of all its factors in one call, and drawn factor i's (T, d, d)
    draws give trial t atom t. Inverse mode multiplies up the condition
    numbers in factor order, and right-solves by the dense atoms only the
    trials it keeps, those whose estimate is at most CONDITION_LIMIT; ``kept``
    is their (T,) mask, and None outside inverse mode.

    Outside inverse mode, consecutive steps of one diagonal law change only
    their moved entries, in one ordered scatter (_scatter), and a run of
    diagonal steps ends with one ``+ 0.0``. That has the bits of full steps
    (_step): ``+ 0.0`` changes only the sign of a zero, a finite factor keeps
    a zero a zero, so the last ``+ 0.0`` alone decides that sign; an unmoved
    entry gets 1.0 z + 0.0, ±inf and NaN included. So a product overflows at
    the loop's step, and its bits past that are unspecified."""
    groups = {}
    for i, law in enumerate(laws):
        if i not in draws:
            groups.setdefault(law, []).append(i)
    digits = np.empty((len(laws), len(u)), dtype=np.intp)
    for law, cols in groups.items():
        digits[cols] = law.support.pick(u[:, cols]).T
    digits[list(draws)] = np.arange(len(u))
    invert, kept = spec.mode == "inverse", None
    if invert:  # the atoms' condition numbers, multiplied up in factor order
        cond_est = np.full(len(u), condition_numbers(spec.z0))
        for i, (law, dig) in enumerate(zip(laws, digits)):
            conds = condition_numbers(draws[i]) if i in draws else law.support.conds
            cond_est = cond_est * conds[dig]
        kept = ~(cond_est > CONDITION_LIMIT)
        digits = digits[:, kept]
    trials = digits.shape[1]
    base = (np.arange(trials) * start.size)[:, None]
    prod = np.broadcast_to(start, (trials, *start.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # _block_norms names an overflow
        for law, run in itertools.groupby(range(len(laws)), key=laws.__getitem__):
            run = list(run)
            if invert or run[0] in draws or law.support.moves is None:
                for i in run:  # factor i's draws, or its law's dense atoms or steps
                    atoms = draws[i] if i in draws else law.support.atoms if invert else law.steps
                    prod = _step(atoms, digits[i], prod, _right_solve if invert else np.matmul)
                continue
            if not prod.flags.writeable:  # the broadcast start; steps make C-order products
                prod = prod.copy()
            _scatter(law.moved, digits[run[0]:run[-1] + 1], prod.reshape(-1), base)
            prod += 0.0
    return prod, kept


def _trial_chunks(spec, trials, seed, key):
    """Yield (products, excluded trial numbers), one gather kernel chunk
    (_sampled_chunk) at a time. Inverse mode drops ill-conditioned or
    non-finite trials and names them; an ill-conditioned one, such as a trial
    that draws a singular atom, is never solved. Trial k reads only the
    stream (seed, *key, k), so the bits do not depend on the chunking.
    Adapted products raise UnsupportedEnsembleError: enumerate_product
    certifies them exactly."""
    trials = int(trials)
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    if spec.mode == "adapted":
        raise UnsupportedEnsembleError(
            "Monte Carlo does not sample adapted products; use enumerate_product")
    invert = spec.mode == "inverse"
    start = _inverse_start(spec) if invert else spec.z0
    samplers, laws = [e.sampler for e in spec.factors], _laws(spec)
    chunk, _ = _chunk_size(spec, samplers)
    for lo in range(0, trials, chunk):
        ks = range(lo, min(lo + chunk, trials))
        prod, kept = _sampled_chunk(spec, start, laws,
                                    *_stream_reads(spec, samplers, seed, key, ks))
        excluded = []
        if invert:  # the ill-conditioned trials were never solved
            finite = np.isfinite(prod).all(axis=(1, 2))
            kept[kept] = finite
            prod, excluded = prod[finite], (lo + np.flatnonzero(~kept)).tolist()
        yield prod, excluded


def simulate_product(spec: ProductSpec, trials, seed, key=()) -> SimulationResult:
    """Per-trial draws of Z_n, kept as matrices; adapted specs raise as in _trial_chunks.

    summarize_simulation reduces the same trials without keeping them. Each
    is the dense per-trial loop's while finite, non-finite exactly when that is.
    """
    zs, excluded = [], []
    for prods, bad in _trial_chunks(spec, trials, seed, key):
        zs.extend(prods)
        excluded.extend(bad)
    return SimulationResult(z=zs, trials=int(trials), seed=seed, excluded_indices=excluded)


_Z99 = 2.5758293035489004  # the z-value of LEVEL: scipy.special.ndtri(0.995), bit for bit


# a table row whose largest entry is below this, sqrt of the smallest normal
# float64 (~1.5e-154), has only subnormal squared deviations
_TINY_ROOT = math.sqrt(np.finfo(float).tiny)


def _estimate(quantity, mean, std, n, seed, q=None, scale=1.0) -> MCEstimate:
    """One table row's estimate from its mean and standard deviation: a mean
    with normal limits at LEVEL or, given ``q``, the q-th root of a mean of
    q-th powers, with the roots of its limits (the lower one clamped at 0)
    and a delta-method standard error; every field times ``scale``."""
    se = std / math.sqrt(n) if n > 1 else 0.0
    lo, hi = mean - _Z99 * se, mean + _Z99 * se
    if q is not None:
        root = 1.0 / q
        se = se * mean ** (root - 1.0) / q if mean > 0 else 0.0
        mean, lo, hi = mean ** root, max(lo, 0.0) ** root, hi ** root
    return MCEstimate(quantity, scale * mean, scale * se, scale * lo, scale * hi, n, seed)


def _estimates(rows, seed) -> dict:
    """The estimate table: one MCEstimate per (quantity, values, q) row of
    one run's non-negative values, q None for a mean row.

    The rows, a moment row as its q-th powers, are stacked into one
    C-contiguous (k, T) table and reduced by one ``mean(axis=1)`` and one
    ``std(axis=1, ddof=1)``, which give each row the bits of its own 1-D
    ``mean()`` and ``std(ddof=1)``. A row whose raw reduction overflows (its
    mean or standard deviation is not finite) or underflows (its largest
    entry is below ``_TINY_ROOT``) is reduced again from its values divided
    by their largest one, a factor ``_estimate`` puts back after the root;
    a row of zeros or with an infinite value keeps its raw reduction, and
    every other row keeps its bits.
    """
    def reduce(table):  # (means, standard deviations) of the rows, as Python floats
        n = table.shape[1]
        std = table.std(axis=1, ddof=1) if n > 1 else np.zeros(len(table))
        return table.mean(axis=1).tolist(), std.tolist()

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # rows redone below
        table = np.stack([v if q is None else v ** q for _, v, q in rows])
        means, stds = reduce(table)
        peaks = table.max(axis=1).tolist()
    out = {}
    for (name, values, q), mean, std, peak in zip(rows, means, stds, peaks):
        scale = 1.0
        if not (math.isfinite(mean) and math.isfinite(std) and peak >= _TINY_ROOT):
            top = float(values.max())
            if 0.0 < top < math.inf:
                scaled = values / top
                (mean,), (std,) = reduce((scaled if q is None else scaled ** q)[None])
                scale = top
        out[name] = _estimate(name, mean, std, table.shape[1], seed, q, scale)
    return out


def _block_norms(prods, dev, p, radius):
    """(spectral norms, Schatten-p norms, spectral radii or None) of a block of products.

    One norm stack covers the products and, when ``dev`` is given, their
    deviations: row 0 of each norm array is the products', row 1 the
    deviations'. Per-matrix singular values do not depend on the stack they
    sit in, so a chunked run's norms are those of one whole stack.
    """
    stack = prods if dev is None else np.concatenate([prods, dev])
    if not np.isfinite(stack).all():  # LAPACK would fail to converge on it
        raise InvalidInputError(
            "a product or its deviation overflowed float64 to a non-finite entry; "
            "shorten the product or shrink its factors")
    spectral, schatten = (x.reshape(-1, len(prods)) for x in stack_norms(stack, p))
    return spectral, schatten, (spectral_radii(prods) if radius else None)


def _checked_q(q, *thresholds) -> float:
    """q as a float in [1, inf); a NaN tail threshold is refused too, an inf one is not."""
    q = float(q)
    if not 1.0 <= q < math.inf:
        raise InvalidParameterError(f"q must satisfy 1 <= q < inf, got {q}")
    if any(math.isnan(x) for xs in thresholds for x in xs):
        raise InvalidParameterError("a tail threshold is NaN")
    return q


def _tails(spectral, thresholds_growth, deviations, thresholds_deviation) -> list:
    """Growth tails of the spectral norms, then tails of the deviations if any."""
    out = []
    for name, values, thresholds in (("growth-tail", spectral, thresholds_growth),
                                     ("deviation-tail", deviations, thresholds_deviation)):
        if values is None:
            continue
        n = values.size
        for x in thresholds:
            hits = int((values >= x).sum())
            lcl, ucl = clopper_pearson(hits, n)
            out.append(TailEstimate(name, float(x), hits / n, hits, n, ucl, lcl))
    return out


def clopper_pearson(hits: int, trials: int):
    """One-sided lower/upper confidence limits at LEVEL for a binomial proportion.

    At hits == 0 and hits == trials the beta quantile has a closed form, the
    one scipy.special.betaincinv evaluates there, bit for bit; only interior
    hit counts import scipy.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    if not isinstance(hits, numbers.Integral) or not 0 <= hits <= trials:
        raise InvalidParameterError(f"hits must be an integer in [0, {trials}]")
    if hits == 0:
        return 0.0, -math.expm1(math.log(1.0 - LEVEL) / trials)
    if hits == trials:
        return (1.0 - LEVEL) ** (1.0 / trials), 1.0
    import scipy.special

    return (float(scipy.special.betaincinv(hits, trials - hits + 1, 1.0 - LEVEL)),
            float(scipy.special.betaincinv(hits + 1, trials - hits, LEVEL)))


def summarize_simulation(spec: ProductSpec, trials, seed, p=2.0, q=2.0, thresholds_growth=(),
                         thresholds_deviation=(), key=(), spectral_radius=True):
    """Monte Carlo estimates and tail frequencies of one run, reduced chunk by
    chunk: (estimates, tails, spectral, excluded).

    Independent mode measures deviations against ``expected_product``;
    inverse mode reports no deviations; adapted specs raise as in
    _trial_chunks. Only norm columns outlive a chunk, so memory grows with the
    trials by a few floats each. ``spectral`` holds each included trial's
    spectral norm, in trial order, and ``excluded`` the numbers of the trials
    inverse mode left out. Square products also estimate the spectral radius
    unless ``spectral_radius`` is False.
    """
    q = _checked_q(q, thresholds_growth, thresholds_deviation)
    mean = expected_product(spec) if spec.mode == "independent" else None
    radius = spectral_radius and spec.d == spec.r
    norms, radii, excluded = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # _block_norms names an overflow
        for prods, bad in _trial_chunks(spec, trials, seed, key):
            excluded.extend(bad)
            if len(prods):
                spectral, schatten, rad = _block_norms(
                    prods, None if mean is None else prods - mean, p, radius)
                norms.append(np.stack([spectral, schatten]))  # lets the singular values go
                radii.append(rad)
    if not norms:
        raise InvalidParameterError("no included trials to analyze")
    norms = np.concatenate(norms, axis=2)
    spectral, schatten = norms[:, 0]
    dspec, dsch = norms[:, 1] if norms.shape[1] == 2 else (None, None)
    rows = [("spectral-norm-mean", spectral, None), ("schatten-moment", schatten, q)]
    if radius:
        rows.append(("spectral-radius-mean", np.concatenate(radii), None))
    if dspec is not None:
        rows += [("deviation-norm-mean", dspec, None), ("deviation-schatten-moment", dsch, q)]
    tails = _tails(spectral, thresholds_growth, dspec, thresholds_deviation)
    return _estimates(rows, seed), tails, spectral, excluded


# ---------------------------------------------------------------------------
# exact enumeration

@dataclass
class EnumerationReport:
    outcomes: int
    p: float
    q: float
    mean: np.ndarray
    growth_mean: float
    deviation_mean: float
    growth_moment: float
    deviation_moment: float
    spectral_radius_mean: Optional[float] = None
    tail_growth: dict = field(default_factory=dict)
    tail_deviation: dict = field(default_factory=dict)
    reference: str = "mean"  # deviations measured against EZ, or "adapted" for F_n


# each Monte Carlo estimate key and the EnumerationReport field it estimates
ESTIMATE_FIELDS = {
    "spectral-norm-mean": "growth_mean",
    "schatten-moment": "growth_moment",
    "spectral-radius-mean": "spectral_radius_mean",
    "deviation-norm-mean": "deviation_mean",
    "deviation-schatten-moment": "deviation_moment",
}


def _walk(start, n, level, apply=np.matmul):
    """Every path of an n-factor product from ``start``, walked level by level.

    ``level(depth, prods)`` gives the next factor's support for a block of
    paths with products ``prods``: (steps, probs, means). Path b takes step j
    with probability ``probs[b, j]``; ``probs`` may be one (1, K) row for
    every path. ``means``, when not None, holds each path's conditional mean
    factor, and the path's reference product takes it as the product takes
    its step. Yields (weights, products, references) blocks in leaf order,
    with references None when ``level`` gives no means.

    Children come parent-major and atom-minor, the order of a depth-first
    walk that takes atom 0 first, and atoms of probability 0 are skipped. A
    block holds at most FRONTIER_PATHS paths, so a walk with at most that
    many leaves yields one block. Past that, a level's parents go in groups
    whose subtrees should fit, judged by the most children one path has had
    so far, and each group's deeper levels are walked before the next.
    """
    cap, fan = FRONTIER_PATHS, 1
    walked = [0] * (n + 1)  # paths reached at each depth

    def frame(depth, block):
        nonlocal fan
        b = len(block[0])
        steps, probs, means = level(depth, block[1])
        probs = np.broadcast_to(probs, (b, probs.shape[-1]))
        if means is not None:
            means = np.broadcast_to(means, (b, *means.shape[1:]))
        par, col = np.nonzero(probs)
        counts = np.bincount(par, minlength=b)
        fan = max(fan, int(counts.max()))
        return [depth, block, (steps, probs, means), par, col, np.cumsum(counts), 0]

    root = start[None]  # the empty path: weight 1, product and reference the start
    frames = [frame(0, (np.ones(1), root, root))]
    while frames:
        f = frames[-1]
        depth, (w, prods, refs), (steps, probs, means), par, col, ends, first = f
        base, last = (ends[first - 1] if first else 0), len(ends)
        if ends[-1] > cap:
            limit = cap // fan ** min(n - depth - 1, cap.bit_length())
            last = max(first + 1, int(np.searchsorted(ends, base + limit, side="right")))
        f[-1] = last
        if last == len(ends):
            frames.pop()
        kids = slice(base, ends[last - 1])
        walked[depth + 1] += kids.stop - base
        if walked[depth + 1] > ENUMERATION_BUDGET:  # only adapted walks are not counted up front
            raise EnumerationInfeasibleError(
                f"adapted enumeration exceeded the {ENUMERATION_BUDGET}-path budget",
                required=ENUMERATION_BUDGET + 1, budget=ENUMERATION_BUDGET)
        par_k, col_k = par[kids], col[kids]  # path par_k[i] extended by atom col_k[i]
        child = (w[par_k] * probs[par_k, col_k], _step(steps, col_k, prods[par_k], apply),
                 None if means is None else _step(means, par_k, refs[par_k]))
        if depth + 1 == n:
            yield child
        else:
            frames.append(frame(depth + 1, child))


def _spec_walk(spec):
    """A function that starts the walk (_walk) of every outcome of ``spec``.

    Adapted specs ask the hook for each block's conditional supports, and each
    path carries its product of conditional means F_n beside it. Independent
    and inverse specs step by each factor's law (_laws), from Z_0^(-1) in
    inverse mode, with factor 1's inverse leftmost; they are refused when
    their positive-probability outcomes exceed ENUMERATION_BUDGET.
    """
    if spec.mode == "adapted":
        hook = spec.adapted_hook

        def conditional(depth, prods):
            steps, probs = hook.conditional_supports(prods)
            return steps, probs, sum(p.reshape(-1, *(1,) * s.ndim) * s
                                     for p, s in zip(probs.T, steps))

        return functools.partial(_walk, spec.z0, spec.n, conditional)
    laws = _laws(spec)
    total = math.prod(int(np.count_nonzero(law.probs)) for law in laws)
    if total > ENUMERATION_BUDGET:
        raise EnumerationInfeasibleError(
            f"enumeration needs {total} outcomes, budget is {ENUMERATION_BUDGET}",
            required=total, budget=ENUMERATION_BUDGET)
    start, apply = spec.z0, np.matmul
    if spec.mode == "inverse":
        for i, law in enumerate(laws, 1):
            try:
                law.steps
            except np.linalg.LinAlgError:
                raise InvalidInputError(f"factor {i} ({law.ensemble.kind}) has a singular "
                                        "atom, which has no inverse") from None
        start, apply = _inverse_start(spec), lambda y, prod: prod @ y
    return functools.partial(_walk, start, spec.n,
                             lambda depth, _: (laws[depth].steps, laws[depth].probs, None), apply)


class _StreamStats:
    """Weighted accumulators over chunks of (weight, product, deviation)."""

    def __init__(self, p, q, radius, thresholds_growth, thresholds_deviation):
        self.p, self.q = p, q
        self.tg = {float(x): 0.0 for x in thresholds_growth}
        self.td = {float(x): 0.0 for x in thresholds_deviation}
        self.growth = self.dev = self.growth_q = self.dev_q = 0.0
        self.radius = 0.0 if radius else None  # the spectral radius mean, when taken
        self.outcomes = 0

    def add(self, w, prods, dev):
        (spectral, dspec), (schatten, dsch), radii = _block_norms(
            prods, dev, self.p, self.radius is not None)
        self.growth += float(w @ spectral)
        self.dev += float(w @ dspec)
        self.growth_q += float(w @ schatten**self.q)
        self.dev_q += float(w @ dsch**self.q)
        if radii is not None:
            self.radius += float(w @ radii)
        for x in self.tg:
            self.tg[x] += float(w @ (spectral >= x))
        for x in self.td:
            self.td[x] += float(w @ (dspec >= x))
        self.outcomes += prods.shape[0]

    def report(self, mean, reference) -> "EnumerationReport":
        return EnumerationReport(
            outcomes=self.outcomes, p=float(self.p), q=self.q, mean=mean,
            growth_mean=self.growth, deviation_mean=self.dev,
            growth_moment=self.growth_q ** (1.0 / self.q),
            deviation_moment=self.dev_q ** (1.0 / self.q),
            spectral_radius_mean=self.radius,
            tail_growth=self.tg, tail_deviation=self.td, reference=reference)


def enumerate_product(spec: ProductSpec, p=2.0, q=2.0, thresholds_growth=(),
                      thresholds_deviation=(), spectral_radius=True) -> EnumerationReport:
    """Exact moments and tails by enumerating every support combination.

    Deviations are against the exact mean of the enumerated product, except in
    adapted mode where each path is differenced against its own product of
    conditional means. The spectral radius mean is taken for square products
    unless ``spectral_radius`` is False; it is None when not taken.
    """
    q = _checked_q(q, thresholds_growth, thresholds_deviation)
    radius = spectral_radius and spec.d == spec.r
    stats = _StreamStats(p, q, radius, thresholds_growth, thresholds_deviation)
    walk, adapted = _spec_walk(spec), spec.mode == "adapted"
    with np.errstate(over="ignore", invalid="ignore"):  # the walk runs in this context
        if spec.mode == "inverse":
            # for independent factors the mean is Z0^(-1) E[Y1^(-1)] ... E[Yn^(-1)],
            # but that closed form would change the last bits of the reported mean
            # and deviations, so the mean is streamed in a first walk; a walk of one
            # block keeps that block for the deviations, a longer one walks again
            mean, first = np.zeros((spec.d, spec.d)), None
            for i, block in enumerate(walk()):
                mean = mean + np.einsum("k,kij->ij", block[0], block[1])
                first = block if i == 0 else None
            blocks = walk() if first is None else [first]
        else:
            mean, blocks = (None if adapted else expected_product(spec)), walk()
        for w, prods, refs in blocks:
            if adapted:  # each path against its own F_n, the mean streamed alongside
                part = np.einsum("k,kij->ij", w, prods)
                mean = part if mean is None else mean + part
            stats.add(w, prods, prods - (refs if adapted else mean[None]))
    return stats.report(mean, "adapted" if adapted else "mean")


# ---------------------------------------------------------------------------
# triangular arrays and conjugation

@dataclass
class TriangularRow:
    n: int
    deviation_from_mean: MCEstimate
    deviation_from_exponential: MCEstimate
    scaled_mean: float
    scaled_std_error: float
    scaled_bound: float


def triangular_array_run(mean, radius, dim, n_list, trials, seed) -> list:
    """Row n multiplies n two-point factors I + X/n; reports sqrt(n)-scaled deviations.

    Deviations are measured against the exact row mean (I + A/n)^n and against
    the limiting exponential e^A. The scaled bound column is the row-free
    constant sqrt(1 + 2 log d) * L * e^(1 + T).
    """
    a = as_matrix(mean, "mean")
    if a.shape != (dim, dim):
        raise InvalidInputError(f"mean must be {dim}x{dim}")
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise InvalidParameterError("row sizes must be positive")
    import scipy.linalg  # its only user; importing it costs every CLI run

    big_t = spectral_norm(a)
    try:
        scaled_bound = (math.sqrt(1.0 + 2.0 * math.log(dim)) * float(radius)
                        * math.exp(1.0 + big_t))
    except OverflowError:  # before e^A, which would overflow too
        raise InvalidInputError(
            f"mean has norm T = {big_t:.6g}: the scaled bound's e^(1 + T) overflows") from None
    expm = scipy.linalg.expm(a)

    rows = []
    for row_index, n in enumerate(n_list):
        e = make_bounded_perturbation(dim, a, radius, n)
        spec = ProductSpec(factors=(e,) * n, z0=np.eye(dim))
        exact_mean = expected_product(spec)
        # each chunk's deviations from both references go into one norm stack
        dev_mean, dev_exp = np.concatenate(
            [_block_norms(prods - exact_mean, prods - expm, math.inf, False)[0]
             for prods, _ in _trial_chunks(spec, trials, seed, (row_index,))], axis=1)
        est = _estimates([("deviation-norm-mean", dev_mean, None),
                          ("deviation-from-exponential", dev_exp, None)], seed)
        est_mean, est_exp = est.values()
        rows.append(TriangularRow(
            n=n,
            deviation_from_mean=est_mean,
            deviation_from_exponential=est_exp,
            scaled_mean=math.sqrt(n) * est_mean.mean,
            scaled_std_error=math.sqrt(n) * est_mean.std_error,
            scaled_bound=scaled_bound,
        ))
    return rows


def conjugated_spec(spec: ProductSpec, s_matrix) -> ProductSpec:
    """Similarity-transform every factor: Y -> S^(-1) Y S.

    Each distinct ensemble's finite support is transformed once, atom by atom,
    into one ensemble shared by its positions that samples those atoms; its
    statistics are recomputed exactly from them, since conjugation does not
    transport them. A factor without a finite support raises
    UnsupportedEnsembleError.
    """
    if spec.mode != "independent":
        raise UnsupportedEnsembleError("conjugation applies to independent products")
    s = as_matrix(s_matrix, "S")
    if s.shape[0] != s.shape[1] or s.shape[0] != spec.d:
        raise InvalidInputError("S must be square with the factor dimension")
    if spec.z0.shape[0] != spec.z0.shape[1]:
        raise InvalidInputError("conjugation needs a square start matrix")
    if condition_numbers(s) > CONDITION_LIMIT:
        raise InvalidInputError("S is too ill-conditioned to conjugate by")
    s_inv = np.linalg.solve(s, np.eye(spec.d))

    laws, conjugated = _laws(spec), {}
    for law in dict.fromkeys(laws):
        e, support = law.ensemble, law.support
        shell = FactorEnsemble(
            dim=e.dim, sampler=SupportSampler([s_inv @ m @ s for m, _ in support], support.probs),
            stats=e.stats, mean=s_inv @ law.mean @ s, kind=f"conjugated-{e.kind}")
        conjugated[law] = replace(shell, stats=support_stats(shell))
    return ProductSpec(factors=tuple(map(conjugated.get, laws)), z0=s_inv @ spec.z0 @ s)

