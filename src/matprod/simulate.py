"""Monte Carlo simulation and exact enumeration of random matrix products.

Products are formed left to right: Z_n = Y_n ... Y_1 Z_0, with factor i drawn
from the i-th ensemble. Trial k consumes only the stream derived from
(seed, *key, k), so estimates are bitwise reproducible under any execution
schedule. Inverse mode returns (Y_n ... Y_1 Z_0)^(-1) built from per-factor
linear solves. Adapted mode asks a hook for each factor's law given the
running product Z_{i-1} of the past draws; only exact enumeration runs it, and
each path is measured against its running product of conditional means F_n.

Every confidence limit is at LEVEL = 0.99. The module imports no scipy at
load time: the normal limits use a literal z-value, and Clopper-Pearson limits
at 0 hits or at all hits are closed forms, so scipy is imported only for
interior hit counts and triangular arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    ensemble_from_config,
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
    matrix_from_json,
    spectral_norm,
    spectral_radii,
    stack_norms,
)
from .streams import substreams

MODES = ("independent", "adapted", "inverse")
LEVEL = 0.99  # the confidence level of every Monte Carlo limit
ENUMERATION_BUDGET = 2**20
CONDITION_LIMIT = 1e12
# bytes: caps what one product step of a Monte Carlo chunk holds, and the
# chunk's uniforms, so that one step's gather stays in cache
GATHER_BUDGET = 2**19
# paths: the widest block exact enumeration and the adapted walk step at once
FRONTIER_PATHS = 8192
# bytes: inverse-mode products kept from the mean pass for the statistics pass
INVERSE_KEEP_BYTES = 2**24


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

def expected_product(spec: ProductSpec) -> np.ndarray:
    """Exact E Z_n = (E Y_n) ... (E Y_1) Z_0 for independent factor draws."""
    if spec.mode != "independent":
        raise UnsupportedEnsembleError(
            f"expected_product is defined for independent products, not {spec.mode!r}")
    out = spec.z0
    for e in spec.factors:
        out = e.exact_mean() @ out
    return out


def _right_multiply(y, prod):
    return prod @ y


def _right_solve(y, prod):
    """prod @ y^(-1) via a linear solve, for single matrices or stacks."""
    return np.linalg.solve(y.swapaxes(-1, -2), prod.swapaxes(-1, -2)).swapaxes(-1, -2)


def _gather(stack, idx, prod, apply):
    """apply(stack[idx], prod) for a batch of rows: one gather-and-multiply step.

    Exact enumeration, the adapted walk and Monte Carlo's dense steps and
    redo step this way. A step is a (K, d, d) atom stack, or the (K, d)
    diagonals of diagonal atoms, which scale rows instead. Row j of a matrix product with a diagonal atom
    sums D_jj z_j and exact zeros from +0, so ``D_jj * z_j + 0.0`` has its bits
    while prod is finite; past an overflow, 0 * inf turns the dense product's
    rows into NaN and the scale does not (see _step). The gather is a ``take``,
    and the scaled rows get their + 0.0 in place.
    """
    rows = stack.take(idx, axis=0)
    if stack.ndim == 3:
        return apply(rows, prod)
    out = np.multiply(rows[:, :, None], prod)
    out += 0.0
    return out


def _step(stack, idx, prod, apply=np.matmul):
    """_gather, with the dense atom's product for rows whose prod has a non-finite entry."""
    out = _gather(stack, idx, prod, apply)
    if stack.ndim == 2 and not np.isfinite(prod).all():
        for k in np.flatnonzero(~np.isfinite(prod).all(axis=(1, 2))):
            out[k] = apply(np.diag(stack[idx[k]]), prod[k])
    return out


def _chunk_size(spec, samplers):
    """(trials per Monte Carlo chunk, bytes one step holds per trial).

    A dense step gathers a d x d atom per trial and makes a new d x r
    product; a diagonal step changes the d x r product in place. The chunk
    keeps one step, and the chunk's n uniforms per trial, within GATHER_BUDGET.
    Inverse mode gathers dense atoms, but its start is square, so r = d.
    Samplers without a finite support count as dense.
    """
    dense = any(getattr(s, "diagonals", None) is None for s in samplers)
    step = 8 * spec.d * (max(spec.d, spec.r) if dense else spec.r)
    return max(1, GATHER_BUDGET // max(step, 8 * spec.n)), step


def _uniforms(n, seed, key, ks):
    """(T, n) uniforms: trial k's row is filled in place by one ``random`` call
    on its own stream, bitwise equal to ``random(n)`` and to n successive draws."""
    u = np.empty((len(ks), n))
    for row, rng in zip(u, substreams(seed, key, ks)):
        rng.random(out=row)
    return u


def _moved_entries(sampler, r):
    """(offsets, factors), each (K, m r): where atom k's moved entries sit in
    one trial's flattened d x r product, and what the step multiplies them by."""
    cols, vals = sampler.moves
    offsets = (cols * r)[:, :, None] + np.arange(r)
    return offsets.reshape(len(cols), -1), np.repeat(vals, r, axis=1)


def _move(moved, idx, prod, base):
    """A diagonal step in place on a product free of -0: only the entries the
    atoms ``idx`` move change, each to D_jj z + 0.0. Trial t's product starts
    at flat offset base[t] of prod."""
    offsets, factors = moved
    flat = offsets.take(idx, axis=0)
    flat += base
    z = prod.take(flat)
    z *= factors.take(idx, axis=0)
    z += 0.0
    prod.put(flat, z)


def _sampled_chunk(spec, start, samplers, u, atom_conds):
    """One chunk of trials through the gather kernel, from their (T, n)
    uniforms ``u``: (products, cond estimates), equal to the per-trial loop's.

    Factor i's atoms are ``digits[i]``; each distinct sampler picks the
    uniforms of all its factors in one call. Outside inverse mode a diagonal
    sampler's step changes only its moved entries: entering a run of diagonal
    steps, the product gets one ``+ 0.0`` (a copy of the broadcast start, or
    in place after a dense step), which turns -0 into +0. An unmoved entry z
    then has the full step's bits, since 1.0 z + 0.0 == z for every z that
    is not -0, inf and NaN included, and a moved one gets the full step's
    D_jj z + 0.0. The redo of non-finite trials takes full steps (_step)."""
    groups = {}
    for i, s in enumerate(samplers):
        groups.setdefault(id(s), (s, []))[1].append(i)
    digits = np.empty((len(samplers), len(u)), dtype=np.intp)
    for s, cols in groups.values():
        digits[cols] = s.pick(u[:, cols]).T
    invert = spec.mode == "inverse"
    apply = _right_solve if invert else np.matmul
    moves = {} if invert else {key: _moved_entries(s, start.shape[1])
                               for key, (s, _) in groups.items() if s.moves is not None}
    base = (np.arange(len(u)) * start.size)[:, None]
    prod, clean = np.broadcast_to(start, (len(u), *start.shape)), False
    for s, dig in zip(samplers, digits):
        moved = moves.get(id(s))
        if moved is None:
            prod, clean = _gather(s.atoms, dig, prod, apply), False
            continue
        if not clean:  # owned and free of -0 until the next dense step
            prod = np.add(prod, 0.0, out=prod if prod.flags.writeable else None)
            clean = True
        _move(moved, dig, prod, base)
    bad = np.flatnonzero(~np.isfinite(prod).all(axis=(1, 2)))
    if bad.size:  # a non-finite entry never turns finite again: redo just these trials
        steps = [s.atoms if invert or s.diagonals is None else s.diagonals for s in samplers]
        redo = np.broadcast_to(start, (bad.size, *start.shape))
        for step, dig in zip(steps, digits):
            redo = _step(step, dig[bad], redo, apply)
        prod[bad] = redo
    if not invert:
        return prod, None
    cond_est = np.full(len(u), np.linalg.cond(spec.z0))
    for s, dig in zip(samplers, digits):
        cond_est = cond_est * atom_conds[id(s)][dig]
    return prod, cond_est


def _trial_products(spec, start, rngs):
    """Trials drawn one factor at a time, one per stream: (products, cond estimates)."""
    prods, conds = [], []
    for rng in rngs:
        prod = start
        if spec.mode != "inverse":
            for e in spec.factors:
                prod = e.draw(rng) @ prod
        else:
            cond_est = np.linalg.cond(spec.z0)
            for e in spec.factors:
                y = e.draw(rng)
                cond_est *= np.linalg.cond(y)
                prod = _right_solve(y, prod)
            conds.append(cond_est)
        prods.append(prod)
    return np.stack(prods), (np.array(conds) if conds else None)


def _level_supports(hook, prods):
    """(steps, probs, means) of a block of adapted paths, from one hook call on
    their running products ``prods``: path b takes atom ``steps[j]`` with
    probability ``probs[b, j]`` and has conditional mean ``means[b]``."""
    steps, probs = hook.conditional_supports(prods)
    means = sum(p.reshape(-1, *(1,) * s.ndim) * s for p, s in zip(probs.T, steps))
    b = len(prods)
    return (steps, np.broadcast_to(probs, (b, len(steps))),
            np.broadcast_to(means, (b, *means.shape[1:])))


def _adapted_children(block, supports, par, col):
    """Children of a block of adapted paths: path par[i] extended by atom col[i]."""
    w, prods, refs = block
    steps, probs, means = supports
    return (w[par] * probs[par, col], _step(steps, col, prods[par]),
            _step(means, par, refs[par]))


def _trial_chunks(spec, trials, seed, key):
    """Yield (products, excluded trial numbers) chunk by chunk.

    When every factor samples a finite support, a chunk of trials goes through
    one gather-and-multiply kernel; other samplers draw one trial at a time.
    Inverse mode drops ill-conditioned or non-finite trials from a chunk and
    names them. Trial k reads only the stream (seed, *key, k), so the bits do
    not depend on the chunking. Adapted products are not sampled: they raise
    UnsupportedEnsembleError, and enumerate_product certifies them exactly.
    """
    trials = int(trials)
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    if spec.mode == "adapted":
        raise UnsupportedEnsembleError(
            "Monte Carlo does not sample adapted products; use enumerate_product")
    invert = spec.mode == "inverse"
    start = np.linalg.solve(spec.z0, np.eye(spec.d)) if invert else spec.z0
    samplers = [e.sampler for e in spec.factors]
    batched = all(isinstance(s, SupportSampler) for s in samplers)
    chunk, _ = _chunk_size(spec, samplers)
    distinct = {id(s): s for s in samplers}
    atom_conds = ({k: np.linalg.cond(s.atoms) for k, s in distinct.items()}
                  if batched and invert else None)
    for lo in range(0, trials, chunk):
        ks = range(lo, min(lo + chunk, trials))
        if batched:
            u = _uniforms(spec.n, seed, key, ks)
            prod, cond_est = _sampled_chunk(spec, start, samplers, u, atom_conds)
        else:
            prod, cond_est = _trial_products(spec, start, substreams(seed, key, ks))
        excluded = []
        if invert:
            bad = (cond_est > CONDITION_LIMIT) | ~np.isfinite(prod).all(axis=(1, 2))
            prod, excluded = prod[~bad], (lo + np.flatnonzero(bad)).tolist()
        yield prod, excluded


def simulate_product(spec: ProductSpec, trials, seed, key=()) -> SimulationResult:
    """Per-trial draws of Z_n, kept as matrices; adapted specs raise as in _trial_chunks.

    summarize_simulation reduces the same trials without keeping them; this
    collector is for callers that need the matrices themselves.
    """
    zs, excluded = [], []
    for prods, bad in _trial_chunks(spec, trials, seed, key):
        zs.extend(prods)
        excluded.extend(bad)
    return SimulationResult(z=zs, trials=int(trials), seed=seed, excluded_indices=excluded)


_Z99 = 2.5758293035489004  # the z-value of LEVEL: scipy.special.ndtri(0.995), bit for bit


def _mean_estimate(values, quantity, seed) -> MCEstimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(quantity, mean, se, mean - _Z99 * se, mean + _Z99 * se, n, seed)


def _moment_estimate(powers, q, quantity, seed) -> MCEstimate:
    n = powers.size
    m = float(powers.mean())
    se_m = float(powers.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    mean = m ** (1.0 / q)
    se = se_m * m ** (1.0 / q - 1.0) / q if m > 0 else 0.0
    lo = max(m - _Z99 * se_m, 0.0) ** (1.0 / q)
    hi = (m + _Z99 * se_m) ** (1.0 / q)
    return MCEstimate(quantity, mean, se, lo, hi, n, seed)


def _block_norms(prods, dev, p, radius):
    """(spectral norms, Schatten-p norms, spectral radii or None) of a block of products.

    One norm stack covers the products and, when ``dev`` is given, their
    deviations: row 0 of each norm array is the products', row 1 the
    deviations'. Per-matrix singular values do not depend on the stack they
    sit in, so a chunked run's norms are those of one whole stack.
    """
    stack = prods if dev is None else np.concatenate([prods, dev])
    spectral, schatten = (x.reshape(-1, len(prods)) for x in stack_norms(stack, p))
    return spectral, schatten, (spectral_radii(prods) if radius else None)


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
    q = float(q)
    if q < 1.0:
        raise InvalidParameterError("q must satisfy q >= 1")
    mean = expected_product(spec) if spec.mode == "independent" else None
    radius = spectral_radius and spec.d == spec.r
    norms, radii, excluded = [], [], []
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
    out = {
        "spectral-norm-mean": _mean_estimate(spectral, "spectral-norm-mean", seed),
        "schatten-moment": _moment_estimate(schatten**q, q, "schatten-moment", seed),
    }
    if radius:
        out["spectral-radius-mean"] = _mean_estimate(
            np.concatenate(radii), "spectral-radius-mean", seed)
    if dspec is not None:
        out["deviation-norm-mean"] = _mean_estimate(dspec, "deviation-norm-mean", seed)
        out["deviation-schatten-moment"] = _moment_estimate(
            dsch**q, q, "deviation-schatten-moment", seed)
    tails = _tails(spectral, thresholds_growth, dspec, thresholds_deviation)
    return out, tails, spectral, excluded


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


def _support_or_raise(e: FactorEnsemble):
    if e.support is None:
        raise UnsupportedEnsembleError(f"{e.kind} ensemble has no finite support")
    return e.support


def _enumerate_independent(spec, invert):
    """Yield (weights, products) chunkwise over all support combinations."""
    supports = [_support_or_raise(e) for e in spec.factors]
    sizes = [len(s) for s in supports]
    total = math.prod(sizes)
    if total > ENUMERATION_BUDGET:
        raise EnumerationInfeasibleError(
            f"enumeration needs {total} outcomes, budget is {ENUMERATION_BUDGET}",
            required=total, budget=ENUMERATION_BUDGET)
    probs = [np.array(s.probs) for s in supports]
    if invert:
        eye = np.eye(spec.d)
        steps = [np.stack([np.linalg.solve(m, eye) for m in s.atoms]) for s in supports]
        start = np.linalg.solve(spec.z0, eye)
    else:
        steps = [s.atoms if s.diagonals is None else s.diagonals for s in supports]
        start = spec.z0
    # factor 1 acts first; in inverse mode its inverse is leftmost instead
    apply = _right_multiply if invert else np.matmul

    # outcome numbers have factor 1's atom as their leading digit, so a chunk
    # of consecutive outcomes shares prefixes: level i forms each product of
    # the chunk's first i factors once, from its parent at level i - 1
    tails = [math.prod(sizes[i:]) for i in range(len(sizes) + 1)]  # outcomes per prefix
    for lo in range(0, total, FRONTIER_PATHS):
        hi = min(lo + FRONTIER_PATHS, total)
        w, prod = np.ones(1), start[None]
        for i, (step, pr, k) in enumerate(zip(steps, probs, sizes)):
            idx = np.arange(lo // tails[i + 1], (hi - 1) // tails[i + 1] + 1)
            par, dig = idx // k - lo // tails[i], idx % k
            w, prod = w[par] * pr[dig], _step(step, dig, prod[par], apply)
        yield w, prod


def _walk_adapted(spec):
    """Every path of an adapted product, walked level by level.

    Yields (weights, products, conditional-mean products) blocks in leaf
    order: children come parent-major and atom-minor, the order of a
    depth-first walk that takes atom 0 first, and atoms of probability 0 are
    skipped. A block holds at most FRONTIER_PATHS paths, so a walk with at
    most that many leaves yields one block. Past that, a level's parents go
    in groups whose subtrees should fit, judged by the most children one path
    has had so far, and each group's deeper levels are walked before the next.
    """
    n, cap, fan = spec.n, FRONTIER_PATHS, 1
    walked = [0] * (n + 1)  # paths reached at each depth

    def frame(depth, block):
        nonlocal fan
        supports = _level_supports(spec.adapted_hook, block[1])
        par, col = np.nonzero(supports[1])
        counts = np.bincount(par, minlength=len(block[0]))
        fan = max(fan, int(counts.max()))
        return [depth, block, supports, par, col, np.cumsum(counts), 0]

    root = spec.z0[None]  # the empty path: weight 1, product and reference Z_0
    frames = [frame(0, (np.ones(1), root, root))]
    while frames:
        f = frames[-1]
        depth, block, supports, par, col, ends, first = f
        base, last = (ends[first - 1] if first else 0), len(ends)
        if ends[-1] > cap:
            limit = cap // fan ** min(n - depth - 1, cap.bit_length())
            last = max(first + 1, int(np.searchsorted(ends, base + limit, side="right")))
        f[-1] = last
        if last == len(ends):
            frames.pop()
        kids = slice(base, ends[last - 1])
        walked[depth + 1] += kids.stop - base
        if walked[depth + 1] > ENUMERATION_BUDGET:
            raise EnumerationInfeasibleError(
                f"adapted enumeration exceeded the {ENUMERATION_BUDGET}-path budget",
                required=ENUMERATION_BUDGET + 1, budget=ENUMERATION_BUDGET)
        child = _adapted_children(block, supports, par[kids], col[kids])
        if depth + 1 == n:
            yield child
        else:
            frames.append(frame(depth + 1, child))


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
    q = float(q)
    if q < 1.0:
        raise InvalidParameterError("q must satisfy q >= 1")
    radius = spectral_radius and spec.d == spec.r
    stats = _StreamStats(p, q, radius, thresholds_growth, thresholds_deviation)

    if spec.mode == "adapted":
        mean = None
        for w, prods, refs in _walk_adapted(spec):
            part = np.einsum("k,kij->ij", w, prods)
            mean = part if mean is None else mean + part
            stats.add(w, prods, prods - refs)
        return stats.report(mean, "adapted")

    invert = spec.mode == "inverse"
    chunks = _enumerate_independent(spec, invert)
    if invert:
        # for independent factors the mean is Z0^(-1) E[Y1^(-1)] ... E[Yn^(-1)],
        # but that closed form would change the last bits of the reported mean
        # and deviations, so the mean is streamed in a first pass; its chunks
        # are kept for the second while they fit INVERSE_KEEP_BYTES
        mean = np.zeros((spec.d, spec.d))
        kept, size = [], 0
        for w, prod in chunks:
            mean = mean + np.einsum("k,kij->ij", w, prod)
            size += prod.nbytes
            if size <= INVERSE_KEEP_BYTES:
                kept.append((w, prod))
        chunks = kept if size <= INVERSE_KEEP_BYTES else _enumerate_independent(spec, invert)
    else:
        mean = expected_product(spec)
    for w, prod in chunks:
        stats.add(w, prod, prod - mean[None, :, :])
    return stats.report(mean, "mean")


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
    expm = scipy.linalg.expm(a)
    scaled_bound = math.sqrt(1.0 + 2.0 * math.log(dim)) * float(radius) * math.exp(1.0 + big_t)

    rows = []
    for row_index, n in enumerate(n_list):
        e = make_bounded_perturbation(dim, a, radius, n)
        spec = ProductSpec(factors=(e,) * n, z0=np.eye(dim))
        exact_mean = expected_product(spec)
        # each chunk's deviations from both references go into one norm stack
        dev_mean, dev_exp = np.concatenate(
            [_block_norms(prods - exact_mean, prods - expm, math.inf, False)[0]
             for prods, _ in _trial_chunks(spec, trials, seed, (row_index,))], axis=1)
        est_mean = _mean_estimate(dev_mean, "deviation-norm-mean", seed)
        est_exp = _mean_estimate(dev_exp, "deviation-from-exponential", seed)
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

    Each factor's finite support is transformed atom by atom, and the
    transformed factor samples those atoms; its statistics are recomputed
    exactly from them, since conjugation does not transport them. A factor
    without a finite support raises UnsupportedEnsembleError.
    """
    if spec.mode != "independent":
        raise UnsupportedEnsembleError("conjugation applies to independent products")
    s = as_matrix(s_matrix, "S")
    if s.shape[0] != s.shape[1] or s.shape[0] != spec.d:
        raise InvalidInputError("S must be square with the factor dimension")
    if spec.z0.shape[0] != spec.z0.shape[1]:
        raise InvalidInputError("conjugation needs a square start matrix")
    if np.linalg.cond(s) > CONDITION_LIMIT:
        raise InvalidInputError("S is too ill-conditioned to conjugate by")
    s_inv = np.linalg.solve(s, np.eye(spec.d))

    new_factors = []
    for e in spec.factors:
        support = _support_or_raise(e)
        shell = FactorEnsemble(
            dim=e.dim, sampler=SupportSampler([s_inv @ m @ s for m, _ in support], support.probs),
            stats=e.stats, mean=s_inv @ e.exact_mean() @ s, kind=f"conjugated-{e.kind}")
        new_factors.append(replace(shell, stats=support_stats(shell)))
    return ProductSpec(factors=tuple(new_factors), z0=s_inv @ spec.z0 @ s)


# ---------------------------------------------------------------------------
# configuration

def factor_count(entry) -> int:
    """How many times a factor entry of a config repeats: its positive 'count'."""
    count = int(entry.get("count", 1))
    if count < 1:
        raise InvalidInputError("factor count must be positive")
    return count


def spec_from_config(obj) -> ProductSpec:
    """Build a ProductSpec from its JSON object form."""
    if not isinstance(obj, dict):
        raise InvalidInputError("product spec config must be an object")
    factors = []
    for entry in obj.get("factors", []):
        if "ensemble" in entry:
            e = ensemble_from_config(entry["ensemble"])
            factors.extend([e] * factor_count(entry))
        else:
            factors.append(ensemble_from_config(entry))
    if not factors:
        raise InvalidInputError("product spec needs at least one factor")
    dim = factors[0].dim
    z0_obj = obj.get("z0", "identity")
    z0 = np.eye(dim) if z0_obj == "identity" else matrix_from_json(z0_obj)
    return ProductSpec(factors=tuple(factors), z0=z0, mode=obj.get("mode", "independent"))

