"""Monte Carlo simulation and exact enumeration of random matrix products.

Products are formed left to right: Z_n = Y_n ... Y_1 Z_0, with factor i drawn
from the i-th ensemble. Trial k consumes only the stream derived from
(seed, *key, k), so estimates are bitwise reproducible under any execution
schedule. Inverse mode returns (Y_n ... Y_1 Z_0)^(-1) built from per-factor
linear solves; adapted mode threads a history-dependent hook and also tracks
the running product of realized conditional means F_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.special

from .ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    ensemble_from_config,
    ensemble_to_config,
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
    matrix_to_json,
    spectral_norm,
    spectral_radii,
    stack_norms,
)
from .streams import substream

MODES = ("independent", "adapted", "inverse")
ENUMERATION_BUDGET = 2**20
CONDITION_LIMIT = 1e12
# bytes: caps what one product step of a Monte Carlo chunk holds, and the
# chunk's uniforms, so that one step's gather stays in cache
GATHER_BUDGET = 2**19


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
    level: float = 0.99

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "mean": self.mean,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "seed": self.seed,
            "level": self.level,
        }


@dataclass
class SimulationResult:
    z: list
    trials: int
    seed: int
    f: Optional[list] = None
    excluded: int = 0
    excluded_indices: list = field(default_factory=list)


@dataclass(frozen=True)
class TailEstimate:
    quantity: str
    threshold: float
    frequency: float
    hits: int
    trials: int
    ucl: float
    lcl: float
    level: float = 0.99

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "threshold": self.threshold,
            "frequency": self.frequency,
            "hits": self.hits,
            "trials": self.trials,
            "ucl": self.ucl,
            "lcl": self.lcl,
            "level": self.level,
        }


# ---------------------------------------------------------------------------
# adapted hooks

def _conditional_mean(support) -> np.ndarray:
    return sum(prob * mat for mat, prob in support)


@dataclass(frozen=True, eq=False)
class NormBiasedTwoPointHook:
    """Two-point factors I +/- scale*U whose sign bias flips with history.

    While the running product of past draws has Frobenius norm at most that of
    the identity, the + sign has probability ``high``; once the product norm
    exceeds it, the bias flips to 1 - high. Conditional statistics hold for
    every history, so the adapted product bounds apply.
    """

    dim: int
    scale: float = 0.05
    high: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.high < 1.0:
            raise InvalidParameterError("bias must lie in (0, 1)")
        if not 0.0 < self.scale:
            raise InvalidParameterError("scale must be positive")

    def conditional_support(self, history):
        eye = np.eye(self.dim)
        running = eye
        for y in history:
            running = y @ running
        pi = self.high if np.linalg.norm(running) <= math.sqrt(self.dim) else 1.0 - self.high
        spike = self.scale * householder_direction(self.dim)
        return ((eye + spike, pi), (eye - spike, 1.0 - pi))

    def factor_stats(self) -> FactorStats:
        swing = abs(2.0 * self.high - 1.0)
        m = 1.0 + self.scale * swing
        dev = self.scale * (1.0 + swing)  # worst-case ||Y - E_{i-1} Y||
        return FactorStats(mean_norm=m, sigma=dev / m, q=2.0,
                           uniform_norm=max(m, 1.0 + self.scale),
                           sigma_uniform=dev / m)


@dataclass(frozen=True, eq=False)
class HistoryFreeHook:
    """Adapted-mode wrapper around a finite-support ensemble, ignoring history."""

    ensemble: FactorEnsemble

    def __post_init__(self):
        if self.ensemble.support is None:
            raise UnsupportedEnsembleError("history-free hooks need a finite support")

    @property
    def dim(self) -> int:
        return self.ensemble.dim

    def conditional_support(self, history):
        return self.ensemble.support

    def factor_stats(self) -> FactorStats:
        return support_stats(self.ensemble)


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


def _gather_product(start, atoms, digits, apply, diagonals=None):
    """Products of a batch of outcomes: step i applies atoms[i][digits[i]] to each.

    Exact enumeration passes every combination of atom indices, Monte Carlo
    the sampled ones. Where ``diagonals[i]`` holds the (K, d) diagonals of
    atoms[i], step i scales rows instead of gathering matrices. Row j of a
    matrix product with a diagonal atom sums D_jj z_j and exact zeros from +0,
    so ``D_jj * z_j + 0.0`` has its bits while the products stay finite. Past
    an overflow, 0 * inf turns the dense product's rows into NaN and the scale
    does not, so an outcome left with a non-finite entry is recomputed through
    the dense atoms; a non-finite entry never turns finite again, so checking
    the last product is enough.
    """
    scaled = diagonals is not None and any(g is not None for g in diagonals)
    steps = [a if g is None else g for a, g in zip(atoms, diagonals)] if scaled else atoms
    prod = np.broadcast_to(start, (digits[0].size, *start.shape))
    for stack, dig in zip(steps, digits):
        if stack.ndim == 2:
            prod = stack[dig][:, :, None] * prod + 0.0
        else:
            prod = apply(stack[dig], prod)
    if scaled:
        for k in np.flatnonzero(~np.isfinite(prod).all(axis=(1, 2))):
            prod[k] = _gather_product(start, atoms, [dig[k:k + 1] for dig in digits], apply)[0]
    return prod


def _chunk_size(spec, samplers):
    """(trials per Monte Carlo chunk, bytes one step holds per trial).

    A dense step gathers a d x d atom per trial and a diagonal step a
    diagonal; either way the step also makes a d x r product. The chunk keeps
    one step, and the chunk's n uniforms per trial, within GATHER_BUDGET.
    Inverse mode gathers dense atoms, but its start is square, so r = d.
    """
    dense = any(s.diagonals is None for s in samplers)
    step = 8 * spec.d * (max(spec.d, spec.r) if dense else spec.r)
    return max(1, GATHER_BUDGET // max(step, 8 * spec.n)), step


def _sampled_chunk(spec, start, samplers, rngs, atom_conds):
    """One chunk of trials through the gather kernel: (products, cond estimates).

    Trial k's n uniforms come from one ``random(n)`` call on its own stream,
    which is bitwise equal to n successive draws, so the products equal those
    of the per-trial loop.
    """
    u = np.stack([rng.random(spec.n) for rng in rngs])
    digits = [np.searchsorted(s.cum, u[:, i], side="right") for i, s in enumerate(samplers)]
    atoms = [s.atoms for s in samplers]
    if spec.mode != "inverse":
        return _gather_product(start, atoms, digits, np.matmul,
                               [s.diagonals for s in samplers]), None
    prod = _gather_product(start, atoms, digits, _right_solve)
    cond_est = np.full(len(rngs), np.linalg.cond(spec.z0))
    for s, dig in zip(samplers, digits):
        cond_est = cond_est * atom_conds[id(s)][dig]
    return prod, cond_est


def _trial_product(spec, start, rng):
    """One trial drawn one factor at a time, as a stack of one: (products, cond estimates)."""
    prod = start
    if spec.mode != "inverse":
        for e in spec.factors:
            prod = e.draw(rng) @ prod
        return prod[None], None
    cond_est = np.linalg.cond(spec.z0)
    for e in spec.factors:
        y = e.draw(rng)
        cond_est *= np.linalg.cond(y)
        prod = _right_solve(y, prod)
    return prod[None], np.array([cond_est])


def _simulate_adapted(spec, trials, seed, key) -> SimulationResult:
    hook = spec.adapted_hook
    zs, fs = [], []
    for k in range(trials):
        rng = substream(seed, *key, k)
        prod = spec.z0
        ref = spec.z0
        history = []
        for _ in range(spec.n):
            support = hook.conditional_support(tuple(history))
            y = SupportSampler.draw_from(support, rng)
            prod = y @ prod
            ref = _conditional_mean(support) @ ref
            history.append(y)
        zs.append(prod)
        fs.append(ref)
    return SimulationResult(z=zs, trials=trials, seed=seed, f=fs)


def simulate_product(spec: ProductSpec, trials, seed, key=()) -> SimulationResult:
    """Per-trial draws of Z_n (and F_n in adapted mode).

    When every factor samples a finite support, chunks of trials go through
    one gather-and-multiply kernel; other samplers run one trial at a time.
    Both give the same bits, since trial k reads only its own stream.
    """
    trials = int(trials)
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    if spec.mode == "adapted":
        return _simulate_adapted(spec, trials, seed, key)

    invert = spec.mode == "inverse"
    start = np.linalg.solve(spec.z0, np.eye(spec.d)) if invert else spec.z0
    samplers = [e.sampler for e in spec.factors]
    batched = all(isinstance(s, SupportSampler) for s in samplers)
    if batched:
        chunk, _ = _chunk_size(spec, samplers)
        distinct = {id(s): s for s in samplers}
        atom_conds = ({k: np.linalg.cond(s.atoms) for k, s in distinct.items()}
                      if invert else None)
    else:
        chunk = 1

    zs = []
    excluded_indices = []
    for lo in range(0, trials, chunk):
        rngs = [substream(seed, *key, k) for k in range(lo, min(lo + chunk, trials))]
        if batched:
            prod, cond_est = _sampled_chunk(spec, start, samplers, rngs, atom_conds)
        else:
            prod, cond_est = _trial_product(spec, start, rngs[0])
        if invert:
            bad = (cond_est > CONDITION_LIMIT) | ~np.isfinite(prod).all(axis=(1, 2))
            excluded_indices.extend((lo + np.flatnonzero(bad)).tolist())
            prod = prod[~bad]
        zs.extend(prod)
    return SimulationResult(z=zs, trials=trials, seed=seed,
                            excluded=len(excluded_indices),
                            excluded_indices=excluded_indices)


_Z99 = float(scipy.special.ndtri(0.995))


def _z_value(level: float) -> float:
    if level == 0.99:
        return _Z99
    return float(scipy.special.ndtri(0.5 + level / 2.0))


def _mean_estimate(values, quantity, seed, level) -> MCEstimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = _z_value(level)
    return MCEstimate(quantity, mean, se, mean - z * se, mean + z * se, n, seed, level)


def _moment_estimate(powers, q, quantity, seed, level) -> MCEstimate:
    n = powers.size
    m = float(powers.mean())
    se_m = float(powers.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = _z_value(level)
    mean = m ** (1.0 / q)
    se = se_m * m ** (1.0 / q - 1.0) / q if m > 0 else 0.0
    lo = max(m - z * se_m, 0.0) ** (1.0 / q)
    hi = (m + z * se_m) ** (1.0 / q)
    return MCEstimate(quantity, mean, se, lo, hi, n, seed, level)


def _reduce(result: SimulationResult, p, reference):
    """(products, their norms, their deviations' norms or None), one SVD a stack.

    reference: a matrix, a list of per-trial matrices, or "adapted" for F_n.
    """
    stack = np.stack(result.z)
    norms = stack_norms(stack, p)
    if reference is None:
        return stack, norms, None
    if isinstance(reference, str) and reference == "adapted":
        if result.f is None:
            raise InvalidParameterError("no adapted references recorded")
        refs = np.stack(result.f)
    else:
        refs = np.asarray(reference, dtype=float)
        refs = refs if refs.ndim == 3 else refs[None, :, :]
    return stack, norms, stack_norms(stack - refs, p)


def _estimates(result: SimulationResult, p, q, reference, level):
    """(estimates, spectral norms, deviation spectral norms or None)."""
    if not result.z:
        raise InvalidParameterError("no included trials to analyze")
    q = float(q)
    if q < 1.0:
        raise InvalidParameterError("q must satisfy q >= 1")
    stack, (spectral, schatten), dev = _reduce(result, p, reference)
    seed = result.seed
    out = {
        "spectral-norm-mean": _mean_estimate(spectral, "spectral-norm-mean", seed, level),
        "schatten-moment": _moment_estimate(schatten**q, q, "schatten-moment", seed, level),
    }
    if stack.shape[1] == stack.shape[2]:
        out["spectral-radius-mean"] = _mean_estimate(
            spectral_radii(stack), "spectral-radius-mean", seed, level)
    if dev is not None:
        dspec, dsch = dev
        out["deviation-norm-mean"] = _mean_estimate(dspec, "deviation-norm-mean", seed, level)
        out["deviation-schatten-moment"] = _moment_estimate(
            dsch**q, q, "deviation-schatten-moment", seed, level)
    return out, spectral, None if dev is None else dev[0]


def _tails(spectral, thresholds_growth, deviations, thresholds_deviation, level) -> list:
    """Growth tails of the spectral norms, then tails of the deviations if any."""
    out = []
    for name, values, thresholds in (("growth-tail", spectral, thresholds_growth),
                                     ("deviation-tail", deviations, thresholds_deviation)):
        if values is None:
            continue
        n = values.size
        for x in thresholds:
            hits = int((values >= x).sum())
            lcl, ucl = clopper_pearson(hits, n, level)
            out.append(TailEstimate(name, float(x), hits / n, hits, n, ucl, lcl, level))
    return out


def estimate_norm_statistics(result: SimulationResult, p=2.0, q=2.0,
                             reference=None, level=0.99) -> dict:
    """Norm statistics of simulated products, with delta-method moment errors.

    reference: matrix (defaults to nothing), or "adapted" to difference against
    the per-trial conditional-mean products F_n, or a list of per-trial
    matrices. Deviations are only reported when a reference is available.
    """
    return _estimates(result, p, q, reference, level)[0]


def clopper_pearson(hits: int, trials: int, level=0.99):
    """One-sided lower/upper confidence limits for a binomial proportion."""
    if trials < 1:
        raise InvalidParameterError("trials must be positive")
    lcl = 0.0 if hits == 0 else float(scipy.special.betaincinv(hits, trials - hits + 1, 1.0 - level))
    ucl = 1.0 if hits == trials else float(scipy.special.betaincinv(hits + 1, trials - hits, level))
    return lcl, ucl


def tail_frequencies(result: SimulationResult, thresholds, reference=None,
                     level=0.99) -> list:
    """Empirical P{||Z|| >= x} (and deviations when a reference is given)."""
    _, (spectral, _), dev = _reduce(result, math.inf, reference)
    return _tails(spectral, thresholds, None if dev is None else dev[0], thresholds, level)


def summarize_simulation(spec: ProductSpec, result: SimulationResult, p=2.0, q=2.0,
                         thresholds_growth=(), thresholds_deviation=(), level=0.99):
    """Monte Carlo estimates, tail frequencies and per-trial spectral norms of
    one run: (estimates, tails, spectral).

    Adapted mode measures deviations against each trial's F_n and reports no
    deviation tails; inverse mode reports no deviations; every other mode
    measures deviations against ``expected_product``. The product stack and
    the deviation stack are each decomposed once; ``spectral`` holds each
    included trial's spectral norm, in trial order.
    """
    if spec.mode == "adapted":
        reference, thresholds_deviation = "adapted", ()
    elif spec.mode == "inverse":
        reference = None
    else:
        reference = expected_product(spec)
    estimates, spectral, dev = _estimates(result, p, q, reference, level)
    tails = _tails(spectral, thresholds_growth, dev, thresholds_deviation, level)
    return estimates, tails, spectral


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
    total = 1
    for k in sizes:
        total *= k
    if total > ENUMERATION_BUDGET:
        raise EnumerationInfeasibleError(
            f"enumeration needs {total} outcomes, budget is {ENUMERATION_BUDGET}",
            required=total, budget=ENUMERATION_BUDGET)
    atoms = []
    probs = []
    for s in supports:
        mats = [m for m, _ in s]
        if invert:
            mats = [np.linalg.solve(m, np.eye(spec.d)) for m in mats]
        atoms.append(np.stack(mats))
        probs.append(np.array([pr for _, pr in s]))
    # inverse atoms are dense; a diagonal sampler's atoms are its support
    diagonals = None if invert else [
        e.sampler.diagonals if isinstance(e.sampler, SupportSampler) else None
        for e in spec.factors]
    if invert:
        start = np.linalg.solve(spec.z0, np.eye(spec.d))
    else:
        start = spec.z0
    # factor 1 acts first; in inverse mode its inverse is leftmost instead
    apply = _right_multiply if invert else np.matmul

    chunk = 8192
    for lo in range(0, total, chunk):
        digits = np.unravel_index(np.arange(lo, min(lo + chunk, total)), sizes)
        w = np.ones(digits[0].size)
        for pr, dig in zip(probs, digits):
            w = w * pr[dig]
        yield w, _gather_product(start, atoms, digits, apply, diagonals)
    return


def _enumerate_adapted(spec):
    """Depth-first path walk; yields (weight, product, conditional-mean product).

    Iterative with an explicit frame stack: path counts run up to the full
    enumeration budget, deep nesting of generators would dominate the cost.
    """
    hook = spec.adapted_hook
    n = spec.n
    count = 0
    history = []
    support = hook.conditional_support(())
    # frame: [support, next atom index, weight, prod, ref, conditional mean]
    stack = [[support, 0, 1.0, spec.z0, spec.z0, _conditional_mean(support)]]
    while stack:
        frame = stack[-1]
        support, idx = frame[0], frame[1]
        if idx >= len(support):
            stack.pop()
            if history:
                history.pop()
            continue
        frame[1] = idx + 1
        mat, prob = support[idx]
        if prob == 0.0:
            continue
        weight = frame[2] * prob
        prod = mat @ frame[3]
        ref = frame[5] @ frame[4]
        if len(stack) == n:
            count += 1
            if count > ENUMERATION_BUDGET:
                raise EnumerationInfeasibleError(
                    f"adapted enumeration exceeded the {ENUMERATION_BUDGET}-path budget",
                    required=count, budget=ENUMERATION_BUDGET)
            yield weight, prod, ref
        else:
            history.append(mat)
            sub = hook.conditional_support(tuple(history))
            stack.append([sub, 0, weight, prod, ref, _conditional_mean(sub)])


class _StreamStats:
    """Weighted accumulators over chunks of (weight, product, deviation)."""

    def __init__(self, p, q, square, thresholds_growth, thresholds_deviation):
        self.p, self.q, self.square = p, q, square
        self.tg = {float(x): 0.0 for x in thresholds_growth}
        self.td = {float(x): 0.0 for x in thresholds_deviation}
        self.growth = self.dev = self.growth_q = self.dev_q = 0.0
        self.radius = 0.0
        self.outcomes = 0

    def add(self, w, prods, dev):
        spectral, schatten = stack_norms(prods, self.p)
        dspec, dsch = stack_norms(dev, self.p)
        self.growth += float(w @ spectral)
        self.dev += float(w @ dspec)
        self.growth_q += float(w @ schatten**self.q)
        self.dev_q += float(w @ dsch**self.q)
        if self.square:
            self.radius += float(w @ spectral_radii(prods))
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
            spectral_radius_mean=self.radius if self.square else None,
            tail_growth=self.tg, tail_deviation=self.td, reference=reference)


def enumerate_product(spec: ProductSpec, p=2.0, q=2.0,
                      thresholds_growth=(), thresholds_deviation=()) -> EnumerationReport:
    """Exact moments and tails by enumerating every support combination.

    Deviations are against the exact mean of the enumerated product, except in
    adapted mode where each path is differenced against its own product of
    conditional means.
    """
    q = float(q)
    if q < 1.0:
        raise InvalidParameterError("q must satisfy q >= 1")
    square = spec.d == spec.r
    stats = _StreamStats(p, q, square, thresholds_growth, thresholds_deviation)

    if spec.mode == "adapted":
        paths = list(_enumerate_adapted(spec))
        weights = np.array([w for w, _, _ in paths])
        prods = np.stack([z for _, z, _ in paths])
        refs = np.stack([f for _, _, f in paths])
        mean = np.einsum("k,kij->ij", weights, prods)
        stats.add(weights, prods, prods - refs)
        return stats.report(mean, "adapted")

    invert = spec.mode == "inverse"
    if invert:
        # for independent factors the mean is Z0^(-1) E[Y1^(-1)] ... E[Yn^(-1)],
        # but that closed form would change the last bits of the reported mean
        # and deviations, so the mean is streamed in a first pass
        mean = np.zeros((spec.d, spec.d))
        for w, prod in _enumerate_independent(spec, invert):
            mean = mean + np.einsum("k,kij->ij", w, prod)
    else:
        mean = expected_product(spec)
    for w, prod in _enumerate_independent(spec, invert):
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


def triangular_array_run(mean, radius, dim, n_list, trials, seed,
                         support="two-point", level=0.99) -> list:
    """Row n multiplies n factors I + X/n; reports sqrt(n)-scaled deviations.

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
        e = make_bounded_perturbation(dim, a, radius, n, support)
        spec = ProductSpec(factors=(e,) * n, z0=np.eye(dim))
        sim = simulate_product(spec, trials, seed, key=(row_index,))
        exact_mean = expected_product(spec)
        stack = np.stack(sim.z)
        dev_mean, _ = stack_norms(stack - exact_mean)
        dev_exp, _ = stack_norms(stack - expm)
        est_mean = _mean_estimate(dev_mean, "deviation-norm-mean", seed, level)
        est_exp = _mean_estimate(dev_exp, "deviation-from-exponential", seed, level)
        rows.append(TriangularRow(
            n=n,
            deviation_from_mean=est_mean,
            deviation_from_exponential=est_exp,
            scaled_mean=math.sqrt(n) * est_mean.mean,
            scaled_std_error=math.sqrt(n) * est_mean.std_error,
            scaled_bound=scaled_bound,
        ))
    return rows


def conjugated_spec(spec: ProductSpec, s_matrix, q=2.0, trials=4096, seed=0) -> ProductSpec:
    """Similarity-transform every factor: Y -> S^(-1) Y S.

    Statistics are recomputed for the transformed factors (exactly from finite
    supports, else by Monte Carlo), since conjugation does not transport them.
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
    for idx, e in enumerate(spec.factors):
        def sampler(rng, _e=e):
            return s_inv @ _e.draw(rng) @ s

        mean = None
        if e.mean is not None or e.support is not None:
            mean = s_inv @ e.exact_mean() @ s
        support = None
        if e.support is not None:
            support = tuple((s_inv @ m @ s, pr) for m, pr in e.support)
        shell = FactorEnsemble(
            dim=e.dim, sampler=sampler, stats=e.stats, mean=mean, support=support,
            kind=f"conjugated-{e.kind}")
        if support is not None:
            stats = support_stats(shell, q)
        else:
            from .ensembles import estimate_factor_stats
            stats = estimate_factor_stats(shell, q, trials=trials, seed=seed + idx)
        new_factors.append(FactorEnsemble(
            dim=e.dim, sampler=sampler, stats=stats, mean=mean, support=support,
            kind=f"conjugated-{e.kind}"))
    return ProductSpec(factors=tuple(new_factors),
                       z0=s_inv @ spec.z0 @ s,
                       mode=spec.mode)


# ---------------------------------------------------------------------------
# configuration

def spec_from_config(obj) -> ProductSpec:
    """Build a ProductSpec from its JSON object form."""
    if not isinstance(obj, dict):
        raise InvalidInputError("product spec config must be an object")
    factors = []
    for entry in obj.get("factors", []):
        if "ensemble" in entry:
            e = ensemble_from_config(entry["ensemble"])
            count = int(entry.get("count", 1))
        else:
            e = ensemble_from_config(entry)
            count = 1
        if count < 1:
            raise InvalidInputError("factor count must be positive")
        factors.extend([e] * count)
    if not factors:
        raise InvalidInputError("product spec needs at least one factor")
    dim = factors[0].dim
    z0_obj = obj.get("z0", "identity")
    z0 = np.eye(dim) if z0_obj == "identity" else matrix_from_json(z0_obj)
    return ProductSpec(factors=tuple(factors), z0=z0, mode=obj.get("mode", "independent"))


def spec_to_config(spec: ProductSpec) -> dict:
    groups = []
    for e in spec.factors:
        cfg = ensemble_to_config(e)
        if groups and groups[-1]["ensemble"] == cfg:
            groups[-1]["count"] += 1
        else:
            groups.append({"ensemble": cfg, "count": 1})
    return {
        "factors": groups,
        "z0": "identity" if np.array_equal(spec.z0, np.eye(spec.d)) else matrix_to_json(spec.z0),
        "mode": spec.mode,
    }
