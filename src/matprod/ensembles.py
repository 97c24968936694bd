"""Random factor ensembles and their statistics.

A factor ensemble bundles a seeded sampler with the statistics the bounds
consume. All deviation statistics are stated relative to the mean-norm bound
m: sigma bounds (E ||Y - EY||^q)^(1/q) / m, and sigma_uniform bounds
||Y - EY|| / m almost surely. The optional contraction statistic is
||E Y^T Y||^(1/2); the optional uniform_norm is an almost-sure bound on ||Y||.
"""

from __future__ import annotations

import bisect
import itertools
import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UnsupportedEnsembleError,
)
from .schatten import (
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    moment_norm,
    spectral_norm,
    stack_norms,
)
from .streams import substream

PROVENANCES = ("analytic", "monte-carlo")


@dataclass(frozen=True)
class FactorStats:
    """Statistics of one random factor, as consumed by the bound evaluators."""

    mean_norm: float
    sigma: float
    q: float = 2.0
    uniform_norm: Optional[float] = None
    sigma_uniform: Optional[float] = None
    contraction: Optional[float] = None
    mean_perturbation: Optional[float] = None
    provenance: str = "analytic"
    trials: Optional[int] = None
    confidence: Optional[float] = None
    std_errors: Optional[dict] = None

    def __post_init__(self):
        if not (math.isfinite(self.mean_norm) and self.mean_norm > 0):
            raise InvalidParameterError(f"mean norm bound must be positive, got {self.mean_norm}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidParameterError(f"deviation stat must be nonnegative, got {self.sigma}")
        if not self.q >= 2:
            raise InvalidParameterError(f"stat order must satisfy q >= 2, got {self.q}")
        if self.uniform_norm is not None and self.uniform_norm < self.mean_norm:
            raise InvalidParameterError("uniform norm bound b must dominate the mean bound m")
        if self.sigma_uniform is not None and self.sigma_uniform < 0:
            raise InvalidParameterError("almost-sure deviation stat must be nonnegative")
        if self.contraction is not None:
            if not 0 < self.mean_norm <= 1:
                raise InvalidParameterError("contraction stats require 0 < m <= 1")
            if not 0 < self.contraction <= 1:
                raise InvalidParameterError("contraction stat must lie in (0, 1]")
        if self.mean_perturbation is not None and self.mean_perturbation < 0:
            raise InvalidParameterError("mean perturbation bound must be nonnegative")
        if self.provenance not in PROVENANCES:
            raise InvalidParameterError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "monte-carlo" and (self.trials is None or self.confidence is None):
            raise InvalidParameterError("monte-carlo stats must record trials and confidence")


@dataclass(frozen=True, eq=False)
class FactorEnsemble:
    """A distribution over square factor matrices of size dim x dim."""

    dim: int
    sampler: Callable[[np.random.Generator], np.ndarray]
    stats: FactorStats
    mean: Optional[np.ndarray] = None
    support: Optional[tuple] = None  # tuple of (matrix, probability)
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    projected_deviation: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError("ensemble dimension must be positive")
        if self.mean is not None:
            m = as_matrix(self.mean, "analytic mean")
            if m.shape != (self.dim, self.dim):
                raise InvalidInputError("analytic mean has wrong shape")
        if self.support is not None:
            total = 0.0
            for mat, prob in self.support:
                a = as_matrix(mat, "support atom")
                if a.shape != (self.dim, self.dim):
                    raise InvalidInputError("support atom has wrong shape")
                if not 0 <= prob <= 1:
                    raise InvalidInputError("support probabilities must lie in [0, 1]")
                total += prob
            if abs(total - 1.0) > 1e-12:
                raise InvalidInputError(f"support probabilities sum to {total}, not 1")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.sampler(rng)

    def exact_mean(self) -> np.ndarray:
        if self.mean is not None:
            return self.mean
        if self.support is not None:
            return sum(prob * mat for mat, prob in self.support)
        raise UnsupportedEnsembleError(f"{self.kind} ensemble has no analytic mean or finite support")


def householder_direction(dim: int) -> np.ndarray:
    """Fixed reflector with unit spectral norm touching every coordinate."""
    u = np.full((dim, 1), dim**-0.5)
    return np.eye(dim) - 2.0 * (u @ u.T)


# Atom stacks of at least this many bytes get pages of their own.
PAGED_STACK_BYTES = 2**20


def _atom_stack(count, dim) -> np.ndarray:
    """A zero (count, dim, dim) float stack to build atoms in.

    A large stack gets an anonymous mapping of its own, returned to the system
    when its last view goes. Through malloc, freeing one large stack raises
    glibc's mmap threshold to its size, so the next stacks come from the heap;
    there a small allocation can split a freed stack's block, and a later
    stack then grows the heap by its whole size. Peak memory would then differ
    by one stack from process to process.
    """
    shape = (count, dim, dim)
    nbytes = 8 * count * dim * dim
    if nbytes < PAGED_STACK_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.zeros(shape)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype=float).reshape(shape)


def _cumulative(probs) -> list:
    """Running probability sums, the last pinned to 1 so every u in [0, 1) lands."""
    cum = list(itertools.accumulate(probs))
    cum[-1] = 1.0
    return cum


class SupportSampler:
    """Draws an atom of a finite support from one uniform per draw.

    A uniform u picks the first atom whose running probability sum exceeds u:
    ``bisect_right(cum, u)``, or ``searchsorted(cum, u, side="right")`` for a
    batch of uniforms at once. The atoms are held once, as a (K, d, d) stack,
    and ``support`` views into it. A sampler built by ``from_diagonals`` also
    keeps the (K, d) diagonals its atoms are made from; others have
    ``diagonals = None``.
    """

    def __init__(self, atoms, probs):
        self.atoms = np.asarray(atoms, dtype=float)
        self.probs = tuple(probs)
        self.cum = np.array(_cumulative(self.probs))
        self.diagonals = None

    @classmethod
    def from_diagonals(cls, diagonals, probs) -> "SupportSampler":
        """Diagonal atoms, written into their stack from a (K, d) array of diagonals."""
        diagonals = np.asarray(diagonals, dtype=float)
        count, dim = diagonals.shape
        atoms = _atom_stack(count, dim)
        idx = np.arange(dim)
        atoms[:, idx, idx] = diagonals
        sampler = cls(atoms, probs)
        sampler.diagonals = diagonals
        return sampler

    @property
    def support(self) -> tuple:
        return tuple(zip(self.atoms, self.probs))

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return self.atoms[bisect.bisect_right(self.cum, rng.random())]

    @staticmethod
    def draw_from(support, rng: np.random.Generator) -> np.ndarray:
        """One atom of a (matrix, probability) support, picked as above."""
        cum = _cumulative([prob for _, prob in support])
        return support[bisect.bisect_right(cum, rng.random())][0]


def make_bounded_perturbation(dim, mean, radius, n_scale, support="two-point") -> FactorEnsemble:
    """Factors Y = I + X/n_scale with E X = mean and ||X - mean|| <= radius a.s.

    support="two-point" puts X = mean +/- radius*U for a fixed unit-norm
    reflector U (finite support, enumerable). support="uniform-sphere" draws
    the deviation direction uniformly at random with unit spectral norm.
    """
    a = as_matrix(mean, "mean")
    if a.shape != (dim, dim):
        raise InvalidInputError(f"mean must be {dim}x{dim}")
    radius = float(radius)
    n_scale = float(n_scale)
    if radius < 0 or not math.isfinite(radius):
        raise InvalidParameterError("radius must be a finite nonnegative number")
    if n_scale <= 0 or not math.isfinite(n_scale):
        raise InvalidParameterError("n_scale must be positive")

    eye = np.eye(dim)
    xi = spectral_norm(a) / n_scale
    m = 1.0 + xi
    scale = radius / n_scale
    base = eye + a / n_scale
    stats = FactorStats(
        mean_norm=m,
        sigma=scale,
        q=2.0,
        uniform_norm=max(m, spectral_norm(base) + scale),
        sigma_uniform=scale,
        mean_perturbation=xi,
    )
    params = {
        "kind": "bounded-perturbation",
        "dim": dim,
        "mean": matrix_to_json(a),
        "radius": radius,
        "n_scale": n_scale,
        "support": support,
    }

    if support == "two-point":
        u = householder_direction(dim)
        if radius == 0.0:
            sampler = SupportSampler((base,), (1.0,))
        else:
            sampler = SupportSampler((base + scale * u, base - scale * u), (0.5, 0.5))
        return FactorEnsemble(
            dim=dim,
            sampler=sampler,
            stats=stats,
            mean=base,
            support=sampler.support,
            kind="bounded-perturbation",
            params=params,
            # deviations are orthogonal directions: projection does not shrink them
            projected_deviation=(lambda r: scale),
        )
    if support == "uniform-sphere":

        def sampler(rng: np.random.Generator) -> np.ndarray:
            g = rng.standard_normal((dim, dim))
            norm = spectral_norm(g)
            while norm == 0.0:  # pragma: no cover - probability zero
                g = rng.standard_normal((dim, dim))
                norm = spectral_norm(g)
            return base + scale * (g / norm)

        return FactorEnsemble(
            dim=dim,
            sampler=sampler,
            stats=stats,
            mean=base,
            kind="bounded-perturbation",
            params=params,
        )
    raise InvalidParameterError(f"unknown support kind {support!r}")


def make_rademacher_rank_one(dim) -> FactorEnsemble:
    """Y = I + eps * e_j e_j^T with eps = +/-1 and j uniform.

    The mean is the identity and E ||Y - EY||^2 = 1, yet the deviation hits a
    random rank-one direction, so the rank-r projected statistic is sqrt(r/d).
    """
    if dim < 1:
        raise InvalidParameterError("dimension must be positive")
    eye = np.eye(dim)
    # atom 2j is I + e_j e_j^T, atom 2j+1 is I - e_j e_j^T
    diagonals = np.ones((2 * dim, dim))
    j = np.arange(dim)
    diagonals[2 * j, j] = 2.0
    diagonals[2 * j + 1, j] = 0.0
    sampler = SupportSampler.from_diagonals(diagonals, (1.0 / (2 * dim),) * (2 * dim))
    stats = FactorStats(
        mean_norm=1.0,
        sigma=1.0,
        q=2.0,
        uniform_norm=2.0,
        sigma_uniform=1.0,
    )
    return FactorEnsemble(
        dim=dim,
        sampler=sampler,
        stats=stats,
        mean=eye,
        support=sampler.support,
        kind="rademacher-rank-one",
        params={"kind": "rademacher-rank-one", "dim": dim},
        projected_deviation=(lambda r: math.sqrt(min(r, dim) / dim)),
    )


def make_random_projector_contraction(dim, kind="coordinate", rows=None) -> FactorEnsemble:
    """Y = I - a a^T / ||a||^2 for a row a drawn uniformly from a fixed set.

    kind="coordinate" uses the standard basis rows; kind="kaczmarz-row" uses
    the rows of the supplied matrix. Every draw is an orthogonal projector, so
    ||Y|| <= 1 and E Y^T Y = E Y, and the contraction statistic is analytic.
    """
    if kind == "coordinate":
        rows = np.eye(dim)
    elif kind == "kaczmarz-row":
        rows = as_matrix(rows, "rows")
        if rows.shape[1] != dim:
            raise InvalidInputError(f"rows must have {dim} columns")
    else:
        raise InvalidParameterError(f"unknown projector kind {kind!r}")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise InvalidInputError("projector rows must be nonzero")

    k = len(rows)
    probs = (1.0 / k,) * k
    if kind == "coordinate":
        # I - e_j e_j^T: ones on the diagonal but a zero at j, +0 elsewhere
        sampler = SupportSampler.from_diagonals(1.0 - rows, probs)
    else:
        eye = np.eye(dim)
        atoms = _atom_stack(k, dim)
        for atom, r, n in zip(atoms, rows, norms):
            np.subtract(eye, np.outer(r, r) / (n * n), out=atom)
        sampler = SupportSampler(atoms, probs)
    atoms = sampler.atoms
    mean = sum(p * a for a, p in zip(atoms, probs))
    # projectors: E Y^T Y = E Y, which is PSD, so the stat is ||E Y||^(1/2)
    c = math.sqrt(spectral_norm(mean))
    if c == 0.0:
        raise UnsupportedEnsembleError("contraction statistic vanishes; product is identically zero")
    devs = [spectral_norm(a - mean) for a in atoms]
    stats = FactorStats(
        mean_norm=min(c, 1.0),
        sigma=moment_norm(devs, 2.0, probs) / c,
        q=2.0,
        uniform_norm=1.0,
        sigma_uniform=max(devs) / c,
        contraction=min(c, 1.0),
    )
    params = {"kind": "projector-contraction", "dim": dim, "projector_kind": kind}
    if kind == "kaczmarz-row":
        params["rows"] = matrix_to_json(rows)
    return FactorEnsemble(
        dim=dim,
        sampler=sampler,
        stats=stats,
        mean=mean,
        support=sampler.support,
        kind="projector-contraction",
        params=params,
    )


def support_stats(e: FactorEnsemble, q=2.0) -> FactorStats:
    """Exact statistics computed by enumerating a finite support."""
    if e.support is None:
        raise UnsupportedEnsembleError("exact stats need a finite support")
    if not q >= 2:
        raise InvalidParameterError(f"stat order must satisfy q >= 2, got {q}")
    mean = e.exact_mean()
    m = spectral_norm(mean)
    if m == 0.0:
        raise UnsupportedEnsembleError("mean vanishes; relative stats undefined")
    atoms = [a for a, _ in e.support]
    probs = [p for _, p in e.support]
    devs = [spectral_norm(a - mean) for a in atoms]
    csq = spectral_norm(sum(p * (a.T @ a) for a, p in zip(atoms, probs)))
    c = math.sqrt(csq)
    return FactorStats(
        mean_norm=m,
        sigma=moment_norm(devs, q, probs) / m,
        q=float(q),
        uniform_norm=max(max(spectral_norm(a) for a in atoms), m),
        sigma_uniform=max(devs) / m,
        contraction=c if (c <= 1.0 and m <= 1.0) else None,
    )


def estimate_factor_stats(e: FactorEnsemble, q=2.0, trials=10_000, seed=0,
                          resamples=1000, confidence=0.99) -> FactorStats:
    """Monte Carlo plug-in estimate of (m, sigma) with bootstrap standard errors.

    Deviations are measured against the exact mean (analytic or enumerated
    from the finite support); this never overwrites the ensemble's stats.
    """
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials")
    if not q >= 2:
        raise InvalidParameterError(f"stat order must satisfy q >= 2, got {q}")
    mean = e.exact_mean()
    m = spectral_norm(mean)
    if m == 0.0:
        raise UnsupportedEnsembleError("mean vanishes; relative stats undefined")
    dev_q = np.empty(trials)
    for k in range(trials):
        y = e.draw(substream(seed, k))
        dev_q[k] = spectral_norm(y - mean) ** q
    sigma_hat = float(np.mean(dev_q)) ** (1.0 / q) / m

    boot = substream(seed, trials)
    resampled = np.empty(resamples)
    for i in range(resamples):
        idx = boot.integers(0, trials, size=trials)
        resampled[i] = float(np.mean(dev_q[idx])) ** (1.0 / q) / m
    return FactorStats(
        mean_norm=m,
        sigma=sigma_hat,
        q=float(q),
        provenance="monte-carlo",
        trials=trials,
        confidence=confidence,
        std_errors={"sigma": float(np.std(resampled, ddof=1)), "mean_norm": 0.0},
    )


def projected_deviation_stat(e: FactorEnsemble, rank, trials=2048, seed=0,
                             projectors=64):
    """sup over rank-r orthogonal projectors P of (E ||(Y - EY) P||^2)^(1/2).

    Returns (value, quality) where quality is "analytic" when the ensemble
    carries a closed form, else "lower-estimate" (a max over sampled
    projectors, nondecreasing in rank by nesting the sampled bases).
    """
    rank = int(rank)
    if not 1 <= rank <= e.dim:
        raise InvalidParameterError(f"rank must lie in [1, {e.dim}]")
    if e.projected_deviation is not None:
        return float(e.projected_deviation(rank)), "analytic"

    mean = e.exact_mean()
    if e.support is not None:
        devs = np.stack([a for a, _ in e.support]) - mean
        probs = [p for _, p in e.support]
    else:
        devs = np.empty((trials, e.dim, e.dim))
        for k in range(trials):
            devs[k] = e.draw(substream(seed, projectors + k)) - mean
        probs = [1.0 / trials] * trials
    best = 0.0
    for j in range(projectors):
        g = substream(seed, j).standard_normal((e.dim, e.dim))
        qmat, r = np.linalg.qr(g)
        qmat = qmat * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        basis = qmat[:, :rank]  # nested in rank for a fixed stream
        norms = stack_norms(devs @ basis)[0].tolist()
        second = sum(p * v ** 2 for v, p in zip(norms, probs))
        best = max(best, math.sqrt(second))
    return best, "lower-estimate"


# ---------------------------------------------------------------------------
# configuration

def ensemble_from_config(obj) -> FactorEnsemble:
    """Build an ensemble from its JSON object form (kind discriminator)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("ensemble config must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "bounded-perturbation":
            dim = int(obj["dim"])
            mean = matrix_from_json(obj["mean"]) if "mean" in obj else np.zeros((dim, dim))
            return make_bounded_perturbation(
                dim, mean, obj["radius"], obj["n_scale"], obj.get("support", "two-point"))
        if kind == "rademacher-rank-one":
            return make_rademacher_rank_one(int(obj["dim"]))
        if kind == "projector-contraction":
            rows = matrix_from_json(obj["rows"]) if "rows" in obj else None
            return make_random_projector_contraction(
                int(obj["dim"]), obj.get("projector_kind", "coordinate"), rows)
    except KeyError as exc:
        raise InvalidInputError(f"ensemble config missing field {exc}") from None
    raise InvalidInputError(f"unknown ensemble kind {kind!r}")


def ensemble_to_config(e: FactorEnsemble) -> dict:
    if not e.params:
        raise UnsupportedEnsembleError("custom ensembles have no config form")
    return dict(e.params)
