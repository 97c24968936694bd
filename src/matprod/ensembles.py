"""Random factor ensembles and their statistics.

A factor ensemble bundles a seeded sampler with the statistics the bounds
consume. All deviation statistics are stated relative to the mean-norm bound
m: sigma bounds (E ||Y - EY||^q)^(1/q) / m, and sigma_uniform bounds
||Y - EY|| / m almost surely. The optional contraction statistic is
||E Y^T Y||^(1/2); the optional uniform_norm is an almost-sure bound on ||Y||.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UnsupportedEnsembleError,
)
from .schatten import (
    as_matrix,
    condition_numbers,
    moment_norm,
    spectral_norm,
    stack_norms,
)
from .streams import substream

# projected_deviation_stat without a finite support: sampled projectors, and
# draws that estimate each projector's second moment
PROJECTORS = 64
PROJECTED_TRIALS = 2048


@dataclass(frozen=True)
class FactorStats:
    """Statistics of one random factor, as consumed by the bound evaluators.

    Each value is analytic or computed exactly from a finite support, and
    every given value is finite.
    """

    mean_norm: float
    sigma: float
    q: float = 2.0
    uniform_norm: Optional[float] = None
    sigma_uniform: Optional[float] = None
    contraction: Optional[float] = None
    mean_perturbation: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.mean_norm) and self.mean_norm > 0):
            raise InvalidParameterError(f"mean norm bound must be positive, got {self.mean_norm}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidParameterError(f"deviation stat must be nonnegative, got {self.sigma}")
        if not self.q >= 2:
            raise InvalidParameterError(f"stat order must satisfy q >= 2, got {self.q}")
        for name in ("uniform_norm", "sigma_uniform", "mean_perturbation"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
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


@dataclass(frozen=True, eq=False)
class FactorEnsemble:
    """A distribution over dim x dim factors. Its sampler's ``draws(rng, count)``
    is a (count, dim, dim) stack that reads ``rng`` as ``count`` single draws would."""

    dim: int
    sampler: object
    stats: FactorStats
    mean: Optional[np.ndarray] = None  # E Y, or the (dim,) diagonal of a diagonal E Y
    kind: str = "custom"
    projected_deviation: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError("ensemble dimension must be positive")
        if not callable(getattr(self.sampler, "draws", None)):
            raise InvalidParameterError("a sampler needs draws(rng, count)")
        if self.mean is not None:
            as_matrix(np.atleast_2d(self.mean), "analytic mean")  # finite entries
            if np.shape(self.mean) not in ((self.dim,), (self.dim, self.dim)):
                raise InvalidInputError("analytic mean has wrong shape")
        if self.support is not None and self.support.dim != self.dim:
            raise InvalidInputError("support atom has wrong shape")

    @property
    def support(self) -> Optional[SupportSampler]:
        """The finite support Monte Carlo samples and enumeration walks: the
        sampler itself when it is a SupportSampler, else None."""
        return self.sampler if isinstance(self.sampler, SupportSampler) else None

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.sampler.draws(rng, 1)[0]

    def exact_mean(self) -> np.ndarray:
        if self.mean is not None:
            return np.diag(self.mean) if np.ndim(self.mean) == 1 else self.mean
        if self.support is not None:
            return sum(prob * mat for mat, prob in self.support)
        raise UnsupportedEnsembleError(f"{self.kind} ensemble has no analytic mean or finite support")


def householder_direction(dim: int) -> np.ndarray:
    """Fixed reflector with unit spectral norm touching every coordinate."""
    u = np.full((dim, 1), dim**-0.5)
    return np.eye(dim) - 2.0 * (u @ u.T)


class SupportSampler:
    """A finite support, the sequence of its (atom, probability) pairs.

    A uniform u picks the first atom whose running probability sum exceeds u,
    ``bisect_right(cum, u)``: ``pick`` maps an array of uniforms, and
    ``draws`` maps ``count`` uniforms of a stream to a (count, d, d) stack.
    The atoms are held once, as a (K, d, d) stack. A sampler of diagonal
    atoms, built by ``from_moves``, keeps only their moves, ``(cols, vals)``:
    two (K, m) arrays such that atom k's diagonal is 1.0 except at the
    coordinates cols[k], where it holds vals[k]. m is the most coordinates any
    atom moves, and a row that moves fewer is padded with distinct unmoved
    coordinates at 1.0, so a step can change just the moved entries of a
    product. It writes its (K, d) ``diagonals``, and from them its dense
    stack, when they are first read. Others have ``diagonals = moves = None``.
    """

    moves = None

    def __init__(self, atoms, probs):
        self.atoms = self._own(atoms, probs, 3)

    @classmethod
    def from_moves(cls, dim, cols, vals, probs) -> "SupportSampler":
        """Diagonal atoms from their moves: (K, m) coordinates ``cols``, distinct
        within a row and in [0, dim), and their finite values ``vals``."""
        sampler, cols = cls.__new__(cls), np.asarray(cols)
        sampler.moves = cols, sampler._own(vals, probs, 2, dim)
        if (cols.shape != sampler.moves[1].shape or cols.dtype.kind not in "iu"
                or ((cols < 0) | (cols >= dim)).any() or (np.diff(np.sort(cols)) == 0).any()):
            raise InvalidInputError(f"moves need (K, m) distinct integer coordinates in [0, {dim})")
        return sampler

    @classmethod
    def from_diagonals(cls, diagonals, probs) -> "SupportSampler":
        """Diagonal atoms from a (K, d) array of their diagonals, through their moves."""
        table = cls.__new__(cls)._own(diagonals, probs, 2)
        return cls.from_moves(table.shape[1], *diagonal_moves(table), probs)

    def _own(self, values, probs, ndim, dim=None) -> np.ndarray:
        """Checks and keeps the support; returns its finite atoms, diagonals or moved values."""
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError("support atoms must be equal-shape numeric matrices") from None
        self.probs = tuple(probs)
        if (arr.ndim != ndim or not len(arr) == len(self.probs) >= 1
                or arr.shape[1:] != arr.shape[-1:] * (ndim - 1) or not (dim or arr.shape[-1]) >= 1):
            raise InvalidInputError(f"{len(self.probs)} probabilities, atoms of shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInputError("support atoms have non-finite entries")
        try:
            # one float array serves the range check, cum, the guide table and
            # floors; fsum takes the given values, and refuses what is not a number
            probs = np.array(self.probs, dtype=float)
            total = (math.fsum(self.probs) if probs.ndim == 1
                     and ((probs >= 0.0) & (probs <= 1.0)).all() else None)
        except (TypeError, ValueError, OverflowError):
            total = None
        if total is None:
            raise InvalidInputError("support probabilities must lie in [0, 1]")
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError(f"support probabilities sum to {total}, not 1")
        self.dim = dim or arr.shape[-1]
        self.cum = np.cumsum(probs)
        self.cum[-1] = 1.0  # so that every u in [0, 1) lands
        # the guide table: guide[b] is the first atom a uniform in bucket
        # [b/K, (b+1)/K) can pick; floors[j] is the running sum before atom j
        k = len(self.cum)
        self.guide = np.searchsorted(self.cum, np.arange(k) / k, side="right")
        self.floors = np.concatenate(([0.0], self.cum[:-1]))
        return arr

    @functools.cached_property
    def diagonals(self) -> Optional[np.ndarray]:
        if self.moves is not None:
            diagonals = np.ones((len(self), self.dim))
            np.put_along_axis(diagonals, *self.moves, axis=1)
            return diagonals

    @functools.cached_property
    def atoms(self) -> np.ndarray:
        # only a diagonal sampler gets here: the others set atoms when built
        atoms = np.zeros((len(self), self.dim, self.dim))
        atoms[:, range(self.dim), range(self.dim)] = self.diagonals
        return atoms

    @functools.cached_property
    def conds(self) -> np.ndarray:
        """The (K,) condition numbers of the atoms, found once per sampler."""
        return condition_numbers(self.atoms)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return zip(self.atoms, self.probs)

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.atoms[self.pick(rng.random(count))]

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Atom indices of an array of uniforms in [0, 1): exactly
        ``searchsorted(cum, u, side="right")``.

        Each uniform starts at the guide entry of its bucket, floor(u K), and
        steps up once; that lands unless a bucket holds more than one running
        sum. A uniform that did not land, floors[j] <= u < cum[j], is searched
        for, so no loop runs on the data and a skewed support costs at most
        one searchsorted.
        """
        k = len(self.cum)
        j = self.guide.take(np.minimum((u * k).astype(np.intp), k - 1))
        j += self.cum.take(j) <= u
        missed = (self.floors.take(j) > u) | (self.cum.take(j) <= u)
        if missed.any():
            j[missed] = np.searchsorted(self.cum, u[missed], side="right")
        return j


class SphereSampler:
    """Draws base + scale * G / ||G|| for a standard normal d x d matrix G.

    ``draws`` reads a (count, d, d) block of normals and takes their norms in
    one stack. A draw of norm 0 (probability zero) is dropped and the block
    topped up from the stream: the reads of ``count`` single draws that each
    redraw until their norm is nonzero."""

    def __init__(self, base, scale):
        self.base, self.scale = base, scale

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        g = rng.standard_normal((count, *self.base.shape))
        norms = stack_norms(g)[0]
        while not norms.all():
            more = rng.standard_normal((count - np.count_nonzero(norms), *self.base.shape))
            g = np.concatenate([g[norms != 0.0], more])
            norms = np.concatenate([norms[norms != 0.0], stack_norms(more)[0]])
        g /= norms[:, None, None]  # in place, with the bits of base + scale * (g / norm)
        g *= self.scale
        g += self.base
        return g


def diagonal_moves(diagonals):
    """(cols, vals) of a (K, d) table of diagonals: each row's coordinates
    whose entry is not 1.0, in ascending order, then its lowest coordinates at
    1.0, m per row; m is the most entries any row moves."""
    moved = diagonals != 1.0
    m = int(moved.sum(axis=1).max())
    cols = np.argsort(~moved, axis=1, kind="stable")[:, :m]
    return cols, np.take_along_axis(diagonals, cols, axis=1)


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

    xi = spectral_norm(a) / n_scale
    m = 1.0 + xi
    scale = radius / n_scale
    base = np.eye(dim) + a / n_scale
    stats = FactorStats(
        mean_norm=m,
        sigma=scale,
        q=2.0,
        uniform_norm=max(m, spectral_norm(base) + scale),
        sigma_uniform=scale,
        mean_perturbation=xi,
    )

    if support == "two-point":
        u = householder_direction(dim)
        atoms = (base,) if radius == 0.0 else (base + scale * u, base - scale * u)
        sampler = SupportSampler(atoms, (1.0 / len(atoms),) * len(atoms))
        # deviations are orthogonal directions: projection does not shrink them
        projected = lambda r: scale
    elif support == "uniform-sphere":
        sampler, projected = SphereSampler(base, scale), None
    else:
        raise InvalidParameterError(f"unknown support kind {support!r}")
    return FactorEnsemble(dim=dim, sampler=sampler, stats=stats, mean=base,
                          kind="bounded-perturbation", projected_deviation=projected)


def make_rademacher_rank_one(dim) -> FactorEnsemble:
    """Y = I + eps * e_j e_j^T with eps = +/-1 and j uniform.

    The mean is the identity and E ||Y - EY||^2 = 1, yet the deviation hits a
    random rank-one direction, so the rank-r projected statistic is sqrt(r/d).
    """
    if dim < 1:
        raise InvalidParameterError("dimension must be positive")
    # atom 2j is I + e_j e_j^T, atom 2j+1 is I - e_j e_j^T: each moves only j
    sampler = SupportSampler.from_moves(dim, np.repeat(np.arange(dim), 2)[:, None],
                                        np.tile([2.0, 0.0], dim)[:, None],
                                        (1.0 / (2 * dim),) * (2 * dim))
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
        mean=np.ones(dim),
        kind="rademacher-rank-one",
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
        # I - e_j e_j^T moves j to 0.0; the mean and deviations are diagonal
        # too, and the spectral norm of a diagonal is its largest entry magnitude
        sampler = SupportSampler.from_moves(dim, np.arange(dim)[:, None], np.zeros((dim, 1)), probs)
        mean = sum(p * g for g, p in zip(sampler.diagonals, probs))
        mean_norm = float(np.abs(mean).max())
        devs = np.abs(sampler.diagonals - mean).max(axis=1).tolist()
    else:
        eye = np.eye(dim)
        atoms = np.empty((k, dim, dim))
        for atom, r, n in zip(atoms, rows, norms):
            np.subtract(eye, np.outer(r, r) / (n * n), out=atom)
        sampler = SupportSampler(atoms, probs)
        mean = sum(p * a for a, p in zip(atoms, probs))
        # one stack, written in place so the deviations are held only once
        stack = np.empty((k + 1, dim, dim))
        stack[0] = mean
        np.subtract(atoms, mean, out=stack[1:])
        norms = stack_norms(stack)[0].tolist()
        mean_norm, devs = norms[0], norms[1:]
    # projectors: E Y^T Y = E Y, which is PSD, so the stat is ||E Y||^(1/2)
    c = math.sqrt(mean_norm)
    if c == 0.0:
        raise UnsupportedEnsembleError("contraction statistic vanishes; product is identically zero")
    stats = FactorStats(
        mean_norm=min(c, 1.0),
        sigma=moment_norm(devs, 2.0, probs) / c,
        q=2.0,
        uniform_norm=1.0,
        sigma_uniform=max(devs) / c,
        contraction=min(c, 1.0),
    )
    return FactorEnsemble(
        dim=dim,
        sampler=sampler,
        stats=stats,
        mean=mean,
        kind="projector-contraction",
    )


def support_stats(e: FactorEnsemble, q=2.0) -> FactorStats:
    """Exact statistics computed by enumerating a finite support."""
    if e.support is None:
        raise UnsupportedEnsembleError("exact stats need a finite support")
    if not q >= 2:
        raise InvalidParameterError(f"stat order must satisfy q >= 2, got {q}")
    mean = e.exact_mean()
    # atoms of probability 0 are never drawn, and 0 * inf would turn E Y^T Y into NaN
    live = [k for k, prob in enumerate(e.support.probs) if prob > 0]
    atoms, probs = e.support.atoms[live], [e.support.probs[k] for k in live]
    second = sum(p * (a.T @ a) for a, p in zip(atoms, probs))
    # one stack (mean, E Y^T Y, atoms, deviations): a matrix's norm does not
    # depend on the stack it sits in
    stack = np.concatenate([mean[None], second[None], atoms, atoms - mean])
    if not np.isfinite(stack).all():  # E Y^T Y can overflow
        raise InvalidInputError("matrix has non-finite entries")
    norms = stack_norms(stack)[0].tolist()
    m, csq, k = norms[0], norms[1], len(atoms)
    if m == 0.0:
        raise UnsupportedEnsembleError("mean vanishes; relative stats undefined")
    devs = norms[2 + k:]
    c = math.sqrt(csq)
    return FactorStats(
        mean_norm=m,
        sigma=moment_norm(devs, q, probs) / m,
        q=float(q),
        uniform_norm=max(max(norms[2:2 + k]), m),
        sigma_uniform=max(devs) / m,
        contraction=c if (c <= 1.0 and m <= 1.0) else None,
    )


def projected_deviation_stat(e: FactorEnsemble, rank):
    """sup over rank-r orthogonal projectors P of (E ||(Y - EY) P||^2)^(1/2).

    Returns (value, quality) where quality is "analytic" when the ensemble
    carries a closed form, else "lower-estimate" (a max over PROJECTORS
    sampled projectors, nondecreasing in rank by nesting the sampled bases;
    without a finite support, over PROJECTED_TRIALS draws). Streams come from
    seed 0.
    """
    rank = int(rank)
    if not 1 <= rank <= e.dim:
        raise InvalidParameterError(f"rank must lie in [1, {e.dim}]")
    if e.projected_deviation is not None:
        return float(e.projected_deviation(rank)), "analytic"

    mean = e.exact_mean()
    if e.support is not None:
        devs = e.support.atoms - mean
        probs = e.support.probs
    else:
        devs = np.empty((PROJECTED_TRIALS, e.dim, e.dim))
        for k in range(PROJECTED_TRIALS):
            devs[k] = e.draw(substream(0, PROJECTORS + k)) - mean
        probs = [1.0 / PROJECTED_TRIALS] * PROJECTED_TRIALS
    best = 0.0
    for k in range(PROJECTORS):
        g = substream(0, k).standard_normal((e.dim, e.dim))
        qmat, r = np.linalg.qr(g)
        qmat = qmat * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        basis = qmat[:, :rank]  # nested in rank for a fixed stream
        norms = stack_norms(devs @ basis)[0].tolist()
        second = sum(p * v ** 2 for v, p in zip(norms, probs))
        best = max(best, math.sqrt(second))
    return best, "lower-estimate"

