"""Closed-form growth and concentration bounds for matrix products.

Every evaluator consumes aggregate factor statistics (ProductStats, or
PerturbationStats for the perturbation form) and returns a BoundResult
carrying the value, the Schatten parameters actually used, and the
mathematical side conditions, each as the two sides of lhs <= rhs. A violated
side condition yields value = inf rather than an exception; misuse of the API
(bad p, q, missing statistics) raises. The table DISPLAYS names each display,
what it needs and where it runs.

Conventions: M is the product of mean-norm bounds, v the sum of squared
relative deviation statistics, B the product of almost-sure norm bounds,
xi the sum of mean-perturbation bounds, d the ambient dimension, C_p = p - 1.

The spectral-norm displays are the paper's forms for Z_0 = I. For any other
start they are multiplied by ||Z_0||, and their tail thresholds too, since
||Y_n ... Y_1 Z_0|| <= ||Y_n ... Y_1|| ||Z_0||; the moment displays carry the
start's Schatten norm instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .ensembles import FactorStats
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MissingUniformBoundsError,
)
from .schatten import as_matrix, norm_from_singular_values, singular_values
from .simulate import MODES

E = math.e
P_GRID = np.exp(np.linspace(math.log(2.0), math.log(1e6), 200))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sqrt_expm1(x: float) -> float:
    """sqrt(e^x - 1) without overflow for large x."""
    if x > 700.0:
        return _exp(0.5 * x)
    return math.sqrt(math.expm1(x))


def _log_expm1(x: float) -> float:
    """log(e^x - 1) for x > 0."""
    if x <= 0.0:
        return -math.inf
    if x > 50.0:
        return x
    return x + math.log1p(-math.exp(-x))


@dataclass(frozen=True)
class SchattenParams:
    """Exponent pair used by a bound; cp = p - 1 is the smoothness constant."""

    p: float
    q: float = 2.0

    def __post_init__(self):
        if math.isnan(self.p) or self.p < 1.0:
            raise InvalidParameterError(f"p must satisfy p >= 1, got {self.p}")
        if math.isnan(self.q) or self.q < 1.0:
            raise InvalidParameterError(f"q must satisfy q >= 1, got {self.q}")

    @property
    def cp(self) -> float:
        return self.p - 1.0

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "cp": self.cp}


def _moment_params(p, q) -> SchattenParams:
    p, q = float(p), float(q)
    if math.isnan(p) or math.isinf(p) or p < 2.0:
        raise InvalidParameterError(f"moment bounds require finite p >= 2, got {p}")
    if not 2.0 <= q <= p:
        raise InvalidParameterError(f"moment bounds require 2 <= q <= p, got q={q}, p={p}")
    return SchattenParams(p=p, q=q)


@dataclass(frozen=True)
class Condition:
    """A side condition lhs <= rhs; a NaN side leaves it unsatisfied."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return bool(self.lhs <= self.rhs)

    def to_json(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied}


@dataclass
class BoundResult:
    kind: str
    value: float
    params: Optional[SchattenParams] = None
    conditions: list = field(default_factory=list)
    capped_value: Optional[float] = None
    trivial_fallback: bool = False
    threshold: Optional[float] = None
    confidence: Optional[float] = None
    refined_value: Optional[float] = None
    refined_p: Optional[float] = None
    extras: Optional[dict] = None

    @property
    def conditions_met(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind,
            "value": self.value,
            "capped_value": self.capped_value,
            "params": self.params.to_json() if self.params is not None else None,
            "conditions": [c.to_json() for c in self.conditions],
            "trivial_fallback": bool(self.trivial_fallback),
        }
        for key in ("threshold", "confidence", "refined_value", "refined_p", "extras"):
            val = getattr(self, key)
            if val is not None:
                obj[key] = val
        return obj


def _finish(result: BoundResult, cap: Optional[float], start=1.0) -> BoundResult:
    """Multiply value, refined value and cap by start = ||Z_0||, last; then
    apply the cap, if any, keeping the raw value."""
    result.value *= start
    if result.refined_value is not None:
        result.refined_value *= start
    if not result.conditions_met:
        result.value = math.inf
    if cap is not None and math.isfinite(cap := cap * start):
        result.capped_value = min(result.value, cap)
        result.trivial_fallback = result.value > cap
    return result


@dataclass(frozen=True, eq=False)
class ProductStats:
    """Aggregate statistics of a product Z_n = Y_n ... Y_1 Z_0."""

    factors: tuple
    d: int
    r: int
    z0_singular_values: tuple
    projected_rank: Optional[int] = None
    _z0_norms: dict = field(default_factory=dict, init=False, repr=False)  # by p

    def __post_init__(self):
        if len(self.factors) == 0:
            raise InvalidInputError("need at least one factor")
        for f in self.factors:
            if not isinstance(f, FactorStats):
                raise InvalidInputError("factors must be FactorStats")
        if self.d < 1 or self.r < 1:
            raise InvalidInputError("dimensions must be positive")
        if len(self.z0_singular_values) != min(self.d, self.r):
            raise InvalidInputError("need min(d, r) singular values for the start matrix")
        if self.projected_rank is not None and self.projected_rank != self.r:
            raise InvalidInputError(
                f"projected rank {self.projected_rank} must equal cols(Z_0) = {self.r}")

    @classmethod
    def from_factors(cls, factors, d, z0=None, projected_rank=None) -> "ProductStats":
        if z0 is None:
            z0 = np.eye(d)
        z0 = as_matrix(z0, "z0")
        if z0.shape[0] != d:
            raise InvalidInputError(f"z0 must have {d} rows")
        svals = singular_values(z0)
        if not np.isfinite(svals).all():  # finite entries, but sigma_1 passes float64
            raise InvalidInputError("z0 has singular values that overflow float64; "
                                    "scale the start down")
        return cls(
            factors=tuple(factors),
            d=int(d),
            r=int(z0.shape[1]),
            z0_singular_values=tuple(float(s) for s in svals),
            projected_rank=projected_rank,
        )

    @classmethod
    def from_ensembles(cls, ensembles, z0=None, projected_rank=None) -> "ProductStats":
        dims = {e.dim for e in ensembles}
        if len(dims) != 1:
            raise InvalidInputError("all factors must share one dimension")
        return cls.from_factors([e.stats for e in ensembles], dims.pop(), z0, projected_rank)

    # -- derived aggregates ------------------------------------------------
    # The stats are frozen, so each aggregate is summed once, on first read.

    @cached_property
    def M(self) -> float:
        return math.prod((f.mean_norm for f in self.factors), start=1.0)

    @cached_property
    def v(self) -> float:
        return sum(f.sigma**2 for f in self.factors)

    @cached_property
    def v_uniform(self) -> Optional[float]:
        if any(f.sigma_uniform is None for f in self.factors):
            return None
        return sum(f.sigma_uniform**2 for f in self.factors)

    @cached_property
    def B(self) -> Optional[float]:
        if any(f.uniform_norm is None for f in self.factors):
            return None
        return math.prod((f.uniform_norm for f in self.factors), start=1.0)

    @cached_property
    def contraction_M(self) -> Optional[float]:
        if any(f.contraction is None for f in self.factors):
            return None
        return math.prod((f.contraction for f in self.factors), start=1.0)

    @cached_property
    def contraction_v(self) -> Optional[float]:
        """Sum of squared a.s. deviations measured against the contraction stat."""
        out = 0.0
        for f in self.factors:
            if f.contraction is None or f.sigma_uniform is None:
                return None
            out += (f.sigma_uniform * f.mean_norm / f.contraction) ** 2
        return out

    def z0_norm(self, p) -> float:
        """||Z_0||_p, bitwise ``schatten_norm(z0, p)``: the root is taken on a
        stack of one, as ``stack_norms`` takes it, once per p."""
        if p not in self._z0_norms:
            self._z0_norms[p] = float(
                norm_from_singular_values(np.asarray(self.z0_singular_values)[None], p)[0])
        return self._z0_norms[p]

    @property
    def start_norm(self) -> float:
        """||Z_0||, the start's spectral norm."""
        return max(self.z0_singular_values)

    def start_threshold(self, x) -> float:
        """The threshold x ||Z_0|| of a tail display stated for Z_0 = I. A zero
        start makes every such tail event certain, so it has none to bound."""
        if self.start_norm == 0.0:
            raise InvalidInputError("tail bounds need a nonzero start matrix")
        return x * self.start_norm

    def meets(self, need) -> bool:
        """Whether these stats carry what a display needs (`Display.need`)."""
        return need is None or {"B": self.B is not None,
                                "contraction": self.contraction_v is not None,
                                "projected": self.projected_rank is not None,
                                "square": self.d == self.r}[need]

    def _stat_order_condition(self, q: float) -> Condition:
        """The factors with stat order below q and no almost-sure stat, counted."""
        return Condition("stat-order-covers-q",
                         sum(f.q < q and f.sigma_uniform is None for f in self.factors), 0)

    def _require_uniform_v(self) -> float:
        v = self.v_uniform
        if v is None:
            raise MissingUniformBoundsError("almost-sure deviation statistics are required")
        return v

    def _require_B(self) -> float:
        b = self.B
        if b is None:
            raise MissingUniformBoundsError("almost-sure factor norm bounds are required")
        return b


# ---------------------------------------------------------------------------
# moment bounds at caller-chosen (p, q)

def growth_moment_bound(s: ProductStats, p, q=2.0, uniform=False) -> BoundResult:
    """(E ||Z_n||_p^q)^(1/q) <= exp(C_p v / 2) ||Z_0||_p M, or ||Z_0||_p B if uniform."""
    params = _moment_params(p, q)
    conditions = [s._stat_order_condition(params.q)]
    if uniform:
        return _finish(BoundResult("uniform-growth", s.z0_norm(params.p) * s._require_B(),
                                   params, conditions), None)
    value = _exp(0.5 * params.cp * s.v) * s.z0_norm(params.p) * s.M
    cap = None if s.B is None else s.z0_norm(params.p) * s.B
    return _finish(BoundResult("growth-moment", value, params, conditions), cap)


def concentration_moment_bound(s: ProductStats, p, q=2.0, uniform=False) -> BoundResult:
    """(E ||Z_n - E Z_n||_p^q)^(1/q) <= sqrt(e^(C_p v) - 1) ||Z_0||_p M, or, if
    uniform, sqrt(C_p v) ||Z_0||_p B."""
    params = _moment_params(p, q)
    conditions = [s._stat_order_condition(params.q)]
    if uniform:
        value = math.sqrt(params.cp * s.v) * s.z0_norm(params.p) * s._require_B()
        return _finish(BoundResult("uniform-concentration", value, params, conditions), None)
    value = _sqrt_expm1(params.cp * s.v) * s.z0_norm(params.p) * s.M
    cap = None if s.B is None else 2.0 * s.z0_norm(params.p) * s.B
    return _finish(BoundResult("concentration-moment", value, params, conditions), cap)


# ---------------------------------------------------------------------------
# expectation bounds in the spectral norm (q = 2 internally), times ||Z_0||

def _refine_over_grid(log_objective) -> tuple:
    logs = [log_objective(p) for p in P_GRID]
    i = int(np.argmin(logs))
    return _exp(logs[i]), float(P_GRID[i])


def expectation_growth_bound(s: ProductStats, refine=False) -> BoundResult:
    """E ||Z_n|| <= exp(sqrt(2 v max(2v, log d))) * M * ||Z_0||, unconditional."""
    load = max(2.0 * s.v, math.log(s.d))
    value = _exp(math.sqrt(2.0 * s.v * load)) * s.M
    internal_p = math.sqrt(2.0 * load / s.v) if s.v > 0 else math.inf
    params = SchattenParams(p=internal_p, q=2.0) if math.isfinite(internal_p) else None
    result = BoundResult("expectation-growth", value, params,
                         [s._stat_order_condition(2.0)])
    if refine and s.v > 0:
        logM = math.log(s.M) if s.M > 0 else -math.inf
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) / p + 0.5 * (p - 1.0) * s.v + logM)
    return _finish(result, s.B, s.start_norm)


def expectation_concentration_bound(s: ProductStats, uniform=False, refine=False) -> BoundResult:
    """E ||Z_n - E Z_n|| via the dimension-aware p = 2(1 + log d) selection.

    uniform=True gives the unconditional almost-sure-factor variant
    sqrt(e v (1 + 2 log d)) * B * ||Z_0||; the default form, e sqrt(v (1 + 2
    log d)) * M * ||Z_0||, requires v (1 + 2 log d) <= 1.
    """
    load = 1.0 + 2.0 * math.log(s.d)
    internal_p = 2.0 * (1.0 + math.log(s.d))
    params = SchattenParams(p=internal_p, q=2.0)
    if uniform:
        B = s._require_B()
        value = math.sqrt(E * s.v * load) * B
        result = BoundResult("expectation-concentration-uniform", value, params,
                             [s._stat_order_condition(2.0)])
        return _finish(result, 2.0 * B, s.start_norm)
    value = math.sqrt(E * E * s.v * load) * s.M
    conditions = [s._stat_order_condition(2.0), Condition("small-variance", s.v * load, 1.0)]
    result = BoundResult("expectation-concentration", value, params, conditions)
    if refine and s.v > 0:
        logM = math.log(s.M) if s.M > 0 else -math.inf
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) / p + 0.5 * _log_expm1((p - 1.0) * s.v) + logM)
    return _finish(result, None if s.B is None else 2.0 * s.B, s.start_norm)


# ---------------------------------------------------------------------------
# tail bounds (almost-sure factor hypotheses)

def _tail_factor(t, v) -> float:
    """A tail's threshold factor t, which must be positive, as a float; its
    deviation statistic v must not vanish."""
    if not t > 0:
        raise InvalidParameterError("threshold factor t must be positive")
    if v == 0.0:
        raise InvalidParameterError("tail bounds need nonvanishing deviation statistics")
    return float(t)


def tail_growth_bound(s: ProductStats, t, refine=False) -> BoundResult:
    """P{ ||Z_n|| >= t M ||Z_0|| } <= d exp(-log^2 t / (2v)), valid once log t >= 2v."""
    v = s._require_uniform_v()
    t = _tail_factor(t, v)
    cond = Condition("log-t-dominates", 2.0 * v, math.log(t))
    internal_p = math.log(t) / v
    value = s.d * _exp(-(math.log(t) ** 2) / (2.0 * v))
    result = BoundResult("tail-growth", value, SchattenParams(p=max(internal_p, 1.0), q=2.0),
                         [cond], threshold=s.start_threshold(t * s.M))
    if refine:
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) + p * (0.5 * (p - 1.0) * v - math.log(t)))
        result.refined_value = min(result.refined_value, 1.0)
    return _finish(result, 1.0)


def tail_concentration_bound(s: ProductStats, t, uniform=False, refine=False) -> BoundResult:
    """Deviation tails at threshold t*M*||Z_0|| (default, needs t <= e) or
    t*B*||Z_0|| (uniform).

    Default: P{ ||Z_n - E Z_n|| >= t M ||Z_0|| } <= (d or e) exp(-t^2 / (2 e^2 v)).
    Uniform: P{ ||Z_n - E Z_n|| >= t B ||Z_0|| } <= (d or e) exp(-t^2 / (2 e v)), all t.
    """
    v = s.v if uniform else s._require_uniform_v()
    t = _tail_factor(t, v)
    prefactor = max(s.d, E)
    if uniform:
        B = s._require_B()
        value = prefactor * _exp(-t * t / (2.0 * E * v))
        result = BoundResult("tail-concentration-uniform", value,
                             SchattenParams(p=max(t * t / (E * v), 1.0), q=2.0),
                             [s._stat_order_condition(2.0)], threshold=s.start_threshold(t * B))
        return _finish(result, 1.0)
    internal_p = t * t / (E * E * v)
    value = prefactor * _exp(-t * t / (2.0 * E * E * v))
    result = BoundResult("tail-concentration", value,
                         SchattenParams(p=max(internal_p, 1.0), q=2.0),
                         [Condition("t-below-e", t, E)], threshold=s.start_threshold(t * s.M))
    if refine:
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) + p * (0.5 * _log_expm1((p - 1.0) * v) - math.log(t)))
        result.refined_value = min(result.refined_value, 1.0)
    return _finish(result, 1.0)


# ---------------------------------------------------------------------------
# perturbation form: factors Y_i = I + X_i with ||E X_i|| <= xi_i

def _finite_threshold(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"threshold {name} = {value} is not finite")
    return value


@dataclass(frozen=True)
class PerturbationStats:
    """xi = sum xi_i and v in dimension d. The tail displays read them as the
    ProductStats of a product from Z_0 = I with M = e^xi >= prod (1 + xi_i)."""

    xi: float
    v: float
    d: int

    def __post_init__(self):
        if self.xi < 0 or not math.isfinite(self.xi):
            raise InvalidParameterError("xi must be finite and nonnegative")
        if self.v < 0 or not math.isfinite(self.v):
            raise InvalidParameterError("v must be finite and nonnegative")
        if self.d < 1:
            raise InvalidParameterError("dimension must be positive")

    def meets(self, need) -> bool:
        return need == "perturbation"

    @property
    def M(self) -> float:
        return _exp(self.xi)

    def _require_uniform_v(self) -> float:
        return self.v

    def start_threshold(self, x) -> float:
        return _finite_threshold(x, "t e^xi")


def perturbation_expectation_growth_bound(s: PerturbationStats) -> BoundResult:
    """E ||Z_n|| <= exp(xi + sqrt(2 v log d)), valid once 2v <= log d."""
    cond = Condition("variance-below-log-d", 2.0 * s.v, math.log(s.d))
    value = _exp(s.xi + math.sqrt(2.0 * s.v * math.log(s.d)))
    internal_p = math.sqrt(2.0 * max(2.0 * s.v, math.log(s.d)) / s.v) if s.v > 0 else math.inf
    params = SchattenParams(p=internal_p, q=2.0) if math.isfinite(internal_p) else None
    return _finish(BoundResult("perturbation-expectation-growth", value, params, [cond]), None)


def perturbation_expectation_concentration_bound(s: PerturbationStats) -> BoundResult:
    """E ||Z_n - E Z_n|| <= e^(xi + 1) sqrt(v (1 + 2 log d)), valid once v (1 + 2 log d) <= 1."""
    load = 1.0 + 2.0 * math.log(s.d)
    cond = Condition("small-variance", s.v * load, 1.0)
    value = _exp(s.xi + 1.0) * math.sqrt(s.v * load)
    return _finish(BoundResult("perturbation-expectation-concentration", value,
                               SchattenParams(p=2.0 * (1.0 + math.log(s.d)), q=2.0), [cond]), None)


def perturbation_tail_concentration_bound(s: PerturbationStats, t) -> BoundResult:
    """The deviation tail at t e^xi, and its value with the looser prefactor d + e."""
    result = tail_concentration_bound(s, t)
    result.extras = {"loose_prefactor_value": (s.d + E) * _exp(-t * t / (2.0 * E * E * s.v))}
    return result


def inverse_perturbation_stats(xis, sigmas):
    """Pull perturbation stats through the inverse: returns (xi_bar, v_bar).

    Factors are Y_i = I + X_i with ||E X_i|| <= xi_i and ||X_i - E X_i|| <= sigma_i
    almost surely; requires xi_i + sigma_i < 1 so each factor is invertible.
    """
    xis = [float(x) for x in xis]
    sigmas = [float(s) for s in sigmas]
    if len(xis) != len(sigmas) or not xis:
        raise InvalidParameterError("need matching nonempty xi and sigma lists")
    xi_bar = 0.0
    v_bar = 0.0
    for x, sg in zip(xis, sigmas):
        if x < 0 or sg < 0:
            raise InvalidParameterError("perturbation stats must be nonnegative")
        total = x + sg
        if total >= 1.0:
            raise InvalidParameterError(
                f"invertibility needs xi_i + sigma_i < 1, got {total}")
        xi_bar += x + total**2 / (1.0 - total)
        v_bar += (sg + 2.0 * total**2 / (1.0 - total)) ** 2
    return xi_bar, v_bar


# ---------------------------------------------------------------------------
# contractions (factor norms at most one in the mean-square sense): M is the
# product of contraction stats and v sums the almost-sure deviations measured
# against them. B may exceed 1, since the contraction stat bounds only
# ||E Y^T Y||.

def _contraction_stats(s: ProductStats) -> tuple:
    if s.contraction_v is None:
        raise MissingUniformBoundsError(
            "contraction bounds need contraction and almost-sure deviation stats")
    return s.contraction_M, s.contraction_v


def contraction_growth_bound(s: ProductStats) -> BoundResult:
    """E ||Z_n|| <= sqrt(d) M ||Z_0||, clipped at ||Z_0|| B where B is known."""
    M, _ = _contraction_stats(s)
    raw = math.sqrt(s.d) * M
    return _finish(BoundResult(
        "contraction-expectation-growth", raw if s.B is None else min(s.B, raw), None, [],
        extras={"unclipped": raw * s.start_norm}), s.B, s.start_norm)


def contraction_concentration_bound(s: ProductStats) -> BoundResult:
    """E ||Z_n - E Z_n|| <= sqrt(d v) M ||Z_0||, capped at 2 ||Z_0|| B."""
    M, v = _contraction_stats(s)
    return _finish(BoundResult(
        "contraction-expectation-concentration", math.sqrt(s.d * v) * M, None, []),
        None if s.B is None else 2.0 * s.B, s.start_norm)


def contraction_tail_bound(s: ProductStats, t) -> BoundResult:
    """P{ ||Z_n - E Z_n|| >= t ||Z_0|| } <= d M^2 exp(-t^2 / (2 e v)), once t^2 >= 2 e v."""
    M, v = _contraction_stats(s)
    t = _tail_factor(t, v)
    cond = Condition("threshold-dominates", 2.0 * E * v, t * t)
    return _finish(BoundResult(
        "contraction-tail-concentration", s.d * M * M * _exp(-t * t / (2.0 * E * v)),
        SchattenParams(p=max(t * t / (E * v), 2.0), q=2.0), [cond],
        threshold=s.start_threshold(t)), 1.0)


# ---------------------------------------------------------------------------
# scalar reference and the L/T scenario

def scalar_reference_bounds(mu, b, n, s=None, t=None):
    """Scalar product of (1 + X_i/n), |X_i - E X_i| <= b, sum ||E X_i|| <= mu.

    Returns the growth tail at relative height s (for Z_n >= (1+s) e^mu) and,
    if t is given, the concentration tail at t e^mu (needs t <= e). Both
    thresholds must be finite.
    """
    mu, b = float(mu), float(b)
    n = int(n)
    if not (math.isfinite(mu) and math.isfinite(b)):
        raise InvalidParameterError("mu and b must be finite")
    if b <= 0 or n < 1:
        raise InvalidParameterError("need b > 0 and n >= 1")
    out = {}
    if s is not None:
        s = float(s)
        if s <= 0:
            raise InvalidParameterError("relative height s must be positive")
        value = _exp(-n * math.log1p(s) ** 2 / (2.0 * b * b))
        out["growth"] = _finish(BoundResult(
            "scalar-growth-tail", value, None, [],
            threshold=_finite_threshold((1.0 + s) * _exp(mu), "(1 + s) e^mu")), 1.0)
    if t is not None:
        t = float(t)
        if t <= 0:
            raise InvalidParameterError("threshold factor t must be positive")
        value = _exp(-n * t * t / (2.0 * E * E * b * b))
        out["concentration"] = _finish(BoundResult(
            "scalar-concentration-tail", value, None, [Condition("t-below-e", t, E)],
            threshold=_finite_threshold(t * _exp(mu), "t e^mu")), 1.0)
    if not out:
        raise InvalidParameterError("supply s and/or t")
    return out


@dataclass(frozen=True)
class ScenarioLT:
    """A length-n product of I + X_i/n with sum ||E X_i|| <= T, ||X_i|| <= L a.s."""

    T: float
    L: float
    n: int
    d: int
    delta: float = 0.01

    def __post_init__(self):
        if self.T < 0 or not math.isfinite(self.T):
            raise InvalidParameterError("T must be finite and nonnegative")
        if self.L <= 0 or not math.isfinite(self.L):
            raise InvalidParameterError("L must be positive")
        if self.n < 1 or self.d < 1:
            raise InvalidParameterError("n and d must be positive")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParameterError("delta must lie in (0, 1)")


def scenario_lt_bounds(sc: ScenarioLT):
    """Expectation and high-probability deviation bounds for the L/T scenario."""
    load1 = 1.0 + 2.0 * math.log(sc.d)
    expectation = _finish(BoundResult(
        "scenario-expectation-concentration",
        math.sqrt(load1 / sc.n) * sc.L * _exp(1.0 + sc.T),
        SchattenParams(p=2.0 * (1.0 + math.log(sc.d)), q=2.0),
        [Condition("small-variance", sc.L**2 * load1, sc.n)]), None)

    load2 = 2.0 + 2.0 * math.log(sc.d / sc.delta)
    probable = _finish(BoundResult(
        "scenario-probable-concentration",
        math.sqrt(load2 / sc.n) * sc.L * _exp(1.0 + sc.T), None,
        [Condition("small-variance", sc.L**2 * load2, sc.n)], confidence=1.0 - sc.delta), None)
    return expectation, probable


# ---------------------------------------------------------------------------
# the display table: which display runs on which stats, and what it is joined to

@dataclass(frozen=True)
class Display:
    """One of the paper's displays, and where it is evaluated.

    ``evaluate`` takes the stats and the keywords in ``args`` (of p, q,
    refine and t; one that takes t is a tail). The stats must also carry
    ``need``: "B" (almost-sure norms), "contraction" (contraction and
    almost-sure deviation stats), "projected" (projected deviations),
    "square" (d = cols(Z_0)) or "perturbation" (PerturbationStats).
    ``estimate`` keys the truth a ``compare`` row joins it to; a tail's, its
    tail quantity, also keys its thresholds. The ``bound`` kinds in ``kinds``
    print it, and the default ``compare`` set of the product modes in
    ``modes`` lists it. With ``own_kind`` its result takes its name as kind.
    """

    name: str
    evaluate: Callable
    args: tuple = ()
    need: Optional[str] = None
    estimate: Optional[str] = None
    kinds: tuple = ()
    modes: tuple = ()
    own_kind: bool = False

    def __call__(self, stats, **given) -> BoundResult:
        result = self.evaluate(stats, **{name: given[name] for name in self.args})
        if self.own_kind:
            result.kind = self.name
        return result


# Table order is the order `bound` prints and the default `compare` set lists.
# E||Z|| never exceeds the (p, q) moment, so the moment bounds also bound means.
_PQ = ("p", "q")
_MOMENT = ("moment",)
_CONTRACTION = ("moment", "contraction")
_LOWRANK = ("moment", "lowrank")
_INDEPENDENT = ("independent",)
DISPLAYS = {d.name: d for d in (
    Display("growth-moment", growth_moment_bound, _PQ, None, "schatten-moment", _MOMENT,
            _INDEPENDENT),
    Display("concentration-moment", concentration_moment_bound, _PQ, None,
            "deviation-schatten-moment", _MOMENT, _INDEPENDENT),
    Display("growth-mean", growth_moment_bound, _PQ, None, "spectral-norm-mean"),
    Display("concentration-mean", concentration_moment_bound, _PQ, None, "deviation-norm-mean"),
    Display("expectation-growth", expectation_growth_bound, ("refine",), None,
            "spectral-norm-mean", _MOMENT, _INDEPENDENT),
    Display("expectation-concentration", expectation_concentration_bound, ("refine",), None,
            "deviation-norm-mean", _MOMENT, _INDEPENDENT),
    Display("uniform-growth", partial(growth_moment_bound, uniform=True), _PQ, "B",
            kinds=_MOMENT),
    Display("uniform-concentration", partial(concentration_moment_bound, uniform=True), _PQ,
            "B", kinds=_MOMENT),
    Display("expectation-concentration-uniform",
            partial(expectation_concentration_bound, uniform=True), (), "B", kinds=_MOMENT),
    Display("tail-growth", tail_growth_bound, ("t", "refine"), None, "growth-tail", _MOMENT,
            MODES),
    Display("tail-concentration", tail_concentration_bound, ("t", "refine"), None,
            "deviation-tail", _MOMENT, MODES),
    Display("tail-concentration-uniform", partial(tail_concentration_bound, uniform=True),
            ("t",), "B", "deviation-tail", _MOMENT),
    Display("contraction-expectation-growth", contraction_growth_bound, (), "contraction",
            "spectral-norm-mean", _CONTRACTION, _INDEPENDENT),
    Display("contraction-expectation-concentration", contraction_concentration_bound, (),
            "contraction", "deviation-norm-mean", _CONTRACTION, _INDEPENDENT),
    Display("contraction-tail", contraction_tail_bound, ("t",), "contraction",
            "deviation-tail", _CONTRACTION, _INDEPENDENT),
    # q = 2 is fixed by the low-rank derivation
    Display("lowrank-growth", growth_moment_bound, ("p",), "projected", "schatten-moment",
            _LOWRANK, own_kind=True),
    Display("lowrank-concentration", concentration_moment_bound, ("p",), "projected",
            "deviation-schatten-moment", _LOWRANK, own_kind=True),
    # the growth display with conjugated stats bounds E rho(Z_n)
    Display("spectral-radius-expectation", expectation_growth_bound, (), "square",
            "spectral-radius-mean", modes=_INDEPENDENT, own_kind=True),
    Display("adapted-growth-moment", growth_moment_bound, _PQ, None, "schatten-moment",
            modes=("adapted",)),
    Display("adapted-concentration-moment", concentration_moment_bound, _PQ, None,
            "deviation-schatten-moment", modes=("adapted",)),
    Display("perturbation-expectation-growth", perturbation_expectation_growth_bound, (),
            "perturbation", kinds=("perturbation", "inverse")),
    Display("perturbation-expectation-concentration",
            perturbation_expectation_concentration_bound, (), "perturbation",
            kinds=("perturbation", "inverse")),
    Display("perturbation-tail-growth", tail_growth_bound, ("t",), "perturbation",
            "growth-tail", ("perturbation",), own_kind=True),
    Display("perturbation-tail-concentration", perturbation_tail_concentration_bound, ("t",),
            "perturbation", "deviation-tail", ("perturbation", "inverse"), own_kind=True),
    Display("inverse-expectation-growth", perturbation_expectation_growth_bound, (),
            "perturbation", "spectral-norm-mean", modes=("inverse",)),
    Display("inverse-expectation-concentration", perturbation_expectation_concentration_bound,
            (), "perturbation", "deviation-norm-mean", modes=("inverse",)),
)}


def evaluate_kind(kind, stats, thresholds, p=2.0, q=2.0, refine=False) -> list:
    """The displays of a ``bound`` kind whose need the stats meet, in table
    order; a tail at each of ``thresholds[estimate]``, adjacent tails that
    share the list alternating threshold by threshold."""
    out = []
    shown = [d for d in DISPLAYS.values() if kind in d.kinds and stats.meets(d.need)]
    for estimate, group in itertools.groupby(shown, key=lambda d: d.estimate):
        group = list(group)
        for t in thresholds[estimate] if "t" in group[0].args else (None,):
            out.extend(d(stats, p=p, q=q, refine=refine, t=t) for d in group)
    return out

