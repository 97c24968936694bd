"""Closed-form growth and concentration bounds for matrix products.

Every evaluator consumes aggregate factor statistics (ProductStats) and
returns a BoundResult carrying the value, the Schatten parameters actually
used, and the mathematical side conditions with their satisfied flags. A
violated side condition yields value = inf rather than an exception; misuse
of the API (bad p, q, missing statistics) raises.

Conventions: M is the product of mean-norm bounds, v the sum of squared
relative deviation statistics, B the product of almost-sure norm bounds,
xi the sum of mean-perturbation bounds, d the ambient dimension, C_p = p - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .ensembles import FactorStats
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MissingUniformBoundsError,
)
from .schatten import as_matrix, norm_from_singular_values, singular_values

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
    name: str
    satisfied: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "satisfied": bool(self.satisfied)}


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


def _finish(result: BoundResult, cap: Optional[float]) -> BoundResult:
    """Apply the trivially available cap, if any, keeping the raw value."""
    if not result.conditions_met:
        result.value = math.inf
    if cap is not None and math.isfinite(cap):
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

    @classmethod
    def from_factors(cls, factors, d, z0=None, projected_rank=None) -> "ProductStats":
        if z0 is None:
            z0 = np.eye(d)
        z0 = as_matrix(z0, "z0")
        if z0.shape[0] != d:
            raise InvalidInputError(f"z0 must have {d} rows")
        svals = singular_values(z0)
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

    @property
    def n(self) -> int:
        return len(self.factors)

    @cached_property
    def M(self) -> float:
        out = 1.0
        for f in self.factors:
            out *= f.mean_norm
        return out

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
        out = 1.0
        for f in self.factors:
            if f.uniform_norm is None:
                return None
            out *= f.uniform_norm
        return out

    @cached_property
    def xi(self) -> Optional[float]:
        if any(f.mean_perturbation is None for f in self.factors):
            return None
        return sum(f.mean_perturbation for f in self.factors)

    @cached_property
    def contraction_M(self) -> Optional[float]:
        out = 1.0
        for f in self.factors:
            if f.contraction is None:
                return None
            out *= f.contraction
        return out

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
        return float(norm_from_singular_values(np.asarray(self.z0_singular_values), p))

    def _stat_order_condition(self, q: float) -> Condition:
        ok = all(f.q >= q or f.sigma_uniform is not None for f in self.factors)
        return Condition("stat-order-covers-q", ok, f"every factor stat order >= {q} (or almost-sure)")

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

def growth_moment_bound(s: ProductStats, p, q=2.0) -> BoundResult:
    """(E ||Z_n||_p^q)^(1/q) <= exp(C_p v / 2) * ||Z_0||_p * M."""
    params = _moment_params(p, q)
    value = _exp(0.5 * params.cp * s.v) * s.z0_norm(params.p) * s.M
    cap = None if s.B is None else s.z0_norm(params.p) * s.B
    return _finish(BoundResult("growth-moment", value, params,
                               [s._stat_order_condition(params.q)]), cap)


def concentration_moment_bound(s: ProductStats, p, q=2.0) -> BoundResult:
    """(E ||Z_n - E Z_n||_p^q)^(1/q) <= sqrt(e^(C_p v) - 1) * ||Z_0||_p * M."""
    params = _moment_params(p, q)
    value = _sqrt_expm1(params.cp * s.v) * s.z0_norm(params.p) * s.M
    cap = None if s.B is None else 2.0 * s.z0_norm(params.p) * s.B
    return _finish(BoundResult("concentration-moment", value, params,
                               [s._stat_order_condition(params.q)]), cap)


def uniform_moment_bounds(s: ProductStats, p, q=2.0):
    """Almost-sure-factor variants: (||Z_0||_p B, sqrt(C_p v) ||Z_0||_p B)."""
    params = _moment_params(p, q)
    B = s._require_B()
    z0 = s.z0_norm(params.p)
    growth = BoundResult("uniform-growth", z0 * B, params,
                         [s._stat_order_condition(params.q)])
    conc = BoundResult("uniform-concentration", math.sqrt(params.cp * s.v) * z0 * B, params,
                       [s._stat_order_condition(params.q)])
    return _finish(growth, None), _finish(conc, None)


# ---------------------------------------------------------------------------
# expectation bounds in the spectral norm (q = 2 internally, Z_0 square)

def _refine_over_grid(log_objective) -> tuple:
    logs = [log_objective(p) for p in P_GRID]
    i = int(np.argmin(logs))
    return _exp(logs[i]), float(P_GRID[i])


def expectation_growth_bound(s: ProductStats, refine=False) -> BoundResult:
    """E ||Z_n|| <= exp(sqrt(2 v max(2v, log d))) * M, unconditional."""
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
    return _finish(result, s.B)


def expectation_concentration_bound(s: ProductStats, uniform=False, refine=False) -> BoundResult:
    """E ||Z_n - E Z_n|| via the dimension-aware p = 2(1 + log d) selection.

    uniform=True gives the unconditional almost-sure-factor variant
    sqrt(e v (1 + 2 log d)) * B; the default form requires v (1 + 2 log d) <= 1.
    """
    load = 1.0 + 2.0 * math.log(s.d)
    internal_p = 2.0 * (1.0 + math.log(s.d))
    params = SchattenParams(p=internal_p, q=2.0)
    if uniform:
        B = s._require_B()
        value = math.sqrt(E * s.v * load) * B
        result = BoundResult("expectation-concentration-uniform", value, params,
                             [s._stat_order_condition(2.0)])
        return _finish(result, 2.0 * B)
    cond = Condition("small-variance", s.v * load <= 1.0, f"v*(1+2*log d) = {s.v * load:.6g} <= 1")
    value = math.sqrt(E * E * s.v * load) * s.M
    result = BoundResult("expectation-concentration", value, params,
                         [s._stat_order_condition(2.0), cond])
    if refine and s.v > 0:
        logM = math.log(s.M) if s.M > 0 else -math.inf
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) / p + 0.5 * _log_expm1((p - 1.0) * s.v) + logM)
    cap = None if s.B is None else 2.0 * s.B
    return _finish(result, cap)


# ---------------------------------------------------------------------------
# tail bounds (almost-sure factor hypotheses)

def tail_growth_bound(s: ProductStats, t, refine=False) -> BoundResult:
    """P{ ||Z_n|| >= t M } <= d exp(-log^2 t / (2v)), valid once log t >= 2v."""
    t = float(t)
    if t <= 0:
        raise InvalidParameterError("threshold factor t must be positive")
    v = s._require_uniform_v()
    if v == 0.0:
        raise InvalidParameterError("tail bounds need nonvanishing deviation statistics")
    cond = Condition("log-t-dominates", math.log(t) >= 2.0 * v,
                     f"log t = {math.log(t):.6g} >= 2v = {2.0 * v:.6g}")
    internal_p = math.log(t) / v
    value = s.d * _exp(-(math.log(t) ** 2) / (2.0 * v))
    result = BoundResult("tail-growth", value, SchattenParams(p=max(internal_p, 1.0), q=2.0),
                         [cond], threshold=t * s.M)
    if refine:
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) + p * (0.5 * (p - 1.0) * v - math.log(t)))
        result.refined_value = min(result.refined_value, 1.0)
    return _finish(result, 1.0)


def tail_concentration_bound(s: ProductStats, t, uniform=False, refine=False) -> BoundResult:
    """Deviation tails at threshold t*M (default, needs t <= e) or t*B (uniform).

    Default: P{ ||Z_n - E Z_n|| >= t M } <= (d or e) exp(-t^2 / (2 e^2 v)).
    Uniform: P{ ||Z_n - E Z_n|| >= t B } <= (d or e) exp(-t^2 / (2 e v)), all t.
    """
    t = float(t)
    if t <= 0:
        raise InvalidParameterError("threshold factor t must be positive")
    prefactor = max(s.d, E)
    if uniform:
        B = s._require_B()
        v = s.v
        if v == 0.0:
            raise InvalidParameterError("tail bounds need nonvanishing deviation statistics")
        value = prefactor * _exp(-t * t / (2.0 * E * v))
        result = BoundResult("tail-concentration-uniform", value,
                             SchattenParams(p=max(t * t / (E * v), 1.0), q=2.0),
                             [s._stat_order_condition(2.0)], threshold=t * B)
        return _finish(result, 1.0)
    v = s._require_uniform_v()
    if v == 0.0:
        raise InvalidParameterError("tail bounds need nonvanishing deviation statistics")
    cond = Condition("t-below-e", t <= E, f"t = {t:.6g} <= e")
    internal_p = t * t / (E * E * v)
    value = prefactor * _exp(-t * t / (2.0 * E * E * v))
    result = BoundResult("tail-concentration", value,
                         SchattenParams(p=max(internal_p, 1.0), q=2.0),
                         [cond], threshold=t * s.M)
    if refine:
        result.refined_value, result.refined_p = _refine_over_grid(
            lambda p: math.log(s.d) + p * (0.5 * _log_expm1((p - 1.0) * v) - math.log(t)))
        result.refined_value = min(result.refined_value, 1.0)
    return _finish(result, 1.0)


# ---------------------------------------------------------------------------
# perturbation form: factors Y_i = I + X_i with ||E X_i|| <= xi_i

def perturbation_bounds(xi, v, d, query, t=None) -> BoundResult:
    """Bounds for products of I + X_i in terms of xi = sum xi_i and v.

    query is one of "expectation-growth", "expectation-concentration",
    "tail-growth", "tail-concentration"; tail queries need the threshold
    factor t and report the absolute threshold t * e^xi.
    """
    xi, v = float(xi), float(v)
    d = int(d)
    if xi < 0 or not math.isfinite(xi):
        raise InvalidParameterError("xi must be finite and nonnegative")
    if v < 0 or not math.isfinite(v):
        raise InvalidParameterError("v must be finite and nonnegative")
    if d < 1:
        raise InvalidParameterError("dimension must be positive")
    scale = _exp(xi)
    if query == "expectation-growth":
        cond = Condition("variance-below-log-d", 2.0 * v <= math.log(d),
                         f"2v = {2.0 * v:.6g} <= log d = {math.log(d):.6g}")
        value = _exp(xi + math.sqrt(2.0 * v * math.log(d)))
        internal_p = math.sqrt(2.0 * max(2.0 * v, math.log(d)) / v) if v > 0 else math.inf
        params = SchattenParams(p=internal_p, q=2.0) if math.isfinite(internal_p) else None
        return _finish(BoundResult("perturbation-expectation-growth", value, params,
                                   [cond]), None)
    if query == "expectation-concentration":
        load = 1.0 + 2.0 * math.log(d)
        cond = Condition("small-variance", v * load <= 1.0, f"v*(1+2*log d) = {v * load:.6g} <= 1")
        value = _exp(xi + 1.0) * math.sqrt(v * load)
        return _finish(BoundResult("perturbation-expectation-concentration", value,
                                   SchattenParams(p=2.0 * (1.0 + math.log(d)), q=2.0), [cond]), None)
    if query in ("tail-growth", "tail-concentration"):
        if t is None or t <= 0:
            raise InvalidParameterError("tail queries need a positive threshold factor t")
        t = float(t)
        if v == 0.0:
            raise InvalidParameterError("tail bounds need v > 0")
        if query == "tail-growth":
            cond = Condition("log-t-dominates", math.log(t) >= 2.0 * v,
                             f"log t = {math.log(t):.6g} >= 2v = {2.0 * v:.6g}")
            value = d * _exp(-(math.log(t) ** 2) / (2.0 * v))
            return _finish(BoundResult("perturbation-tail-growth", value,
                                       SchattenParams(p=max(math.log(t) / v, 1.0), q=2.0),
                                       [cond], threshold=t * scale), 1.0)
        cond = Condition("t-below-e", t <= E, f"t = {t:.6g} <= e")
        value = max(d, E) * _exp(-t * t / (2.0 * E * E * v))
        return _finish(BoundResult("perturbation-tail-concentration", value,
                                   SchattenParams(p=max(t * t / (E * E * v), 1.0), q=2.0),
                                   [cond], threshold=t * scale,
                                   extras={"loose_prefactor_value": (d + E) * _exp(-t * t / (2.0 * E * E * v))}), 1.0)
    raise InvalidParameterError(f"unknown perturbation query {query!r}")


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
# contractions (factor norms at most one in the mean-square sense)

def contraction_bounds(s: ProductStats, t=None):
    """Dimension-sqrt bounds for contractive factors; optionally a tail at t.

    Returns (growth, concentration) or (growth, concentration, tail) when a
    threshold t is supplied. Uses m_i = contraction stat and almost-sure
    deviations measured relative to it.
    """
    M = s.contraction_M
    v = s.contraction_v
    if M is None or v is None:
        raise MissingUniformBoundsError(
            "contraction bounds need contraction and almost-sure deviation stats")
    growth = _finish(BoundResult(
        "contraction-expectation-growth", min(1.0, math.sqrt(s.d) * M), None, [],
        extras={"unclipped": math.sqrt(s.d) * M}), 1.0)
    conc = _finish(BoundResult(
        "contraction-expectation-concentration", math.sqrt(s.d * v) * M, None, []), 2.0)
    if t is None:
        return growth, conc
    t = float(t)
    if t <= 0:
        raise InvalidParameterError("threshold t must be positive")
    if v == 0.0:
        raise InvalidParameterError("tail bounds need nonvanishing deviation statistics")
    cond = Condition("threshold-dominates", t * t >= 2.0 * E * v,
                     f"t^2 = {t * t:.6g} >= 2ev = {2.0 * E * v:.6g}")
    tail = _finish(BoundResult(
        "contraction-tail-concentration", s.d * M * M * _exp(-t * t / (2.0 * E * v)),
        SchattenParams(p=max(t * t / (E * v), 2.0), q=2.0), [cond], threshold=t), 1.0)
    return growth, conc, tail


# ---------------------------------------------------------------------------
# low-rank start and spectral radius

def lowrank_moment_bounds(s: ProductStats, p):
    """Moment bounds whose v uses rank-r projected deviation statistics.

    The stats must have been assembled with projected_rank equal to the column
    count of Z_0; q = 2 is fixed by the derivation.
    """
    if s.projected_rank is None:
        raise InvalidInputError("stats were not built with projected deviation statistics")
    if s.projected_rank != s.r:
        raise InvalidInputError(
            f"projected rank {s.projected_rank} must equal cols(Z_0) = {s.r}")
    growth, conc = growth_moment_bound(s, p), concentration_moment_bound(s, p)
    growth.kind, conc.kind = "lowrank-growth", "lowrank-concentration"
    return growth, conc


def spectral_radius_expectation_bound(s: ProductStats) -> BoundResult:
    """E rho(Z_n) <= exp(sqrt(2 v max(2v, log d))) * M with conjugated stats."""
    result = expectation_growth_bound(s)
    result.kind = "spectral-radius-expectation"
    return result


# ---------------------------------------------------------------------------
# scalar reference and the L/T scenario

def _finite_threshold(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"threshold {name} = {value} is not finite")
    return value


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
        cond = Condition("t-below-e", t <= E, f"t = {t:.6g} <= e")
        value = _exp(-n * t * t / (2.0 * E * E * b * b))
        out["concentration"] = _finish(BoundResult(
            "scalar-concentration-tail", value, None, [cond],
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
    cond1 = Condition("small-variance", sc.L**2 * load1 <= sc.n,
                      f"L^2 (1+2 log d) = {sc.L**2 * load1:.6g} <= n = {sc.n}")
    expectation = _finish(BoundResult(
        "scenario-expectation-concentration",
        math.sqrt(load1 / sc.n) * sc.L * _exp(1.0 + sc.T),
        SchattenParams(p=2.0 * (1.0 + math.log(sc.d)), q=2.0), [cond1]), None)

    load2 = 2.0 + 2.0 * math.log(sc.d / sc.delta)
    cond2 = Condition("small-variance", sc.L**2 * load2 <= sc.n,
                      f"L^2 (2+2 log(d/delta)) = {sc.L**2 * load2:.6g} <= n = {sc.n}")
    probable = _finish(BoundResult(
        "scenario-probable-concentration",
        math.sqrt(load2 / sc.n) * sc.L * _exp(1.0 + sc.T),
        None, [cond2], confidence=1.0 - sc.delta), None)
    return expectation, probable


__all__ = [
    "BoundResult", "Condition", "ProductStats", "ScenarioLT", "SchattenParams",
    "concentration_moment_bound", "contraction_bounds", "expectation_concentration_bound",
    "expectation_growth_bound", "growth_moment_bound",
    "inverse_perturbation_stats", "lowrank_moment_bounds", "perturbation_bounds",
    "scalar_reference_bounds", "scenario_lt_bounds", "spectral_radius_expectation_bound",
    "tail_concentration_bound", "tail_growth_bound", "uniform_moment_bounds",
]
