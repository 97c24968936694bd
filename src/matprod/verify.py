"""Certification harness for the product inequalities.

Every check reports normalized margins: the inequality's slack divided by the
magnitude of its right-hand side (or by 1 when the right side vanishes), so a
single tolerance applies across scales. A violation is a margin below minus
the tolerance. Negative controls deliberately weaken a constant and must
produce violations; a harness that cannot fail certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bounds import (
    ProductStats,
    concentration_moment_bound,
    contraction_bounds,
    expectation_concentration_bound,
    expectation_growth_bound,
    growth_moment_bound,
    inverse_perturbation_stats,
    lowrank_moment_bounds,
    perturbation_bounds,
    spectral_radius_expectation_bound,
    tail_concentration_bound,
    tail_growth_bound,
)
from .ensembles import make_bounded_perturbation, projected_deviation_stat
from .errors import (
    EnumerationInfeasibleError,
    InvalidConstructionError,
    InvalidParameterError,
    NothingToCheckError,
)
from .schatten import spectral_norm, stack_norms
from .simulate import (
    ESTIMATE_FIELDS,
    ProductSpec,
    enumerate_product,
    simulate_product,
    summarize_simulation,
)
from .streams import DEFAULT_SEED, substream

TOLERANCE = 1e-9
EQUALITY_TOLERANCE = 1e-10
MARTINGALE_PATH_BUDGET = 2**16


@dataclass
class CheckReport:
    name: str
    instances: int
    violations: int
    worst_margin: float
    tolerance: float
    seed: Optional[int] = None
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "passed": self.passed,
            "notes": list(self.notes),
            "failures": list(self.failures),
        }


class _Collector:
    """Accumulates per-instance margins into a CheckReport.

    A NaN margin is a violation, and makes the worst margin NaN: a check
    must never pass because a comparison with NaN came out false.
    """

    def __init__(self, name, tolerance, seed):
        self.name = name
        self.tolerance = tolerance
        self.seed = seed
        self.margins = []
        self.violations = 0
        self.notes = []
        self.failures = []

    def add(self, margin, tolerance=None, detail=None):
        tol = self.tolerance if tolerance is None else tolerance
        margin = float(margin)
        self.margins.append(margin)
        if not margin >= -tol:
            self.violations += 1
            if detail is not None and len(self.failures) < 8:
                self.failures.append(dict(detail, margin=margin))

    def add_many(self, margins, tolerance=None):
        tol = self.tolerance if tolerance is None else tolerance
        arr = np.asarray(margins, dtype=float)
        self.margins.extend(arr.tolist())
        bad = ~(arr >= -tol)
        self.violations += int(bad.sum())
        if bad.any() and len(self.failures) < 8:
            # min propagates NaN, so a NaN batch reports a NaN worst margin
            self.failures.append({"worst_batch_margin": float(arr.min())})

    def note(self, text):
        self.notes.append(text)

    def report(self) -> CheckReport:
        if any(math.isnan(m) for m in self.margins):
            worst = math.nan
        else:
            worst = min(self.margins, default=math.inf)
        return CheckReport(self.name, len(self.margins), self.violations, worst,
                           self.tolerance, self.seed, self.notes, self.failures)


def _power_mean(x, y, p):
    """[0.5 (x^p + y^p)]^(1/p) elementwise, factored to avoid overflow."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        rx = np.where(m > 0, x / np.where(m > 0, m, 1.0), 0.0)
        ry = np.where(m > 0, y / np.where(m > 0, m, 1.0), 0.0)
        out = m * (0.5 * (rx**p + ry**p)) ** (1.0 / p)
    return np.where(m > 0, out, 0.0)


# ---------------------------------------------------------------------------
# deterministic smoothness inequality

def check_uniform_smoothness(p_list=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 16.0),
                             dims=((2, 2), (3, 3), (4, 2), (8, 8)),
                             trials=1000, seed=DEFAULT_SEED,
                             tolerance=TOLERANCE,
                             equality_tolerance=EQUALITY_TOLERANCE) -> CheckReport:
    """Two-sided smoothness of the Schatten norm on random matrix pairs.

    For each p, draws `trials` Gaussian pairs spread over the dimension list
    and checks ||A||_p^2 + (p-1)||B||_p^2 against the symmetrized power mean:
    an upper bound for p >= 2, a lower bound for p in [1, 2], equality at
    p = 2. A tenth as many finite-support random pairs exercise the averaged
    (p, q)-moment form at exact expectations when p >= 2.
    """
    col = _Collector("uniform-smoothness", tolerance, seed)
    for pi, p in enumerate(p_list):
        p = float(p)
        if not (math.isfinite(p) and p >= 1.0):
            raise InvalidParameterError("p must be finite and >= 1")
        block = max(1, trials // len(dims))
        for di, (rows, cols) in enumerate(dims):
            count = trials - block * (len(dims) - 1) if di == len(dims) - 1 else block
            if count <= 0:
                continue
            rng = substream(seed, pi, di)
            a = rng.standard_normal((count, rows, cols))
            b = rng.standard_normal((count, rows, cols))
            na = stack_norms(a, p)[1]
            nb = stack_norms(b, p)[1]
            avg2 = _power_mean(stack_norms(a + b, p)[1], stack_norms(a - b, p)[1], p) ** 2
            smooth = na**2 + (p - 1.0) * nb**2
            if p == 2.0:
                denom = np.maximum(np.abs(smooth), 1.0)
                col.add_many(-np.abs(smooth - avg2) / denom, tolerance=equality_tolerance)
            elif p > 2.0:
                denom = np.maximum(np.abs(smooth), 1.0)
                col.add_many((smooth - avg2) / denom)
            else:
                denom = np.maximum(np.abs(avg2), 1.0)
                col.add_many((avg2 - smooth) / denom)
        if p >= 2.0:
            _random_pair_instances(col, p, max(1, trials // 10), substream(seed, pi, len(dims)))
    return col.report()


def _random_pair_instances(col, p, count, rng):
    """Averaged smoothness at exact expectations over small finite supports."""
    for _ in range(count):
        k = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        q = 2.0 if p == 2.0 else float(2.0 + rng.random() * (p - 2.0))
        w = rng.random(k) + 0.1
        w = w / w.sum()
        x = rng.standard_normal((k, rows, cols))
        y = rng.standard_normal((k, rows, cols)) * (0.2 + rng.random())
        nxpy = stack_norms(x + y, p)[1]
        nxmy = stack_norms(x - y, p)[1]
        nx = stack_norms(x, p)[1]
        ny = stack_norms(y, p)[1]
        lhs = (0.5 * (w @ nxpy**q + w @ nxmy**q)) ** (2.0 / q)
        rhs = (w @ nx**q) ** (2.0 / q) + (p - 1.0) * (w @ ny**q) ** (2.0 / q)
        col.add((rhs - lhs) / max(abs(rhs), 1.0), detail={"p": p, "q": q, "form": "averaged"})


def sharpness_probe(p=4.0, eps_values=(1e-2, 1e-3, 1e-4)):
    """High-precision 1x1 probe of the smoothness constant p - 1.

    With a = 1, b = eps, the smoothness slack divided by (p-1) eps^2 tends to
    zero, so no constant below p - 1 can work for all pairs. Computed with
    mpmath because the cancellation swamps double precision.
    """
    from mpmath import mp, mpf

    p = float(p)
    if not (math.isfinite(p) and p > 2.0):
        raise InvalidParameterError("the probe needs a finite p > 2")
    out = []
    with mp.workdps(60):
        mp_p = mpf(p)
        for eps in eps_values:
            e = mpf(repr(float(eps)))
            avg = ((1 + e) ** mp_p + abs(1 - e) ** mp_p) / 2
            lhs = avg ** (2 / mp_p)
            gap = 1 + (mp_p - 1) * e**2 - lhs
            out.append({
                "eps": float(eps),
                "ratio": float(gap / ((mp_p - 1) * e**2)),
                "constant_needed": float((lhs - 1) / e**2),
            })
    return out


# ---------------------------------------------------------------------------
# conditionally centered averages and martingales

def _default_subquadratic_construction(rng):
    """Random finite-support (X, Y): X uniform over states, Y conditionally centered."""
    k = int(rng.integers(1, 4))
    rows = int(rng.integers(1, 5))
    cols = int(rng.integers(1, 5))
    states = []
    for _ in range(k):
        a = rng.standard_normal((rows, cols))
        d = rng.standard_normal((rows, cols)) * (0.2 + rng.random())
        if rng.random() < 0.5:
            atoms = ((d, 0.5), (-d, 0.5))
        else:
            pi = float(0.1 + 0.8 * rng.random())
            atoms = ((2.0 * (1.0 - pi) * d, pi), (-2.0 * pi * d, 1.0 - pi))
        states.append((a, atoms))
    return states


def _validate_states(states):
    for a, atoms in states:
        total = 0.0
        mean = np.zeros_like(np.asarray(a, dtype=float))
        scale = 1.0
        for y, prob in atoms:
            if prob < 0:
                raise InvalidConstructionError("conditional probabilities must be nonnegative")
            total += prob
            mean = mean + prob * np.asarray(y, dtype=float)
            scale = max(scale, float(np.linalg.norm(y)))
        if abs(total - 1.0) > 1e-12:
            raise InvalidConstructionError("conditional probabilities must sum to 1")
        if float(np.linalg.norm(mean)) > 1e-12 * scale:
            raise InvalidConstructionError("conditional mean of the perturbation must vanish")


def check_subquadratic(p, q, construction=None, trials=1000, seed=DEFAULT_SEED,
                       tolerance=TOLERANCE, constant=None, include_weak=True) -> CheckReport:
    """Exact moment inequality for conditionally centered perturbations.

    Verifies (E||X+Y||_p^q)^{2/q} <= (E||X||_p^q)^{2/q} + C (E||Y||_p^q)^{2/q}
    over finite supports, with C = p - 1 unless `constant` overrides it (the
    override is the negative-control path and skips the weak variant). The
    weak variant doubles the constant and must also hold.
    """
    p = float(p)
    q = float(q)
    if not (2.0 <= q <= p):
        raise InvalidParameterError("need 2 <= q <= p")
    build = construction or _default_subquadratic_construction
    name = "subquadratic" if constant is None else f"subquadratic-constant-{constant:g}"
    col = _Collector(name, tolerance, seed)
    c_value = (p - 1.0) if constant is None else float(constant)
    for i in range(trials):
        states = build(substream(seed, i))
        _validate_states(states)
        w = 1.0 / len(states)
        xq = sq = yq = 0.0
        for a, atoms in states:
            xq += w * stack_norms(np.asarray(a, dtype=float)[None], p)[1][0] ** q
            for y, prob in atoms:
                y = np.asarray(y, dtype=float)
                sq += w * prob * stack_norms((a + y)[None], p)[1][0] ** q
                yq += w * prob * stack_norms(y[None], p)[1][0] ** q
        lhs = sq ** (2.0 / q)
        x2 = xq ** (2.0 / q)
        y2 = yq ** (2.0 / q)
        rhs = x2 + c_value * y2
        col.add((rhs - lhs) / max(abs(rhs), 1.0),
                detail={"p": p, "q": q, "constant": c_value, "lhs": lhs, "rhs": rhs})
        if constant is None and include_weak:
            rhs_weak = x2 + 2.0 * (p - 1.0) * y2
            col.add((rhs_weak - lhs) / max(abs(rhs_weak), 1.0),
                    detail={"p": p, "q": q, "constant": 2.0 * (p - 1.0), "form": "weak"})
    return col.report()


def check_martingale_bound(p, q, n=6, dims=(1, 2), trials=100, seed=DEFAULT_SEED,
                           tolerance=TOLERANCE,
                           equality_tolerance=EQUALITY_TOLERANCE) -> CheckReport:
    """Squared-norm control of matrix martingales with zero start.

    Enumerates every path of random history-dependent two-point difference
    sequences and checks (E||X_n||_p^q)^{2/q} <= (p-1) sum_i ⟨i-th difference
    moment⟩^{2/q} exactly. At p = q = 2 the orthogonality of increments makes
    the display an equality, checked two-sided to equality_tolerance.
    """
    p = float(p)
    q = float(q)
    if not (2.0 <= q <= p):
        raise InvalidParameterError("need 2 <= q <= p")
    n = int(n)
    if 2**n > MARTINGALE_PATH_BUDGET:
        raise EnumerationInfeasibleError(
            f"2^{n} paths exceed the {MARTINGALE_PATH_BUDGET} budget",
            required=2**n, budget=MARTINGALE_PATH_BUDGET)
    col = _Collector("martingale-transform", tolerance, seed)
    for i in range(trials):
        rng = substream(seed, i)
        dim = int(dims[i % len(dims)])
        depth = int(rng.integers(1, n + 1))
        base = rng.standard_normal((depth, dim, dim))
        mod = rng.standard_normal((depth, dim, dim))
        biased = bool(rng.random() < 0.5)

        def atoms_at(level, bits):
            lean = (sum(bits) / len(bits)) if bits else 0.0
            d_mat = base[level] + 0.35 * lean * mod[level]
            if biased:
                pi = 0.3 + 0.4 * (bits[-1] if bits else 0)
                return ((2.0 * (1.0 - pi) * d_mat, pi), (-2.0 * pi * d_mat, 1.0 - pi))
            return ((d_mat, 0.5), (-d_mat, 0.5))

        level_q = [0.0] * depth
        leaf_q = 0.0
        stack = [(0, (), 1.0, np.zeros((dim, dim)))]
        while stack:
            level, bits, weight, x = stack.pop()
            if level == depth:
                leaf_q += weight * stack_norms(x[None], p)[1][0] ** q
                continue
            for j, (delta, prob) in enumerate(atoms_at(level, bits)):
                if prob == 0.0:
                    continue
                level_q[level] += weight * prob * stack_norms(delta[None], p)[1][0] ** q
                stack.append((level + 1, bits + (1 - j,), weight * prob, x + delta))
        lhs = leaf_q ** (2.0 / q)
        rhs_sum = sum(lq ** (2.0 / q) for lq in level_q)
        if p == 2.0 and q == 2.0:
            rhs = rhs_sum
            col.add(-abs(rhs - lhs) / max(abs(rhs), 1.0), tolerance=equality_tolerance,
                    detail={"depth": depth, "dim": dim, "form": "orthogonality"})
        else:
            rhs = (p - 1.0) * rhs_sum
            col.add((rhs - lhs) / max(abs(rhs), 1.0),
                    detail={"depth": depth, "dim": dim, "lhs": lhs, "rhs": rhs})
    return col.report()


# ---------------------------------------------------------------------------
# per-factor contraction and the scalar exponential inequality

def check_factor_contraction(p, q, trials=200, seed=DEFAULT_SEED,
                             tolerance=TOLERANCE) -> CheckReport:
    """Per-factor decay: (E||YZ||_p^q)^{1/q} <= ||E Y*Y||^{1/p} (E||Z||_p^q)^{1/q}.

    Y ranges over random finite-support contractions (scaled Gaussians,
    orthogonal matrices, rank-deficient projectors), Z over independent
    finite-support matrices; expectations are exact.
    """
    p = float(p)
    q = float(q)
    if not (2.0 <= q <= p):
        raise InvalidParameterError("need 2 <= q <= p")
    col = _Collector("contraction-factor", tolerance, seed)
    for i in range(trials):
        rng = substream(seed, i)
        d = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        ky = int(rng.integers(1, 4))
        y_atoms = []
        for _ in range(ky):
            style = int(rng.integers(0, 3))
            g = rng.standard_normal((d, d))
            if style == 0:
                y = g * (rng.random() / max(spectral_norm(g), 1e-12))
            elif style == 1:
                qmat, rmat = np.linalg.qr(g)
                y = qmat * np.sign(np.diag(rmat))[None, :]
            else:
                u = rng.standard_normal(d)
                u = u / np.linalg.norm(u)
                y = np.eye(d) - np.outer(u, u)
            if spectral_norm(y) > 1.0 + 1e-12:
                raise InvalidConstructionError("drew a non-contraction")
            y_atoms.append(y)
        wy = rng.random(ky) + 0.1
        wy = wy / wy.sum()
        kz = int(rng.integers(1, 4))
        z_atoms = rng.standard_normal((kz, d, r))
        wz = rng.random(kz) + 0.1
        wz = wz / wz.sum()

        ey2 = sum(w * (y.T @ y) for w, y in zip(wy, y_atoms))
        factor = spectral_norm(ey2) ** (1.0 / p)
        lhs_q = 0.0
        for w, y in zip(wy, y_atoms):
            lhs_q += w * float(wz @ stack_norms(y[None] @ z_atoms, p)[1] ** q)
        lhs = lhs_q ** (1.0 / q)
        rhs = factor * float(wz @ stack_norms(z_atoms, p)[1] ** q) ** (1.0 / q)
        col.add((rhs - lhs) / max(abs(rhs), 1.0),
                detail={"d": d, "r": r, "lhs": lhs, "rhs": rhs})
    return col.report()


def check_number_inequality(trials=100_000, seed=DEFAULT_SEED,
                            length_range=(1, 50), tolerance=1e-12) -> CheckReport:
    """sum_i a_i exp(sum_{k<i} a_k) <= exp(sum_i a_i) - 1 on random sequences.

    Margins are normalized by exp(sum |a_i|), matching an absolute tolerance
    of tolerance * exp(sum |a_i|).
    """
    lo, hi = (int(length_range[0]), int(length_range[1]))
    if lo < 1 or hi < lo:
        raise InvalidParameterError("length_range must satisfy 1 <= lo <= hi")
    rng = substream(seed, 0)
    lengths = rng.integers(lo, hi + 1, size=trials)
    width = int(lengths.max())
    a = rng.uniform(-5.0, 5.0, size=(trials, width))
    mode = rng.integers(0, 3, size=trials)
    a = np.where(mode[:, None] == 1, np.abs(a), a)
    a = np.where(mode[:, None] == 2, -np.abs(a), a)
    a = a * (np.arange(width)[None, :] < lengths[:, None])
    prefix = np.cumsum(a, axis=1) - a
    lhs = (a * np.exp(prefix)).sum(axis=1)
    rhs = np.expm1(a.sum(axis=1))
    denom = np.exp(np.abs(a).sum(axis=1))
    col = _Collector("number-inequality", tolerance, seed)
    col.add_many((rhs - lhs) / denom)
    return col.report()


# ---------------------------------------------------------------------------
# bound-versus-truth comparison

@dataclass
class CompareRow:
    quantity: str
    empirical: float
    empirical_kind: str              # "exact" or "estimate"
    bound: float
    bound_kind: str
    limit: Optional[float] = None    # UCL (means) or LCL (tails) when estimated
    threshold: Optional[float] = None
    ratio: Optional[float] = None
    conditions_met: bool = True
    skipped: bool = False
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "quantity": self.quantity,
            "empirical_kind": self.empirical_kind,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "conditions_met": self.conditions_met,
            "skipped": self.skipped,
        }
        if not math.isnan(self.empirical):
            out["empirical"] = self.empirical
        if self.limit is not None:
            out["limit"] = self.limit
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.ratio is not None:
            out["ratio"] = self.ratio
        if self.note:
            out["note"] = self.note
        return out


def _stats_for_spec(spec: ProductSpec) -> ProductStats:
    if spec.mode == "adapted":
        return ProductStats.from_factors(
            [spec.adapted_hook.factor_stats()] * spec.n, spec.d, spec.z0)
    return ProductStats.from_ensembles(spec.factors, spec.z0)


def projected_product_stats(spec: ProductSpec, rank=None):
    """Stats whose sigmas are rank-projected deviations (for narrow starts).

    Returns (stats, quality): quality is "analytic" only when every factor's
    projected deviation has a closed form; otherwise a sampled lower estimate
    entered the sigmas and the resulting bounds are not certified upper bounds.
    """
    rank = spec.r if rank is None else int(rank)
    factors = []
    quality = "analytic"
    for e in spec.factors:
        value, kind = projected_deviation_stat(e, rank)
        if kind != "analytic":
            quality = kind
        factors.append(replace(e.stats, sigma=value / e.stats.mean_norm))
    stats = ProductStats.from_factors(factors, spec.d, spec.z0, projected_rank=rank)
    return stats, quality


def _default_bound_set(spec: ProductSpec, stats: ProductStats):
    if spec.mode == "inverse":
        return ["inverse-expectation-growth", "inverse-expectation-concentration"]
    if spec.mode == "adapted":
        return ["adapted-growth-moment", "adapted-concentration-moment"]
    out = ["growth-moment", "concentration-moment",
           "expectation-growth", "expectation-concentration"]
    if stats.contraction_M is not None and stats.contraction_v is not None:
        out += ["contraction-expectation-growth", "contraction-expectation-concentration"]
    if spec.d == spec.r:
        out.append("spectral-radius-expectation")
    return out


def _inverse_bound(query):
    def bound(stats, p, q):
        xis = [f.mean_perturbation for f in stats.factors]
        if any(x is None for x in xis):
            return None
        xi_bar, v_bar = inverse_perturbation_stats(xis, [f.sigma for f in stats.factors])
        return perturbation_bounds(xi_bar, v_bar, stats.d, query)
    return bound


# bound name -> (bound of (stats, p, q), Monte Carlo estimate key); the exact
# value is the EnumerationReport field that ESTIMATE_FIELDS names for the key.
# E||Z|| never exceeds the (p, q) moment, so the moment bounds also bound means.
# The low-rank bounds are given the rank-projected stats.
BOUND_TABLE = {
    "growth-moment": (growth_moment_bound, "schatten-moment"),
    "concentration-moment": (concentration_moment_bound, "deviation-schatten-moment"),
    "growth-mean": (growth_moment_bound, "spectral-norm-mean"),
    "concentration-mean": (concentration_moment_bound, "deviation-norm-mean"),
    "expectation-growth": (lambda s, *_: expectation_growth_bound(s), "spectral-norm-mean"),
    "expectation-concentration": (lambda s, *_: expectation_concentration_bound(s),
                                  "deviation-norm-mean"),
    "contraction-expectation-growth": (lambda s, *_: contraction_bounds(s)[0],
                                       "spectral-norm-mean"),
    "contraction-expectation-concentration": (lambda s, *_: contraction_bounds(s)[1],
                                              "deviation-norm-mean"),
    "lowrank-growth": (lambda s, p, q: lowrank_moment_bounds(s, p)[0], "schatten-moment"),
    "lowrank-concentration": (lambda s, p, q: lowrank_moment_bounds(s, p)[1],
                              "deviation-schatten-moment"),
    "adapted-growth-moment": (growth_moment_bound, "schatten-moment"),
    "adapted-concentration-moment": (concentration_moment_bound, "deviation-schatten-moment"),
    "spectral-radius-expectation": (lambda s, *_: spectral_radius_expectation_bound(s),
                                    "spectral-radius-mean"),
    "inverse-expectation-growth": (_inverse_bound("expectation-growth"), "spectral-norm-mean"),
    "inverse-expectation-concentration": (_inverse_bound("expectation-concentration"),
                                          "deviation-norm-mean"),
}


def comparison_rows(spec: ProductSpec, p=2.0, q=2.0, trials=0, seed=DEFAULT_SEED,
                    stats=None, bounds=None, thresholds_growth=(),
                    thresholds_deviation=(), level=0.99,
                    mc_fallback_trials=None):
    """Empirical (exact or Monte Carlo) values joined to their bounds.

    trials = 0 asks for exact enumeration; EnumerationInfeasibleError is
    re-raised unless mc_fallback_trials says to downgrade to Monte Carlo.
    Returns (rows, meta).
    """
    stats = stats or _stats_for_spec(spec)
    names = list(bounds) if bounds is not None else _default_bound_set(spec, stats)
    for name in names:
        if name not in BOUND_TABLE:
            raise InvalidParameterError(f"unknown bound name {name!r}")
    meta = {"p": float(p), "q": float(q), "seed": seed, "mode": spec.mode}

    # bound rows are computed first so tail thresholds are known up front
    tail_rows = []
    for t in thresholds_growth:
        tail_rows.append(("tail-growth", float(t), tail_growth_bound(stats, t)))
    for t in thresholds_deviation:
        if spec.mode == "independent" and stats.contraction_M is not None:
            tail_rows.append(("contraction-tail", float(t), contraction_bounds(stats, t)[2]))
        else:
            tail_rows.append(("tail-concentration", float(t), tail_concentration_bound(stats, t)))
    growth_thresholds = [b.threshold for kind, _, b in tail_rows if kind == "tail-growth"]
    dev_thresholds = [b.threshold for kind, _, b in tail_rows if kind != "tail-growth"]

    exact = None
    if trials == 0:
        try:
            exact = enumerate_product(spec, p, q, growth_thresholds, dev_thresholds)
        except EnumerationInfeasibleError:
            if not mc_fallback_trials:
                raise
            trials = int(mc_fallback_trials)
            meta["notice"] = "enumeration infeasible; downgraded to Monte Carlo"
    # estimate key or (tail quantity, threshold) -> (empirical, kind, limit)
    if exact is not None:
        meta["source"] = "enumeration"
        meta["outcomes"] = exact.outcomes
        empirical = {key: (getattr(exact, f), "exact", None) for key, f in ESTIMATE_FIELDS.items()
                     if getattr(exact, f) is not None}
        for quantity, table in (("growth-tail", exact.tail_growth),
                                ("deviation-tail", exact.tail_deviation)):
            empirical.update({(quantity, x): (v, "exact", None) for x, v in table.items()})
    else:
        meta["source"] = "monte-carlo"
        meta["trials"] = trials
        sim = simulate_product(spec, trials, seed)
        if spec.mode == "inverse":
            meta["excluded"] = sim.excluded
        estimates, tails, _ = summarize_simulation(
            spec, sim, p, q, growth_thresholds, dev_thresholds, level)
        empirical = {key: (e.mean, "estimate", e.ci_high) for key, e in estimates.items()}
        empirical.update({(t.quantity, t.threshold): (t.frequency, "estimate", t.lcl)
                          for t in tails})

    rows = []
    lr_stats, lr_quality = stats, "analytic"
    if stats.projected_rank is None and any(n.startswith("lowrank-") for n in names):
        lr_stats, lr_quality = projected_product_stats(spec)

    for name in names:
        bound, estimate_key = BOUND_TABLE[name]
        lowrank = name.startswith("lowrank-")
        result = bound(lr_stats if lowrank else stats, p, q)
        if result is None:
            rows.append(CompareRow(name, math.nan, "none", math.nan, name, skipped=True,
                                   note="factors carry no perturbation statistics"))
            continue
        if lowrank and lr_quality != "analytic":
            result.extras = dict(result.extras or {}, projected_quality=lr_quality)
        if not result.conditions_met and (result.value is None
                                          or not math.isfinite(result.value)):
            rows.append(CompareRow(name, math.nan, "none", result.value, result.kind,
                                   conditions_met=False, skipped=True, note="condition violated"))
            continue
        if estimate_key not in empirical:
            rows.append(CompareRow(name, math.nan, "none", result.value,
                                   result.kind, conditions_met=result.conditions_met,
                                   skipped=True, note="no empirical value available"))
            continue
        emp, kind, limit = empirical[estimate_key]
        ratio = result.value / emp if emp > 0 else None
        rows.append(CompareRow(name, emp, kind, result.value, result.kind,
                               limit=limit, ratio=ratio,
                               conditions_met=result.conditions_met))

    for kind, t, result in tail_rows:
        quantity = f"{kind}@{t:g}"
        key = ("growth-tail" if kind == "tail-growth" else "deviation-tail", result.threshold)
        if key not in empirical:
            rows.append(CompareRow(quantity, math.nan, "none", result.value,
                                   result.kind, threshold=result.threshold,
                                   skipped=True, note="no tail reference available"))
            continue
        emp, emp_kind, limit = empirical[key]
        rows.append(CompareRow(quantity, emp, emp_kind, result.value, result.kind,
                               limit=limit, threshold=result.threshold,
                               ratio=result.value / emp if emp > 0 else None,
                               conditions_met=result.conditions_met,
                               skipped=not result.conditions_met,
                               note="" if result.conditions_met else "condition violated"))
    return rows, meta


def check_bound_dominance(spec: ProductSpec, p=2.0, q=2.0, trials=0,
                          seed=DEFAULT_SEED, stats=None, bounds=None,
                          thresholds_growth=(), thresholds_deviation=(),
                          tolerance=TOLERANCE, level=0.99) -> CheckReport:
    """Certifies that each requested bound dominates its empirical target.

    Exact rows must dominate to the normalized tolerance. Monte Carlo mean
    rows compare the bound to the 99% upper confidence limit; tail rows flag a
    violation only when the lower confidence limit exceeds the bound.
    Condition-violated rows are skipped and noted, never counted.
    """
    try:
        rows, meta = comparison_rows(
            spec, p, q, trials, seed, stats, bounds,
            thresholds_growth, thresholds_deviation, level)
    except EnumerationInfeasibleError as exc:
        raise NothingToCheckError(
            f"enumeration infeasible and no trials requested: {exc}") from exc
    if not rows:
        raise NothingToCheckError("no bounds requested")
    col = _Collector("bound-dominance", tolerance, seed)
    col.note(f"source={meta['source']}")
    for row in rows:
        if row.skipped:
            col.note(f"skipped {row.quantity}: {row.note}")
            continue
        if math.isinf(row.bound):
            col.add(math.inf, detail={"quantity": row.quantity})
            continue
        denom = abs(row.bound) if row.bound != 0 else 1.0
        if row.empirical_kind == "exact":
            col.add((row.bound - row.empirical) / denom,
                    detail={"quantity": row.quantity, "empirical": row.empirical,
                            "bound": row.bound})
        else:
            limit = "lcl" if row.quantity.startswith(("tail-", "contraction-tail")) else "ucl"
            col.add((row.bound - row.limit) / denom, tolerance=0.0,
                    detail={"quantity": row.quantity, limit: row.limit, "bound": row.bound})
    return col.report()


# ---------------------------------------------------------------------------
# default suite

def default_suite(seed=DEFAULT_SEED, deep=False):
    """The standing verification battery.

    Returns (reports, ok): `reports` pairs each CheckReport with whether it is
    a negative control (expected to fail); `ok` is True when every ordinary
    check is clean and every negative control fired.
    """
    scale = 1 if not deep else 10
    reports = []

    reports.append((check_uniform_smoothness(trials=400 * scale, seed=seed), False))
    for pq_i, (p, q) in enumerate([(2, 2), (4, 2), (4, 4), (8, 2), (8, 8)]):
        reports.append((check_subquadratic(p, q, trials=100 * scale, seed=seed + pq_i), False))
    reports.append((check_subquadratic(2, 2, trials=50, seed=seed, constant=0.5), True))
    for pq_i, (p, q) in enumerate([(2, 2), (4, 2), (4, 4)]):
        reports.append((check_martingale_bound(p, q, n=6, trials=40 * scale,
                                               seed=seed + pq_i), False))
    for pq_i, (p, q) in enumerate([(4, 2), (8, 4)]):
        reports.append((check_factor_contraction(p, q, trials=80 * scale,
                                                 seed=seed + pq_i), False))
    reports.append((check_number_inequality(trials=20_000 * scale, seed=seed), False))

    scalar = make_bounded_perturbation(1, np.zeros((1, 1)), 0.1, 1.0)
    spec = ProductSpec(factors=(scalar, scalar), z0=np.eye(1))
    reports.append((check_bound_dominance(spec, p=2, q=2, seed=seed), False))
    pert = make_bounded_perturbation(3, 0.2 * np.eye(3), 0.5, 8)
    spec8 = ProductSpec(factors=(pert,) * 8, z0=np.eye(3))
    reports.append((check_bound_dominance(
        spec8, p=2, q=2, seed=seed, thresholds_growth=(2.0,),
        thresholds_deviation=(1.5,)), False))

    ok = all((r.violations > 0) == expect for r, expect in reports)
    return reports, ok
