"""Certification harness for the product inequalities.

Every check reports normalized margins: the inequality's slack divided by the
magnitude of its right-hand side (or by 1 when the right side vanishes), so a
single tolerance applies across scales. A violation is a margin below minus
the tolerance. Negative controls deliberately weaken a constant and must
produce violations; a harness that cannot fail certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .bounds import DISPLAYS, PerturbationStats, ProductStats, inverse_perturbation_stats
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
    summarize_simulation,
)
from .streams import DEFAULT_SEED, substream, substreams

TOLERANCE = 1e-9
EQUALITY_TOLERANCE = 1e-10
# the scalar exponential inequality's margins carry a factor exp(sum |a_i|)
NUMBER_TOLERANCE = 1e-12
MARTINGALE_PATH_BUDGET = 2**16
SMOOTHNESS_SHAPES = ((2, 2), (3, 3), (4, 2), (8, 8))
MARTINGALE_DIMS = (1, 2)


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
        return dict(asdict(self), passed=self.passed)


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
                             trials=1000, seed=DEFAULT_SEED) -> CheckReport:
    """Two-sided smoothness of the Schatten norm on random matrix pairs.

    For each p, draws `trials` Gaussian pairs spread over SMOOTHNESS_SHAPES
    and checks ||A||_p^2 + (p-1)||B||_p^2 against the symmetrized power mean:
    an upper bound for p >= 2, a lower bound for p in [1, 2], equality at
    p = 2. A tenth as many finite-support random pairs exercise the averaged
    (p, q)-moment form at exact expectations when p >= 2.
    """
    col = _Collector("uniform-smoothness", TOLERANCE, seed)
    shapes = SMOOTHNESS_SHAPES
    for pi, p in enumerate(p_list):
        p = float(p)
        if not (math.isfinite(p) and p >= 1.0):
            raise InvalidParameterError("p must be finite and >= 1")
        block = max(1, trials // len(shapes))
        for di, (rows, cols) in enumerate(shapes):
            count = trials - block * (len(shapes) - 1) if di == len(shapes) - 1 else block
            if count <= 0:
                continue
            rng = substream(seed, pi, di)
            a = rng.standard_normal((count, rows, cols))
            b = rng.standard_normal((count, rows, cols))
            na, nb, plus, minus = stack_norms(np.concatenate([a, b, a + b, a - b]),
                                              p)[1].reshape(4, -1)
            avg2 = _power_mean(plus, minus, p) ** 2
            smooth = na**2 + (p - 1.0) * nb**2
            if p == 2.0:
                denom = np.maximum(np.abs(smooth), 1.0)
                col.add_many(-np.abs(smooth - avg2) / denom, tolerance=EQUALITY_TOLERANCE)
            elif p > 2.0:
                denom = np.maximum(np.abs(smooth), 1.0)
                col.add_many((smooth - avg2) / denom)
            else:
                denom = np.maximum(np.abs(avg2), 1.0)
                col.add_many((avg2 - smooth) / denom)
        if p >= 2.0:
            _random_pair_instances(col, p, max(1, trials // 10), substream(seed, pi, len(shapes)))
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
        nxpy, nxmy, nx, ny = stack_norms(np.concatenate([x + y, x - y, x, y]), p)[1].reshape(4, -1)
        lhs = (0.5 * (w @ nxpy**q + w @ nxmy**q)) ** (2.0 / q)
        rhs = (w @ nx**q) ** (2.0 / q) + (p - 1.0) * (w @ ny**q) ** (2.0 / q)
        col.add((rhs - lhs) / max(abs(rhs), 1.0), detail={"p": p, "q": q, "form": "averaged"})


# ---------------------------------------------------------------------------
# conditionally centered averages and martingales

def _subquadratic_states(rng):
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


def check_subquadratic(p, q, trials=1000, seed=DEFAULT_SEED, constant=None) -> CheckReport:
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
    name = "subquadratic" if constant is None else f"subquadratic-constant-{constant:g}"
    col = _Collector(name, TOLERANCE, seed)
    c_value = (p - 1.0) if constant is None else float(constant)
    for rng in substreams(seed, (), range(trials)):
        states = _subquadratic_states(rng)
        _validate_states(states)
        w = 1.0 / len(states)
        # one norm stack per trial; terms[k] = (sum it enters: X, X + Y or Y, weight)
        mats, terms = [], []
        for a, atoms in states:
            mats.append(np.asarray(a, dtype=float))
            terms.append((0, w))
            for y, prob in atoms:
                y = np.asarray(y, dtype=float)
                mats += [a + y, y]
                terms += [(1, w * prob), (2, w * prob)]
        sums = [0.0, 0.0, 0.0]
        for (j, c), v in zip(terms, stack_norms(np.stack(mats), p)[1]):
            sums[j] += c * v ** q
        xq, sq, yq = sums
        lhs = sq ** (2.0 / q)
        x2 = xq ** (2.0 / q)
        y2 = yq ** (2.0 / q)
        rhs = x2 + c_value * y2
        col.add((rhs - lhs) / max(abs(rhs), 1.0),
                detail={"p": p, "q": q, "constant": c_value, "lhs": lhs, "rhs": rhs})
        if constant is None:
            rhs_weak = x2 + 2.0 * (p - 1.0) * y2
            col.add((rhs_weak - lhs) / max(abs(rhs_weak), 1.0),
                    detail={"p": p, "q": q, "constant": 2.0 * (p - 1.0), "form": "weak"})
    return col.report()


def check_martingale_bound(p, q, n=6, trials=100, seed=DEFAULT_SEED) -> CheckReport:
    """Squared-norm control of matrix martingales with zero start.

    Enumerates every path of random history-dependent two-point difference
    sequences and checks (E||X_n||_p^q)^{2/q} <= (p-1) sum_i ⟨i-th difference
    moment⟩^{2/q} exactly. At p = q = 2 the orthogonality of increments makes
    the display an equality, checked two-sided to EQUALITY_TOLERANCE. Trials
    alternate over MARTINGALE_DIMS.
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
    col = _Collector("martingale-transform", TOLERANCE, seed)
    for i, rng in enumerate(substreams(seed, (), range(trials))):
        dim = MARTINGALE_DIMS[i % len(MARTINGALE_DIMS)]
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

        # the walk records (level, weight, matrix) terms in visiting order, a
        # leaf's at level depth; one norm stack serves them all, in that order
        terms = []
        stack = [(0, (), 1.0, np.zeros((dim, dim)))]
        while stack:
            level, bits, weight, x = stack.pop()
            if level == depth:
                terms.append((depth, weight, x))
                continue
            for j, (delta, prob) in enumerate(atoms_at(level, bits)):
                if prob == 0.0:
                    continue
                terms.append((level, weight * prob, delta))
                stack.append((level + 1, bits + (1 - j,), weight * prob, x + delta))
        sums = [0.0] * (depth + 1)
        norms = stack_norms(np.stack([m for _, _, m in terms]), p)[1]
        for (level, weight, _), norm in zip(terms, norms):
            sums[level] += weight * norm ** q
        *level_q, leaf_q = sums
        lhs = leaf_q ** (2.0 / q)
        rhs_sum = sum(lq ** (2.0 / q) for lq in level_q)
        if p == 2.0 and q == 2.0:
            rhs = rhs_sum
            col.add(-abs(rhs - lhs) / max(abs(rhs), 1.0), tolerance=EQUALITY_TOLERANCE,
                    detail={"depth": depth, "dim": dim, "form": "orthogonality"})
        else:
            rhs = (p - 1.0) * rhs_sum
            col.add((rhs - lhs) / max(abs(rhs), 1.0),
                    detail={"depth": depth, "dim": dim, "lhs": lhs, "rhs": rhs})
    return col.report()


# ---------------------------------------------------------------------------
# per-factor contraction and the scalar exponential inequality

def check_factor_contraction(p, q, trials=200, seed=DEFAULT_SEED) -> CheckReport:
    """Per-factor decay: (E||YZ||_p^q)^{1/q} <= ||E Y*Y||^{1/p} (E||Z||_p^q)^{1/q}.

    Y ranges over random finite-support contractions (scaled Gaussians,
    orthogonal matrices, rank-deficient projectors), Z over independent
    finite-support matrices; expectations are exact.
    """
    p = float(p)
    q = float(q)
    if not (2.0 <= q <= p):
        raise InvalidParameterError("need 2 <= q <= p")
    col = _Collector("contraction-factor", TOLERANCE, seed)
    for rng in substreams(seed, (), range(trials)):
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
            y_atoms.append(y)
        wy = rng.random(ky) + 0.1
        wy = wy / wy.sum()
        kz = int(rng.integers(1, 4))
        z_atoms = rng.standard_normal((kz, d, r))
        wz = rng.random(kz) + 0.1
        wz = wz / wz.sum()

        ey2 = sum(w * (y.T @ y) for w, y in zip(wy, y_atoms))
        *y_norms, ey2_norm = stack_norms(np.stack([*y_atoms, ey2]))[0].tolist()
        if max(y_norms) > 1.0 + 1e-12:
            raise InvalidConstructionError("drew a non-contraction")
        factor = ey2_norm ** (1.0 / p)
        # one norm stack per trial: Y Z for each Y atom, then Z
        norms = stack_norms(np.concatenate([y[None] @ z_atoms for y in y_atoms] + [z_atoms]),
                            p)[1].reshape(ky + 1, kz)
        lhs_q = 0.0
        for w, row in zip(wy, norms):
            lhs_q += w * float(wz @ row ** q)
        lhs = lhs_q ** (1.0 / q)
        rhs = factor * float(wz @ norms[-1] ** q) ** (1.0 / q)
        col.add((rhs - lhs) / max(abs(rhs), 1.0),
                detail={"d": d, "r": r, "lhs": lhs, "rhs": rhs})
    return col.report()


def check_number_inequality(trials=100_000, seed=DEFAULT_SEED) -> CheckReport:
    """sum_i a_i exp(sum_{k<i} a_k) <= exp(sum_i a_i) - 1 on random sequences
    of 1 to 50 terms.

    Margins are normalized by exp(sum |a_i|), matching an absolute tolerance
    of NUMBER_TOLERANCE * exp(sum |a_i|).
    """
    rng = substream(seed, 0)
    lengths = rng.integers(1, 51, size=trials)
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
    col = _Collector("number-inequality", NUMBER_TOLERANCE, seed)
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
    # "lower-estimate" on a compared low-rank row whose projected sigmas were
    # sampled: its bound is not a certified upper bound
    quality: Optional[str] = None

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
        if self.quality is not None:
            out["quality"] = self.quality
        return out


def _stats_for_spec(spec: ProductSpec) -> ProductStats:
    if spec.mode == "adapted":
        return ProductStats.from_factors(
            [spec.adapted_hook.factor_stats()] * spec.n, spec.d, spec.z0)
    return ProductStats.from_ensembles(spec.factors, spec.z0)


def projected_product_stats(spec: ProductSpec):
    """Stats whose sigmas are rank-projected deviations (for narrow starts).

    Returns (stats, quality): quality is "analytic" only when every factor's
    projected deviation has a closed form; otherwise a sampled lower estimate
    entered the sigmas and the resulting bounds are not certified upper bounds.
    """
    projected = {}  # one stat per distinct ensemble; a product often repeats one
    quality = "analytic"
    for e in spec.factors:
        if e not in projected:
            value, kind = projected_deviation_stat(e, spec.r)
            if kind != "analytic":
                quality = kind
            projected[e] = replace(e.stats, sigma=value / e.stats.mean_norm)
    stats = ProductStats.from_factors([projected[e] for e in spec.factors], spec.d,
                                      spec.z0, projected_rank=spec.r)
    return stats, quality


def _inverse_stats(stats: ProductStats) -> Optional[PerturbationStats]:
    """The perturbation stats of the inverse factors, if the factors carry any."""
    xis = [f.mean_perturbation for f in stats.factors]
    if any(x is None for x in xis):
        return None
    xi_bar, v_bar = inverse_perturbation_stats(xis, [f.sigma for f in stats.factors])
    return PerturbationStats(xi_bar, v_bar, stats.d)


# the note of a named display's skipped row, by the need it cannot be
# evaluated without (on a rectangular start it can, but has no truth to join)
_UNMET_NEEDS = {
    "contraction": "factors carry no contraction statistics",
    "perturbation": "factors carry no perturbation statistics",
}


def comparison_rows(spec: ProductSpec, p=2.0, q=2.0, trials=0, seed=DEFAULT_SEED,
                    bounds=None, thresholds_growth=(), thresholds_deviation=(),
                    mc_fallback_trials=None):
    """Empirical (exact or Monte Carlo) values joined to their bounds.

    ``bounds`` names displays of ``DISPLAYS`` with a mean estimate; by
    default, every one for the product's mode whose need the stats meet. A
    named display whose contraction or perturbation need they do not meet
    gets a skipped row with a note.
    Each threshold list adds one tail row per threshold, from the last tail
    display for its quantity that the mode takes and the stats meet.
    trials = 0 asks for exact enumeration; EnumerationInfeasibleError is
    re-raised unless mc_fallback_trials says to downgrade to Monte Carlo.
    Returns (rows, meta).
    """
    stats = _stats_for_spec(spec)
    if bounds is None:
        # perturbation stats select nothing: an inverse product whose factors
        # carry none still gets its rows, which say so
        names = [name for name, d in DISPLAYS.items() if spec.mode in d.modes
                 and "t" not in d.args and (d.need == "perturbation" or stats.meets(d.need))]
    else:
        names = list(bounds)
    for name in names:
        if name not in DISPLAYS or DISPLAYS[name].estimate is None or "t" in DISPLAYS[name].args:
            raise InvalidParameterError(f"unknown bound name {name!r}")
    meta = {"p": float(p), "q": float(q), "seed": seed, "mode": spec.mode}
    given = {"p": p, "q": q, "refine": False}

    # bound rows are computed first so tail thresholds are known up front
    tail_rows = []
    for key, thresholds in (("growth-tail", thresholds_growth),
                            ("deviation-tail", thresholds_deviation)):
        if thresholds:  # the contraction tail, where it applies, comes last
            display = [d for d in DISPLAYS.values() if d.estimate == key
                       and spec.mode in d.modes and stats.meets(d.need)][-1]
            tail_rows += [(display, float(t), display(stats, t=t, **given)) for t in thresholds]
    growth_thresholds = [b.threshold for d, _, b in tail_rows if d.estimate == "growth-tail"]
    dev_thresholds = [b.threshold for d, _, b in tail_rows if d.estimate == "deviation-tail"]

    radius = any(DISPLAYS[n].estimate == "spectral-radius-mean" for n in names)
    exact = None
    if trials == 0:
        try:
            exact = enumerate_product(spec, p, q, growth_thresholds, dev_thresholds,
                                      spectral_radius=radius)
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
        for key, table in (("growth-tail", exact.tail_growth),
                           ("deviation-tail", exact.tail_deviation)):
            empirical.update({(key, x): (v, "exact", None) for x, v in table.items()})
    else:
        meta["source"] = "monte-carlo"
        meta["trials"] = trials
        estimates, tails, _, excluded = summarize_simulation(
            spec, trials, seed, p, q, growth_thresholds, dev_thresholds,
            spectral_radius=radius)
        if spec.mode == "inverse":
            meta["excluded"] = len(excluded)
        empirical = {key: (e.mean, "estimate", e.ci_high) for key, e in estimates.items()}
        empirical.update({(t.quantity, t.threshold): (t.frequency, "estimate", t.lcl)
                          for t in tails})

    rows = []
    lr_stats, lr_quality = stats, None
    if stats.projected_rank is None and any(DISPLAYS[n].need == "projected" for n in names):
        lr_stats, quality = projected_product_stats(spec)
        lr_quality = None if quality == "analytic" else quality

    for name in names:
        display = DISPLAYS[name]
        lowrank = display.need == "projected"
        row_stats = lr_stats if lowrank else stats
        if display.need == "perturbation":
            row_stats = _inverse_stats(stats)
        if row_stats is None or (display.need in _UNMET_NEEDS
                                 and not row_stats.meets(display.need)):
            rows.append(CompareRow(name, math.nan, "none", math.nan, name, skipped=True,
                                   note=_UNMET_NEEDS[display.need]))
            continue
        result = display(row_stats, **given)
        if not result.conditions_met:  # its value is inf
            rows.append(CompareRow(name, math.nan, "none", result.value, result.kind,
                                   conditions_met=False, skipped=True, note="condition violated"))
            continue
        if display.estimate not in empirical:
            rows.append(CompareRow(name, math.nan, "none", result.value, result.kind,
                                   skipped=True, note="no empirical value available"))
            continue
        emp, kind, limit = empirical[display.estimate]
        ratio = result.value / emp if emp > 0 else None
        rows.append(CompareRow(name, emp, kind, result.value, result.kind, limit=limit,
                               ratio=ratio, quality=lr_quality if lowrank else None))

    for display, t, result in tail_rows:
        quantity = f"{display.name}@{t:g}"
        key = (display.estimate, result.threshold)
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
                          seed=DEFAULT_SEED, bounds=None,
                          thresholds_growth=(), thresholds_deviation=()) -> CheckReport:
    """Certifies that each requested bound dominates its empirical target.

    Exact rows must dominate to the normalized TOLERANCE. Monte Carlo mean
    rows compare the bound to the 99% upper confidence limit; tail rows flag a
    violation only when the lower confidence limit exceeds the bound.
    Condition-violated rows, and rows whose bound rests on a lower estimate
    (``quality``), are skipped and noted, never counted.
    """
    try:
        rows, meta = comparison_rows(
            spec, p, q, trials, seed, bounds, thresholds_growth, thresholds_deviation)
    except EnumerationInfeasibleError as exc:
        raise NothingToCheckError(
            f"enumeration infeasible and no trials requested: {exc}") from exc
    if not rows:
        raise NothingToCheckError("no bounds requested")
    col = _Collector("bound-dominance", TOLERANCE, seed)
    col.note(f"source={meta['source']}")
    for row in rows:
        if row.skipped:
            col.note(f"skipped {row.quantity}: {row.note}")
            continue
        if row.quality is not None:
            col.note(f"skipped {row.quantity}: {row.quality} bound, not certified")
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
            limit = "lcl" if row.threshold is not None else "ucl"  # tails take the LCL
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
