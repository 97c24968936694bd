"""Certification suite: every advertised guarantee exercised end to end.

Thirteen checks, one test each, printed as a PASS line with the measured
margins. The heavy simulation checks are pure functions of the seed that
return JSON-compatible report dicts; a module fixture computes each once, the
final check recomputes all of them and demands byte-identical serializations.
"""

import json
import math
import time

import numpy as np
import pytest

from matprod.bounds import (
    FactorStats,
    ProductStats,
    concentration_moment_bound,
    contraction_bounds,
    inverse_perturbation_stats,
    lowrank_moment_bounds,
    perturbation_bounds,
    spectral_radius_expectation_bound,
)
from matprod.ensembles import (
    make_bounded_perturbation,
    make_rademacher_rank_one,
    make_random_projector_contraction,
)
from matprod.simulate import (
    NormBiasedTwoPointHook,
    ProductSpec,
    conjugated_spec,
    enumerate_product,
    simulate_product,
    summarize_simulation,
    triangular_array_run,
)
from matprod.streams import DEFAULT_SEED, substream
from matprod.verify import (
    check_bound_dominance,
    check_martingale_bound,
    check_number_inequality,
    check_subquadratic,
    check_uniform_smoothness,
    comparison_rows,
    projected_product_stats,
)

ACCEPT_SEED = DEFAULT_SEED


def _announce(label, detail):
    print(f"PASS {label}: {detail}")


# ---------------------------------------------------------------------------
# report builders for the randomized checks (pure functions of the seed)

def report_dominance_sweep(seed):
    """100 random finite-support products, exact moments vs their bounds."""
    instances = violations = 0
    worst = math.inf
    max_outcomes = 0
    for i in range(100):
        rng = substream(seed, 400, i)
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 13))
        factors = []
        for _ in range(n):
            a = 0.3 * rng.standard_normal((d, d)) / math.sqrt(d)
            radius = float(rng.uniform(0.0, 0.5))
            n_scale = float(rng.uniform(1.0, n + 1.0))
            factors.append(make_bounded_perturbation(d, a, radius, n_scale))
        if rng.random() < 0.3:
            z0 = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        else:
            z0 = np.eye(d)
        p = float(rng.uniform(2.0, 8.0))
        q = float(rng.uniform(2.0, p))
        spec = ProductSpec(factors=factors, z0=z0)
        rep = check_bound_dominance(
            spec, p, q, trials=0,
            bounds=["growth-moment", "concentration-moment"])
        instances += rep.instances
        violations += rep.violations
        worst = min(worst, rep.worst_margin)
        max_outcomes = max(max_outcomes, 2 ** n)
    hand = ProductSpec(
        factors=(make_bounded_perturbation(1, np.zeros((1, 1)), 0.1, 1.0),) * 2,
        z0=np.eye(1))
    row = comparison_rows(hand, 2.0, 2.0, trials=0, bounds=["concentration-mean"])[0][0]
    return {
        "specs": 100,
        "instances": int(instances),
        "violations": int(violations),
        "worst_margin": float(worst),
        "max_outcomes": int(max_outcomes),
        "hand_empirical": float(row.empirical),
        "hand_bound": float(row.bound),
        "hand_ratio": float(row.ratio),
    }


def report_perturbation_product(seed):
    """d=10, n=200 centered bounded perturbations: mean deviation and tails."""
    e = make_bounded_perturbation(10, np.zeros((10, 10)), 1.0, 200.0)
    spec = ProductSpec(factors=(e,) * 200, z0=np.eye(10))
    summary, dev_tails, _, _ = summarize_simulation(
        spec, 10_000, seed, thresholds_deviation=(0.5, 1.0, 2.0), key=(5,))
    dev = summary["deviation-norm-mean"]
    expectation = perturbation_bounds(0.0, 0.005, 10, "expectation-concentration")
    tails = []
    for est in dev_tails:
        tb = perturbation_bounds(0.0, 0.005, 10, "tail-concentration", t=est.threshold)
        tails.append({
            "t": float(est.threshold),
            "frequency": float(est.frequency),
            "lcl": float(est.lcl),
            "bound": float(tb.extras["loose_prefactor_value"]),
            "in_force": bool(tb.conditions_met),
        })
    return {
        "deviation_mean": float(dev.mean),
        "deviation_ucl": float(dev.ci_high),
        "expectation_bound": float(expectation.value),
        "tails": tails,
    }


def report_triangular_array(seed):
    """Rows of n factors I + X/n: sqrt(n)-scaled deviations vs the flat bound."""
    rows = triangular_array_run(np.zeros((5, 5)), 1.0, 5, (25, 100, 400), 2000, seed)
    return {
        "ns": [int(r.n) for r in rows],
        "scaled_means": [float(r.scaled_mean) for r in rows],
        "raw_means": [float(r.deviation_from_mean.mean) for r in rows],
        "scaled_bound": float(rows[0].scaled_bound),
    }


def report_contractive_product(seed):
    """Random coordinate projectors: never expanding, concentration and tail."""
    e = make_random_projector_contraction(8)
    spec = ProductSpec(factors=(e,) * 50, z0=np.eye(8))
    summary, (est,), norms, _ = summarize_simulation(spec, 10_000, seed,
                                                     thresholds_deviation=(16.0,), key=(7,))
    stats = ProductStats.from_ensembles(spec.factors, z0=spec.z0)
    _, conc, tail = contraction_bounds(stats, t=16.0)
    dev = summary["deviation-norm-mean"]
    return {
        "max_norm": float(norms.max()),
        "deviation_mean": float(dev.mean),
        "deviation_ucl": float(dev.ci_high),
        "concentration_bound": float(conc.value),
        "tail": {
            "t": 16.0,
            "frequency": float(est.frequency),
            "lcl": float(est.lcl),
            "bound": float(tail.value),
            "in_force": bool(tail.conditions_met),
            "threshold_floor": float(math.sqrt(2.0 * math.e * stats.contraction_v)),
        },
    }


def report_narrow_start(seed):
    """Rank-one start against rank-one sign flips: projected variance gain."""
    e = make_rademacher_rank_one(100)
    z0 = np.zeros((100, 1))
    z0[0, 0] = 1.0
    spec = ProductSpec(factors=(e,) * 50, z0=z0)
    stats, quality = projected_product_stats(spec)
    p = 2.0 * (1.0 + math.log(100))
    _, conc = lowrank_moment_bounds(stats, p)
    full = ProductStats.from_factors(
        [FactorStats(1.0, 1.0, sigma_uniform=1.0)] * 50, d=100, z0=z0)
    unprojected = concentration_moment_bound(full, p, 2.0)
    # the factors' mean is the identity, so the deviations are from z0
    dev = summarize_simulation(spec, 10_000, seed, p=p, key=(8,))[0]["deviation-norm-mean"]
    return {
        "projected_sigmas": [float(f.sigma) for f in stats.factors],
        "quality": quality,
        "concentration_bound": float(conc.value),
        "log_unprojected": float(math.log(unprojected.value)),
        "log_ratio": float(math.log(unprojected.value) - math.log(conc.value)),
        "deviation_ucl": float(dev.ci_high),
    }


def report_inverse_product(seed):
    """Inverses of perturbation products: pairing, exclusions, growth bound."""
    xi_one, v_one = inverse_perturbation_stats([0.1], [0.1])
    e = make_bounded_perturbation(4, 0.02 * np.eye(4), 0.02, 1.0)
    forward = ProductSpec(factors=(e,) * 10, z0=np.eye(4))
    inverse = ProductSpec(factors=(e,) * 10, z0=np.eye(4), mode="inverse")
    sim_f = simulate_product(forward, 4096, seed, key=(9,))
    sim_i = simulate_product(inverse, 4096, seed, key=(9,))
    worst = max(float(np.abs(z @ w - np.eye(4)).max())
                for z, w in zip(sim_f.z, sim_i.z))
    xi_bar, v_bar = inverse_perturbation_stats([0.02] * 10, [0.02] * 10)
    growth = perturbation_bounds(xi_bar, v_bar, 4, "expectation-growth")
    norm = summarize_simulation(inverse, 4096, seed, key=(9,))[0]["spectral-norm-mean"]
    return {
        "hand_pair": [float(xi_one), float(v_one)],
        "excluded": [int(sim_f.excluded), int(sim_i.excluded)],
        "worst_identity_error": worst,
        "growth_bound": float(growth.value),
        "growth_in_force": bool(growth.conditions_met),
        "inverse_norm_ucl": float(norm.ci_high),
    }


def report_adapted_product(seed):
    """History-dependent two-point factors: exact deviation vs its display."""
    hook = NormBiasedTwoPointHook(2, 0.05, 0.7)
    spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                       adapted_hook=hook, n_steps=8)
    rep = enumerate_product(spec, 2.0, 2.0)
    row = comparison_rows(spec, 2.0, 2.0, trials=0,
                          bounds=["adapted-concentration-moment"])[0][0]
    return {
        "outcomes": int(rep.outcomes),
        "deviation_mean": float(rep.deviation_mean),
        "deviation_moment": float(rep.deviation_moment),
        "bound": float(row.bound),
    }


def report_spectral_radius(seed):
    """Radius never beats the norm; conjugation shrinks the radius bound."""
    ey = np.array([[0.9, 0.5], [0.0, 0.9]])
    e = make_bounded_perturbation(2, (ey - np.eye(2)) * 2.0, 0.04, 2.0)
    spec = ProductSpec(factors=(e,) * 6, z0=np.eye(2))
    sim = simulate_product(spec, 200, seed, key=(11,))
    norms = np.linalg.svd(np.stack(sim.z), compute_uv=False)[:, 0]
    radii = np.array([np.abs(np.linalg.eigvals(z)).max() for z in sim.z])
    conj = conjugated_spec(spec, np.diag([1.0, 0.1]))
    bound_id = spectral_radius_expectation_bound(
        ProductStats.from_ensembles(spec.factors, z0=spec.z0))
    bound_cj = spectral_radius_expectation_bound(
        ProductStats.from_ensembles(conj.factors, z0=conj.z0))
    return {
        "worst_radius_excess": float((radii - norms).max()),
        "bound_identity": float(bound_id.value),
        "bound_conjugated": float(bound_cj.value),
    }


REPORT_BUILDERS = {
    "dominance-sweep": report_dominance_sweep,
    "perturbation-product": report_perturbation_product,
    "triangular-array": report_triangular_array,
    "contractive-product": report_contractive_product,
    "narrow-start": report_narrow_start,
    "inverse-product": report_inverse_product,
    "adapted-product": report_adapted_product,
    "spectral-radius": report_spectral_radius,
}

RUNTIME_LIMITS = {
    "dominance-sweep": 120.0,
    "perturbation-product": 300.0,
    "triangular-array": 300.0,
    "contractive-product": 180.0,
    "narrow-start": 180.0,
    "inverse-product": 120.0,
    "adapted-product": 30.0,
    "spectral-radius": 60.0,
}


@pytest.fixture(scope="module")
def certification():
    reports, elapsed = {}, {}
    for name, build in REPORT_BUILDERS.items():
        t0 = time.perf_counter()
        reports[name] = build(ACCEPT_SEED)
        elapsed[name] = time.perf_counter() - t0
    return reports, elapsed


# ---------------------------------------------------------------------------
# deterministic analytic checks

def test_01_uniform_smoothness_margins():
    t0 = time.perf_counter()
    rep = check_uniform_smoothness(trials=10_000, seed=ACCEPT_SEED)
    assert rep.passed and rep.violations == 0
    flat = check_uniform_smoothness(p_list=(2.0,), trials=10_000, seed=ACCEPT_SEED)
    assert flat.violations == 0
    assert -1e-10 <= flat.worst_margin <= 0.0
    took = time.perf_counter() - t0
    assert took < 30.0
    _announce("uniform smoothness",
              f"{rep.instances} margins clean, flat-case worst {flat.worst_margin:.3g}, "
              f"{took:.1f}s")


def test_02_subquadratic_mean_constant():
    t0 = time.perf_counter()
    combos = [(2, 2), (4, 2), (4, 4), (8, 2), (8, 8)]
    total = 0
    for p, q in combos:
        rep = check_subquadratic(p, q, trials=1000, seed=ACCEPT_SEED)
        assert rep.passed and rep.violations == 0, (p, q)
        total += rep.instances
    control = check_subquadratic(2, 2, trials=1000, seed=ACCEPT_SEED, constant=0.5)
    assert control.violations >= 1
    took = time.perf_counter() - t0
    assert took < 60.0
    _announce("subquadratic averages",
              f"{total} instances clean over {len(combos)} orders, "
              f"halved constant fails {control.violations} times, {took:.1f}s")


def test_03_martingale_transform_bound():
    t0 = time.perf_counter()
    reports = {}
    for p, q in [(2, 2), (4, 2), (4, 4)]:
        rep = check_martingale_bound(p, q, n=10, trials=60, seed=ACCEPT_SEED)
        assert rep.passed and rep.violations == 0, (p, q)
        reports[(p, q)] = rep
    flat = reports[(2, 2)]
    assert -1e-10 <= flat.worst_margin <= 0.0
    took = time.perf_counter() - t0
    assert took < 30.0
    _announce("martingale transforms",
              f"all paths enumerated to depth 10, flat-case equality margin "
              f"{flat.worst_margin:.3g}, {took:.1f}s")


def test_12_scalar_exponential_inequality():
    t0 = time.perf_counter()
    rep = check_number_inequality(trials=100_000, seed=ACCEPT_SEED)
    assert rep.passed and rep.violations == 0
    assert rep.instances == 100_000
    took = time.perf_counter() - t0
    assert took < 10.0
    _announce("scalar exponential inequality",
              f"{rep.instances} sequences clean, worst margin "
              f"{rep.worst_margin:.3g}, {took:.1f}s")


# ---------------------------------------------------------------------------
# randomized certification checks

def test_04_exact_enumeration_dominance(certification):
    reports, elapsed = certification
    rep = reports["dominance-sweep"]
    assert rep["violations"] == 0
    assert rep["max_outcomes"] <= 4096
    assert abs(rep["hand_ratio"] - 1.354) <= 1e-3
    assert abs(rep["hand_bound"] - 0.142135) <= 1e-5
    assert elapsed["dominance-sweep"] < RUNTIME_LIMITS["dominance-sweep"]
    _announce("exact dominance sweep",
              f"{rep['instances']} moment rows over {rep['specs']} products clean, "
              f"worst margin {rep['worst_margin']:.3g}, hand ratio {rep['hand_ratio']:.4f}")


def test_05_perturbation_product_concentration(certification):
    reports, elapsed = certification
    rep = reports["perturbation-product"]
    assert rep["deviation_ucl"] <= 0.3217
    assert rep["deviation_ucl"] <= rep["expectation_bound"]
    assert len(rep["tails"]) == 3
    for tail in rep["tails"]:
        assert tail["in_force"], tail
        assert tail["frequency"] <= tail["bound"], tail
        assert tail["lcl"] <= tail["bound"], tail
    assert elapsed["perturbation-product"] < RUNTIME_LIMITS["perturbation-product"]
    _announce("perturbation product",
              f"mean deviation {rep['deviation_mean']:.4f} "
              f"(ucl {rep['deviation_ucl']:.4f}) under 0.3217, three tails under "
              f"their displays")


def test_06_triangular_array_scaling(certification):
    reports, elapsed = certification
    rep = reports["triangular-array"]
    assert all(s <= 5.51 for s in rep["scaled_means"])
    assert all(s <= rep["scaled_bound"] for s in rep["scaled_means"])
    raw = rep["raw_means"]
    assert raw[0] > raw[1] > raw[2]
    assert elapsed["triangular-array"] < RUNTIME_LIMITS["triangular-array"]
    _announce("triangular array",
              f"scaled means {[round(s, 3) for s in rep['scaled_means']]} flat "
              f"under 5.51, raw means strictly decreasing")


def test_07_contractive_product_bounds(certification):
    reports, elapsed = certification
    rep = reports["contractive-product"]
    assert rep["max_norm"] <= 1.0 + 1e-10
    assert rep["deviation_ucl"] <= rep["concentration_bound"]
    tail = rep["tail"]
    assert tail["in_force"] and tail["t"] >= tail["threshold_floor"]
    assert tail["frequency"] <= tail["bound"]
    assert tail["lcl"] <= tail["bound"]
    assert elapsed["contractive-product"] < RUNTIME_LIMITS["contractive-product"]
    _announce("contractive product",
              f"max norm {rep['max_norm']:.12f}, deviation ucl "
              f"{rep['deviation_ucl']:.4f} under {rep['concentration_bound']:.4f}, "
              f"tail clean")


def test_08_narrow_start_projection_gain(certification):
    reports, elapsed = certification
    rep = reports["narrow-start"]
    assert rep["quality"] == "analytic"
    assert all(s == math.sqrt(1.0 / 100.0) for s in rep["projected_sigmas"])
    assert rep["log_ratio"] >= math.log(50.0)
    assert rep["deviation_ucl"] <= rep["concentration_bound"]
    assert elapsed["narrow-start"] < RUNTIME_LIMITS["narrow-start"]
    _announce("narrow start",
              f"projected sigma exactly 1/10, bound {rep['concentration_bound']:.4f} "
              f"beats the unprojected one by e^{rep['log_ratio']:.1f}, "
              f"deviation ucl {rep['deviation_ucl']:.4f}")


def test_09_inverse_product_bounds(certification):
    reports, elapsed = certification
    rep = reports["inverse-product"]
    assert abs(rep["hand_pair"][0] - 0.15) <= 1e-15
    assert abs(rep["hand_pair"][1] - 0.04) <= 1e-15
    assert rep["excluded"] == [0, 0]
    assert rep["worst_identity_error"] <= 1e-8
    assert rep["growth_in_force"]
    assert rep["inverse_norm_ucl"] <= rep["growth_bound"]
    assert elapsed["inverse-product"] < RUNTIME_LIMITS["inverse-product"]
    _announce("inverse product",
              f"hand pair (0.15, 0.04), identity error "
              f"{rep['worst_identity_error']:.2g}, norm ucl "
              f"{rep['inverse_norm_ucl']:.4f} under {rep['growth_bound']:.4f}")


def test_10_adapted_product_dominance(certification):
    reports, elapsed = certification
    rep = reports["adapted-product"]
    assert rep["outcomes"] == 256
    assert rep["deviation_mean"] <= rep["bound"]
    assert rep["deviation_moment"] <= rep["bound"]
    assert elapsed["adapted-product"] < RUNTIME_LIMITS["adapted-product"]
    _announce("adapted product",
              f"256 paths, exact deviation mean {rep['deviation_mean']:.4f} under "
              f"display {rep['bound']:.4f}")


def test_11_spectral_radius_conjugation(certification):
    reports, elapsed = certification
    rep = reports["spectral-radius"]
    assert rep["worst_radius_excess"] <= 1e-9
    assert rep["bound_conjugated"] < rep["bound_identity"]
    assert elapsed["spectral-radius"] < RUNTIME_LIMITS["spectral-radius"]
    _announce("spectral radius",
              f"radius never beats the norm (excess {rep['worst_radius_excess']:.3g}), "
              f"conjugated bound {rep['bound_conjugated']:.3f} < "
              f"{rep['bound_identity']:.3f}")


def test_13_reports_are_reproducible(certification):
    first, _ = certification
    for name, build in REPORT_BUILDERS.items():
        again = build(ACCEPT_SEED)
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(first[name], sort_keys=True), name
    _announce("reproducibility",
              f"all {len(REPORT_BUILDERS)} randomized reports byte-identical on rerun")
