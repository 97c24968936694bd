import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matprod import verify
from matprod.bounds import (
    DISPLAYS,
    PerturbationStats,
    ProductStats,
    concentration_moment_bound,
    contraction_concentration_bound,
    contraction_growth_bound,
    expectation_concentration_bound,
    expectation_growth_bound,
    growth_moment_bound,
    inverse_perturbation_stats,
    perturbation_expectation_concentration_bound,
    perturbation_expectation_growth_bound,
)
from matprod.ensembles import (
    FactorEnsemble,
    FactorStats,
    SupportSampler,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    projected_deviation_stat,
    support_stats,
)
from matprod.errors import (
    EnumerationInfeasibleError,
    InvalidConstructionError,
    InvalidParameterError,
    NothingToCheckError,
)
from matprod.schatten import spectral_norm
from matprod.simulate import (
    NormBiasedTwoPointHook,
    ProductSpec,
    enumerate_product,
    spec_from_config,
    summarize_simulation,
)
from matprod.verify import (
    CompareRow,
    _Collector,
    check_bound_dominance,
    check_factor_contraction,
    check_martingale_bound,
    check_number_inequality,
    check_subquadratic,
    check_uniform_smoothness,
    comparison_rows,
    default_suite,
    projected_product_stats,
)


def count_norm_stacks(monkeypatch):
    calls = []
    norms = verify.stack_norms

    def counting(stack, p=math.inf):
        calls.append(len(stack))
        return norms(stack, p)

    monkeypatch.setattr(verify, "stack_norms", counting)
    return calls


PER_TRIAL_CHECKS = [
    pytest.param(lambda: check_subquadratic(4.0, 2.0, trials=7, seed=3), id="subquadratic"),
    pytest.param(lambda: check_martingale_bound(4.0, 3.0, n=5, trials=7, seed=3),
                 id="martingale"),
    pytest.param(lambda: check_factor_contraction(4.0, 2.0, trials=7, seed=3), id="contraction"),
]


class TestOneNormStackPerTrial:
    @pytest.mark.parametrize("check", PER_TRIAL_CHECKS + [
        pytest.param(lambda: check_uniform_smoothness(trials=40, seed=2), id="smoothness"),
        pytest.param(lambda: check_martingale_bound(2.0, 2.0, trials=9, seed=5), id="orthogonal"),
    ])
    def test_stacks_keep_each_matrix_bits(self, check, monkeypatch):
        stacked = check().to_json()
        norms = verify.stack_norms

        def one_at_a_time(stack, p=math.inf):
            return tuple(np.array(x) for x in zip(*(
                (s[0], t[0]) for s, t in (norms(m[None], p) for m in stack))))

        monkeypatch.setattr(verify, "stack_norms", one_at_a_time)
        assert check().to_json() == stacked

    @pytest.mark.parametrize("check", PER_TRIAL_CHECKS)
    def test_one_call_per_trial(self, check, monkeypatch):
        calls = count_norm_stacks(monkeypatch)
        report = check()
        # the contraction check also takes the spectral norms of its Y atoms
        # and of E Y*Y in one stack
        per_trial = 2 if report.name == "contraction-factor" else 1
        assert len(calls) == per_trial * 7
        assert report.instances >= 7 and report.passed

    def test_smoothness_takes_one_stack_per_block(self, monkeypatch):
        calls = count_norm_stacks(monkeypatch)
        report = check_uniform_smoothness(p_list=(1.5, 3.0), trials=40, seed=2)
        # four dimension blocks per p, and four random pairs at p >= 2
        assert calls[:8] == [40] * 8 and len(calls) == 12
        assert report.instances == 84 and report.passed


def _inverse(bound):
    def inverse(stats, p, q):
        xi_bar, v_bar = inverse_perturbation_stats(
            [f.mean_perturbation for f in stats.factors], [f.sigma for f in stats.factors])
        return bound(PerturbationStats(xi_bar, v_bar, stats.d))
    return inverse


# bound name -> (bound of (stats, p, q), exact EnumerationReport field, estimate key)
PAIRING = {
    "growth-moment": (growth_moment_bound, "growth_moment", "schatten-moment"),
    "concentration-moment": (concentration_moment_bound, "deviation_moment",
                             "deviation-schatten-moment"),
    "growth-mean": (growth_moment_bound, "growth_mean", "spectral-norm-mean"),
    "concentration-mean": (concentration_moment_bound, "deviation_mean",
                           "deviation-norm-mean"),
    "expectation-growth": (lambda s, p, q: expectation_growth_bound(s), "growth_mean",
                           "spectral-norm-mean"),
    "expectation-concentration": (lambda s, p, q: expectation_concentration_bound(s),
                                  "deviation_mean", "deviation-norm-mean"),
    "contraction-expectation-growth": (lambda s, p, q: contraction_growth_bound(s),
                                       "growth_mean", "spectral-norm-mean"),
    "contraction-expectation-concentration": (lambda s, p, q: contraction_concentration_bound(s),
                                              "deviation_mean", "deviation-norm-mean"),
    # the low-rank bounds are the moment bounds at q = 2, on projected stats
    "lowrank-growth": (lambda s, p, q: growth_moment_bound(s, p), "growth_moment",
                       "schatten-moment"),
    "lowrank-concentration": (lambda s, p, q: concentration_moment_bound(s, p),
                              "deviation_moment", "deviation-schatten-moment"),
    "adapted-growth-moment": (growth_moment_bound, "growth_moment", "schatten-moment"),
    "adapted-concentration-moment": (concentration_moment_bound, "deviation_moment",
                                     "deviation-schatten-moment"),
    "spectral-radius-expectation": (lambda s, p, q: expectation_growth_bound(s),
                                    "spectral_radius_mean", "spectral-radius-mean"),
    "inverse-expectation-growth": (_inverse(perturbation_expectation_growth_bound),
                                   "growth_mean", "spectral-norm-mean"),
    "inverse-expectation-concentration": (_inverse(perturbation_expectation_concentration_bound),
                                          "deviation_mean", "deviation-norm-mean"),
}


def scalar_spec(n=2, radius=0.1, mean=0.0):
    e = make_bounded_perturbation(1, mean * np.ones((1, 1)), radius, 1.0)
    return ProductSpec(factors=(e,) * n, z0=np.eye(1))


class TestUniformSmoothness:
    def test_small_run_clean(self):
        rep = check_uniform_smoothness(trials=200, seed=1729)
        assert rep.passed
        assert rep.name == "uniform-smoothness"
        assert rep.instances >= 200
        assert rep.worst_margin >= -rep.tolerance

    def test_equality_slice(self):
        rep = check_uniform_smoothness(p_list=(2.0,), trials=100, seed=3)
        assert rep.passed
        # two-sided at p = 2: margins hug zero from below
        assert -1e-10 <= rep.worst_margin <= 0.0

    def test_p_validation(self):
        with pytest.raises(InvalidParameterError):
            check_uniform_smoothness(p_list=(0.5,), trials=10)
        with pytest.raises(InvalidParameterError):
            check_uniform_smoothness(p_list=(math.inf,), trials=10)


class TestSubquadratic:
    def test_clean(self):
        for p, q in [(2.0, 2.0), (4.0, 2.0)]:
            rep = check_subquadratic(p, q, trials=150, seed=1729)
            assert rep.passed, (p, q, rep.worst_margin)
            assert rep.name == "subquadratic"
            # strong and weak variant per instance
            assert rep.instances == 300

    def test_negative_control_fires(self):
        rep = check_subquadratic(2.0, 2.0, trials=50, seed=1729, constant=0.5)
        assert rep.name == "subquadratic-constant-0.5"
        assert rep.violations >= 1
        assert not rep.passed
        assert rep.failures
        assert rep.failures[0]["margin"] < 0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            check_subquadratic(2.0, 4.0, trials=1)
        with pytest.raises(InvalidParameterError):
            check_subquadratic(4.0, 1.0, trials=1)

    def test_rejects_uncentered_construction(self):
        biased = [(np.zeros((1, 1)), [(np.ones((1, 1)), 1.0)])]
        with pytest.raises(InvalidConstructionError):
            verify._validate_states(biased)

    def test_rejects_bad_probabilities(self):
        y = np.ones((1, 1))
        lopsided = [(np.zeros((1, 1)), [(y, 0.4), (-y, 0.4)])]
        with pytest.raises(InvalidConstructionError):
            verify._validate_states(lopsided)


class TestMartingale:
    def test_equality_at_p2(self):
        rep = check_martingale_bound(2.0, 2.0, n=5, trials=30, seed=1729)
        assert rep.passed
        assert -1e-10 <= rep.worst_margin <= 0.0

    def test_clean_above_two(self):
        rep = check_martingale_bound(4.0, 2.0, n=5, trials=30, seed=1729)
        assert rep.passed
        assert rep.worst_margin >= 0.0

    def test_path_budget(self):
        with pytest.raises(EnumerationInfeasibleError):
            check_martingale_bound(2.0, 2.0, n=17, trials=1)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            check_martingale_bound(2.0, 3.0, trials=1)


class TestFactorContraction:
    def test_clean(self):
        rep = check_factor_contraction(4.0, 2.0, trials=120, seed=1729)
        assert rep.passed
        assert rep.instances == 120

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            check_factor_contraction(2.0, 4.0, trials=1)


class TestNumberInequality:
    def test_clean(self):
        rep = check_number_inequality(trials=20_000, seed=1729)
        assert rep.passed
        assert rep.instances == 20_000


class TestComparisonRows:
    def test_scalar_hand_values(self):
        rows, meta = comparison_rows(scalar_spec(), p=2.0, q=2.0, trials=0,
                                     bounds=["concentration-mean"])
        assert meta["source"] == "enumeration"
        assert meta["outcomes"] == 4
        (row,) = rows
        assert row.quantity == "concentration-mean"
        assert row.empirical_kind == "exact"
        assert row.empirical == pytest.approx(0.105, rel=1e-14)
        assert row.bound == pytest.approx(0.14213141815501529, rel=1e-14)
        assert row.ratio == pytest.approx(1.3536325538572885, rel=1e-12)

    def test_deterministic_ratio_is_exactly_one(self):
        rows, _ = comparison_rows(scalar_spec(radius=0.0, mean=0.2), p=2.0,
                                  q=2.0, trials=0, bounds=["growth-moment"])
        assert rows[0].ratio == 1.0

    def test_default_bound_set_square_independent(self):
        rows, _ = comparison_rows(scalar_spec(), trials=0)
        names = [r.quantity for r in rows]
        assert names == ["growth-moment", "concentration-moment",
                         "expectation-growth", "expectation-concentration",
                         "spectral-radius-expectation"]

    def test_exact_tail_rows(self):
        rows, _ = comparison_rows(scalar_spec(), trials=0, bounds=[],
                                  thresholds_growth=(1.2,),
                                  thresholds_deviation=(0.2,))
        growth, dev = rows
        assert growth.quantity == "tail-growth@1.2"
        assert growth.empirical == pytest.approx(0.25, rel=1e-14)
        assert growth.threshold == pytest.approx(1.2, rel=1e-14)
        assert growth.conditions_met
        assert dev.quantity == "tail-concentration@0.2"
        assert dev.empirical == pytest.approx(0.25, rel=1e-14)

    def test_condition_violated_tail_is_skipped(self):
        rows, _ = comparison_rows(scalar_spec(), trials=0, bounds=[],
                                  thresholds_growth=(1.005,))
        (row,) = rows
        assert row.skipped
        assert row.note == "condition violated"
        assert math.isinf(row.bound)

    def test_monte_carlo_rows_carry_limits(self):
        rows, meta = comparison_rows(scalar_spec(), trials=128, seed=5,
                                     bounds=["expectation-concentration"])
        assert meta["source"] == "monte-carlo"
        assert meta["trials"] == 128
        (row,) = rows
        assert row.empirical_kind == "estimate"
        assert row.limit is not None
        assert row.empirical <= row.limit

    def test_fallback_downgrades_with_notice(self):
        spec = scalar_spec(n=21)
        with pytest.raises(EnumerationInfeasibleError):
            comparison_rows(spec, trials=0, bounds=["expectation-growth"])
        rows, meta = comparison_rows(spec, trials=0,
                                     bounds=["expectation-growth"],
                                     mc_fallback_trials=64)
        assert meta["notice"] == "enumeration infeasible; downgraded to Monte Carlo"
        assert meta["source"] == "monte-carlo"
        assert meta["trials"] == 64
        assert rows[0].empirical_kind == "estimate"

    def test_unknown_bound_name(self):
        with pytest.raises(InvalidParameterError):
            comparison_rows(scalar_spec(), trials=0, bounds=["no-such-bound"])

    def test_unknown_bound_name_rejected_before_any_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the bound names were checked")

        monkeypatch.setattr(verify, "summarize_simulation", fail)
        monkeypatch.setattr(verify, "enumerate_product", fail)
        for trials in (0, 16):
            with pytest.raises(InvalidParameterError, match="no-such-bound"):
                comparison_rows(scalar_spec(), trials=trials,
                                bounds=["growth-moment", "no-such-bound"])

    def test_every_bound_name_pairs_with_its_empirical_value(self, monkeypatch):
        # stats that put every bound in force: contraction and perturbation
        # statistics, and a projected rank so the low-rank bounds use them as given
        factor = FactorStats(0.95, 0.05, sigma_uniform=0.1, contraction=0.9,
                             mean_perturbation=0.01)
        stats = ProductStats.from_factors([factor] * 3, 2, np.eye(2), projected_rank=2)
        monkeypatch.setattr(verify, "_stats_for_spec", lambda spec: stats)
        spec = ProductSpec((make_bounded_perturbation(2, 0.1 * np.eye(2), 0.3, 3.0),) * 3,
                           np.eye(2))
        p, q = 3.0, 2.0
        assert set(PAIRING) == {n for n, d in DISPLAYS.items()
                                if d.estimate and "t" not in d.args}
        exact = enumerate_product(spec, p, q)
        estimates = summarize_simulation(spec, 40, 9, p, q)[0]
        for trials in (0, 40):
            rows, _ = comparison_rows(spec, p, q, trials=trials, seed=9,
                                      bounds=list(PAIRING))
            assert [r.quantity for r in rows] == list(PAIRING)
            for row, (bound, field, key) in zip(rows, PAIRING.values()):
                assert not row.skipped, row.quantity
                assert row.bound == bound(stats, p, q).value, row.quantity
                want = getattr(exact, field) if trials == 0 else estimates[key].mean
                assert row.empirical == want, row.quantity

    def test_monte_carlo_decomposes_each_trial_stack_once(self, svd_shapes):
        e = make_bounded_perturbation(3, 0.2 * np.eye(3), 0.5, 8)
        spec = ProductSpec(factors=(e,) * 8, z0=np.eye(3))
        comparison_rows(spec, trials=50, thresholds_growth=(2.0,),
                        thresholds_deviation=(1.5,))
        # the products and their deviations in one norm stack
        assert [s for s in svd_shapes if len(s) == 3] == [(100, 3, 3)]

    def test_spectral_radius_of_rectangular_product_is_skipped(self):
        # a rectangular product has no spectral radius, exact or estimated
        e = make_bounded_perturbation(2, np.zeros((2, 2)), 0.1, 2.0)
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(2)[:, :1])
        for trials in (0, 16):
            (row,) = comparison_rows(spec, trials=trials,
                                     bounds=["spectral-radius-expectation"])[0]
            assert row.skipped
            assert row.note == "no empirical value available"

    def test_inverse_rows_exact_dominance(self):
        e = make_bounded_perturbation(2, 0.1 * np.eye(2), 0.1, 3.0)
        spec = ProductSpec(factors=(e,) * 3, z0=np.eye(2), mode="inverse")
        rows, meta = comparison_rows(spec, trials=0)
        assert meta["outcomes"] == 8
        names = [r.quantity for r in rows]
        assert names == ["inverse-expectation-growth",
                         "inverse-expectation-concentration"]
        for row in rows:
            assert not row.skipped
            assert row.bound >= row.empirical

    def test_inverse_rows_skip_without_perturbation_stats(self):
        atoms = (np.array([[0.9]]), np.array([[1.1]]))
        plain = FactorEnsemble(dim=1, sampler=SupportSampler(atoms, (0.5, 0.5)),
                               stats=FactorStats(1.0, 0.1))
        spec = ProductSpec(factors=(plain,) * 2, z0=np.eye(1), mode="inverse")
        rows, _ = comparison_rows(spec, trials=0)
        assert all(r.skipped for r in rows)
        assert all(r.note == "factors carry no perturbation statistics" for r in rows)

    def test_contraction_rows_skip_without_contraction_stats(self):
        # named, as a default set would not list them for these stats
        spec = ProductSpec((make_rademacher_rank_one(3),) * 2, np.eye(3))
        for trials in (0, 16):
            growth, contraction = comparison_rows(
                spec, trials=trials,
                bounds=["growth-moment", "contraction-expectation-growth"])[0]
            assert not growth.skipped
            assert contraction.skipped and math.isnan(contraction.bound)
            assert contraction.note == "factors carry no contraction statistics"

    def test_lowrank_rows_exact(self):
        e = make_rademacher_rank_one(6)
        spec = ProductSpec(factors=(e,) * 4, z0=np.eye(6)[:, :1])
        rows, meta = comparison_rows(spec, p=4.0, q=2.0, trials=0,
                                     bounds=["lowrank-growth", "lowrank-concentration"])
        assert meta["outcomes"] == 12 ** 4
        growth, conc = rows
        assert growth.quality is None and "quality" not in growth.to_json()
        assert growth.bound == pytest.approx(math.e, rel=1e-12)
        assert growth.bound >= growth.empirical
        assert conc.bound >= conc.empirical

    def test_adapted_rows_exact(self):
        hook = NormBiasedTwoPointHook(2, scale=0.05, high=0.7)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                           adapted_hook=hook, n_steps=8)
        rows, meta = comparison_rows(spec, p=2.0, q=2.0, trials=0)
        assert meta["outcomes"] == 256
        names = [r.quantity for r in rows]
        assert names == ["adapted-growth-moment", "adapted-concentration-moment"]
        for row in rows:
            assert row.bound >= row.empirical


class TestCollectorNaN:
    def test_add_counts_nan_as_violation(self):
        col = _Collector("nan-check", 1e-9, seed=0)
        col.add(0.5, detail={"row": 0})
        col.add(math.nan, detail={"row": 1})
        col.add(-1.0)  # a violation without detail records no failure
        rep = col.report()
        assert (rep.instances, rep.violations, rep.passed) == (3, 2, False)
        assert math.isnan(rep.worst_margin)
        assert len(rep.failures) == 1
        assert rep.failures[0]["row"] == 1 and math.isnan(rep.failures[0]["margin"])

    def test_add_many_counts_nan_as_violation(self):
        col = _Collector("nan-check", 1e-9, seed=0)
        col.add_many([0.25, math.nan, 0.5])
        rep = col.report()
        assert (rep.instances, rep.violations, rep.passed) == (3, 1, False)
        assert math.isnan(rep.worst_margin)
        assert len(rep.failures) == 1
        assert math.isnan(rep.failures[0]["worst_batch_margin"])

    def test_finite_margins_unchanged(self):
        col = _Collector("finite", 0.1, seed=0)
        col.add(-0.05)
        col.add_many([0.2, -0.3, math.inf])
        rep = col.report()
        assert (rep.instances, rep.violations, rep.worst_margin) == (4, 1, -0.3)
        assert rep.failures == [{"worst_batch_margin": -0.3}]
        assert _Collector("empty", 0.1, seed=0).report().worst_margin == math.inf


class TestBoundDominance:
    def test_exact_scalar_clean(self):
        rep = check_bound_dominance(scalar_spec(), p=2.0, q=2.0, trials=0)
        assert rep.passed
        assert "source=enumeration" in rep.notes

    def test_skipped_rows_are_noted_not_counted(self):
        rep = check_bound_dominance(scalar_spec(), trials=0,
                                    thresholds_growth=(1.005,))
        assert rep.passed
        assert any("skipped tail-growth@1.005" in n for n in rep.notes)

    def test_monte_carlo_uses_confidence_limits(self):
        rep = check_bound_dominance(
            scalar_spec(), trials=256,
            bounds=["expectation-growth", "expectation-concentration"],
            thresholds_growth=(1.2,))
        assert rep.passed
        assert "source=monte-carlo" in rep.notes

    def test_monte_carlo_rows_fail_on_their_confidence_limits(self, monkeypatch):
        def row(quantity, empirical, bound, limit):
            # a tail row carries its threshold, as comparison_rows builds it
            _, _, threshold = quantity.partition("@")
            return CompareRow(quantity, empirical, "estimate", bound, quantity, limit=limit,
                              threshold=float(threshold) if threshold else None)

        violated = [
            # the mean's UCL is above the bound, though the mean is below it
            (row("expectation-growth", 1.0, 1.1, 1.2), "ucl"),
            # the tail frequency's LCL is above the bound
            (row("tail-growth@1.2", 0.3, 0.1, 0.2), "lcl"),
            (row("contraction-tail@0.5", 0.3, 0.1, 0.2), "lcl"),
        ]
        passing = [
            # LCL <= bound passes, even with the frequency above the bound
            row("tail-concentration@0.5", 0.1, 0.05, 0.0),
            row("expectation-concentration", 0.5, 1.0, 0.9),
            # an infinite bound dominates every limit: its margin is +inf, not NaN
            row("growth-moment", 1.0, math.inf, 1.1),
        ]

        def check(r):
            monkeypatch.setattr(verify, "comparison_rows",
                                lambda *args: ([r], {"source": "monte-carlo"}))
            rep = check_bound_dominance(scalar_spec(), trials=40)
            assert rep.instances == 1
            return rep

        for r, limit in violated:
            rep = check(r)
            assert rep.violations == 1
            assert rep.failures == [{"quantity": r.quantity, limit: r.limit, "bound": r.bound,
                                     "margin": (r.bound - r.limit) / r.bound}]
        for r in passing:
            rep = check(r)
            assert rep.passed and rep.failures == []
        assert rep.worst_margin == math.inf

    def test_nothing_to_check(self):
        with pytest.raises(NothingToCheckError):
            check_bound_dominance(scalar_spec(), trials=0, bounds=[])
        with pytest.raises(NothingToCheckError):
            check_bound_dominance(scalar_spec(n=21), trials=0)

    def test_inverse_exact(self):
        e = make_bounded_perturbation(2, 0.1 * np.eye(2), 0.1, 3.0)
        spec = ProductSpec(factors=(e,) * 3, z0=np.eye(2), mode="inverse")
        rep = check_bound_dominance(spec, trials=0)
        assert rep.passed

    def test_adapted_exact(self):
        hook = NormBiasedTwoPointHook(2, scale=0.05, high=0.7)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted",
                           adapted_hook=hook, n_steps=8)
        rep = check_bound_dominance(spec, p=2.0, q=2.0, trials=0)
        assert rep.passed

    def test_lower_estimate_rows_are_noted_not_counted(self):
        # uniform-sphere factors have no closed-form projected deviation, so
        # the low-rank bounds of a one-column product rest on sampled sigmas
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.3, 3.0, support="uniform-sphere")
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(3)[:, :1])
        bounds = ["lowrank-growth", "lowrank-concentration", "growth-moment"]
        rows, _ = comparison_rows(spec, trials=64, bounds=bounds)
        assert [r.quality for r in rows] == ["lower-estimate", "lower-estimate", None]
        assert [r.to_json().get("quality") for r in rows] == ["lower-estimate",
                                                              "lower-estimate", None]
        assert not any(r.skipped for r in rows)
        rep = check_bound_dominance(spec, trials=64, bounds=bounds)
        assert rep.instances == 1
        for name in bounds[:2]:
            assert f"skipped {name}: lower-estimate bound, not certified" in rep.notes


def finite_ensemble(atoms, probs):
    """A factor that samples the given atoms, with its exact support stats."""
    e = FactorEnsemble(dim=atoms.shape[1], sampler=SupportSampler(atoms, probs),
                       stats=FactorStats(1.0, 0.0))
    return replace(e, stats=support_stats(e))


@st.composite
def dominance_cases(draw):
    """(spec, p, growth thresholds, deviation thresholds, bound names): random
    finite-support products from identity, unit-norm rectangular or scaled
    starts, with only the displays whose needs their stats meet."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ensembles = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, 3))
        style = draw(st.sampled_from(["identity-plus", "gaussian", "diagonal"]))
        if style == "diagonal":
            atoms = rng.standard_normal((k, d))[:, None, :] * np.eye(d)
        else:  # I + G_1 + s G_2, or G_1 + s G_2, with Gaussian G_1, G_2
            atoms = (float(style == "identity-plus") * np.eye(d)
                     + draw(st.floats(0.05, 1.0)) * rng.standard_normal((k, d, d))
                     + draw(st.floats(0.0, 0.5)) * rng.standard_normal((k, d, d)))
        probs = rng.random(k) + 0.1
        probs = tuple(probs / probs.sum())
        if draw(st.booleans()):  # rescale to a mean-square contraction stat below 1
            c = math.sqrt(spectral_norm(np.einsum("k,kji,kjl->il", probs, atoms, atoms)))
            atoms *= draw(st.floats(0.9, 0.99)) / c
        ensembles.append(finite_ensemble(atoms, probs))
    if draw(st.booleans()):
        z0 = np.eye(d)
    else:
        z0 = rng.standard_normal((d, draw(st.integers(1, 3))))
        z0 /= spectral_norm(z0)
    z0 = z0 * draw(st.one_of(st.just(1.0), st.floats(0.2, 4.0)))
    spec = ProductSpec(tuple(ensembles[i % len(ensembles)] for i in range(n)), z0)
    stats = ProductStats.from_ensembles(spec.factors, z0)
    names = ["growth-moment", "concentration-moment", "growth-mean", "concentration-mean",
             "expectation-growth", "expectation-concentration"]
    if stats.contraction_M is not None:
        names += ["contraction-expectation-growth", "contraction-expectation-concentration"]
    if spec.d == spec.r:
        names.append("spectral-radius-expectation")
    growth = draw(st.lists(st.floats(1.05, 4.0), max_size=2))
    deviation = draw(st.lists(st.floats(0.1, 3.0), max_size=2))
    return spec, draw(st.sampled_from([2.0, 3.0, 4.0])), growth, deviation, names


class TestDominanceProperty:
    """Every in-force bound dominates the exact truth, whatever the start."""

    @given(dominance_cases())
    def test_exact_rows_dominate(self, case):
        spec, p, growth, deviation, names = case
        rep = check_bound_dominance(spec, p=p, q=2.0, trials=0, bounds=names,
                                    thresholds_growth=growth, thresholds_deviation=deviation)
        assert rep.tolerance == verify.TOLERANCE
        assert rep.violations == 0, rep.failures

    def test_spectral_displays_carry_the_start_norm(self):
        # from 3I, the Z_0 = I displays lay below the exact mean and tail
        config = {"factors": [{"count": 4, "ensemble": {
            "kind": "bounded-perturbation", "dim": 2, "radius": 0.5, "n_scale": 4}}],
            "z0": {"rows": 2, "cols": 2, "data": [3.0, 0.0, 0.0, 3.0]}}
        spec = spec_from_config(config)
        rows, _ = comparison_rows(spec, trials=0, thresholds_growth=(1.5,))
        by_name = {r.quantity: r for r in rows}
        for name in ("expectation-growth", "spectral-radius-expectation", "tail-growth@1.5"):
            row = by_name[name]
            assert row.conditions_met and not row.skipped
            assert row.bound >= row.empirical
        assert by_name["expectation-growth"].empirical == pytest.approx(3.5596, abs=1e-4)
        assert by_name["tail-growth@1.5"].threshold == pytest.approx(
            4.5 * ProductStats.from_ensembles(spec.factors, spec.z0).M)
        assert check_bound_dominance(spec, trials=0).violations == 0
        assert check_bound_dominance(spec, trials=0, thresholds_growth=(1.5,)).violations == 0

    def test_contraction_clip_takes_the_uniform_norm(self):
        # E Y^T Y = 0.99^2 I, yet each atom has norm 0.99 sqrt 2 > 1
        a = 0.99 * math.sqrt(2.0)
        e = finite_ensemble(np.array([np.diag([a, 0.0]), np.diag([0.0, a])]), (0.5, 0.5))
        assert e.stats.contraction == pytest.approx(0.99)
        assert e.stats.uniform_norm > 1.0
        spec = ProductSpec((e,), np.eye(2))
        rows, _ = comparison_rows(spec, trials=0, bounds=["contraction-expectation-growth"])
        assert rows[0].empirical == pytest.approx(1.40007, abs=1e-5)
        assert rows[0].bound >= rows[0].empirical
        assert check_bound_dominance(spec, trials=0).violations == 0


class TestCompareRowJson:
    def test_nan_empirical_omitted(self):
        row = CompareRow("x", math.nan, "none", 1.0, "x", skipped=True)
        out = row.to_json()
        assert "empirical" not in out
        assert "ratio" not in out
        assert "note" not in out
        assert "quality" not in out
        assert out["skipped"] is True

    def test_full_row_round_trips_fields(self):
        row = CompareRow("x", 0.5, "exact", 1.0, "x", limit=0.6,
                         threshold=2.0, ratio=2.0, note="hi", quality="lower-estimate")
        out = row.to_json()
        assert out["empirical"] == 0.5
        assert out["limit"] == 0.6
        assert out["threshold"] == 2.0
        assert out["note"] == "hi"
        assert out["quality"] == "lower-estimate"


class TestProjectedProductStats:
    def test_analytic_quality(self):
        e = make_rademacher_rank_one(6)
        spec = ProductSpec(factors=(e,) * 4, z0=np.eye(6)[:, :1])
        stats, quality = projected_product_stats(spec)
        assert quality == "analytic"
        assert stats.projected_rank == 1
        for f in stats.factors:
            assert f.sigma == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-14)

    def test_sampled_quality_flagged(self):
        e = make_bounded_perturbation(3, np.zeros((3, 3)), 0.3, 3.0,
                                      support="uniform-sphere")
        spec = ProductSpec(factors=(e,) * 2, z0=np.eye(3)[:, :1])
        stats, quality = projected_product_stats(spec)
        assert quality == "lower-estimate"

    def test_one_projected_stat_per_distinct_ensemble(self, monkeypatch):
        calls = []

        def counted(e, rank):
            calls.append(e)
            return projected_deviation_stat(e, rank)

        monkeypatch.setattr(verify, "projected_deviation_stat", counted)
        sampled = make_bounded_perturbation(3, np.zeros((3, 3)), 0.3, 3.0,
                                            support="uniform-sphere")
        analytic = make_rademacher_rank_one(3)
        spec = ProductSpec(factors=(sampled, analytic) * 3, z0=np.eye(3)[:, :1])
        stats, quality = projected_product_stats(spec)
        assert calls == [sampled, analytic]
        assert quality == "lower-estimate"
        sigmas = [f.sigma for f in stats.factors]
        assert sigmas == sigmas[:2] * 3
        assert sigmas[1] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)


class TestDefaultSuite:
    def test_suite_is_clean_with_firing_control(self):
        reports, ok = default_suite(seed=1729)
        assert ok
        assert len(reports) == 15
        controls = [(r, flag) for r, flag in reports if flag]
        assert len(controls) == 1
        control, _ = controls[0]
        assert control.name == "subquadratic-constant-0.5"
        assert control.violations >= 1
        for rep, is_control in reports:
            if not is_control:
                assert rep.passed, rep.name
