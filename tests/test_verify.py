import math

import numpy as np
import pytest

from matprod import verify
from matprod.bounds import (
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
)
from matprod.ensembles import (
    FactorEnsemble,
    FactorStats,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    projected_deviation_stat,
)
from matprod.errors import (
    EnumerationInfeasibleError,
    InvalidConstructionError,
    InvalidParameterError,
    NothingToCheckError,
)
from matprod.simulate import (
    NormBiasedTwoPointHook,
    ProductSpec,
    enumerate_product,
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


def _inverse(query):
    def bound(stats, p, q):
        xi_bar, v_bar = inverse_perturbation_stats(
            [f.mean_perturbation for f in stats.factors], [f.sigma for f in stats.factors])
        return perturbation_bounds(xi_bar, v_bar, stats.d, query)
    return bound


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
    "contraction-expectation-growth": (lambda s, p, q: contraction_bounds(s)[0],
                                       "growth_mean", "spectral-norm-mean"),
    "contraction-expectation-concentration": (lambda s, p, q: contraction_bounds(s)[1],
                                              "deviation_mean", "deviation-norm-mean"),
    "lowrank-growth": (lambda s, p, q: lowrank_moment_bounds(s, p)[0], "growth_moment",
                       "schatten-moment"),
    "lowrank-concentration": (lambda s, p, q: lowrank_moment_bounds(s, p)[1],
                              "deviation_moment", "deviation-schatten-moment"),
    "adapted-growth-moment": (growth_moment_bound, "growth_moment", "schatten-moment"),
    "adapted-concentration-moment": (concentration_moment_bound, "deviation_moment",
                                     "deviation-schatten-moment"),
    "spectral-radius-expectation": (lambda s, p, q: spectral_radius_expectation_bound(s),
                                    "spectral_radius_mean", "spectral-radius-mean"),
    "inverse-expectation-growth": (_inverse("expectation-growth"), "growth_mean",
                                   "spectral-norm-mean"),
    "inverse-expectation-concentration": (_inverse("expectation-concentration"),
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
        assert set(PAIRING) == set(verify.BOUND_TABLE)
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
        plain = FactorEnsemble(dim=1, sampler=lambda rng: atoms[0],
                               stats=FactorStats(1.0, 0.1),
                               support=((atoms[0], 0.5), (atoms[1], 0.5)))
        spec = ProductSpec(factors=(plain,) * 2, z0=np.eye(1), mode="inverse")
        rows, _ = comparison_rows(spec, trials=0)
        assert all(r.skipped for r in rows)
        assert all(r.note == "factors carry no perturbation statistics" for r in rows)

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
